"""Benchmark of the ainfty library and CLI.  Run from the root of a checkout:

    python3 bench/run.py --workload {growth,queries,cli} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing installed.  ``--trace 1`` runs a fixed number of rounds untraced,
then the same rounds traced, and reports the per-layer metrics.  Human-
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import layers  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("growth", "queries", "cli")
SETUP_REPEATS = 3      # set-up runs per measured run; setup_s is their median
IMPORT_REPEATS = 3     # cold imports per traced run; cli.import_ms is their median
TRACED_ROUNDS = {"growth": 1, "queries": 2, "cli": 1}
MAX_REPORTED_ERRORS = 5


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def require_source():
    """Exit with code 2 unless the checkout holds the library's source."""
    if not (SRC / "ainfty" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ainfty source under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def make_fixture(workload: str, seed: int, workdir: Path):
    if workload == "cli":
        return workloads.Cli(seed, workdir, child_env())
    import ainfty
    if Path(ainfty.__file__).resolve().parent != SRC / "ainfty":
        sys.stderr.write(f"bench: imported ainfty from {ainfty.__file__}, not {SRC}\n")
        sys.exit(2)
    return workloads.Growth(seed) if workload == "growth" else workloads.Queries()


def rounds(workload: str, seed: int):
    return {"growth": workloads.growth_rounds, "queries": workloads.queries_rounds,
            "cli": workloads.cli_rounds}[workload](seed)


def op_kind(op) -> str:
    return op[1] if op[0] == "growth.fit" else op[0]


class Pass:
    """Latencies and outcomes of the ops of one measured pass."""

    def __init__(self):
        self.latency, self.kinds, self.failed, self.wall = [], [], 0, 0.0
        self.round_ends, self.round_walls = [], []    # op count and seconds per round
        self.errors = []

    @property
    def attempted(self) -> int:
        return len(self.latency)

    def rounds(self) -> list:
        """(latencies, wall seconds) of each round."""
        starts = [0] + self.round_ends[:-1]
        return [(self.latency[a:b], w)
                for a, b, w in zip(starts, self.round_ends, self.round_walls)]


def run_pass(fixture, stream, *, seconds=None, n_rounds=None) -> Pass:
    """Run whole rounds: ``n_rounds`` of them, or as many as are expected to
    fit in ``seconds`` (at least one)."""
    out = Pass()
    t_start = t_round = time.perf_counter()
    for done, ops in enumerate(stream, start=1):
        for op in ops:
            t0 = time.perf_counter()
            try:
                result, err = fixture.call(op), None
            except Exception:  # a failed op is counted, not fatal
                err = traceback.format_exc(limit=3)
            out.latency.append(time.perf_counter() - t0)
            out.kinds.append(op_kind(op))
            if err is None:
                try:
                    err = None if fixture.check(op, result) else "wrong answer"
                except Exception:  # an unparsable result is a wrong answer
                    err = traceback.format_exc(limit=3)
            if err is not None:
                out.failed += 1
                if len(out.errors) < MAX_REPORTED_ERRORS:
                    out.errors.append(f"{op!r:.300}: {err}")
        now = time.perf_counter()
        out.round_ends.append(len(out.latency))
        out.round_walls.append(now - t_round)
        t_round, elapsed = now, now - t_start
        if (done >= n_rounds) if n_rounds else (elapsed * (done + 1) / done > seconds):
            break
    out.wall = time.perf_counter() - t_start
    return out


def timed_children(cmds, env) -> list:
    """Wall seconds of each command, run one at a time; each must exit 0."""
    times = []
    for cmd in cmds:
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise RuntimeError(f"{cmd[1:]} exited {p.returncode}: "
                               f"{p.stderr.decode(errors='replace')[-2000:]}")
    return times


def setup_seconds(workload: str, seed: int) -> list:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    return timed_children([cmd] * SETUP_REPEATS, os.environ.copy())


def import_ms() -> float:
    cmd = [sys.executable, "-c", "import ainfty.cli"]
    return 1e3 * statistics.median(timed_children([cmd] * IMPORT_REPEATS, child_env()))


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(workload: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "seed": seed,
            "commit": commit, "platform": platform.platform()}


def describe(name: str, values, note: str = ""):
    print(f"# {name}: {values}{'  ' + note if note else ''}")


def end_to_end(workload: str, seed: int, seconds: int, fixture, setups) -> tuple:
    p = run_pass(fixture, rounds(workload, seed), seconds=seconds)
    # Rates and the median and p90 latency are taken per round, and their
    # median over rounds is reported, so that a burst of machine noise moves
    # one round, not the result.  p99 pools all ops: a queries round has too
    # few ops for ten beyond its own p99.
    lat, per_round = p.latency, p.rounds()
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "fit_s": med(statistics.fmean(xs) for xs, _ in per_round),
        "ops_per_s": med(len(xs) / w for xs, w in per_round),
        "latency_p50_ms": 1e3 * med(med(xs) for xs, _ in per_round),
        "latency_p90_ms": 1e3 * med(percentile(xs, 90) for xs, _ in per_round),
        "latency_p99_ms": 1e3 * percentile(lat, 99),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    describe("setup runs (s)", [round(s, 4) for s in setups])
    describe("rounds", f"{len(per_round)} of {len(lat) // len(per_round)} ops, "
             f"{p.wall:.2f} s; ops/s by round {[round(len(xs) / w, 1) for xs, w in per_round]}")
    for q, xs in ((90, per_round[0][0]), (99, lat)):
        beyond = sum(x > percentile(xs, q) for x in xs)
        describe(f"latency_p{q}_ms samples", f"{len(xs)} ops, {beyond} beyond")
    by_kind = {}
    for k, x in zip(p.kinds, lat):
        by_kind.setdefault(k, []).append(x)
    for k, xs in sorted(by_kind.items()):
        describe(f"op {k}", f"n={len(xs)} median {1e3 * statistics.median(xs):.3f} ms "
                 f"share {sum(xs) / sum(lat):.3f}")
    return p, metrics


def per_layer(workload: str, seed: int, fixture) -> tuple:
    n = TRACED_ROUNDS[workload]
    plain = run_pass(fixture, rounds(workload, seed), n_rounds=n)
    rec = layers.Recorder()
    if workload == "cli":
        fixture.child = BENCH / "cli_child.py"
        traced = run_pass(fixture, rounds(workload, seed), n_rounds=n)
        fixture.child = None
        for path in fixture.spans:
            with open(path, encoding="utf-8") as fh:
                rec.merge(json.load(fh))
    else:
        rec.install()
        try:
            traced = run_pass(fixture, rounds(workload, seed), n_rounds=n)
        finally:
            rec.uninstall()
    metrics = layers.layer_metrics(rec)
    metrics["cli.import_ms"] = import_ms()
    for sub in layers.CLI_SUBCOMMANDS:
        xs = [x for k, x in zip(plain.kinds, plain.latency) if k == sub]
        metrics[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(xs) if xs else 0.0
    metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
    describe("untraced / traced pass (s)", f"{plain.wall:.3f} / {traced.wall:.3f}, "
             f"{len(rec)} spans")
    both = Pass()
    both.latency, both.failed = plain.latency + traced.latency, plain.failed + traced.failed
    both.errors = plain.errors + traced.errors
    return both, metrics, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the workload and exit (times setup_s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    require_source()
    bench = spec()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_only:
            make_fixture(args.workload, args.seed, Path(tmp))
            return 0
        env = environment(args.seed)
        print("# environment " + json.dumps(env, sort_keys=True))
        setups = [] if args.trace else setup_seconds(args.workload, args.seed)
        fixture = make_fixture(args.workload, args.seed, Path(tmp))
        if args.trace:
            result, metrics, rec = per_layer(args.workload, args.seed, fixture)
            rec.write(OUT / f"spans-{args.workload}-{args.seed}.json.gz",
                      {"environment": env, "workload": args.workload})
            wanted = bench["per_layer"]
        else:
            result, metrics = end_to_end(args.workload, args.seed, args.seconds, fixture, setups)
            wanted = bench["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for err in result.errors:
        sys.stderr.write(f"bench: failed op {err}\n")
    describe("fail_ratio", f"{result.failed / result.attempted:.6f}",
             f"({result.failed} of {result.attempted} ops)")
    for m in wanted:
        describe(m["name"], f"{metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
