"""Tests of the benchmark itself.  Run from the root of the checkout:

    python3 -m pytest bench/tests
"""
import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
STREAMS = {"growth": workloads.growth_rounds, "queries": workloads.queries_rounds,
           "cli": workloads.cli_rounds}


def _head(workload, seed, n_rounds=2):
    return list(itertools.islice(STREAMS[workload](seed), n_rounds))


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_same_seed_same_stream(workload):
    assert _head(workload, 7) == _head(workload, 7)


@pytest.mark.parametrize("workload", sorted(STREAMS))
def test_different_seeds_different_streams(workload):
    assert _head(workload, 7) != _head(workload, 8)


def test_cli_inputs_follow_the_seed():
    assert workloads.cli_inputs(3) == workloads.cli_inputs(3)
    assert workloads.cli_inputs(3) != workloads.cli_inputs(4)


def test_rounds_hold_the_fixed_mix():
    ops = _head("queries", 1, 1)[0]
    counts = {k: sum(op[0] == k for op in ops) for k in workloads.QUERY_ROUND}
    assert counts == workloads.QUERY_ROUND
    cli = _head("cli", 1, 1)[0]
    assert len(cli) == len(workloads.CLI_ROUND) + 1
    assert len({op[1] for op in cli}) == len(workloads.CLI_ROUND)   # one repeat


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert {w["name"] for w in SPEC["workloads"]} == set(STREAMS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n), n
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(trace):
    p = _run("--workload", "queries", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in _result(trace).items()} == want


def test_traced_counts_repeat_for_a_seed():
    first, second = _result("1"), _result("1")
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts and all(first[k]["value"] == second[k]["value"] for k in counts)
    assert first["config.zeta_calls"]["value"] > 0


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = _run("--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def _synthetic(spans):
    """A recorder holding (name, start, end, parent, size) spans."""
    rec = layers.Recorder()
    for name, s, e, p, z in spans:
        rec.names.append(name)
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.size.append(z)
    return rec


def test_self_time_is_duration_minus_child_coverage():
    rec = _synthetic([
        ("potential.phi", 0.0, 10.0, -1, 0),
        ("config.phi_tail", 1.0, 4.0, 0, 0),
        ("config.log_tail", 1.5, 2.0, 1, 0),
        ("config.zeta", 3.0, 6.0, 0, 0),        # overlaps its sibling: union is 1..6
        ("config.zeta", 9.0, 11.0, 0, 0),       # runs past its parent: clipped at 10
        ("quotient.class_of", 20.0, 21.0, -1, 0),
    ])
    assert layers.self_times(rec) == pytest.approx([4.0, 2.5, 0.5, 3.0, 2.0, 1.0])
    m = layers.layer_metrics(rec)
    assert m["potential.self_s"] == pytest.approx(4.0)
    assert m["config.self_s"] == pytest.approx(8.0)
    assert m["quotient.self_s"] == pytest.approx(1.0)
    assert m["config.tail_s"] == pytest.approx(3.0)     # the nested log_tail counts once
    assert m["config.zeta_calls"] == 2


def test_growth_layers_split_tables_from_strata():
    rec = _synthetic([
        ("potential.growth_exponent", 0.0, 10.0, -1, 0),
        ("potential.boundary_tables", 0.0, 6.0, 0, 0),
        ("potential.phi_batch", 1.0, 5.0, 1, 1000),
        ("config.center_arrays", 1.0, 1.5, 2, 4096),
        ("potential.phi_batch", 6.0, 8.0, 0, 10),
        ("config.center_arrays", 6.0, 6.5, 4, 64),
    ])
    m = layers.layer_metrics(rec)
    assert m["potential.boundary_tables.s"] == pytest.approx(6.0)
    assert m["potential.strata.s"] == pytest.approx(2.0)
    assert m["potential.phi_batch.point_terms"] == 1000 * 4096 + 10 * 64
    assert m["config.center_terms"] == 4096 + 64


def test_install_wraps_and_uninstall_restores():
    import ainfty.charts
    import ainfty.config
    import ainfty.potential
    from ainfty.config import power_law
    from ainfty.geometry import ImHPoint
    before = (ainfty.potential.phi, ainfty.config.hurwitz_zeta,
              vars(ainfty.config.PowerLawFamily)["center_arrays"], ainfty.charts.class_of)
    rec = layers.Recorder()
    rec.install()
    try:
        ainfty.potential.phi(power_law(2.0, truncation=64), ImHPoint(0.0, 0j), 1e-8)
    finally:
        rec.uninstall()
    after = (ainfty.potential.phi, ainfty.config.hurwitz_zeta,
             vars(ainfty.config.PowerLawFamily)["center_arrays"], ainfty.charts.class_of)
    assert all(a is b for a, b in zip(before, after))
    m = layers.layer_metrics(rec)
    assert m["potential.phi.calls"] == 1
    assert m["config.zeta_calls"] > 0 and m["config.center_terms"] >= 64
    assert all(p == -1 or rec.names[p] for p in rec.parent)


def test_oracles():
    import math
    import mpmath
    assert abs(workloads.zeta_sum_oracle(2.0) - math.pi ** 2 / 24) < 1e-15
    assert abs(workloads.zeta_sum_oracle(3.0) - float(mpmath.zeta(3)) / 4) < 1e-15
    assert workloads.power_law_class(2.0, 0.5, False) == (1, None)
    assert workloads.power_law_class(2.0, -2.5, False) == (2, 1)
    assert workloads.power_law_class(3.0, -9.0, False) == (3, 2)
    assert workloads.power_law_class(3.0, -9.0, True) == (None, None)
