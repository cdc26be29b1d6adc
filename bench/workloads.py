"""The benchmark's workloads: seeded op streams, the calls each op makes into
``ainfty`` and the check each op's result must pass.

Every workload is a closed loop with one client: an op starts when the one
before it has returned.  A stream is a sequence of rounds.  A round holds a
fixed number of ops of each kind in a seeded order, so every run does the
same mix and only the inputs change with the seed; a run stops at a round
boundary.  Ops call the library through module attributes (``potential.phi``),
so the wrappers of a traced run see every call.

The stream generators below are pure Python and import nothing from
``ainfty``: the program receives only the generated inputs.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import subprocess
import sys

# --- growth -------------------------------------------------------------

GROWTH_SAMPLES = 150_000      # Monte Carlo budget per fit
# (fit, power-law beta or None for the single-center control, slope, tolerance)
GROWTH_FITS = (
    ("single_center", None, 4.0, 0.05),
    ("power_law_2", 2.0, 10.0 / 3.0, 0.1),
    ("power_law_3", 3.0, 3.5, 0.1),
)


def growth_rounds(seed: int):
    """Rounds of the three acceptance fits, each with its own Monte Carlo seed."""
    rng = random.Random(f"growth:{seed}")
    while True:
        yield [("growth.fit", name, rng.randrange(1 << 31)) for name, *_ in GROWTH_FITS]


# --- queries ------------------------------------------------------------

# Ops of each kind per round.  The counts give each family (potential, flow,
# quotient, charts, isomorphism) a comparable share of a round's time on the
# seed commit, and keep phi calls above half of all ops, so the median op is
# a potential evaluation.
QUERY_ROUND = {
    "potential.phi": 440,
    "potential.flow_sum_fd": 30,
    "flow.axis": 4,
    "flow.off_axis": 2,
    "quotient.sweep": 100,
    "charts.round_trip": 20,
    "charts.act": 16,
    "isomorphism.apply": 40,
    "isomorphism.apply_via": 40,
    "isomorphism.build": 1,
}
SWEEP_POINTS, SWEEP_PAIRS, SWEEP_DIVISORS = 400, 200, 20
QUERY_BETAS = (2.0, 3.0)


def axis_gap(beta: float, k: int):
    """Heights (lo, hi) of the axis gap of a power law between centers
    k + 1 and k; k = 0 is the base gap above the first center."""
    return -float(k + 1) ** beta, (math.inf if k == 0 else -float(k) ** beta)


def _in_gap(rng, beta, k, margin):
    lo, hi = axis_gap(beta, k)
    return rng.uniform(lo + margin, min(hi, 8.0) - margin)


def _off_axis(rng):
    """A base point z with 0.1 <= |z| <= 1, as (re, im)."""
    r, a = rng.uniform(0.1, 1.0), rng.uniform(0, 2 * math.pi)
    return r * math.cos(a), r * math.sin(a)


def _query_op(kind: str, rng: random.Random) -> tuple:
    u = rng.uniform
    if kind == "potential.phi":
        beta, eps, r = rng.choice(QUERY_BETAS), rng.choice((1e-10, 1e-12)), rng.random()
        if r < 0.1:
            return (kind, beta, 0.0, 0.0, 0.0, eps)      # the origin, checked by oracle
        if r < 0.55:
            # Axis points keep 0.5 from the centers, as acceptance criterion 3
            # does: within about 1e-3 of one, the rounding term of the bound
            # alone exceeds 1e-12 and phi raises TailUnresolved.
            return (kind, beta, _in_gap(rng, beta, rng.randint(0, 2), 0.5), 0.0, 0.0, eps)
        return (kind, beta, u(-10, 10), *_off_axis(rng), eps)
    if kind == "potential.flow_sum_fd":
        beta = rng.choice(QUERY_BETAS)
        k = rng.randint(1, 5)
        return (kind, beta, _in_gap(rng, beta, k, 0.5), _in_gap(rng, beta, k, 0.5))
    if kind == "flow.axis":
        beta = rng.choice(QUERY_BETAS)
        k = rng.randint(1, 4)
        return (kind, beta, _in_gap(rng, beta, k, 0.3), _in_gap(rng, beta, k, 0.3))
    if kind == "flow.off_axis":
        return (kind, 2.0, u(-20, 20), u(-20, 20), *_off_axis(rng))
    if kind == "quotient.sweep":
        beta = rng.choice(QUERY_BETAS)
        pts = tuple((u(-45, 45), 0.0, 0.0) if rng.random() < 0.8
                    else (u(-45, 45), u(-2, 2), u(-2, 2)) for _ in range(SWEEP_POINTS))
        pairs = tuple((rng.randrange(SWEEP_POINTS), rng.randrange(SWEEP_POINTS))
                      for _ in range(SWEEP_PAIRS))
        divs = tuple((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(SWEEP_DIVISORS))
        return (kind, beta, pts, pairs, divs)
    if kind == "charts.round_trip":
        beta, k = rng.choice(QUERY_BETAS), rng.randint(0, 4)
        if k > 0 and rng.random() < 0.5:
            return (kind, beta, k, _in_gap(rng, beta, k, 0.3), 0.0, 0.0, u(0, 2 * math.pi))
        return (kind, beta, k, u(-8, 8), u(-2, 2), u(-2, 2), u(0, 2 * math.pi))
    if kind == "charts.act":
        return (kind, u(-4, 4), u(-1.5, 1.5), u(-1.5, 1.5), u(0, 2 * math.pi),
                u(-1.5, 1.5), u(0, 2 * math.pi))
    if kind in ("isomorphism.apply", "isomorphism.apply_via"):
        return (kind, u(-6, 6), u(-2, 2), u(-2, 2), u(0, 2 * math.pi))
    if kind == "isomorphism.build":
        return (kind,)
    raise ValueError(f"unknown query op {kind!r}")


def queries_rounds(seed: int):
    rng = random.Random(f"queries:{seed}")
    while True:
        ops = [_query_op(kind, rng) for kind, n in QUERY_ROUND.items() for _ in range(n)]
        rng.shuffle(ops)
        yield ops


def queries_warmup() -> list:
    """One op of each kind, the same for every seed, so that set-up time
    does not depend on the seed."""
    rng = random.Random("queries-warmup")
    return [_query_op(kind, rng) for kind in QUERY_ROUND]


# --- cli ----------------------------------------------------------------

CLI_CONFIGS = ("pl2", "pl3", "fin0", "fin1")


def cli_inputs(seed: int) -> dict:
    """JSON input files of the cli workload, by file name."""
    rng = random.Random(f"cli-inputs:{seed}")
    files = {"pl2.json": {"family": "power_law", "beta": 2.0, "truncation": 1024},
             "pl3.json": {"family": "power_law", "beta": 3.0, "truncation": 1024}}
    for i in range(2):
        heights = rng.sample(range(-12, 13), rng.randint(2, 6))
        centers = [[float(h), rng.choice((0.0, 1.0)), rng.choice((0.0, 1.0))] for h in heights]
        # Multiples of 1/64 translate the centers exactly in binary.
        # isomorphism_exists matches translated fiber bases by exact float
        # equality, so a decimal shift such as 0.019 + 0.033i is reported
        # as not isomorphic; see bench/README.md.
        shift = (rng.randint(-128, 128) / 64, rng.randint(-64, 64) / 64,
                 rng.randint(-64, 64) / 64)
        files[f"fin{i}.json"] = {"family": "finite", "centers": centers}
        files[f"fin{i}_shifted.json"] = {
            "family": "finite",
            "centers": [[t + shift[0], re + shift[1], im + shift[2]] for t, re, im in centers]}
    for beta in (2, 3):
        for k in range(5):
            devs = [] if k == 0 else [{"z": [0.0, 0.0], "gap": [k + 1, k]}]
            files[f"pl{beta}_s{k}.json"] = {"deviations": devs}
    files["iso.json"] = {"config_a": "pl2.json", "config_b": "pl3.json", "disk": 10.0}
    return files


def _f(x: float) -> str:
    return f"{x:.6f}"


def _cli_op(sub: str, rng: random.Random) -> tuple:
    """(subcommand, argv, expectation) for one cli invocation."""
    u = rng.uniform
    beta = rng.choice((2, 3))
    pl = f"pl{beta}.json"
    if sub == "validate":
        return (sub, ("validate", f"--config={rng.choice(CLI_CONFIGS)}.json"), ())
    if sub == "phi":
        eps = rng.choice(("1e-10", "1e-12"))
        point = f"{_f(u(-10, 10))},{_f(u(-1, 1))},{_f(u(-1, 1))}"
        return (sub, ("phi", f"--config={pl}", f"--point={point}", f"--eps={eps}"), ())
    if sub == "flow":
        k = rng.randint(1, 4)
        a, b = _in_gap(rng, float(beta), k, 0.3), _in_gap(rng, float(beta), k, 0.3)
        return (sub, ("flow", f"--config={pl}", "--z=0,0", f"--from-t={_f(a)}",
                      f"--to-t={_f(b)}", "--eps=1e-9"), ())
    if sub == "classify-point":
        t = u(-45, 45)
        if rng.random() < 0.8:
            return (sub, ("classify-point", f"--config={pl}", f"--point={_f(t)},0,0"),
                    ("class", float(beta), float(_f(t))))
        point = f"{_f(t)},{_f(u(-2, 2))},{_f(u(-2, 2))}"
        return (sub, ("classify-point", f"--config={pl}", f"--point={point}"), ("off_axis",))
    if sub == "k-divisor":
        k1, k2 = rng.randint(0, 4), rng.randint(0, 4)
        return (sub, ("k-divisor", f"--config={pl}", f"--section-a=pl{beta}_s{k1}.json",
                      f"--section-b=pl{beta}_s{k2}.json", "--disk=50"), ("divisor", k1 - k2))
    if sub == "chart":
        point = f"{_f(u(-8, 8))},{_f(u(-2, 2))},{_f(u(-2, 2))},{_f(u(0, 6.28))}"
        return (sub, ("chart", f"--config={pl}", f"--section=pl{beta}_s{rng.randint(0, 4)}.json",
                      f"--point={point}"), ())
    if sub == "invert":
        p = cmath.rect(math.exp(u(-2, 2)), u(-3, 3))
        return (sub, ("invert", f"--config={pl}", f"--section=pl{beta}_s{rng.randint(0, 4)}.json",
                      f"--p={_f(p.real)},{_f(p.imag)}", f"--q={_f(u(0.1, 2))},{_f(u(-2, 2))}"), ())
    if sub == "transition":
        k1, k2 = rng.randint(0, 4), rng.randint(0, 4)
        return (sub, ("transition", f"--config={pl}", f"--section-a=pl{beta}_s{k1}.json",
                      f"--section-b=pl{beta}_s{k2}.json", f"--p={_f(u(-3, 3))},{_f(u(-3, 3))}",
                      f"--q={_f(u(0.1, 2))},{_f(u(-2, 2))}"), ())
    if sub == "isom":
        if rng.random() < 0.5:
            return (sub, ("isom", "--config-a=pl2.json", "--config-b=pl3.json", "--disk=10"),
                    ("isomorphic",))
        i = rng.randint(0, 1)
        return (sub, ("isom", f"--config-a=fin{i}.json", f"--config-b=fin{i}_shifted.json",
                      "--disk=20"), ("isomorphic",))
    if sub == "map-point":
        point = f"{_f(u(-6, 6))},{_f(u(-2, 2))},{_f(u(-2, 2))},{_f(u(0, 6.28))}"
        return (sub, ("map-point", "--iso=iso.json", f"--point={point}"), ())
    if sub.startswith("verify-"):
        suite = sub.split("-", 1)[1]
        return ("verify", ("verify", f"--suite={suite}", f"--seed={rng.randrange(1000)}"), ())
    raise ValueError(f"unknown cli op {sub!r}")


CLI_ROUND = ("validate", "phi", "flow", "classify-point", "k-divisor", "chart", "invert",
             "transition", "isom", "map-point", "verify-core", "verify-quotient",
             "verify-isomorphism")


def cli_rounds(seed: int):
    """Rounds of every subcommand in the mix once, plus one repeated command
    line whose stdout must match its first run byte for byte."""
    rng = random.Random(f"cli:{seed}")
    while True:
        ops = [_cli_op(sub, rng) for sub in CLI_ROUND]
        rng.shuffle(ops)
        i = rng.randrange(len(ops))
        ops.insert(rng.randint(i + 1, len(ops)), ops[i])
        yield ops


# --- oracles ------------------------------------------------------------

def zeta_sum_oracle(beta: float, n_cut: int = 1000) -> float:
    """(1/4) sum_{n>=1} n^-beta, the potential at the origin of a power law:
    a 50-digit partial sum plus the Euler-Maclaurin tail with the B2 and B4
    corrections, independent of the library's Hurwitz-zeta tails."""
    import mpmath
    with mpmath.workdps(50):
        b = mpmath.mpf(beta)
        partial = mpmath.fsum(mpmath.mpf(n) ** -b for n in range(1, n_cut + 1))
        a = mpmath.mpf(n_cut + 1)
        tail = a ** (1 - b) / (b - 1) + a ** -b / 2             # integral + f(a)/2
        tail += b * a ** (-b - 1) / 12                          # -B2/2! f'(a)
        tail -= b * (b + 1) * (b + 2) * a ** (-b - 3) / 720     # -B4/4! f'''(a)
        return float((partial + tail) / 4)


def power_law_class(beta: float, t: float, off_axis: bool):
    """(lower, upper) neighbor indices of height t over a base point of a
    power law, counted directly: centers sit at heights -n^beta on the axis."""
    if off_axis:
        return None, None
    n = 0                      # centers strictly above t
    while float(n + 1) ** beta < -t:
        n += 1
    return n + 1, (n or None)


# --- fixtures -----------------------------------------------------------

class Growth:
    """Acceptance volume-growth fits at the acceptance rho grid."""

    def __init__(self, seed: int):
        import numpy as np
        from ainfty import config, potential
        self.potential = potential
        self.rho = list(np.geomspace(1e2, 1e4, 9))
        self.configs = {name: (config.finite_list([(0.0, 0j)]) if beta is None
                               else config.power_law(beta))
                        for name, beta, *_ in GROWTH_FITS}
        self.targets = {name: (slope, tol) for name, _, slope, tol in GROWTH_FITS}
        self.potential.growth_exponent(self.configs["single_center"], self.rho, 2000, seed)

    def call(self, op):
        _, name, mc_seed = op
        return self.potential.growth_exponent(self.configs[name], self.rho,
                                              GROWTH_SAMPLES, mc_seed)

    def check(self, op, fit):
        slope, tol = self.targets[op[1]]
        return abs(fit.slope - slope) <= tol


class Queries:
    """Pointwise library calls on two truncated power laws and the
    isomorphism between them."""

    def __init__(self):
        from ainfty import charts, config, isomorphism, potential, quotient
        from ainfty.charts import ManifoldPoint, Multiplier
        from ainfty.geometry import ImHPoint
        self.potential, self.quotient, self.charts, self.isomorphism = (
            potential, quotient, charts, isomorphism)
        self.ImHPoint, self.ManifoldPoint = ImHPoint, ManifoldPoint
        self.cfg = {b: config.power_law(b, truncation=1024) for b in QUERY_BETAS}
        self.oracle = {b: zeta_sum_oracle(b) for b in QUERY_BETAS}
        if abs(self.oracle[2.0] - math.pi ** 2 / 24) > 1e-14:
            raise RuntimeError("Euler-Maclaurin oracle disagrees with pi^2/24")
        pl2 = self.cfg[2.0]
        self.iso = isomorphism.build_isomorphism(pl2, self.cfg[3.0], 10.0)
        self.sections = {}
        for b, cfg in self.cfg.items():
            for k in range(5):
                s = quotient.base_section(cfg)
                if k:
                    lo, hi = axis_gap(b, k)
                    s = s.deviate(0j, quotient.class_of(cfg, ImHPoint(0.5 * (lo + hi), 0j)))
                self.sections[b, k] = s, charts.canonical_multiplier(cfg, s)
        self.base2 = quotient.base_section(pl2)
        self.one = Multiplier.one()
        self.alt2 = self.base2.deviate(0j, quotient.class_of(pl2, ImHPoint(-2.5, 0j)))
        self._calls = {k: getattr(self, "_" + k.replace(".", "_")) for k in QUERY_ROUND}
        for op in queries_warmup():
            if not self.check(op, self.call(op)):
                raise RuntimeError(f"warm-up op failed its check: {op}")

    def call(self, op):
        return self._calls[op[0]](*op[1:])

    def _point(self, t, zr, zi, theta=0.0):
        return self.ManifoldPoint(self.ImHPoint(t, complex(zr, zi)), theta)

    # Each op returns what its check needs; checks are not timed.

    def _potential_phi(self, beta, t, zr, zi, eps):
        return self.potential.phi(self.cfg[beta], self.ImHPoint(t, complex(zr, zi)), eps)

    def _potential_flow_sum_fd(self, beta, eta, zeta, h=1e-4):
        cfg, pot = self.cfg[beta], self.potential
        fp = pot.flow_log_g_sum(cfg, eta + h, zeta, 0j, eps=1e-12)
        fm = pot.flow_log_g_sum(cfg, eta - h, zeta, 0j, eps=1e-12)
        return fp, fm, pot.phi(cfg, self.ImHPoint(eta, 0j), 1e-12), h

    def _flow_axis(self, beta, a, b):
        return self._flow_pair(beta, a, b, 0j)

    def _flow_off_axis(self, beta, a, b, zr, zi):
        return self._flow_pair(beta, a, b, complex(zr, zi))

    def _flow_pair(self, beta, a, b, z):
        cfg = self.cfg[beta]
        return (self.potential.flow_log_g(cfg, z, a, b, eps=1e-9),
                self.potential.flow_log_g_sum(cfg, b, a, z, eps=1e-10))

    def _quotient_sweep(self, beta, pts, pairs, divs):
        cfg, q = self.cfg[beta], self.quotient
        points = [self.ImHPoint(t, complex(zr, zi)) for t, zr, zi in pts]
        classes = [q.class_of(cfg, p) for p in points]
        same = [q.same_class(cfg, points[i], points[j]) for i, j in pairs]
        divisors = [q.section_divisor(cfg, self.sections[beta, k1][0],
                                      self.sections[beta, k2][0], 50.0) for k1, k2 in divs]
        return classes, same, divisors

    def _charts_round_trip(self, beta, k, t, zr, zi, theta):
        cfg, c = self.cfg[beta], self.charts
        section, mult = self.sections[beta, k]
        pq = c.chart_forward(cfg, section, mult, self._point(t, zr, zi, theta))
        back = c.chart_inverse(cfg, section, mult, pq)
        return pq, back, c.chart_forward(cfg, section, mult, back)

    def _charts_act(self, t, zr, zi, theta, log_abs_g, arg_g):
        cfg, c = self.cfg[2.0], self.charts
        pt = self._point(t, zr, zi, theta)
        g = cmath.rect(math.exp(log_abs_g), arg_g)
        moved = c.act(cfg, pt, g)
        return (g, c.chart_forward(cfg, self.base2, self.one, moved)[0],
                c.chart_forward(cfg, self.base2, self.one, pt)[0])

    def _isomorphism_apply(self, t, zr, zi, theta):
        return self.isomorphism.apply_isomorphism(self.iso, self._point(t, zr, zi, theta))

    def _isomorphism_apply_via(self, t, zr, zi, theta):
        return self.isomorphism.apply_isomorphism(self.iso, self._point(t, zr, zi, theta),
                                                  via_section=self.alt2)

    def _isomorphism_build(self):
        return self.isomorphism.build_isomorphism(self.cfg[2.0], self.cfg[3.0], 10.0)

    def check(self, op, r) -> bool:
        kind = op[0]
        if kind == "potential.phi":
            _, beta, t, zr, zi, eps = op
            ok = r.error_bound <= eps and r.value > 0 and math.isfinite(r.value)
            if t == zr == zi == 0.0:
                oracle = self.oracle[beta]
                ok = ok and abs(r.value - oracle) <= eps and r.contains(oracle)
            return ok
        if kind == "potential.flow_sum_fd":
            fp, fm, mid, h = r
            return abs((fp.value - fm.value) / (2 * h) - mid.value) <= 1e-6 * mid.value
        if kind in ("flow.axis", "flow.off_axis"):
            v1, v2 = r
            return abs(v1.value - v2.value) <= v1.error_bound + v2.error_bound + 1e-13
        if kind == "quotient.sweep":
            _, beta, pts, pairs, divs = op
            classes, same, divisors = r
            want = [power_law_class(beta, t, (zr, zi) != (0.0, 0.0)) for t, zr, zi in pts]
            ok = all(c.fixed is None and (c.lower, c.upper) == w for c, w in zip(classes, want))
            ok = ok and all(s == (pts[i][1:] == pts[j][1:] and want[i] == want[j])
                            for s, (i, j) in zip(same, pairs))
            return ok and all(d.get(0j) == k1 - k2 and len(d.support) == (k1 != k2)
                              for d, (k1, k2) in zip(divisors, divs))
        if kind == "charts.round_trip":
            (p, _), back, (p2, _) = r
            t = op[3]
            return max(abs(back.zeta.t - t) / (1 + abs(t)), abs(p2 - p) / abs(p)) <= 1e-8
        if kind == "charts.act":
            g, moved, before = r
            return abs(moved - g * before) <= 1e-8 * abs(g * before)
        if kind in ("isomorphism.apply", "isomorphism.apply_via"):
            return r.zeta.z == complex(op[2], op[3]) and math.isfinite(r.zeta.t)
        if kind == "isomorphism.build":
            return r.h.shift == 0
        raise ValueError(f"unknown query op {kind!r}")


class Cli:
    """Cold ``ainfty`` subprocesses on input files written into ``workdir``.

    With ``child`` set to the path of ``cli_child.py``, each command runs
    under it instead: it traces the child and writes the child's spans to a
    file for the parent to merge."""

    def __init__(self, seed: int, workdir, env: dict):
        self.dir, self.env, self.child = workdir, env, None
        for name, data in cli_inputs(seed).items():
            (workdir / name).write_text(json.dumps(data), encoding="utf-8")
        self.seen = {}
        self.spans = []           # span files written by traced children
        rc, _, err = self.call(("validate", ("validate", "--config=pl2.json"), ()))
        if rc != 0:
            raise RuntimeError(f"warm-up invocation failed: {err.decode(errors='replace')}")

    def call(self, op):
        argv = list(op[1])
        if self.child is None:
            cmd = [sys.executable, "-m", "ainfty.cli", *argv]
        else:
            path = self.dir / f"spans-{len(self.spans)}.json"
            self.spans.append(path)
            cmd = [sys.executable, str(self.child), str(path), *argv]
        p = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True, timeout=150)
        return p.returncode, p.stdout, p.stderr

    def check(self, op, r) -> bool:
        sub, argv, expect = op
        rc, out, _ = r
        if rc != 0:
            return False
        if self.seen.setdefault(argv, out) != out:
            return False
        lines = out.decode().splitlines()
        if lines and lines[0].startswith("# manifest "):
            json.loads(lines[0][len("# manifest "):])
            if sub == "verify":
                return len(lines) > 1 and all(x.startswith("[PASS] ") for x in lines[1:])
            return len(lines) == 2 and len([float(x) for x in lines[1].split(",")]) == 4
        data = json.loads(out)
        if "manifest" not in data:
            return False
        if expect and expect[0] == "class":
            return data["gap"] == list(power_law_class(expect[1], expect[2], False))
        if expect and expect[0] == "off_axis":
            return data["gap"] == [None, None]
        if expect and expect[0] == "divisor":
            got = {(d["z"][0], d["z"][1]): d["k"] for d in data["divisor"]}
            return got == ({(0.0, 0.0): expect[1]} if expect[1] else {})
        if expect and expect[0] == "isomorphic":
            return data["isomorphic"] is True
        return True
