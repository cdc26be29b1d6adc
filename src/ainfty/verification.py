"""Bundled randomized invariant suites, runnable from the CLI.

Each suite returns a list of (check name, passed, detail) triples.  The
checks mirror the library's contracts: brute-force oracles for the quotient
combinatorics, dual-route agreement for the flow, round trips and cocycles
for the charts, a translation and matching search for the classifier.
``trials`` scales every randomized check of a suite; the acceptance tests
run the suites at seed 42 with their own trial counts.
"""
from __future__ import annotations

import cmath
import math
import random

from .charts import (Multiplier, act, canonical_multiplier, chart_forward,
                     chart_inverse, gauge_point, section_coordinate, transition)
from .config import delta_set, fiber, finite_list, power_law
from .geometry import ImHPoint
from .isomorphism import isomorphism_exists
from .potential import flow_log_g, flow_log_g_sum, phi
from .quotient import base_section, class_of, same_class, section_divisor


class _Suite:
    def __init__(self):
        self.results = []

    def check(self, name, passed, detail=""):
        self.results.append((name, bool(passed), detail))


def _segment_brute(config, a, b):
    if a.z != b.z:
        return False
    lo, hi = min(a.t, b.t), max(a.t, b.t)
    lr, lc = config.center_arrays()
    return not any(-z == a.z and lo <= -t <= hi
                   for t, z in zip(lr.tolist(), lc.tolist()))


def _disk_fibers(config, radius):
    """{base point: center heights} for the centers whose base lies in the
    closed disk, read off the center list."""
    out = {}
    lr, lc = config.center_arrays()
    for t, c in zip(lr.tolist(), lc.tolist()):
        if abs(c) <= radius:
            out.setdefault(-c, []).append(-t)
    return out


def _brute_isomorphic(a, b, radius, allow_shift=False):
    """Classifier oracle for finite configurations, independent of
    ``delta_set`` and ``fiber_order_type``: try every translation
    c = z_b - z_a between the disk's base points (only c = 0 without
    ``allow_shift``), pair each a-base z with the b-base within a few ulps
    of z + c, and build the increasing bijection of each matched pair of
    fibers explicitly."""
    fa, fb = _disk_fibers(a, radius), _disk_fibers(b, radius)
    if len(fa) != len(fb):
        return False
    shifts = {zb - za for za in fa for zb in fb} if allow_shift and fa else {0j}
    for c in shifts:
        unmatched = dict(fb)
        for za, ha in fa.items():
            zb = next((w for w in unmatched
                       if abs(za + c - w) <= 1e-12 * (1.0 + abs(za) + abs(c))), None)
            if zb is None:
                break
            hb = unmatched.pop(zb)
            if len(ha) != len(hb):
                break
            ranked = sorted(ha)
            image = dict(zip(ranked, sorted(hb)))
            if not all(image[x] < image[y] for x, y in zip(ranked, ranked[1:])):
                break
        else:
            return True
    return False


def _random_axial(rng, span=40, skip_origin=False):
    heights = rng.sample(range(-span, span), rng.randint(1, 8))
    if skip_origin:
        heights = [h for h in heights if h] or [1]
    return finite_list([(float(-h), 0j) for h in heights])


def suite_core(seed: int, trials: int = 300):
    s = _Suite()
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        cfg = _random_axial(rng)
        rs = sorted(rng.uniform(0.5, 20) for _ in range(2))
        if not delta_set(cfg, rs[0]) <= delta_set(cfg, rs[1]):
            ok = False
    s.check("delta-set monotone in radius", ok, f"{trials} random configs")
    ok = True
    for _ in range(trials):
        cfg = _random_axial(rng)
        f = fiber(cfg, 0j, window=(-30.0, 30.0))
        hs = f.heights
        if not all(x < y for x, y in zip(hs, hs[1:])):
            ok = False
    s.check("fiber points strictly sorted", ok, f"{trials} random configs")
    pl = power_law(2.0, truncation=256)
    ok = all(not fiber(pl, complex(z)).points
             for z in (1, -2, 1j, 0.5 - 0.5j))
    s.check("power-law fibers empty off the axis base", ok)
    return s.results


def suite_quotient(seed: int, trials: int = 1000):
    s = _Suite()
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        cfg = _random_axial(rng)
        z = 0j if rng.random() < 0.8 else 1j
        a = ImHPoint(rng.uniform(-45, 45), z)
        b = ImHPoint(rng.uniform(-45, 45), 0j)
        if same_class(cfg, a, b) != _segment_brute(cfg, a, b):
            ok = False
    s.check("same-class matches segment brute force", ok, f"{trials} trials")

    ok_cocycle = ok_antisym = True
    for _ in range(trials):
        cfg = _random_axial(rng, span=30, skip_origin=True)
        secs = []
        for _ in range(3):
            t = rng.uniform(-35, 35)
            gap = class_of(cfg, ImHPoint(t, 0j))
            while gap.is_fixed:
                t += 1e-3
                gap = class_of(cfg, ImHPoint(t, 0j))
            secs.append(base_section(cfg).deviate(0j, gap))
        k12 = section_divisor(cfg, secs[0], secs[1], 50.0)
        k23 = section_divisor(cfg, secs[1], secs[2], 50.0)
        k13 = section_divisor(cfg, secs[0], secs[2], 50.0)
        if k12 + k23 != k13:
            ok_cocycle = False
        if section_divisor(cfg, secs[1], secs[0], 50.0) != -k12:
            ok_antisym = False
    s.check("section divisor cocycle", ok_cocycle, f"{trials} section triples")
    s.check("section divisor antisymmetry", ok_antisym, f"{trials} section pairs")
    return s.results


def suite_potential(seed: int, trials: int = 100):
    s = _Suite()
    rng = random.Random(seed)
    pl = power_law(2.0, truncation=512)
    h = 1e-4
    worst = 0.0
    for _ in range(trials):
        k = rng.randint(1, 5)
        lo, hi = -((k + 1) ** 2), -(k * k)
        eta = rng.uniform(lo + 0.5, hi - 0.5)
        zeta = rng.uniform(lo + 0.5, hi - 0.5)
        fp = flow_log_g_sum(pl, eta + h, zeta, 0j, eps=1e-12).value
        fm = flow_log_g_sum(pl, eta - h, zeta, 0j, eps=1e-12).value
        mid = phi(pl, ImHPoint(eta, 0j), 1e-12).value
        worst = max(worst, abs((fp - fm) / (2 * h) - mid) / mid)
    s.check("flow-sum derivative matches the potential", worst <= 1e-6,
            f"worst relative error {worst:.2e} over {trials} points")

    # on the axis inside one gap, or off the axis across any heights
    ok = True
    worst_gap = 0.0
    off_axis = 0
    for _ in range(trials):
        k = rng.randint(1, 4)
        lo, hi = -((k + 1) ** 2), -(k * k)
        a = rng.uniform(lo + 0.3, hi - 0.3)
        b = rng.uniform(lo + 0.3, hi - 0.3)
        z = 0j if rng.random() < 0.7 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if z != 0:
            a, b = rng.uniform(-20, 20), rng.uniform(-20, 20)
            off_axis += 1
        v1 = flow_log_g(pl, z, a, b, eps=1e-9)
        v2 = flow_log_g_sum(pl, b, a, z, eps=1e-10)
        gap = abs(v1.value - v2.value)
        worst_gap = max(worst_gap, gap)
        if gap > v1.error_bound + v2.error_bound + 1e-13:
            ok = False
    s.check("quadrature and series flows agree within bounds", ok,
            f"worst gap {worst_gap:.2e} over {trials} segments, {off_axis} off the axis")

    single = finite_list([(0.0, 0j)])
    v = flow_log_g(single, 1 + 0j, 0.0, 1.0, eps=1e-11)
    defect = abs(v.value - math.asinh(1.0) / 4)
    s.check("single-center closed form", defect <= 1e-10, f"defect {defect:.1e}")
    return s.results


def suite_charts(seed: int, trials: int = 20):
    s = _Suite()
    rng = random.Random(seed)
    pl = power_law(2.0, truncation=1024)

    def section_k(k):
        sec = base_section(pl)
        if k == 0:
            return sec
        mid = -(k * k + (k + 1) ** 2) / 2.0
        return sec.deviate(0j, class_of(pl, ImHPoint(mid, 0j)))

    # ``trials`` completed round trips per section; on deviated sections
    # every other point lies on the deviated fiber itself
    worst_t = worst_p = 0.0
    for k in range(5):
        sec = section_k(k)
        mult = canonical_multiplier(pl, sec)
        lo, hi = sec.gap_at(0j).bounds(pl)
        done = 0
        while done < trials:
            if k > 0 and done % 2 == 0:
                pt = gauge_point(pl, rng.uniform(lo + 0.3, hi - 0.3), 0j,
                                 rng.uniform(0, 2 * math.pi))
            else:
                q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or (1 + 0j)
                pt = gauge_point(pl, rng.uniform(-8, 8), q, rng.uniform(0, 2 * math.pi))
                if class_of(pl, pt.zeta) != sec.gap_at(pt.zeta.z):
                    continue
            p, q = chart_forward(pl, sec, mult, pt)
            back = chart_inverse(pl, sec, mult, (p, q))
            p2, _ = chart_forward(pl, sec, mult, back)
            worst_t = max(worst_t, abs(back.zeta.t - pt.zeta.t) / (1 + abs(pt.zeta.t)))
            worst_p = max(worst_p, abs(p2 - p) / abs(p))
            done += 1
    s.check("chart round trips", worst_t <= 1e-8 and worst_p <= 1e-8,
            f"{5 * trials} points, worst height error {worst_t:.2e}, coordinate {worst_p:.2e}")

    worst = 0.0
    for _ in range(trials):
        q = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) or (1 + 0j)
        pt = gauge_point(pl, rng.uniform(-4, 4), q, rng.uniform(0, 2 * math.pi))
        g = cmath.rect(math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(0, 2 * math.pi))
        sec = base_section(pl)
        a = section_coordinate(pl, sec, Multiplier.one(), act(pl, pt, g))
        b = g * section_coordinate(pl, sec, Multiplier.one(), pt)
        worst = max(worst, abs(a - b) / abs(b))
    s.check("equivariance under the scalar action", worst <= 1e-8,
            f"worst relative error {worst:.2e} over {trials} points")

    # integer-coefficient multipliers compose bit-exactly
    m1 = Multiplier.one()
    m2 = Multiplier.from_divisor({1 + 0j: 1})
    m3 = Multiplier.from_divisor({1 + 0j: 2, -2 + 0j: -1})
    s.check("transition cocycle exact on curated triples", all(
        transition(m2, m3, transition(m1, m2, pq)) == transition(m1, m3, pq)
        for pq in [(2 + 1j, 3 + 0j), (0.5 - 0.25j, -4 + 0j), (8 + 0j, 5 + 0j)]))

    ok = True
    for _ in range(2 * trials):
        ms = [Multiplier.from_divisor(
            {complex(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-2, 2)
             for _ in range(rng.randint(0, 3))}) for _ in range(3)]
        q = complex(rng.uniform(4, 6), rng.uniform(4, 6))
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or (1 + 0j)
        a = transition(ms[1], ms[2], transition(ms[0], ms[1], (p, q)))
        b = transition(ms[0], ms[2], (p, q))
        if abs(a[0] - b[0]) > 1e-12 * max(1.0, abs(b[0])) or a[1] != b[1]:
            ok = False
    s.check("transition cocycle", ok, f"{2 * trials} random multiplier triples")

    worst = 0.0
    m1 = Multiplier.from_divisor({0j: -1})
    m2 = Multiplier.from_divisor({2 + 1j: 1, 0j: -1})
    h = 1e-5
    for _ in range(trials // 2):
        p = cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        q = complex(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))
        lp = cmath.log(p)

        def out(lp_, q_):
            pp, _ = transition(m1, m2, (cmath.exp(lp_), q_))
            return cmath.log(pp)

        j11 = (out(lp + h, q) - out(lp - h, q)) / (2 * h)
        worst = max(worst, abs(j11 - 1.0))
    s.check("transitions preserve the log-symplectic form", worst <= 1e-6,
            f"worst Jacobian defect {worst:.2e}")
    return s.results


_FINITE_GRID = [(float(t), z) for t in range(-9, 10) for z in (0j, 1 + 0j, 1j)]


def _random_finite(rng):
    """1 to 8 distinct centers at integer heights over the bases 0, -1, -i."""
    return rng.sample(_FINITE_GRID, rng.randint(1, 8))


def _translated(rng, centers):
    """The centers moved by a random decimal step in height and in base."""
    dt = rng.randint(-20, 20) / 10
    dz = complex(rng.randint(-20, 20), rng.randint(-20, 20)) / 10
    return finite_list([(t + dt, z + dz) for t, z in centers])


def suite_isomorphism(seed: int, trials: int = 1000):
    s = _Suite()
    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        a = finite_list(_random_finite(rng))
        b = finite_list(_random_finite(rng))
        if isomorphism_exists(a, b, 5.0, allow_shift=False).isomorphic \
                != _brute_isomorphic(a, b, 5.0):
            ok = False
    s.check("classifier matches the matching search", ok, f"{trials} instances")

    # both sides moved by decimal steps, which round; b holds the same
    # centers, one fiber grown by a point, or unrelated centers
    ok = True
    for _ in range(trials // 10):
        cs = _random_finite(rng)
        mode = rng.randrange(3)
        if mode == 0:
            cs_b = cs
        elif mode == 1:
            _, z0 = rng.choice(cs)
            cs_b = cs + [(max(t for t, _ in cs) + 1.0, z0)]
        else:
            cs_b = _random_finite(rng)
        a, b = _translated(rng, cs), _translated(rng, cs_b)
        if isomorphism_exists(a, b, 5.0).isomorphic \
                != _brute_isomorphic(a, b, 5.0, allow_shift=True):
            ok = False
    s.check("classifier with shifts matches the translation search", ok,
            f"{trials // 10} decimal translations")

    centers = [(1.0, 0j), (-3.0, 2 + 1j), (4.0, 2 + 1j)]
    a = finite_list(centers)
    b = finite_list([(t + 0.7, z - 0.25 + 0.5j) for t, z in centers])
    perm = finite_list([centers[1], centers[2], centers[0]])
    s.check("invariance under common translation",
            isomorphism_exists(a, b, 10.0).isomorphic)
    s.check("invariance under index permutation",
            isomorphism_exists(a, perm, 10.0, allow_shift=False).isomorphic)
    return s.results


SUITES = {
    "core": suite_core,
    "quotient": suite_quotient,
    "potential": suite_potential,
    "charts": suite_charts,
    "isomorphism": suite_isomorphism,
}


def run_suites(names, seed: int):
    results = []
    for name in names:
        results.extend((name, *r) for r in SUITES[name](seed))
    return results
