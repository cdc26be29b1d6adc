"""Potential, flow integrals, and radial distance."""

import gc
import math
import random
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ainfty.config import (CenterFamily, Configuration, Finite, axial_monotone, finite_list,
                           general_axial, power_law)
from ainfty import potential
from ainfty.errors import (InsufficientRange, QuadratureUnresolved, RayHitsCenter,
                           SegmentHitsCenter, SingularPoint, TailUnresolved)
from ainfty.geometry import ImHPoint
from ainfty.potential import (
    CertifiedValue, _phi_batch, flow_log_g, flow_log_g_sum, growth_exponent,
    phi, radial_distance,
)
from ainfty.quotient import same_class

SINGLE = finite_list([(0.0, 0j)])
PL2 = power_law(2.0, truncation=512)
# centers 1000 n^2 + n/2: a coarse tail estimate that grows with each
# point's radius, and a growth grid that takes more than one N
STEEP = axial_monotone(lambda n: 1000.0 * n * n + 0.5 * n, growth=(1000.0, 2.0, 1))


def test_phi_single_center():
    v = phi(SINGLE, ImHPoint(1.0, 0j), 1e-12)
    assert abs(v.value - 0.25) <= 1e-15
    v = phi(SINGLE, ImHPoint(3.0, 4 + 0j), 1e-12)
    assert abs(v.value - 0.05) <= 1e-15


def test_phi_power_law_origin():
    # independent oracle: Euler-Maclaurin tail at high precision
    with mpmath.workdps(40):
        oracle = float(mpmath.nsum(lambda n: 1 / n**2, [1, mpmath.inf]) / 4)
    v = phi(PL2, ImHPoint(0.0, 0j), 1e-10)
    assert abs(v.value - oracle) <= 1e-10
    assert v.contains(oracle)
    assert abs(oracle - math.pi**2 / 24) <= 1e-15


def test_phi_certified_bound_off_origin():
    with mpmath.workdps(40):
        oracle = float(mpmath.nsum(
            lambda n: 1 / mpmath.sqrt((2.5 + n**2) ** 2 + 2.25), [1, mpmath.inf]) / 4)
    v = phi(PL2, ImHPoint(2.5, 1.5j), 1e-11)
    assert v.error_bound <= 1e-11
    assert v.contains(oracle)


def test_phi_singular_point():
    with pytest.raises(SingularPoint):
        phi(SINGLE, ImHPoint(0.0, 0j))
    with pytest.raises(SingularPoint):
        phi(PL2, ImHPoint(-4.0, 0j))


def test_unreachable_eps_raises_before_growing(monkeypatch):
    # rounding alone bounds phi near a center at 3.56e-12 and this flow sum
    # at 1.55e-11; doubling N cannot lower either below 1e-12
    def grow(*args):
        raise AssertionError("N doubled although eps is out of reach")
    monkeypatch.setattr(potential, "_grow", grow)
    pl = power_law(2.0, truncation=1024)
    with pytest.raises(TailUnresolved, match="rounding alone bounds the error at 3.56e-12"):
        phi(pl, ImHPoint(-0.999, 0j), 1e-12)
    with pytest.raises(TailUnresolved, match="at 1.55e-11"):
        flow_log_g_sum(pl, 3e4, -3e4, 0.5j, eps=1e-12)
    with pytest.raises(TailUnresolved, match="rounding alone bounds the error at 1.42e-14"):
        flow_log_g(pl, 0j, -0.5, 0.5, eps=1e-14)
    # just above that, the quadrature runs and either meets eps or raises
    for eps in (2e-14, 4e-14, 8e-14):
        try:
            assert flow_log_g(pl, 0j, -0.5, 0.5, eps=eps).error_bound <= eps
        except TailUnresolved as exc:
            assert "with rounding the bound is" in str(exc)
    assert phi(pl, ImHPoint(-0.999, 0j), 1e-11).error_bound <= 1e-11


def _power_law_oracle(beta, t, c, floor=0.0):
    """(1/4) sum_{n>=1} 1/sqrt((t + n^beta)^2 + c^2) in mpmath: the partial
    sum below M, where M^beta >= 8 |zeta| keeps the summand smooth, plus the
    Euler-Maclaurin tail from M (the integral taken in log x, then the B2
    and B4 corrections).  Distances in the partial sum are clamped to
    ``floor``, as growth batches clamp them."""
    t, c = float(t), float(c)
    with mpmath.workdps(30):
        f = lambda x: 1 / mpmath.sqrt((t + x ** beta) ** 2 + c ** 2)
        m = int((8 * (abs(t) + c) + 1) ** (1 / beta)) + 200
        partial = mpmath.fsum(
            1 / max(mpmath.sqrt((t + n ** beta) ** 2 + c ** 2), floor) for n in range(1, m))
        integral = mpmath.quad(lambda u: f(mpmath.exp(u)) * mpmath.exp(u),
                               [mpmath.log(m), mpmath.inf])
        tail = (integral + f(m) / 2 - mpmath.diff(f, m, 1) / 12
                + mpmath.diff(f, m, 3) / 720)
        return float((partial + tail) / 4)


@settings(max_examples=25, deadline=None)
@given(st.floats(1.2, 3.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi),
       st.sampled_from(["axis", "off"]))
def test_phi_power_law_matches_oracle(beta, frac, angle, where):
    cfg = power_law(beta, truncation=64)
    r = frac * 65 ** beta / 4.5          # up to the tail series' validity limit
    if where == "axis":
        angle = 0.0 if angle < math.pi / 2 else math.pi
    p = ImHPoint(r * math.cos(angle), complex(r * math.sin(angle)))
    assume(cfg.nearest_center_distance(p) > 1e-2)
    v = phi(cfg, p, 1e-10)
    assert v.error_bound <= 1e-10
    assert v.contains(_power_law_oracle(beta, p.t, abs(p.z)))


OFF_AXIS = [(0.5, 1 + 1j), (-1.0, -0.5 + 0.2j), (2.0, 0j), (0.0, 2j), (-3.0, 1.5 - 1j)]


@settings(max_examples=40, deadline=None)
@given(st.floats(-6, 6), st.floats(-3, 3), st.floats(-3, 3))
def test_phi_finite_list_matches_exact_sum(t, zr, zi):
    cfg = finite_list(OFF_AXIS)
    p = ImHPoint(t, complex(zr, zi))
    assume(cfg.nearest_center_distance(p) > 1e-3)
    with mpmath.workdps(30):
        t, z = mpmath.mpf(t), mpmath.mpc(zr, zi)
        oracle = float(mpmath.fsum(
            1 / mpmath.sqrt((t + lr) ** 2 + abs(z + lc) ** 2) for lr, lc in OFF_AXIS) / 4)
    assert phi(cfg, p, 1e-12).contains(oracle)


def test_finite_list_values_equal_with_the_general_tail(monkeypatch):
    # certified values and growth batches on finite lists are the same, bit
    # for bit, with the general CenterFamily tail in place of the list's own
    cfg = finite_list(OFF_AXIS)
    rng = np.random.default_rng(8)
    pts = [ImHPoint(t, complex(zr, zi)) for t, zr, zi in rng.uniform(-6.0, 6.0, (20, 3))]
    t, c = rng.uniform(-1e3, 1e3, 300), rng.uniform(0.0, 1e3, 300)
    t[0], c[0] = 0.0, 0.0       # on the single center

    def values():
        return ([phi(cfg, p, 1e-12) for p in pts],
                [flow_log_g(cfg, 3 + 1j, -1.0, 2.5), flow_log_g_sum(cfg, 2.5, -1.0, 3 + 1j)],
                _phi_batch(SINGLE, t, c))
    own = values()
    monkeypatch.setattr(type(cfg.family), "phi_tail", CenterFamily.phi_tail)
    general = values()
    assert own[:2] == general[:2]
    assert np.array_equal(own[2], general[2])


@settings(max_examples=10, deadline=None)
@given(st.floats(1.2, 3.0),
       st.lists(st.tuples(st.floats(10.0, 1000.0), st.floats(0.0, math.pi)),
                min_size=2, max_size=5))
def test_phi_batch_growth_points_match_oracle(beta, polar):
    cfg = power_law(beta, truncation=64)
    t = np.array([r * math.cos(a) for r, a in polar])
    c = np.array([r * math.sin(a) for r, a in polar])
    assume(all(cfg.nearest_center_distance(ImHPoint(ti, complex(ci))) > 1e-2
               for ti, ci in zip(t, c)))
    for v, ti, ci in zip(_phi_batch(cfg, t, c), t, c):
        oracle = _power_law_oracle(beta, ti, ci)
        assert abs(v - oracle) <= 1e-5 * oracle


def test_phi_batch_truncation_per_octave(monkeypatch):
    # one batch over 37 radius octaves: the origin, 36 points at the outer
    # edges r = rmax 2^-k of the octaves (on the axis at both signs and off
    # it), out to the radius where the tail series at N = 64 stops
    # converging, and a point on a center
    cfg = power_law(2.0, truncation=64)
    rmax = 65.0 ** 2
    angles = [0.0, math.pi, math.pi / 3, 2 * math.pi / 3, math.pi / 2]
    polar = [(rmax * 2.0 ** -k, angles[k % 5]) for k in range(36)]
    t = np.array([0.0, -4.0] + [r * math.cos(a) for r, a in polar])
    c = np.array([0.0, 0.0] + [r * math.sin(a) for r, a in polar])
    calls = []
    sums = potential._truncated_sums

    def spy(config, n, t, c, *args):
        calls.append((n, np.hypot(t, c).min()))
        return sums(config, n, t, c, *args)
    monkeypatch.setattr(potential, "_truncated_sums", spy)
    vals = _phi_batch(cfg, t, c)

    n_nearest = min(n for n, r in calls if r == 0.0)
    assert n_nearest < cfg.truncation
    assert max(n for n, _ in calls) > cfg.truncation
    tol = 1e-5 / (4.0 * (rmax + 1.0 + 1.0))      # the batch's certified bound
    for v, ti, ci in zip(vals, t, c):
        r = math.hypot(ti, ci)
        oracle = _power_law_oracle(2.0, ti, ci, floor=1e-9 * (1.0 + r))
        assert abs(v - oracle) <= tol + potential._rounding_slop(v), (ti, ci)


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
def test_phi_batch_least_truncation_per_octave(beta, monkeypatch):
    # 240 points over 20 radius octaves below 1e4, at random angles: each
    # octave sums the least N whose tail bound at its outer radius meets the
    # tail's share of the batch's tolerance, and every value is within that
    # tolerance of a sum over 2^16 centers
    cfg = power_law(beta, truncation=64)
    rng = np.random.default_rng(17)
    r = 1e4 * 2.0 ** -rng.uniform(0.0, 20.0, 240)
    angle = rng.uniform(0.0, math.pi, 240)
    t, c = r * np.cos(angle), r * np.sin(angle)
    calls = []
    sums = potential._truncated_sums

    def spy(config, n, t, c, *args):
        calls.append((n, np.hypot(t, c)))
        return sums(config, n, t, c, *args)
    monkeypatch.setattr(potential, "_truncated_sums", spy)
    vals = _phi_batch(cfg, t, c)
    monkeypatch.undo()

    rmax = float(np.hypot(t, c).max())
    tol = 1e-5 / (4.0 * (rmax + 1.0 + 1.0))
    tail_tol = tol * (1.0 - potential._CLUSTER_SHARE)
    bound = cfg.family.phi_tail_bound
    assert len({n for n, _ in calls}) > 3
    for n, radii in calls:
        # octave k: rmax 2^-(k+1) < r <= rmax 2^-k
        for k in set(np.floor(np.log2(rmax / radii)).astype(int).tolist()):
            outer = math.ldexp(rmax, -k)
            assert bound(n, outer, 0.0) / 4.0 <= tail_tol
            assert n == 1 or bound(n - 1, outer, 0.0) / 4.0 > tail_tol
    ref = _kernel_rows(cfg, 1 << 16, t, c, floor=np.hypot(t, c))
    assert np.all(np.abs(vals - ref / 4.0) <= tol + potential._rounding_slop(vals))


def _kernel_rows(config, n, t, z, floor=None):
    """The reference for ``_potential_sum`` and, with the floor and within
    a tolerance, for the growth batches (whose kernel adds in another
    order): each point's terms formed and summed one row at a time,
    the floor clamp on every row, plus the kernel's tail estimate for the
    batch."""
    lr, lc = config.family.center_arrays(n)
    total = np.empty(len(t))
    for i, (ti, zi) in enumerate(zip(t, z)):
        s = (ti + lr) * (ti + lr)
        c = np.abs(zi + lc)
        s += c * c
        s = np.sqrt(s)
        if floor is not None:
            s = np.maximum(s, 1e-9 * (1.0 + floor[i]))
        total[i] = np.sum(1.0 / s)
    return total + config.family.phi_tail(n, t, z)[0]


def test_kernel_matches_rows_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(11)
    # 400 points of N = 1024 terms: four blocks of 128 rows
    cfg, n = power_law(2.0), 1024
    t, c = rng.uniform(-60.0, 60.0, 400), rng.uniform(0.0, 40.0, 400)
    total, _ = potential._potential_sum(cfg, n, t, c)
    assert np.array_equal(total, _kernel_rows(cfg, n, t, c))
    # off the axis, blocks of 1000 rows; one sample 1e-10 from the center
    # at (0, 1j)
    monkeypatch.setattr(potential, "_BLOCK", 3000)
    fin = finite_list([(0.0, 1j), (1.0, 0j), (-2.0, 2 + 1j)])
    t = rng.uniform(-3.0, 3.0, 3500)
    z = rng.uniform(-3.0, 3.0, 3500) + 1j * rng.uniform(-3.0, 3.0, 3500)
    t[1], z[1] = 0.0, -1j + 1e-10
    total, _ = potential._potential_sum(fin, 3, t, z)
    assert np.array_equal(total, _kernel_rows(fin, 3, t, z))
    assert total[1] > 4e8


def _sequential_sums(t, c2, fl, h):
    """The reference for the growth kernel: at each point, the terms
    1/max(sqrt((t + h_k)^2 + c^2), fl) in Python floats, added one center
    at a time in index order (1/inf adds 0)."""
    out = []
    for ti, ci2, fi in zip(t.tolist(), c2.tolist(), fl.tolist()):
        acc = 0.0
        for hk in h.tolist():
            d = ti + hk
            acc += 1.0 / max(math.sqrt(d * d + ci2), fi)
        out.append(acc)
    return np.array(out)


def test_growth_kernel_matches_sequential_sums_bit_for_bit(monkeypatch):
    # the growth kernel with the floor of _octave_sums against the
    # sequential reference, on heights shared by every point and on leaf
    # columns padded with inf: samples on a center (the floor binds) and
    # with c just below, at and just above the threshold 2e-9 (1 + |zeta|),
    # a center's distance away, next to the random ones; blocks of 10 and
    # 15 points, the special samples on both sides of the point 30 where
    # new blocks start, and a lone point in the last block of 9
    monkeypatch.setattr(potential, "_BLOCK", 1000)
    rng = np.random.default_rng(11)
    cfg, n = power_law(2.0), 100
    t, c = rng.uniform(-3000.0, 3000.0, 401), rng.uniform(0.0, 2000.0, 401)
    at = np.arange(28, 34)
    t[at] = [-4.0, -1.0, -9.0, -9.0, -9.0, -9.0]
    c[at] = 0.0
    c[at[2:]] = 2e-9 * (1.0 + 9.0) * np.array([0.4, 1 - 1e-15, 1.0, 1 + 1e-15])
    r = np.hypot(t, c)
    fl = np.where(c < 2e-9 * (1.0 + r), 1e-9 * (1.0 + r), 0.0)
    assert np.array_equal(np.flatnonzero(fl), at[:4])
    lr, _ = cfg.family.center_arrays(n)
    total = potential._direct_sums(t, c * c, fl, lr)
    assert np.array_equal(total, _sequential_sums(t, c * c, fl, lr))
    assert np.all(total[at[:3]] > 1e8)
    # two leaves of 64 slots as columns, the second holding 36 centers and
    # 28 inf
    leaves = potential._cluster_tree(lr, 1e-9)[-1]
    assert leaves.shape == (64, 2) and np.isinf(leaves[36:, 1]).all()
    assert np.array_equal(leaves.T.ravel()[:n], np.sort(lr))
    nd = rng.integers(0, 2, t.size)
    nd[at] = 0
    ref = np.array([_sequential_sums(t[i:i + 1], c[i:i + 1] ** 2, fl[i:i + 1],
                                     leaves[:, nd[i]])[0] for i in range(t.size)])
    assert np.array_equal(potential._direct_sums(t, c * c, fl, leaves, nd), ref)
    assert np.all(ref[at[:3]] > 1e8)
    # every width up to 300 on a few points, one of them alone in a block
    for width in range(1, 301):
        h = -np.sort(rng.uniform(0.0, 1e4, width))
        tw, cw = t[:3], c[:3]
        assert np.array_equal(potential._direct_sums(tw, cw * cw, fl[:3], h),
                              _sequential_sums(tw, cw * cw, fl[:3], h))


@pytest.mark.parametrize("width", [1, 7, 8, 64, 255])
def test_growth_kernel_point_alone_equals_point_in_batch(width, monkeypatch):
    # a point's sum is the same alone (one column, summed as two), in a
    # block of one column at the end of a batch, and inside a large block,
    # on shared heights and on leaf columns picked by nd
    rng = np.random.default_rng(width)
    t, c = rng.uniform(-1e3, 1e3, 21), rng.uniform(0.0, 1e3, 21)
    t[4], c[4:6] = -5.0, 0.0        # a point on a center: the floor binds
    fl = np.where(c < 2e-9 * (1.0 + np.abs(t)), 1e-9 * (1.0 + np.abs(t)), 0.0)
    h = -np.sort(rng.uniform(0.0, 1e3, width))
    h[0] = 5.0
    leaves = np.where(rng.random((width, 3)) < 0.2, np.inf, rng.uniform(-1e3, 1e3, (width, 3)))
    leaves[0, 1] = 5.0
    nd = rng.integers(0, 3, t.size)
    nd[4] = 1
    for args in ((h,), (leaves, nd)):
        whole = potential._direct_sums(t, c * c, fl, *args)
        assert whole[4] > 1e8
        for i in range(t.size):
            one = (args[0], args[1][i:i + 1]) if len(args) == 2 else args
            alone = potential._direct_sums(t[i:i + 1], c[i:i + 1] ** 2, fl[i:i + 1], *one)
            assert alone[0] == whole[i]
        # blocks of 2 and of 4 points: each leaves the 21st point alone
        for block in (width, 4 * width):
            with monkeypatch.context() as m:
                m.setattr(potential, "_BLOCK", block)
                assert np.array_equal(potential._direct_sums(t, c * c, fl, *args), whole)


@pytest.mark.parametrize("config", [
    power_law(2.0),
    finite_list([(0.0, 0j), (1.5, 0j), (-2.0, 0j)]),
    STEEP,
    axial_monotone(lambda n: n * n + 0.5 * n, growth=(1.0, 2.0, 1)),
    general_axial([(1.0, 0j), (-2.0, 0j), (3.5, 0j)], 4.0, {0j: Finite(3)},
                  tail_oracles=(lambda n: 100.0, lambda n, r: 1e-6 / (1.0 - r / 100.0))),
], ids=["power_law", "finite_list", "axial_monotone_steep", "axial_monotone", "general_axial"])
def test_values_depend_on_the_point_alone(config):
    # a point's kernel sum and growth-batch potential do not depend on the
    # other points of its call: per point, shuffled, or split into parts
    # that each keep the farthest point (which sets the batch's tolerance)
    rng = np.random.default_rng(5)
    t, c = rng.uniform(-1.0, 1.0, 200), rng.uniform(0.0, 1.0, 200)
    n = config.n_enumerated
    total, _ = potential._potential_sum(config, n, t, c)
    assert all(potential._potential_sum(config, n, ti, ci)[0] == v
               for ti, ci, v in zip(t, c, total))
    whole = _phi_batch(config, t, c)
    perm = rng.permutation(t.size)
    assert np.array_equal(_phi_batch(config, t[perm], c[perm]), whole[perm])
    far = int(np.argmax(np.hypot(t, c)))
    for part in np.array_split(np.delete(perm, perm == far), 3):
        idx = np.append(part, far)
        assert np.array_equal(_phi_batch(config, t[idx], c[idx]), whole[idx])


def test_tail_inv_sum_on_an_array_equals_scalar_calls():
    # one call on an array of radii, as CenterFamily.phi_tail makes, gives
    # each radius the scalar call's value bit for bit: 0, the radii up to
    # the bound's pole c (N + 1)^gamma, the pole itself and past it
    fam = STEEP.family
    for n in (0, 1, 64, 4096):
        pole = 1000.0 * float(n + 1) ** 2
        r = np.concatenate([[0.0, 5e-324, pole * (1.0 - 2.0 ** -52), pole, 2.0 * pole],
                            np.geomspace(1e-3, 2.0 * pole, 195)]).reshape(40, 5)
        ref = np.array([[fam.tail_inv_sum(n, ri) for ri in row] for row in r.tolist()])
        assert np.array_equal(fam.tail_inv_sum(n, r), ref)
    t, c = np.linspace(-3e6, 3e6, 101), np.linspace(0.0, 1e6, 101)
    est, err = fam.phi_tail(64, t, c)
    rmax = float(np.hypot(t, c).max())
    assert err == fam.tail_inv_sum(64, rmax) / 2.0
    assert np.array_equal(est, [min(fam.tail_inv_sum(64, math.hypot(ti, ci)) / 2.0, err)
                                for ti, ci in zip(t.tolist(), c.tolist())])


def _cluster_batch(beta, rmax, seed):
    """Growth-batch points out to rmax: on the axis at both signs, off it,
    and within 1e-3 of a center, with the farthest at rmax."""
    rng = np.random.default_rng(seed)
    r = rmax * rng.uniform(0.0, 1.0, 160) ** (1.0 / 3.0)
    angle = rng.uniform(0.0, math.pi, 160)
    angle[:40] = np.where(np.arange(40) % 2, 0.0, math.pi)
    r[0] = rmax
    t, c = r * np.cos(angle), r * np.sin(angle)
    n = rng.integers(1, int(rmax ** (1.0 / beta)), 40)
    t[-40:] = -n.astype(float) ** beta + rng.uniform(-1e-3, 1e-3, 40)
    c[-40:] = np.abs(rng.uniform(-1e-3, 1e-3, 40)) * (np.arange(40) % 2)
    return t, c


@pytest.mark.parametrize("beta, rmax", [(1.25, 1e5), (2.0, 1e5), (3.0, 1e7)])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_phi_batch_clusters_within_tolerance(beta, rmax, seed):
    # batches whose outer octaves sum hundreds to thousands of centers, so
    # that the treecode runs and far clusters go by their expansions: every
    # value is within the batch's tolerance (tail and clusters together) of
    # a sum over 2^16 centers, and does not depend on the other points of
    # its batch
    cfg = power_law(beta, truncation=64)
    t, c = _cluster_batch(beta, rmax, seed)
    expansions = []
    far = potential._expansions

    def spy(q, w, nd, *args):
        expansions.append(nd.size)
        return far(q, w, nd, *args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(potential, "_expansions", spy)
        vals = _phi_batch(cfg, t, c)
    assert sum(expansions) > 0
    r = np.hypot(t, c)
    tol = 1e-5 / (4.0 * (r.max() + 1.0 + 1.0))
    ref = _kernel_rows(cfg, 1 << 16, t, c, floor=r)
    assert np.all(np.abs(vals - ref / 4.0) <= tol + potential._rounding_slop(vals))
    # the clusters alone stay within their share, against the kernel's
    # direct sum of the same centers
    n_at, octave, share = potential._octave_truncation(cfg, r, 1e-5)
    assert math.isclose(share, tol * potential._CLUSTER_SHARE, rel_tol=1e-12)
    n_pt = n_at[octave]
    direct = np.empty(r.size)
    for n in np.unique(n_pt).tolist():
        idx = np.flatnonzero(n_pt == n)
        direct[idx] = _kernel_rows(cfg, n, t[idx], c[idx], floor=r[idx])
    assert np.all(np.abs(vals - direct / 4.0) <= share + potential._rounding_slop(vals))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(t.size)
    assert np.array_equal(_phi_batch(cfg, t[perm], c[perm]), vals[perm])
    for part in np.array_split(np.delete(perm, perm == 0), 3):
        idx = np.append(part, 0)
        assert np.array_equal(_phi_batch(cfg, t[idx], c[idx]), vals[idx])


def test_growth_fit_equal_with_smaller_blocks(monkeypatch):
    # a fixed seed reproduces a fit bit for bit through the treecode, whatever
    # the blocks of the kernel, the expansions and the leaves (_BLOCK) and of
    # the treecode's points (_PAIRS)
    calls = []
    sums = potential._truncated_sums

    def spy(config, n, *args):
        calls.append(n)
        return sums(config, n, *args)
    monkeypatch.setattr(potential, "_truncated_sums", spy)
    tables = _count_tables(monkeypatch)
    args = (np.geomspace(1e2, 1e4, 9), 20_000, 3)
    fit = growth_exponent(power_law(2.0), *args)
    assert max(calls) >= potential._TREE_MIN
    for name, value in (("_BLOCK", 3000), ("_PAIRS", 40)):
        # a fresh configuration, so that its tables too run on these blocks
        with monkeypatch.context() as m:
            m.setattr(potential, name, value)
            other = growth_exponent(power_law(2.0), *args)
        assert other.samples == fit.samples
        assert other.slope == fit.slope and other.slope_stderr == fit.slope_stderr
    assert len(tables) == 3


def test_flow_zero_segment():
    assert flow_log_g(PL2, 0j, 0.5, 0.5) == CertifiedValue(0.0, 0.0)
    assert flow_log_g_sum(PL2, -2.5, -2.5, 0j).value == 0.0


@pytest.mark.parametrize("eps", [0.0, -1e-10, math.nan])
def test_phi_rejects_a_tolerance_that_is_not_positive(eps):
    # a NaN eps met no bound, so N doubled to max_truncation before a raise
    with pytest.raises(ValueError, match="eps must be positive"):
        phi(PL2, ImHPoint(0.3, 0.1j), eps)


def test_certified_values_are_python_floats():
    # CertifiedValue declares floats; the flow sum's rounding term was a
    # numpy.float64, summed by numpy
    for v in (phi(PL2, ImHPoint(0.3, 0.1j)), flow_log_g(PL2, 0j, -2.5, -3.5),
              flow_log_g_sum(power_law(2.0), -2.5, -3.5, 0j)):
        assert type(v.value) is float and type(v.error_bound) is float, v


def test_flow_single_center_closed_form():
    oracle = math.asinh(1.0) / 4.0
    v = flow_log_g(SINGLE, 1 + 0j, 0.0, 1.0, eps=1e-11)
    assert abs(v.value - oracle) <= 1e-10
    s = flow_log_g_sum(SINGLE, 1.0, 0.0, 1 + 0j, eps=1e-12)
    assert abs(s.value - oracle) <= 1e-12
    assert abs(oracle - math.log(1 + math.sqrt(2)) / 4) < 1e-15


OFF_AXIS_FLOW = finite_list(OFF_AXIS)


def _flow_oracle(centers, z, a, b, beta=None):
    """(1/4) the integral from a to b of sum_k 1/sqrt((t + lr_k)^2 +
    |z + lc_k|^2) over the explicit centers, by mpmath.quad at 30 digits
    with a break at each center's height inside the segment.  With beta,
    the power-law centers n^beta past the list add their exact integrals
    (asinh differences, logarithms on the axis), summed by mpmath.nsum."""
    lo, hi = min(a, b), max(a, b)
    with mpmath.workdps(30):
        terms = [(mpmath.mpf(lr), abs(mpmath.mpc(z) + mpmath.mpc(lc))) for lr, lc in centers]
        breaks = sorted({mpmath.mpf(lo), mpmath.mpf(hi)}
                        | {-lr for lr, _ in terms if lo < -lr < hi})
        total = mpmath.quad(
            lambda t: mpmath.fsum(1 / mpmath.sqrt((t + lr) ** 2 + c * c) for lr, c in terms),
            breaks)
        if beta is not None:
            c = abs(mpmath.mpc(z))
            if c:
                def exact(n):
                    return mpmath.asinh((hi + n ** beta) / c) - mpmath.asinh((lo + n ** beta) / c)
            else:
                def exact(n):
                    return mpmath.log((hi + n ** beta) / (lo + n ** beta))
            total += mpmath.nsum(exact, [len(centers) + 1, mpmath.inf])
        return float(total / 4) * (1.0 if b >= a else -1.0)


# (configuration, z, from_t, to_t): segments that pass 1e-3 to 1e-1 from a
# center, on the axis (ending that close to one) and off it (passing one at
# that height), in both orientations
FLOW_ORACLE_SEGMENTS = [
    ("pl", 0j, -4 + 1e-3, -1 - 1e-1),
    ("pl", 0j, -1 + 1e-3, 5.0),
    ("pl", 0j, -4 - 1e-2, -9 + 1e-2),
    ("pl", 1e-3j, -20.0, 3.0),
    ("pl", 0.006 + 0.008j, -10.5, -0.2),
    ("pl", 0.1 + 0j, 20.0, -30.0),
    ("fin", -(1 + 1j) + 1e-3, -3.0, 2.0),
    ("fin", 0j, -2 + 1e-2, 4.0),
    ("fin", 0.5 - 0.1j, 3.0, -1.0),
]


@pytest.mark.parametrize("which,z,a,b", FLOW_ORACLE_SEGMENTS)
def test_flow_bound_holds_against_mpmath(which, z, a, b):
    if which == "pl":
        cfg = power_law(2.0)
        # explicit centers past the segment's heights; the rest in closed form
        m = int(math.sqrt(max(abs(a), abs(b)))) + 2
        oracle = _flow_oracle([(float(n) ** 2, 0j) for n in range(1, m)], z, a, b, beta=2.0)
    else:
        cfg = OFF_AXIS_FLOW
        oracle = _flow_oracle(OFF_AXIS, z, a, b)
    for eps in (1e-6, 1e-9, 1e-11):
        try:
            v = flow_log_g(cfg, z, a, b, eps)
        except TailUnresolved:
            # rounding at nodes near a center far from height 0 can put 1e-11
            # out of reach (at -16 over z = 1e-3 i it bounds the error at 1.5e-11)
            assert eps == 1e-11
            continue
        assert v.error_bound <= eps
        assert abs(v.value - oracle) <= v.error_bound, (eps, v, oracle)


def _flow_sum_oracle(t0, t1, c):
    """(1/4) sum_n [asinh((t1 + n^2)/c) - asinh((t0 + n^2)/c)], the flow
    from t0 to t1 over a base point at distance c from the axis of
    power_law(2.0), at 40 digits: directly below m, past both heights, and
    by Euler-Maclaurin from m on (the integral, with x = m/u, plus three
    corrections), where each term is L(t1) - L(t0) with
    L(t) = log1p(t/S) + log1p(w/(2 (1 + sqrt(1 + w)))), w = c^2/(S + t)^2,
    the same difference without the loss of asinh far out."""
    with mpmath.workdps(40):
        t0, t1, c = mpmath.mpf(t0), mpmath.mpf(t1), mpmath.mpf(c)
        m = 2 * int(math.sqrt(max(abs(t0), abs(t1)))) + 200

        def log_term(s, t):
            w = c * c / (s + t) ** 2
            return mpmath.log1p(t / s) + mpmath.log1p(w / (2 * (1 + mpmath.sqrt(1 + w))))

        def f(x):
            return log_term(x * x, t1) - log_term(x * x, t0)
        direct = mpmath.fsum(mpmath.asinh((t1 + n * n) / c) - mpmath.asinh((t0 + n * n) / c)
                             for n in range(1, m))
        tail = mpmath.quad(lambda u: f(m / u) * m / (u * u), [0, 1]) + f(mpmath.mpf(m)) / 2
        for k in (1, 2, 3):
            tail -= mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.diff(f, m, 2 * k - 1)
        return (direct + tail) / 4


@pytest.mark.parametrize("eta,zeta,z", [(3e4, -3e4, 0.5j), (100.0, -100.0, 1e-6j),
                                        (-100.0, 100.0, 1e-6j), (-3.0, -0.5, 1e-7)])
def test_flow_sum_bound_holds_across_centers(eta, zeta, z):
    # segments past many center heights off the axis, where a log ratio
    # near -1 lost its digits to log1p: 9.0e-8 off at the first, log(0) at
    # the second and third (the last only ends 1e-7 from center 1's height)
    v = flow_log_g_sum(power_law(2.0), eta, zeta, z, eps=1e-9)
    oracle = _flow_sum_oracle(zeta, eta, abs(z))
    assert v.error_bound <= 1e-9
    assert abs(v.value - oracle) <= v.error_bound, (v, oracle)


def test_flow_bound_covers_node_rounding():
    # A node at height t is only placed to within about |t| 1e-16; next to
    # a center at distance c that moves the integrand by a relative |t|
    # 1e-16 / c, which the bound must carry, or eps must be refused.
    met = refused = 0
    for height in (0.0, 1.0, 100.0, 1e4):
        cfg = finite_list([(height, 0j)])
        for c in (1e-3, 1e-6, 1e-9):
            a, b = -height - 0.5, -height + 0.5
            with mpmath.workdps(30):
                oracle = float((mpmath.asinh((mpmath.mpf(b) + height) / c)
                                - mpmath.asinh((mpmath.mpf(a) + height) / c)) / 4)
            try:
                v = flow_log_g(cfg, complex(0.0, c), a, b, 1e-10)
            except TailUnresolved:
                refused += 1
                continue
            met += 1
            assert abs(v.value - oracle) <= v.error_bound, (height, c, v, oracle)
    assert met >= 4 and refused >= 4


def test_flow_additivity():
    a = flow_log_g(PL2, 0j, -0.5, 0.0, eps=1e-10).value
    b = flow_log_g(PL2, 0j, 0.0, 0.5, eps=1e-10).value
    c = flow_log_g(PL2, 0j, -0.5, 0.5, eps=1e-10).value
    assert abs(a + b - c) <= 1e-9


def test_flow_segment_hits_center():
    with pytest.raises(SegmentHitsCenter):
        flow_log_g(PL2, 0j, -0.5, -1.5)
    with pytest.raises(SegmentHitsCenter):
        flow_log_g_sum(PL2, -1.0, -0.5, 0j)   # endpoint on the center


def test_flow_matches_sum_in_gap():
    v1 = flow_log_g(PL2, 0j, -2.5, -3.5, eps=1e-9)
    v2 = flow_log_g_sum(PL2, -3.5, -2.5, 0j, eps=1e-10)
    assert abs(v1.value - v2.value) <= max(1e-8, v1.error_bound + v2.error_bound)


def test_flow_sum_antisymmetric():
    a = flow_log_g_sum(PL2, -3.5, -2.5, 0j).value
    b = flow_log_g_sum(PL2, -2.5, -3.5, 0j).value
    assert abs(a + b) <= 1e-12


def test_flow_derivative_is_phi():
    rng = random.Random(5)
    h = 1e-4
    for _ in range(20):
        n = rng.randint(1, 3)
        gap = rng.choice([(-(k + 1) ** 2 + 0.3, -k * k - 0.3) for k in range(1, 4)])
        eta = rng.uniform(gap[0] + 0.2, gap[1] - 0.2)
        zeta = rng.uniform(gap[0] + 0.2, gap[1] - 0.2)
        fp = flow_log_g_sum(PL2, eta + h, zeta, 0j, eps=1e-12).value
        fm = flow_log_g_sum(PL2, eta - h, zeta, 0j, eps=1e-12).value
        mid = phi(PL2, ImHPoint(eta, 0j), 1e-12).value
        assert abs((fp - fm) / (2 * h) - mid) <= 1e-6 * mid


def test_flow_iff_same_class():
    cases = [(-2.5, -3.9, 0j, True), (-2.5, -0.5, 0j, False), (2.0, 55.0, 1j, True)]
    for a, b, z, ok in cases:
        assert same_class(PL2, ImHPoint(a, z), ImHPoint(b, z)) == ok
        if ok:
            flow_log_g(PL2, z, a, b, eps=1e-6)
        else:
            with pytest.raises(SegmentHitsCenter):
                flow_log_g(PL2, z, a, b, eps=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.floats(-30, 30, allow_nan=False), st.floats(-10, 10, allow_nan=False),
       st.floats(-10, 10, allow_nan=False))
def test_phi_positive(t, zr, zi):
    p = ImHPoint(t, complex(zr, zi))
    assume(PL2.nearest_center_distance(p) > 1e-3)
    assert phi(PL2, p, 1e-8).value > 0


def test_radial_distance_zero():
    assert radial_distance(PL2, (0.0, 1.0, 0.0), 0.0) == 0.0


def test_radial_distance_single_center_sqrt_law():
    for r in (1.0, 9.0, 100.0):
        d = radial_distance(SINGLE, (0.3, 0.5, -0.8), r)
        assert abs(d - math.sqrt(r)) <= 1e-9 * (1 + math.sqrt(r))


def test_radial_distance_monotone():
    d1 = radial_distance(PL2, (0.0, 1.0, 0.0), 10.0)
    d2 = radial_distance(PL2, (0.0, 1.0, 0.0), 100.0)
    assert 0 < d1 < d2


def _mp_gauss_rule(n):
    """The n-node Gauss-Legendre rule at the working precision: the roots
    of P_n next to numpy's nodes, and their weights."""
    rule = []
    for xi in np.polynomial.legendre.leggauss(n)[0].tolist():
        root = mpmath.findroot(lambda t: mpmath.legendre(n, t), xi)
        slope = mpmath.diff(lambda t: mpmath.legendre(n, t), root)
        rule.append((root, 2 / ((1 - root * root) * slope * slope)))
    return rule


def test_gauss_legendre_rule_accuracy():
    # flow_log_g's rounding term assumes nodes within 2^-53 (it allows four
    # times that) and weights within _GL_WEIGHT_ERR, relative
    with mpmath.workdps(40):
        exact = _mp_gauss_rule(potential._GL_N)
        for (xi, wi), (root, weight) in zip(zip(*(v.tolist() for v in potential._GL)), exact):
            assert abs(root - xi) <= 2.0 ** -53
            assert abs(wi - weight) <= potential._GL_WEIGHT_ERR * weight


def test_panel_bound_covers_gauss_error():
    # The Bernstein-ellipse bound of one panel [-1, 1] against the true
    # error of the _GL_N-node rule (at 80 digits) on 1/|t - x0|, a branch
    # point on the axis past the panel's end, and on 1/sqrt(t^2 + c^2), a
    # conjugate pair over its middle.  The bound is 118 to 2.2e4 times the
    # error here; with rho^(2 _GL_N) in place of rho^(2 (_GL_N - 1)) it
    # would fall below it at x0 = 8 (0.69 times) and x0 = 11 (0.38 times).
    lo, hi = np.array([-1.0]), np.array([1.0])
    cases = [(-x0, 0.0) for x0 in (1.01, 1.1, 1.3, 2.0, 8.0, 11.0)]
    cases += [(0.0, c * c) for c in (0.1, 0.3, 1.0, 1.5)]
    with mpmath.workdps(80):
        rule = _mp_gauss_rule(potential._GL_N)
        for lr, c2 in cases:
            lr_, c2_ = mpmath.mpf(lr), mpmath.mpf(c2)
            gauss = mpmath.fsum(w / mpmath.sqrt((x + lr_) ** 2 + c2_) for x, w in rule)
            if c2:
                exact = 2 * mpmath.asinh(1 / mpmath.sqrt(c2_))
            else:
                exact = mpmath.log((-lr_ + 1) / (-lr_ - 1))
            err = float(abs(gauss - exact))
            bound, _ = potential._bernstein_bound(np.array([lr]), np.array([c2]), lo, hi)
            assert err <= bound[0], (lr, c2, err, bound[0])


def test_quad_raises_when_panels_cannot_agree():
    # radial_distance's acceptance rule, on an oscillation that more than
    # _MAX_PANELS panels would be needed to resolve
    def panels(func, lo, hi):
        q, q2 = potential._gauss(func, lo, hi, potential._GL, potential._GL2)
        err = np.abs(q - q2)
        ok = err <= 1e-9 * np.abs(q2)
        return ok, q2[ok], err[ok]
    assert potential.quad(np.cos, 0.0, 2.0, panels)[0] == pytest.approx(math.sin(2.0))
    assert potential.quad(np.cos, 2.0, 0.0, panels)[0] == pytest.approx(-math.sin(2.0))
    with pytest.raises(QuadratureUnresolved):
        potential.quad(lambda x: np.cos(1e6 * x), 0.0, 1.0, panels)


def test_radial_distance_ray_hits_center():
    with pytest.raises(RayHitsCenter):
        radial_distance(PL2, (-1.0, 0.0, 0.0), 10.0)


def test_growth_insufficient_range():
    with pytest.raises(InsufficientRange):
        growth_exponent(SINGLE, [100.0, 500.0], 1000, 1)


def test_growth_single_center_smoke(monkeypatch):
    rho = [10.0 * 10 ** (k / 4) for k in range(9)]   # two decades
    tables = _count_tables(monkeypatch)
    fit = growth_exponent(finite_list([(0.0, 0j)]), rho, 20_000, seed=7, n_psi=48,
                          n_radial=256)
    assert abs(fit.slope - 4.0) <= 0.1
    # bit-reproducible for a fixed seed, tables included: a fresh
    # configuration builds them again
    fit2 = growth_exponent(finite_list([(0.0, 0j)]), rho, 20_000, seed=7, n_psi=48,
                           n_radial=256)
    assert fit2 == fit and len(tables) == 2


@pytest.mark.parametrize("kwargs, error, name", [
    ({"rho_grid": [1e2, math.nan, 1e4]}, InsufficientRange, "rho_grid"),
    ({"rho_grid": [1e2, 1e3, math.inf]}, InsufficientRange, "rho_grid"),
    ({"n_psi": 0}, ValueError, "n_psi"),
    ({"n_radial": 0}, ValueError, "n_radial"),
    ({"mc_samples": 0}, ValueError, "mc_samples"),
    ({"mc_samples": 143}, ValueError, "mc_samples"),
], ids=["nan_rho", "inf_rho", "n_psi", "n_radial", "mc_samples", "mc_samples_per_rho"])
def test_growth_rejects_invalid_arguments(kwargs, error, name, monkeypatch):
    # each is rejected by name before any work, with no numpy warning
    def no_work(*args):
        raise AssertionError("boundary tables computed")
    monkeypatch.setattr(potential, "_boundary_tables", no_work)
    args = {"rho_grid": np.geomspace(1e2, 1e4, 9), "mc_samples": 1000, "seed": 1}
    args.update(kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=name):
            growth_exponent(SINGLE, **args)


def _full_grid_tables(config, rho_grid, n_psi, n_radial):
    """The reference for ``_boundary_tables``: its probe and sigma grid,
    ``_phi_batch`` at every node of every ray, one cumsum along each ray
    and an interpolation of the whole ray."""
    rho_max = rho_grid[-1]
    x_grid = np.linspace(-1.0, 1.0, n_psi + 2)[1:-1]
    r_up = 4.0 * (1.0 + rho_max)
    while True:
        short = False
        for x in (x_grid[-1], 0.0, x_grid[0]):
            sig = np.sqrt(r_up) * np.linspace(0.0, 1.0, 512)
            s = sig * sig
            g = 2.0 * sig * np.sqrt(_phi_batch(config, s * x, s * math.sqrt(1.0 - x * x),
                                               rel_tol=1e-3))
            short |= bool(np.trapezoid(g, sig) < 1.2 * rho_max)
        if not short:
            break
        r_up *= 4.0
    sig_up = math.sqrt(r_up)
    sig = np.unique(np.concatenate([np.linspace(0.0, sig_up, n_radial // 3),
                                    sig_up * np.geomspace(1e-8, 1.0, n_radial)]))
    s = sig * sig
    tt = np.repeat(x_grid, sig.size) * np.tile(s, x_grid.size)
    cc = np.repeat(np.sqrt(1.0 - x_grid * x_grid), sig.size) * np.tile(s, x_grid.size)
    g = 2.0 * sig[None, :] * np.sqrt(_phi_batch(config, tt, cc).reshape(x_grid.size, sig.size))
    cum = np.concatenate([np.zeros((x_grid.size, 1)),
                          np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * np.diff(sig), axis=1)],
                         axis=1)
    assert cum[:, -1].min() >= rho_max
    tables = np.empty((len(rho_grid), x_grid.size))
    for i in range(x_grid.size):
        tables[:, i] = np.interp(rho_grid, cum[i], sig) ** 2
    return x_grid, tables


ACCEPTANCE_RHO = np.geomspace(1e2, 1e4, 9)


@pytest.mark.parametrize("config, rho, n_psi, n_radial", [
    (SINGLE, ACCEPTANCE_RHO, 16, 64),
    (power_law(2.0), ACCEPTANCE_RHO, 16, 64),
    (power_law(3.0), ACCEPTANCE_RHO, 16, 64),
    (STEEP, np.geomspace(1.0, 10.0, 4), 12, 60),
    (power_law(2.0), ACCEPTANCE_RHO, 320, 768),
], ids=["single", "beta2", "beta3", "axial_monotone", "beta2_defaults"])
def test_boundary_tables_equal_full_grid(config, rho, n_psi, n_radial):
    x_grid, tables = potential._boundary_tables(config, rho, n_psi, n_radial)
    x_ref, ref = _full_grid_tables(config, rho, n_psi, n_radial)
    assert np.array_equal(x_grid, x_ref)
    assert np.array_equal(tables, ref)


def test_growth_fit_equal_with_full_grid_tables(monkeypatch):
    args = (ACCEPTANCE_RHO, 20_000, 5)
    fit = growth_exponent(power_law(2.0), *args, n_psi=48, n_radial=256)
    monkeypatch.setattr(potential, "_boundary_tables", _full_grid_tables)
    full = _count_tables(monkeypatch)
    # a fresh configuration, so that the fit reads the full-grid tables
    ref = growth_exponent(power_law(2.0), *args, n_psi=48, n_radial=256)
    assert len(full) == 1
    assert fit.samples == ref.samples
    assert fit.slope == ref.slope and fit.slope_stderr == ref.slope_stderr


def _count_tables(monkeypatch):
    """A list that gets the arguments of every call of the boundary tables
    (the function in place when this is called) from growth_exponent."""
    calls, tables = [], potential._boundary_tables

    def spy(config, rho, n_psi, n_radial):
        calls.append((config, tuple(rho), n_psi, n_radial))
        return tables(config, rho, n_psi, n_radial)
    monkeypatch.setattr(potential, "_boundary_tables", spy)
    return calls


def _small_fit(config, rho=ACCEPTANCE_RHO, seed=1, n_psi=16, n_radial=64):
    return growth_exponent(config, rho, 2000, seed, n_psi=n_psi, n_radial=n_radial)


def test_growth_tables_built_once_per_configuration_grid_and_sizes(monkeypatch):
    # a refit with another seed reads the kept tables; another rho grid,
    # n_psi, n_radial or configuration object builds its own, while an
    # equal configuration (same family and truncations) shares them
    calls = _count_tables(monkeypatch)
    cfg = power_law(2.0)
    _small_fit(cfg)
    assert len(calls) == 1
    _small_fit(cfg, seed=2)
    _small_fit(Configuration(cfg.family, cfg.truncation, cfg.max_truncation), seed=3)
    assert len(calls) == 1
    _small_fit(cfg, rho=np.geomspace(1e2, 1e4, 5))
    _small_fit(cfg, n_psi=12)
    _small_fit(cfg, n_radial=60)
    _small_fit(power_law(2.0))
    # max_truncation bounds the tables' truncation, so it keys them too
    _small_fit(Configuration(cfg.family, cfg.truncation, cfg.max_truncation // 2))
    assert len(calls) == 6
    assert len({(id(c), *rest) for c, *rest in calls}) == 6
    for args in ((cfg,), (cfg, np.geomspace(1e2, 1e4, 5)), (power_law(2.0),)):
        _small_fit(*args, seed=4)
    assert len(calls) == 7      # only the last configuration is new


def test_growth_fit_on_kept_tables_equals_fresh_fit(monkeypatch):
    # a fit on kept tables is the fit on a fresh configuration, bit for bit
    cfg = power_law(3.0)
    _small_fit(cfg, seed=5)
    calls = _count_tables(monkeypatch)
    hit = _small_fit(cfg, seed=9)
    fresh = _small_fit(power_law(3.0), seed=9)
    assert len(calls) == 1 and calls[0][0] is not cfg
    assert hit == fresh


def test_growth_tables_are_read_only_and_die_with_their_configuration():
    cfg = finite_list([(0.0, 0j)])
    rho = np.unique(ACCEPTANCE_RHO)
    x_grid, tables = potential._growth_tables(cfg, rho, 16, 64)
    assert potential._growth_tables(cfg, rho, 16, 64)[1] is tables
    for a in (x_grid, tables):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    refs = [weakref.ref(cfg), weakref.ref(tables)]
    del cfg, x_grid, tables, a
    gc.collect()
    assert all(r() is None for r in refs)


def test_growth_tables_failure_is_not_kept(monkeypatch):
    # a TailUnresolved from the tables raises again on the next call
    calls = _count_tables(monkeypatch)
    cfg = finite_list([(0.0, 0j)])
    for _ in range(2):
        with pytest.raises(TailUnresolved, match="boundary cumulative fell short"):
            growth_exponent(cfg, ACCEPTANCE_RHO, 1000, 1, n_radial=1)
    assert len(calls) == 2


def _record_sums(monkeypatch, record):
    """Call record(n, points) on every sum of a growth batch's points at
    one truncation, by the kernel or the treecode."""
    sums = potential._truncated_sums

    def call(config, n, t, *args):
        record(n, np.size(t))
        return sums(config, n, t, *args)
    monkeypatch.setattr(potential, "_truncated_sums", call)


def test_boundary_tables_skip_nodes_past_the_crossing(monkeypatch):
    # points x N summed by the kernel and the treecode, probe included: the
    # rays stop soon after they pass the largest rho, against every node of
    # the full grid
    terms = [0]

    def count(n, points):
        terms[0] += points * n
    _record_sums(monkeypatch, count)
    cfg = power_law(2.0)
    potential._boundary_tables(cfg, ACCEPTANCE_RHO, 320, 768)
    swept, terms[0] = terms[0], 0
    _full_grid_tables(cfg, ACCEPTANCE_RHO, 320, 768)
    assert swept <= 0.6 * terms[0]


def test_boundary_tables_sum_in_column_blocks(monkeypatch):
    # every kernel and treecode call of the tables, probe included, holds at
    # most one column block: _SWEEP_TERMS terms at _NODE_TERMS or more per
    # node, or a single column of n_psi nodes; the single center too, whose
    # one N serves the whole grid
    sizes = []
    _record_sums(monkeypatch, lambda n, points: sizes.append(points))
    for cfg in (SINGLE, power_law(2.0), power_law(3.0)):
        sizes.clear()
        potential._boundary_tables(cfg, ACCEPTANCE_RHO, 320, 768)
        assert max(sizes) <= max(potential._SWEEP_TERMS // potential._NODE_TERMS, 320)


@pytest.mark.parametrize("config", [SINGLE, power_law(2.0)], ids=["single", "beta2"])
def test_boundary_probe_one_batch_per_quadrupling(config, monkeypatch):
    # the upper-radius probe sums its three rays as one batch of 3 x 512
    # nodes, once per quadrupling of r_up
    probes = []
    batch = potential._phi_batch

    def spy(config, t, c, *args, **kwargs):
        probes.append((t.size, float(np.hypot(t, c).max())))
        return batch(config, t, c, *args, **kwargs)
    monkeypatch.setattr(potential, "_phi_batch", spy)
    potential._boundary_tables(config, ACCEPTANCE_RHO, 16, 64)
    sizes, reach = zip(*probes)
    assert len(probes) > 1 and set(sizes) == {3 * 512}
    assert np.allclose(np.diff(np.log(reach)), math.log(4.0))


@pytest.mark.parametrize("config", [SINGLE, power_law(2.0)], ids=["single", "beta2"])
def test_boundary_cumulative_shortfall_raises(config):
    # one node per ray: every cumulative stays at zero
    with pytest.raises(TailUnresolved, match="boundary cumulative fell short"):
        growth_exponent(config, ACCEPTANCE_RHO, 1000, 1, n_radial=1)


@pytest.mark.parametrize("n_psi", [1, 2, 3, 320])
def test_grid_lookup_equals_np_interp_bit_for_bit(n_psi):
    # the arithmetic lookup of the strata against np.interp on the tables'
    # grid: at every node, one ulp to either side of it, at -1, below the
    # first node and above the last, and at 10^6 random points (n_psi = 1
    # gives fp[0] everywhere)
    rng = np.random.default_rng(n_psi)
    xp = np.linspace(-1.0, 1.0, n_psi + 2)[1:-1]
    fp = rng.uniform(1.0, 1e4, n_psi)
    x = np.concatenate([xp, np.nextafter(xp, -2.0), np.nextafter(xp, 2.0),
                        [-1.0, np.nextafter(-1.0, 0.0), -1.5, 0.5 * (xp[0] - 1.0),
                         1.0, np.nextafter(1.0, 0.0), 1.5],
                        rng.uniform(-1.0, 1.0, 10 ** 6)])
    ref = np.interp(x, xp, fp)
    assert np.array_equal(potential._grid_interp(x, xp, fp), ref)
    if n_psi == 1:
        assert np.all(ref == fp[0])
