"""Configuration, fiber, and tail checks."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ainfty
from ainfty import config
from ainfty.config import (
    Finite, OMEGA_DOWN, axial_monotone, config_digest, config_from_dict,
    config_to_dict, delta_set, fiber, finite_list, general_axial, hurwitz_zeta, power_law,
    validate,
)
from ainfty.errors import TailUnresolved, UnknownOrderType
from ainfty.geometry import ImHPoint
from ainfty.quotient import class_of


def test_power_law_valid():
    report = validate(power_law(2.0, truncation=100))
    assert report.generic
    assert report.chart_admissible
    assert report.summable


def test_duplicate_centers_not_generic():
    report = validate(finite_list([(1.0, 0j), (1.0, 0j)]))
    assert not report.generic
    assert report.duplicates == ((0, 1),)


def test_summability_bound_power_law():
    # oracle: high-precision partial sum of 1/(1+n^2) with integral tail
    with mpmath.workdps(40):
        exact = mpmath.nsum(lambda n: 1 / (1 + n**2), [1, mpmath.inf])
        assert abs(exact - (mpmath.pi / mpmath.tanh(mpmath.pi) - 1) / 2) < mpmath.mpf("1e-30")
    exact = float(exact)
    report = validate(power_law(2.0, truncation=4000))
    assert report.summability_bound >= exact
    assert report.summability_bound - exact < 1e-6


def test_tail_bound_consistency():
    cfg = power_law(2.0)
    b1 = validate(power_law(2.0, truncation=500)).summability_bound
    b2 = validate(power_law(2.0, truncation=2000)).summability_bound
    lr, lc = cfg.center_arrays(2000)
    mid = math.fsum(1.0 / (1.0 + math.hypot(t, abs(z))) for t, z in
                    zip(lr[500:].tolist(), lc[500:].tolist()))
    assert b1 >= b2 - mid - 1e-15


def test_finite_list_tails_vanish_at_full_truncation():
    fam = finite_list([(1.0, 2 + 1j), (-3.0, 0j), (0.5, -1j)]).family
    for t, z in [(0.0, 0j), (0.7, 1 - 2j), (-40.0, 3j)]:
        est, err = fam.phi_tail(fam.count, t, z)
        assert (float(est), err) == (0.0, 0.0)
        assert fam.log_tail(fam.count, t, z) == (0.0, 0.0)
        assert fam.flow_tail(fam.count, t, t + 2.0, z) == (0.0, 0.0)


def _same_tail(a, b):
    """Two (estimates, bound) pairs of phi_tail equal bit for bit, with the
    same types, shapes and dtypes."""
    (ea, ba), (eb, bb) = a, b
    return (type(ea) is type(eb) and ea.shape == eb.shape and ea.dtype == eb.dtype
            and np.array_equal(ea, eb) and type(ba) is type(bb) and ba == bb)


def test_finite_list_phi_tail_at_full_count_forms_no_radii(monkeypatch):
    # at or past its count a finite list returns the general estimate and
    # bound, types, shapes and dtypes included, without forming radii to
    # compare with min_tail_norm; points whose radius may overflow, or NaN,
    # take the general path (bound inf), as does a count below the list's
    fam = finite_list([(1.0, 2 + 1j), (-3.0, 0j), (0.5, -1j)]).family
    rng = np.random.default_rng(2)
    t, z = rng.uniform(-50.0, 50.0, 40), rng.uniform(-5.0, 5.0, 40) + 1j * rng.uniform(0.0, 5.0, 40)
    huge = 2.0 ** 1023
    cases = [(0.7, 1 - 2j), (-40.0, 0.0), (0, 0), (t, z), (t, np.abs(z)), (t, 0.5j),
             (np.float64(3.0), z), (t.reshape(8, 5), z[:5]), (t[:4, None], z[None, :6]),
             (np.array(2.5), np.array(1j)), (np.array([huge, 1.0]), 0.0),
             (1.0, np.array([1j, 1.7e308 + 1.7e308j])), (np.array([np.nan, 1.0]), 0j),
             (1.0, complex(0.0, math.nan))]
    general = config.CenterFamily.phi_tail
    for n in (fam.count, fam.count + 5, fam.count - 1):
        for t_, z_ in cases:
            expected = general(fam, n, t_, z_)
            calls = []
            norm = fam.min_tail_norm
            monkeypatch.setattr(fam, "min_tail_norm", lambda n: calls.append(n) or norm(n))
            got = fam.phi_tail(n, t_, z_)
            monkeypatch.undo()
            assert _same_tail(got, expected)
            finite = np.all(np.abs(t_) < huge) and np.all(np.abs(z_) < huge)
            assert (not calls) == (n >= fam.count and finite)
    with pytest.raises(ValueError):
        fam.phi_tail(fam.count, np.array([]), 0j)


# (s, a) = (m beta, N + 1) as the power-law tails ask for them: m = 1..17, and
# N doubling from one center or from the truncations in use (1024 and 4096
# are powers of two; the README's example has 10000)
ZETA_GRID = [(m * beta, n + 1)
             for beta in (1.05, 1.2, 1.5, 2.0, 2.5, 3.0, 7.3) for m in range(1, 18)
             for n in sorted({1 << k for k in range(22)} | {10000 << k for k in range(8)})]


def _random_zeta_args(seed, count):
    rng = random.Random(seed)
    return [(rng.uniform(1.01, 40.0), rng.choice((rng.uniform(0.5, 1e7),
                                                  float(rng.randint(1, 1 << 22)))))
            for _ in range(count)]


def test_hurwitz_zeta_matches_scipy_bit_for_bit():
    scipy_special = pytest.importorskip("scipy.special")
    for s, a in ZETA_GRID + _random_zeta_args(11, 5000):
        assert hurwitz_zeta(s, a) == scipy_special.zeta(s, a), (s, a)


def test_hurwitz_zeta_matches_mpmath():
    # The oracle keeps 30 significant digits: for integer a, mpmath.zeta
    # subtracts a partial sum from zeta(s), so the working precision must
    # also cover the cancellation (at a flat 30 digits, zeta(64, 513) comes
    # out 3e-9 too large).  The Cephes summation is not correctly rounded:
    # at the 3380 points of ZETA_GRID above 1e-290 it is off by up to 4.8
    # ulps, and by more than 2 ulps at 73 of them, so the bound here is 8.
    args = [(s, a) for s, a in ZETA_GRID[::11] if s * math.log10(a) < 290]
    for s, a in args + _random_zeta_args(12, 60):
        with mpmath.workdps(30 + int(s * math.log10(a)) + 1):
            oracle = mpmath.zeta(s, a)
        assert abs(hurwitz_zeta(s, a) - oracle) <= 8 * math.ulp(float(oracle)), (s, a)


def test_hurwitz_zeta_underflow_is_zero():
    # every term underflows; the C stopping tests see 0/0 there and never fire
    assert hurwitz_zeta(400.0, (1 << 21) + 1) == 0.0
    # a steep power law at the origin, where zeta(m 60, 4097) underflows for
    # m >= 2: the remainder of the tail series vanishes and only its rounding
    # term is left, and the scaled coefficients keep the estimate zeta(60, 4097)
    est, err = power_law(60.0).family.phi_tail(1 << 12, 0.0, 0j)
    assert err == config._legendre_rounding(60.0, 1 << 12, 0.0)
    with mpmath.workdps(30 + int(60 * math.log10(4097)) + 1):
        oracle = mpmath.zeta(60, 4097)
    assert est > 0.0 and abs(est - oracle) <= err


def test_scaled_hurwitz_zeta_matches_mpmath():
    # within the stated x + 16 ulps of q^x zeta(x, q), on the grid of the
    # power-law tails, at random arguments, and where x log10(q) > 308, so
    # that zeta(x, q) itself is 0.0 in floats (the oracle's precision covers
    # the cancellation of mpmath.zeta at integer q, see above)
    big = [(60.0, 1e6), (54.0, (1 << 21) + 1.0), (100.0, (1 << 21) + 1.0),
           (250.0, 65.0), (17 * 7.3, 4097.0)]
    args = [(s, a) for s, a in ZETA_GRID[::37] if s * math.log10(a) < 290]
    for s, a in args + _random_zeta_args(13, 40) + big:
        with mpmath.workdps(30 + int(s * math.log10(a)) + 1):
            oracle = mpmath.zeta(s, a) * mpmath.mpf(a) ** s
        scaled = hurwitz_zeta(s, a, scaled=True)
        assert abs(scaled - oracle) <= (s + 16) * math.ulp(float(oracle)), (s, a)
    assert all(hurwitz_zeta(s, a) == 0.0 for s, a in big[1:3])


def test_tail_probe_bound_equals_full_tail_bound():
    for cfg in (power_law(2.0), power_law(1.3), finite_list([(1.0, 2j), (-2.0, 0j)])):
        fam = cfg.family
        for n in (1, 2, 64, 1024):
            for t, z in [(0.0, 0j), ([-3.5, -2.5], [0j, 0j]), ([40.0, -9.0], [0.3j, 1.0])]:
                assert fam.phi_tail_bound(n, t, z) == fam.phi_tail(n, t, z)[1]


def _legendre_terms(beta, n, t, c):
    """sum_{l<=L} (-1)^l Z_l rho^l P_l(t/r) / s0, r = |(t, c)|, rho = r/s0,
    at 40 digits, each P_l from mpmath.legendre, with the series' float
    coefficients Z_l: the tail estimate without its rounding."""
    zl = config._legendre_coeffs(hurwitz_zeta, beta, n)
    s0 = float(n + 1) ** beta
    with mpmath.workdps(40):
        t, c = mpmath.mpf(t), mpmath.mpf(c)
        r = mpmath.sqrt(t * t + c * c)
        if r == 0:
            return zl[0] / mpmath.mpf(s0)
        rho = r / s0
        return mpmath.fsum((-1) ** l * z * rho ** l * mpmath.legendre(l, t / r)
                           for l, z in enumerate(zl)) / s0


def test_powerlaw_tail_series_matches_term_by_term(monkeypatch):
    # the recurrence against the explicit Legendre terms, within the series'
    # rounding term; a point's value does not depend on the blocks, and is
    # the value of the same point alone, on floats
    rng = np.random.default_rng(5)
    for beta, n, size in [(2.0, 1024, 26), (1.3, 64, 1), (3.0, 7, 3000), (2.5, 4096, 9),
                          (1.05, 1, 12)]:
        fam = power_law(beta).family
        s0 = float(n + 1) ** beta
        rho = rng.uniform(0.0, 0.95, size)
        angle = rng.uniform(0.0, math.pi, size)
        t, c = s0 * rho * np.cos(angle), s0 * rho * np.sin(angle)
        est, err = fam.phi_tail(n, t, c)
        assert err < math.inf
        for e, ti, ci in zip(est[:30], t, c):
            # the rounding term at the point's own rho, rounded up
            rounding = config._legendre_rounding(beta, n, math.hypot(ti, ci) / s0 * (1 + 1e-15))
            assert abs(e - _legendre_terms(beta, n, ti, ci)) <= rounding, (beta, n, ti, ci)
        assert all(fam.phi_tail(n, ti, ci)[0] == e for e, ti, ci in zip(est, t, c))
        with monkeypatch.context() as m:
            m.setattr(config, "_BLOCK", 16 * 7)
            assert np.array_equal(fam.phi_tail(n, t, c)[0], est)


def _phi_tail_oracle(beta, n, t, c):
    """sum_{k>n} 1/sqrt((t + k^beta)^2 + c^2) at 40 digits: 200 terms
    summed directly, the rest by Euler-Maclaurin from m = n + 201 (the
    integral, with x = m u^-p, p = 1/(beta - 1), bounded at u = 0, plus
    three corrections).  The terms are scaled by (n + 1)^(beta - 1), about
    the inverse of the sum, while summed, as mpmath.quad meets an absolute
    tolerance."""
    with mpmath.workdps(40):
        b, t, c = mpmath.mpf(beta), mpmath.mpf(t), mpmath.mpf(c)
        scale = mpmath.mpf(n + 1) ** (b - 1)

        def f(x):
            return scale / mpmath.sqrt((t + x ** b) ** 2 + c * c)
        m = mpmath.mpf(n + 201)
        p = 1 / (b - 1)
        tail = mpmath.quad(lambda u: f(m * u ** -p) * m * p * u ** (-p - 1), [0, 1]) + f(m) / 2
        for k in (1, 2, 3):
            tail -= mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.diff(f, m, 2 * k - 1)
        return (mpmath.fsum(f(mpmath.mpf(k)) for k in range(n + 1, n + 201)) + tail) / scale


@settings(max_examples=25, deadline=None)
@given(st.floats(1.2, 3.0), st.sampled_from([64, 1024]), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
@example(2.0, 64, 0.0, 0.0, 0.0).via("the estimate is zeta(2, 65): rounding only")
@example(1.5, 1024, 0.0, 0.0, 1e-4).via("rounding only, off the axis")
@example(1.5, 1024, 0.0, 0.0, 0.5).via("half the radius of convergence, off the axis")
def test_powerlaw_tail_series_within_bound_of_oracle(beta, n, f0, f1, g):
    fam = power_law(beta).family
    s0 = float(n + 1) ** beta
    # radii up to 0.99 s0, near where the series stops converging: heights
    # up to it, and c (the same at both heights) up to it at the larger one
    t_max = 0.99 * s0
    t0, t1 = f0 * t_max, f1 * t_max
    top = max(abs(t0), abs(t1))
    c = g * math.sqrt(max(0.0, t_max * t_max - top * top))
    z = c * complex(0.6, 0.8)
    oracle = [_phi_tail_oracle(beta, n, t, c) for t in (t0, t1)]
    est, err = fam.phi_tail(n, [t0, t1], [z, z])
    assert err < math.inf
    for e, o in zip(est, oracle):
        assert abs(e - o) <= err, (e, o, err)
    for t, o in zip((t0, t1), oracle):
        e, err = fam.phi_tail(n, t, z)
        assert abs(e - o) <= err, (t, e, o, err)


def test_powerlaw_tail_bound_holds_where_zeta_underflows():
    # zeta(m 5, 2^20 + 1) underflows for m >= 11: unscaled coefficients
    # vanished there, and the bound of the binomial series was false
    n = 1 << 20
    s0 = float(n + 1) ** 5.0
    z = 0.99 * s0 / math.sqrt(2.0) * complex(0.6, 0.8)
    est, err = power_law(5.0).family.phi_tail(n, 0.0, z)
    assert err < 1e-3 * est
    assert abs(est - _phi_tail_oracle(5.0, n, 0.0, abs(z))) <= err


def _log_tail_oracle(beta, n, t, c):
    """sum_{k>n} log((s + d)/(2S)), S = k^beta, d = t + S, s = sqrt(d^2 + c^2),
    at 40 digits: 200 terms summed directly, the rest by Euler-Maclaurin
    from m = n + 201 (the integral, with x = m u^-p, p = 1/(beta - 1),
    bounded at u = 0, plus three corrections).  Each term is
    log1p(t/S) + log1p(w/(2 (1 + sqrt(1 + w)))), w = c^2/(S + t)^2, the
    same number without the loss of log near 1 far out.  The terms are
    divided by (|t| + c^2/s0) (n + 1)^(1 - beta), s0 = (n + 1)^beta, the
    size of the sum up to a factor 1/(beta - 1), while summed, as
    mpmath.quad meets an absolute tolerance."""
    if t == 0 and c == 0:
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        b, t, c = mpmath.mpf(beta), mpmath.mpf(t), mpmath.mpf(c)
        scale = (abs(t) + c * c / mpmath.mpf(n + 1) ** b) * mpmath.mpf(n + 1) ** (1 - b)

        def f(x):
            s = x ** b
            w = c * c / (s + t) ** 2
            return (mpmath.log1p(t / s) + mpmath.log1p(w / (2 * (1 + mpmath.sqrt(1 + w))))) / scale
        m = mpmath.mpf(n + 201)
        p = 1 / (b - 1)
        tail = mpmath.quad(lambda u: f(m * u ** -p) * m * p * u ** (-p - 1), [0, 1]) + f(m) / 2
        for k in (1, 2, 3):
            tail -= mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.diff(f, m, 2 * k - 1)
        return (mpmath.fsum(f(mpmath.mpf(k)) for k in range(n + 1, n + 201)) + tail) * scale


@settings(max_examples=25, deadline=None)
@given(st.floats(1.2, 8.0), st.sampled_from([64, 1024, 1 << 16]), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
@example(2.0, 1024, -216.0 / (0.9 * 1025.0 ** 2), 20.0 / (0.9 * 1025.0 ** 2),
         2.0 / (0.9 * 1025.0 ** 2)).via("the bench's heights and base points")
@example(3.0, 1024, -216.0 / (0.9 * 1025.0 ** 3), 0.0, 0.0).via("a gap of the bench, on the axis")
@example(8.0, 1 << 16, -3e-8 / 0.9, -1e-3 / 0.9, 0.0).via("an order-9 series overflowed at -1e-3")
@example(8.0, 1 << 16, -0.5 / 0.9, 0.5 / 0.9, 0.3).via("half the radius of convergence")
def test_powerlaw_log_tail_within_bound_of_oracle(beta, n, f0, f1, g):
    fam = power_law(beta).family
    s0 = float(n + 1) ** beta
    # radii up to 0.9 s0: heights up to it, and c (the same at both heights)
    # up to it at the larger one
    r_max = 0.9 * s0
    t0, t1 = f0 * r_max, f1 * r_max
    top = max(abs(t0), abs(t1))
    c = g * math.sqrt(max(0.0, r_max * r_max - top * top))
    z = c * complex(0.6, 0.8)
    oracle = {t: _log_tail_oracle(beta, n, t, abs(z)) for t in (t0, t1)}
    for t in (t0, t1):
        est, err = fam.log_tail(n, t, z)
        assert err < math.inf
        assert abs(est - oracle[t]) <= err, (t, est, err)
    est, err = fam.flow_tail(n, t0, t1, z)
    assert abs(est - (oracle[t1] - oracle[t0])) <= err


def test_powerlaw_log_tail_bound_is_tight_on_the_axis():
    # rho = 0.24, where the order-9 series returned (0, inf).  On the axis
    # every dropped term has one sign, so the error (4.3e-12) comes close to
    # the remainder bound (4.4e-12; 6.6e-12 with rounding)
    est, err = power_law(2.0).family.log_tail(64, -1000.0, 0j)
    error = abs(est - _log_tail_oracle(2.0, 64, -1000.0, 0.0))
    assert err / 2.0 < error <= err


def test_powerlaw_log_tail_bound_is_inf_outside_the_ball():
    # no term is formed at rho >= 1, so nothing overflows; at the origin
    # the series vanishes and so does its bound, but for underflow
    fam = power_law(8.0).family
    s0 = 1025.0 ** 8
    for t, z in [(-s0, 0j), (0.0, s0), (-1e31, 0.5), (1e300, 1e300j), (math.nan, 0j)]:
        assert fam.log_tail(1024, t, z) == (0.0, math.inf)
    est, err = fam.log_tail(1024, 0.0, 0j)
    assert est == 0.0 and err < 1e-290


def test_powerlaw_log_tail_bound_at_enumerated_truncation():
    # the heights and base points of the bench's query ops: gaps k <= 5
    # (down to -6^beta), off-axis flows up to 20, |z| <= 3
    for beta in (2.0, 3.0):
        fam = power_law(beta).family
        heights = np.linspace(-(6.0 ** beta), 20.0, 101).tolist()
        for z in (0j, 1.0, 2 - 2j):
            assert max(fam.log_tail(1024, t, z)[1] for t in heights) <= 1e-12
            assert max(fam.flow_tail(1024, a, b, z)[1]
                       for a, b in zip(heights, heights[::-1])) <= 1e-12


def test_delta_set_examples():
    assert delta_set(power_law(2.0), 10.0) == {0j}
    cfg = finite_list([(1.0, 2 + 1j), (3.0, 2 + 1j), (0.0, 5 + 0j)])
    assert delta_set(cfg, 10.0) == {-(2 + 1j), complex(-5)}
    assert delta_set(finite_list([(1.0, 2 + 1j)]), 1.0) == frozenset()


def test_delta_set_monotone():
    cfg = finite_list([(0.0, 1 + 0j), (0.0, 3 + 0j), (2.0, 7j)])
    prev = frozenset()
    for r in (0.5, 1.5, 3.5, 8.0):
        cur = delta_set(cfg, r)
        assert prev <= cur
        prev = cur


def test_fiber_power_law_window():
    f = fiber(power_law(2.0), 0j, window=(-20.0, 0.0))
    assert f.heights == (-16.0, -9.0, -4.0, -1.0)
    assert [i for i, _ in f.points] == [4, 3, 2, 1]
    assert f.order_type == OMEGA_DOWN


def test_fiber_power_law_off_axis_empty():
    f = fiber(power_law(2.0), 1 + 0j)
    assert f.points == ()
    assert f.order_type == Finite(0)


def test_fiber_finite_list():
    f = fiber(finite_list([(1.0, 0j), (-3.0, 0j)]), 0j)
    assert f.heights == (-1.0, 3.0)
    assert f.order_type == Finite(2)


def test_fiber_deep_window():
    f = fiber(power_law(2.0, truncation=16), 0j, window=(-1e6, -900.0))
    ns = [n for n, _ in f.points]
    assert ns == sorted(ns, reverse=True)
    assert all(-1e6 <= t <= -900.0 for t in f.heights)
    assert len(ns) == 1000 - 30 + 1  # n in [30, 1000], -30^2 = -900 on the boundary


def test_general_axial_order_types():
    cfg = general_axial(
        centers=[(1.0, 1 + 0j), (-2.0, 1 + 0j), (3.0, -2j)],
        base_radius=5.0,
        order_types={complex(-1): Finite(2), 2j: Finite(1)},
        fiber_window=10.0,
    )
    assert fiber(cfg, complex(-1)).heights == (-1.0, 2.0)
    assert fiber(cfg, 3 + 0j).order_type == Finite(0)
    with pytest.raises(TailUnresolved):
        delta_set(cfg, 6.0)


def test_general_axial_undeclared_raises():
    cfg = general_axial(
        centers=[(1.0, 1 + 0j)], base_radius=5.0, order_types={},
    )
    with pytest.raises(UnknownOrderType):
        fiber(cfg, complex(-1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5, allow_nan=False),
                          st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=6, unique=True))
def test_fiber_sorted_and_windowed(raw):
    cfg = finite_list([(t, complex(a, b)) for t, a, b in raw])
    for z in delta_set(cfg, 10.0):
        f = fiber(cfg, z, window=(-4.0, 4.0))
        hs = f.heights
        assert all(x < y for x, y in zip(hs, hs[1:]))
        assert all(-4.0 <= h <= 4.0 for h in hs)


def test_json_round_trip():
    cfg = power_law(2.5, truncation=1000)
    d = config_to_dict(cfg)
    cfg2 = config_from_dict(d)
    assert config_digest(cfg) == config_digest(cfg2)
    cfg3 = config_from_dict(config_to_dict(finite_list([(1.0, 2 + 3j)])))
    assert cfg3.family.centers == ((1.0, 2 + 3j),)


def test_power_law_rejects_a_non_finite_beta():
    # JSON reads 1e400 as inf
    for d in ({"family": "power_law", "beta": math.inf},
              json.loads('{"family": "power_law", "beta": 1e400}')):
        with pytest.raises(ValueError, match="power law exponent must be finite"):
            config_from_dict(d)


@pytest.mark.parametrize("growth", [2.0, (1.0, 2.0), (1.0, 2.0, 1, 4), "abc", (1.0, None, 1),
                                    (1.0, 2.0, math.inf)])
def test_axial_monotone_growth_must_be_a_triple(growth):
    with pytest.raises(ValueError, match="growth"):
        axial_monotone(lambda n: float(n * n), growth=growth)


@pytest.mark.parametrize("beta", [1.25, 1.5, 2.5, 7.3])
def test_power_law_arrays_hold_a_bit_for_bit(beta):
    # the arrays are a memo of a(n), grown over several doublings: numpy's
    # n ** beta differs from a(n) by one ulp at about 5% of n under AVX-512
    cfg = power_law(beta)
    fam = cfg.family
    for n_centers in (10, 3000, 5000):
        lr, lc = fam.center_arrays(n_centers)
        assert lr.shape == lc.shape == (n_centers,) and not lc.any()
        assert lr.tolist() == [fam.a(n) for n in range(1, n_centers + 1)]
    for n in (1, 2, 7, 100, 2999, 3001, 5000):
        assert class_of(cfg, ImHPoint(-lr[n - 1], 0j)).fixed == n
    with pytest.raises(ValueError):
        lr[0] = 0.0
    with pytest.raises(ValueError):
        cfg.center_arrays(64)[0][:] = 1.0


@pytest.mark.parametrize("cfg", [
    power_law(2.0), power_law(1.5), axial_monotone(lambda n: n ** 1.5 + 0.25 * n),
    finite_list([(1.0, 2 + 1j), (-3.0, 0j), (0.1 + 0.2, -1j)]),
    general_axial([(1.0, 1 + 0j), (-2.0, 1 + 0j), (3.0, -2j)], 5.0,
                  {complex(-1): Finite(2), 2j: Finite(1)}),
], ids=["power_law_2", "power_law_1.5", "axial_monotone", "finite_list", "general_axial"])
def test_center_arrays_equal_center_bit_for_bit(cfg):
    fam = cfg.family
    n_centers = fam.clamp(300)
    lr, lc = fam.center_arrays(300)
    pts = [fam.center(n) for n in fam.index_range(300)]
    assert len(pts) == lr.size == lc.size == n_centers
    assert lr.tobytes() == np.array([p[0] for p in pts], dtype=float).tobytes()
    assert lc.tobytes() == np.array([p[1] for p in pts], dtype=complex).tobytes()


def _avx512_features():
    """The AVX-512 dispatch targets numpy uses on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return ""
    return " ".join(f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if __cpu_features__.get(f))


@pytest.mark.skipif(not _avx512_features(), reason="the host has no AVX-512 dispatch to turn off")
def test_power_law_heights_do_not_depend_on_simd_dispatch():
    # numpy's float power rounds differently with and without AVX-512; the
    # heights come from Python's float power and must not
    script = ("import sys\n"
              "from ainfty.config import power_law\n"
              "sys.stdout.buffer.write(power_law(1.5).family.center_arrays(100000)[0].tobytes())\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_avx512_features())
    src = str(Path(ainfty.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == power_law(1.5).family.center_arrays(100000)[0].tobytes()
