"""Configuration, fiber, and representative checks."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ainfty.config import (
    Finite, OMEGA_DOWN, check_representative, config_digest, config_from_dict,
    config_to_dict, delta_set, fiber, finite_list, general_axial, power_law,
    representative_from_moment, validate,
)
from ainfty.errors import TailUnresolved, UnknownOrderType
from ainfty.geometry import ImHPoint


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


def test_representative_base_point():
    cfg = power_law(2.0, truncation=64)
    rep = representative_from_moment(cfg, ImHPoint(0.0, 0j))
    report = check_representative(rep)
    assert report.moment_constant
    assert abs(report.moment_value) <= 1e-12
    assert report.moment_deviation <= 1e-12
    assert report.stable


def test_representative_instability():
    cfg = finite_list([(2.0, 0j), (1.0, 0j)])
    rep = representative_from_moment(cfg, ImHPoint(0.0, 0j))
    rep = type(rep)(config=cfg, entries=((0j, 0j), (0j, 0j)))
    report = check_representative(rep)   # t = lambda_real = (2, 1), t_0 > t_1
    assert not report.stable
    assert (0, 1) in report.violations


def test_representative_generic_point():
    cfg = power_law(2.0, truncation=128)
    rep = representative_from_moment(cfg, ImHPoint(0.7, 0.3 - 0.2j), 128)
    report = check_representative(rep)
    assert report.moment_constant
    assert abs(report.moment_value - (0.3 - 0.2j)) <= 1e-12


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
