"""Classifier, order matching, connecting multiplier, and the mapped charts."""

import cmath
import math
import random

import pytest

from ainfty.charts import act, gauge_point
from ainfty.config import OMEGA_BOTH, delta_set, finite_list, general_axial, power_law
from ainfty.errors import FixedPointInput, NotIsomorphic, TailUnresolved
from ainfty.geometry import ImHPoint
from ainfty.isomorphism import (
    build_connecting_multiplier, build_isomorphism, build_order_isomorphism,
    isomorphism_exists,
)
from ainfty.quotient import class_of
from ainfty.verification import _brute_isomorphic

PL2 = power_law(2.0, truncation=1024)
PL3 = power_law(3.0, truncation=1024)


def test_classifier_power_laws():
    cert = isomorphism_exists(PL2, PL3, 10.0)
    assert cert.isomorphic and cert.shift == 0
    assert [f.z for f in cert.fibers] == [0j]


def test_classifier_order_type_obstruction():
    cert = isomorphism_exists(PL2, finite_list([(1.0, 0j), (4.0, 0j)]), 10.0)
    assert not cert.isomorphic
    assert "omega_down" in cert.obstruction


def test_classifier_delta_obstruction():
    a = finite_list([(1.0, 0j), (2.0, 3 + 0j)])
    b = finite_list([(1.0, 0j), (2.0, 4 + 0j)])
    cert = isomorphism_exists(a, b, 10.0)
    assert not cert.isomorphic and "base sets" in cert.obstruction


@pytest.mark.parametrize("radius", [math.nan, -5.0], ids=["nan", "negative"])
def test_classifier_rejects_a_nan_or_negative_disk(radius):
    # every fiber_bases found no base in such a disk, so these two were
    # certified isomorphic, with no fibers
    a = finite_list([(1.0, 0j), (-2.0, 1j)])
    b = finite_list([(1.0, 0j)])
    for config in (a, PL2):
        with pytest.raises(ValueError, match="disk radius must be nonnegative"):
            delta_set(config, radius)
    with pytest.raises(ValueError, match="disk radius must be nonnegative"):
        isomorphism_exists(a, b, radius)
    # an infinite disk is the whole plane
    assert delta_set(a, math.inf) == {0j, -1j} and delta_set(PL2, math.inf) == {0j}
    assert not isomorphism_exists(a, b, math.inf).isomorphic


def test_order_iso_power_laws_matches_by_rank():
    h = build_order_isomorphism(PL2, PL3, 10.0)
    for n in (1, 2, 7, 30):
        assert h.match_index(0j, n) == n


def test_order_iso_identity():
    h = build_order_isomorphism(PL2, PL2, 10.0)
    for n in (1, 5):
        assert h.match_index(0j, n) == n


def test_order_iso_two_point_fibers():
    a = finite_list([(1.0, 0j), (4.0, 0j)])      # heights -1, -4
    b = finite_list([(2.0, 0j), (3.0, 0j)])      # heights -2, -3
    h = build_order_isomorphism(a, b, 5.0)
    assert h.match_index(0j, 1) == 1             # -4 <-> -3
    assert h.match_index(0j, 0) == 0             # -1 <-> -2


def _two_sided(heights, window=10.0):
    return general_axial([(-t, 0j) for t in heights], 10.0, {0j: OMEGA_BOTH},
                         fiber_window=window)


def test_order_iso_two_sided_fibers_anchor_at_the_least_nonnegative_point():
    b = _two_sided((-4, -2, 0.5, 7, 8))
    h = build_order_isomorphism(_two_sided((-3, -1, 2, 5)), b, 5.0)
    assert [h.match_index(0j, n) for n in range(4)] == [0, 1, 2, 3]   # 2 <-> 0.5
    # no finite window on one side: nothing certifies the anchor
    h = build_order_isomorphism(_two_sided((-3, -1, 2, 5)), _two_sided((-4, 0.5), math.inf), 5.0)
    with pytest.raises(TailUnresolved, match="certified window"):
        h.match_index(0j, 0)
    # -7 lies three below the anchor 2; b has two points below 0.5
    h = build_order_isomorphism(_two_sided((-7, -3, -1, 2, 5)), b, 5.0)
    assert h.match_index(0j, 1) == 0
    with pytest.raises(TailUnresolved, match="below the enumerated window"):
        h.match_index(0j, 0)


def test_connecting_multiplier_trivial_for_power_laws():
    h = build_order_isomorphism(PL2, PL3, 10.0)
    phi0 = build_connecting_multiplier(PL2, PL3, h, 10.0)
    assert phi0.divisor.entries == ()


def test_connecting_multiplier_nontrivial():
    a = finite_list([(1.0, 0j), (4.0, 0j)])      # heights -1, -4; base gap on top
    b = finite_list([(-1.0, 0j), (-4.0, 0j)])    # heights 1, 4; base gap below
    h = build_order_isomorphism(a, b, 5.0)
    phi0 = build_connecting_multiplier(a, b, h, 5.0)
    assert phi0.divisor.as_dict() == {0j: 2}


def test_apply_identity_map():
    data = build_isomorphism(PL2, PL2, 10.0)
    for t, z, th in [(-2.5, 0j, 0.3), (1.7, 0.5 - 0.2j, 5.1), (0.0, 0j, 0.0)]:
        pt = gauge_point(PL2, t, z, th)
        img = apply(data, pt)
        assert abs(img.zeta.t - t) <= 1e-10 * (1 + abs(t))
        assert img.zeta.z == z
        assert abs((img.theta - th + math.pi) % (2 * math.pi) - math.pi) <= 1e-10


def apply(data, pt, **kw):
    from ainfty.isomorphism import apply_isomorphism
    return apply_isomorphism(data, pt, **kw)


def test_apply_power_law_map_preserves_moment():
    data = build_isomorphism(PL2, PL3, 10.0)
    rng = random.Random(9)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if z == 0:
            z = 1 + 0j
        pt = gauge_point(PL2, rng.uniform(-9, 9), z, rng.uniform(0, 6.28))
        img = apply(data, pt)
        assert img.zeta.z == pt.zeta.z          # exact pass-through
    # deviated fiber: the gap (-4, -1) maps into the gap (-8, -1)
    pt = gauge_point(PL2, -2.5, 0j, 1.0)
    img = apply(data, pt)
    assert img.zeta.z == 0j
    assert -8.0 < img.zeta.t < -1.0


def test_apply_fixed_point_rejected():
    data = build_isomorphism(PL2, PL3, 10.0)
    with pytest.raises(FixedPointInput):
        apply(data, type("P", (), {"zeta": ImHPoint(-4.0, 0j), "theta": 0.0})())


def test_apply_equivariance():
    data = build_isomorphism(PL2, PL3, 10.0)
    rng = random.Random(13)
    for _ in range(10):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) or (1 + 0j)
        pt = gauge_point(PL2, rng.uniform(-4, 4), z, rng.uniform(0, 6.28))
        g = cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(0, 6.28))
        lhs = apply(data, act(PL2, pt, g))
        rhs = act(PL3, apply(data, pt), g)
        assert abs(lhs.zeta.t - rhs.zeta.t) <= 1e-8 * (1 + abs(rhs.zeta.t))
        assert lhs.zeta.z == rhs.zeta.z
        d = (lhs.theta - rhs.theta + math.pi) % (2 * math.pi) - math.pi
        assert abs(d) <= 1e-8


def test_apply_chart_independence():
    data = build_isomorphism(PL2, PL3, 10.0)
    alt = class_of(PL2, ImHPoint(-2.5, 0j))
    from ainfty.quotient import base_section
    rng = random.Random(29)
    for _ in range(10):
        z = complex(rng.uniform(0.2, 2), rng.uniform(0.2, 2))
        pt = gauge_point(PL2, rng.uniform(-6, 6), z, rng.uniform(0, 6.28))
        img1 = apply(data, pt)
        img2 = apply(data, pt, via_section=base_section(PL2).deviate(0j, alt))
        assert abs(img1.zeta.t - img2.zeta.t) <= 1e-8 * (1 + abs(img1.zeta.t))
        assert img1.zeta.z == img2.zeta.z
        d = (img1.theta - img2.theta + math.pi) % (2 * math.pi) - math.pi
        assert abs(d) <= 1e-8


def test_classifier_agrees_with_brute_force():
    rng = random.Random(20240809)
    bases = [0j, 1 + 0j, 1j]
    for _ in range(300):
        def mk():
            n = rng.randint(1, 6)
            cs = set()
            while len(cs) < n:
                cs.add((float(rng.randint(-9, 9)), rng.choice(bases)))
            return finite_list(sorted(cs, key=str))
        a, b = mk(), mk()
        got = isomorphism_exists(a, b, 5.0, allow_shift=False).isomorphic
        assert got == _brute_isomorphic(a, b, 5.0)


def test_invariance_under_translation_and_permutation():
    centers = [(1.0, 0j), (-3.0, 2 + 1j), (4.0, 2 + 1j)]
    a = finite_list(centers)
    eta = (0.7, -0.25 + 0.5j)
    b = finite_list([(t + eta[0], z + eta[1]) for t, z in centers])
    assert isomorphism_exists(a, b, 10.0).isomorphic
    assert isomorphism_exists(a, b, 10.0).shift == -eta[1]
    assert not isomorphism_exists(a, b, 10.0, allow_shift=False).isomorphic
    perm = finite_list([centers[2], centers[0], centers[1]])
    assert isomorphism_exists(a, perm, 10.0, allow_shift=False).isomorphic


def test_decimal_translation_classified_built_and_applied():
    centers = [(1.0, 0j), (-3.0, 2 + 1j), (4.0, 2 + 1j)]
    a = finite_list(centers)
    b = finite_list([(t, z + (0.1 + 0.2j)) for t, z in centers])
    cert = isomorphism_exists(a, b, 10.0)
    assert cert.isomorphic, cert.obstruction
    assert abs(cert.shift + (0.1 + 0.2j)) <= 1e-15
    assert {f.z_b for f in cert.fibers} == {-lc for _, lc in b.family.centers}
    data = build_isomorphism(a, b, 10.0)
    for t in (0.5, -2.0, -5.0):
        pt = gauge_point(a, t, -(2 + 1j), 0.3)
        img = apply(data, pt)
        assert img.zeta.z == -((2 + 1j) + (0.1 + 0.2j))   # b's base, exactly
        assert class_of(b, img.zeta) == data.h.map_gap(class_of(a, pt.zeta))


def test_classifier_oracle_counts_and_shifts():
    a = finite_list([(1.0, 0j), (2.0, 0j), (3.0, 1 + 0j)])
    fewer = finite_list([(1.0, 0j), (3.0, 1 + 0j)])     # one point less over 0
    moved = finite_list([(t + 0.3, z + (0.1 - 0.7j)) for t, z in a.family.centers])
    assert not _brute_isomorphic(a, fewer, 5.0)
    assert not _brute_isomorphic(a, fewer, 5.0, allow_shift=True)
    assert not _brute_isomorphic(a, moved, 5.0)
    assert _brute_isomorphic(a, moved, 5.0, allow_shift=True)
    assert isomorphism_exists(a, moved, 5.0).isomorphic


def test_classifier_functorial():
    a = finite_list([(1.0, 0j), (4.0, 0j)])
    b = finite_list([(2.0, 0j), (3.0, 0j)])
    c = finite_list([(0.5, 0j), (6.0, 0j)])
    ab = isomorphism_exists(a, b, 5.0).isomorphic
    bc = isomorphism_exists(b, c, 5.0).isomorphic
    ac = isomorphism_exists(a, c, 5.0).isomorphic
    assert ab and bc and ac
    hab = build_order_isomorphism(a, b, 5.0)
    hbc = build_order_isomorphism(b, c, 5.0)
    hac = build_order_isomorphism(a, c, 5.0)
    for n in (0, 1):
        assert hbc.match_index(0j, hab.match_index(0j, n)) == hac.match_index(0j, n)


def test_not_isomorphic_raises():
    with pytest.raises(NotIsomorphic):
        build_order_isomorphism(PL2, finite_list([(1.0, 0j)]), 5.0)
