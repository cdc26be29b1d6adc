"""Quotient classes, partial order, sections, and divisors."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.config import PowerLawFamily, axial_monotone, finite_list, power_law
from ainfty.errors import TailUnresolved
from ainfty.geometry import ImHPoint
from ainfty.quotient import (
    IntegerDivisor, Ordering, base_section, class_of,
    compare_classes, count_between, is_continuous, same_class, section_divisor,
)
from ainfty.verification import _segment_brute

PL2 = power_law(2.0, truncation=64)


def test_class_of_examples():
    c = class_of(PL2, ImHPoint(-2.5, 0j))
    assert (c.fixed, c.lower, c.upper) == (None, 2, 1)
    c = class_of(PL2, ImHPoint(-4.0, 0j))
    assert c.fixed == 2
    c = class_of(PL2, ImHPoint(7.0, 1 + 0j))
    assert (c.fixed, c.lower, c.upper) == (None, None, None)


def test_class_of_top_gap():
    c = class_of(PL2, ImHPoint(3.0, 0j))
    assert (c.lower, c.upper) == (1, None)


def test_same_class_examples():
    assert same_class(PL2, ImHPoint(-2.5, 0j), ImHPoint(-2.5, 0j))
    assert same_class(PL2, ImHPoint(-2.5, 0j), ImHPoint(-3.9, 0j))
    assert not same_class(PL2, ImHPoint(-2.5, 0j), ImHPoint(-0.5, 0j))
    # fixed points are only equivalent to themselves
    assert not same_class(PL2, ImHPoint(-4.0, 0j), ImHPoint(-3.9, 0j))


def test_compare_examples():
    gap = class_of(PL2, ImHPoint(-2.5, 0j))
    fixed = class_of(PL2, ImHPoint(-4.0, 0j))
    other = class_of(PL2, ImHPoint(0.0, 1 + 0j))
    assert compare_classes(PL2, gap, gap) is Ordering.EQUAL
    assert compare_classes(PL2, fixed, gap) is Ordering.LESS
    assert compare_classes(PL2, gap, fixed) is Ordering.GREATER
    assert compare_classes(PL2, gap, other) is Ordering.INCOMPARABLE


def test_compare_transitive_random():
    rng = random.Random(7)
    for _ in range(200):
        heights = sorted(rng.sample(range(-12, 12), rng.randint(1, 6)))
        cfg = finite_list([(float(-h), 0j) for h in heights])
        pts = [ImHPoint(rng.uniform(-15, 15), 0j) for _ in range(3)]
        cs = [class_of(cfg, p) for p in pts]
        rel = {}
        for i in range(3):
            for j in range(3):
                rel[i, j] = compare_classes(cfg, cs[i], cs[j])
        for i in range(3):
            assert rel[i, i] is Ordering.EQUAL
            for j in range(3):
                for k in range(3):
                    if rel[i, j] is Ordering.LESS and rel[j, k] is Ordering.LESS:
                        assert rel[i, k] is Ordering.LESS
                if rel[i, j] is Ordering.LESS:
                    assert rel[j, i] is Ordering.GREATER


def test_same_class_matches_brute_force():
    rng = random.Random(20240801)
    for _ in range(1000):
        n = rng.randint(1, 8)
        heights = rng.sample(range(-40, 40), n)
        cfg = finite_list([(float(-h), 0j) for h in heights])
        z = 0j if rng.random() < 0.8 else 1j
        a = ImHPoint(rng.uniform(-45, 45), z)
        b = ImHPoint(rng.uniform(-45, 45), 0j)
        assert same_class(cfg, a, b) == _segment_brute(cfg, a, b)


def _pl2_section(gap_index):
    """Section of the squares config deviating at z=0 to the gap below the
    gap_index-th point (gap_index=0 means the base section)."""
    s = base_section(PL2)
    if gap_index == 0:
        return s
    lower, upper = gap_index + 1, gap_index
    gap = class_of(PL2, ImHPoint(-(gap_index ** 2) - 0.5 * (2 * gap_index + 1), 0j))
    assert (gap.lower, gap.upper) == (lower, upper)
    return s.deviate(0j, gap)


def test_section_divisor_examples():
    o = base_section(PL2)
    assert section_divisor(PL2, o, o, 10.0) == IntegerDivisor()
    s2 = _pl2_section(2)   # gap (-9, -4), contains -5
    k = section_divisor(PL2, o, s2, 10.0)
    assert k.as_dict() == {0j: -2}
    assert section_divisor(PL2, s2, o, 10.0) == -k


def test_section_divisor_cocycle_antisymmetry_random():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randint(2, 7)
        heights = sorted(rng.sample(range(-30, 30), n))
        cfg = finite_list([(float(-h), 0j) for h in heights if h != 0] or [(1.0, 0j)])
        secs = []
        for _ in range(3):
            t = rng.uniform(-35, 35)
            gap = class_of(cfg, ImHPoint(t, 0j))
            while gap.is_fixed:
                t += 1e-3
                gap = class_of(cfg, ImHPoint(t, 0j))
            secs.append(base_section(cfg).deviate(0j, gap))
        s1, s2, s3 = secs
        k12 = section_divisor(cfg, s1, s2, 50.0)
        k23 = section_divisor(cfg, s2, s3, 50.0)
        k13 = section_divisor(cfg, s1, s3, 50.0)
        assert k12 + k23 == k13
        assert section_divisor(cfg, s2, s1, 50.0) == -k12


def test_count_between_incomparable_raises():
    g1 = class_of(PL2, ImHPoint(0.0, 0j))
    g2 = class_of(PL2, ImHPoint(0.0, 1 + 0j))
    with pytest.raises(ValueError):
        count_between(PL2, 0j, g1, g2)


def test_is_continuous_finite_deviation():
    o = base_section(PL2)
    gap = class_of(PL2, ImHPoint(-2.5, 0j))
    assert is_continuous(PL2, o, {0j: gap})
    assert is_continuous(PL2, o, {})


def test_section_normalization():
    o = base_section(PL2)
    s = o.deviate(0j, base_section(PL2).gap_at(0j))
    assert s == o                      # deviating to the base gap is a no-op
    s2 = _pl2_section(1)
    assert s2.support == (0j,)
    back = s2.deviate(0j, o.gap_at(0j))
    assert back == o


_SEARCH_FAMILIES = {
    "power_law": PowerLawFamily(1.5),
    "axial_monotone": axial_monotone(lambda n: n * math.sqrt(n) + 0.5 * math.log(n)).family,
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_SEARCH_FAMILIES)),
       st.one_of(st.integers(1, 8), st.integers(1, 1 << 12)),
       st.sampled_from(["any", "n_max", "last doubling"]), st.integers(1, 1 << 13),
       st.integers(-2, 2), st.sampled_from(["hit", "below", "above", "between", "infinite"]),
       st.floats(0.0, 1.0))
def test_axial_neighbor_search_matches_brute_force(name, n_max, anchor, k, shift, where, frac):
    # the doubling and bisection of _last_above (largest n with a_n < -t)
    # against a linear scan of a(n), at exact hits -a_n, one ulp beside
    # them, between them, near the max_truncation limit and the last
    # doubling below it, and at -inf.  The doubling stops at n_max, so the
    # search raises exactly when a_(n_max) < -t, and it evaluates a(n) at
    # n <= n_max only.
    fam = _SEARCH_FAMILIES[name]
    p = 1
    while 2 * p <= n_max:
        p *= 2
    if anchor == "n_max":
        k = n_max
    elif anchor == "last doubling":
        k = p
    k = max(1, k + shift)
    a = fam.a(k)
    t = {"hit": -a, "below": -math.nextafter(a, math.inf),
         "above": -math.nextafter(a, 0.0),
         "between": -(a + frac * (fam.a(k + 1) - a)), "infinite": -math.inf}[where]
    raises = fam.a(n_max) < -t
    expected = max((n for n in range(1, n_max + 1) if fam.a(n) < -t), default=0)
    seen = []

    def spy(n):
        seen.append(n)
        return type(fam).a(fam, n)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fam, "a", spy)
        if raises:
            with pytest.raises(TailUnresolved):
                fam._last_above(t, n_max)
        else:
            n, a_n, a_next = fam._last_above(t, n_max)
            assert n == expected, (t, n_max)
            # the heights it hands back are a(n) (None for n = 0) and a(n+1)
            assert a_n == (fam.a(n) if n else None) and a_next == fam.a(n + 1)
    assert max(seen) <= n_max


def test_class_of_evaluates_heights_only_in_the_search(monkeypatch):
    # the neighbor search hands back a_n and a_(n+1), the heights its
    # bisection ends on, so fiber_neighbors evaluates no height of its own:
    # on this fixed list a is called 1186 times, all inside the searches,
    # where the search returning n alone made 1395 calls, re-evaluating
    # a(n+1) at every point and a(n) off the hits with n >= 1
    cfg = power_law(2.0, truncation=1024)
    pts = [ImHPoint(t, 0j) for t in (1.0, 0.0, -0.5, -1.0, -4.0, -2.5, -10000.5, -123456.7)]
    pts += [ImHPoint(-(k * k + 0.5), 0j) for k in range(1, 100)]
    expected = [class_of(cfg, p) for p in pts]
    calls, inside = [0], [0]
    a, search = PowerLawFamily.a, PowerLawFamily._last_above

    def count(self, n):
        calls[0] += 1
        return a(self, n)

    def spy(self, t, n_max):
        before = calls[0]
        out = search(self, t, n_max)
        inside[0] += calls[0] - before
        return out
    monkeypatch.setattr(PowerLawFamily, "a", count)
    monkeypatch.setattr(PowerLawFamily, "_last_above", spy)
    assert [class_of(cfg, p) for p in pts] == expected
    assert calls[0] == inside[0] == 1186 < 1395


def test_class_of_below_a_max_truncation_that_is_not_a_power_of_two():
    # the gap lies below max_truncation = 1000, though the search's next
    # doubling, 1024, is past it
    cfg = power_law(2.0, truncation=16, max_truncation=1000)
    c = class_of(cfg, ImHPoint(-360000.5, 0j))
    assert (c.fixed, c.lower, c.upper) == (None, 601, 600)
