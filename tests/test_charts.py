"""Chart coordinates, multipliers, transitions, and the gauge action."""

import cmath
import math
import random

import numpy as np
import pytest

from ainfty.charts import (
    Multiplier, act, base_coordinate, canonical_multiplier, chart_forward,
    chart_inverse, gauge_point, section_coordinate,
)
from ainfty.config import finite_list, moduli_pair, power_law
from ainfty import charts
from ainfty.errors import (ModulusOutOfRange, NotChartAdmissible, OutsideOverlap,
                           RootBracketFailure, SectionMismatch, SingularPoint,
                           WrongDivisor)
from ainfty.geometry import ImHPoint
from ainfty.potential import flow_log_g, flow_log_g_sum
from ainfty.quotient import base_section, class_of

PL2 = power_law(2.0, truncation=2048)


def test_split_requires_nonzero_real_part():
    cfg = finite_list([(0.0, 1 + 0j)])
    with pytest.raises(NotChartAdmissible):
        base_coordinate(cfg, gauge_point(cfg, 0.0, 0j))


def test_moduli_examples():
    z2, w2 = moduli_pair(*PL2.center(1), ImHPoint(0.0, 0j))
    assert abs(z2 - 1.0) <= 1e-14 and abs(w2) <= 1e-14
    z2, w2 = moduli_pair(*PL2.center(2), ImHPoint(-4.0, 0j))
    assert z2 == 0.0 and w2 == 0.0
    # positive-real-part centers keep z_n nonzero on the zero-height locus
    cfg = finite_list([(2.0, 1 + 1j), (-3.0, 2j)])
    for n in (0, 1):
        z2, w2 = moduli_pair(*cfg.center(n), ImHPoint(0.0, 0.3 - 0.7j))
        assert z2 * w2 >= 0
        if cfg.center(n)[0] > 0:
            assert z2 > 0
        else:
            assert w2 > 0
    rng = random.Random(11)
    for _ in range(100):
        p = ImHPoint(rng.uniform(-9, 9), complex(rng.uniform(-9, 9), rng.uniform(-9, 9)))
        n = rng.randint(0, 1)
        lr, lc = cfg.center(n)
        z2, w2 = moduli_pair(lr, lc, p)
        assert abs(z2 - w2 - (p.t + lr)) <= 1e-12 * (1 + abs(p.t + lr))
        assert abs(z2 * w2 - abs(p.z + lc) ** 2 / 4) <= 1e-12 * (1 + abs(p.z + lc) ** 2)


def test_base_coordinate_origin_and_phase():
    v = base_coordinate(PL2, gauge_point(PL2, 0.0, 0j, 0.0))
    assert abs(v - 1.0) <= 1e-12
    v = base_coordinate(PL2, gauge_point(PL2, 0.0, 0j, math.pi / 2))
    assert abs(v - 1j) <= 1e-12


def test_base_coordinate_flow_consistency():
    # moving up the base gap multiplies the modulus by exp(2 * flow integral)
    for eta in (0.7, 3.0, -0.6):
        v = base_coordinate(PL2, gauge_point(PL2, eta, 0j, 0.0))
        flow = flow_log_g(PL2, 0j, 0.0, eta, eps=1e-11).value
        assert abs(v - math.exp(2.0 * flow)) <= 1e-8 * abs(v)


def test_log_tail_far_out_on_a_steep_power_law():
    # at t = -1e31 the truncation doubles to N = 16384 for beta = 8, where
    # the order-9 log series raised OverflowError on t^10; the flow sum and
    # the chart now run on the Legendre series, as the quadrature does
    cfg = power_law(8.0, truncation=1024)
    s = flow_log_g_sum(cfg, -1.0000001e31, -1e31, 0.5)
    q = flow_log_g(cfg, 0.5, -1e31, -1.0000001e31)
    assert abs(s.value - q.value) <= s.error_bound + q.error_bound
    # the chart's log-modulus there is finite, but exp of it underflows:
    # the chart names it rather than returning p = 0
    section = base_section(cfg)
    with pytest.raises(ModulusOutOfRange, match="log-modulus") as err:
        chart_forward(cfg, section, canonical_multiplier(cfg, section),
                      gauge_point(cfg, -1e31, 0.5 + 0j))
    log_mod = float(str(err.value).split("= ")[1].split(" ")[0])
    assert math.isfinite(log_mod) and log_mod < charts._LOG_MIN


@pytest.mark.parametrize("t, inside", [(-1e31, False), (1e31, False),
                                       (-1e7, True), (1e7, True)])
def test_chart_coordinate_outside_the_float_range_raises(t, inside):
    # exp(log-modulus) underflows at -1e31 and overflows at +1e31: both raise
    # the typed error, while -1e7 (|p| about 2.6e-44) and +1e7 stay charted
    cfg = power_law(8.0, truncation=1024)
    section = base_section(cfg)
    m = canonical_multiplier(cfg, section)
    pt = gauge_point(cfg, t, 0.5 + 0j, 0.3)
    if inside:
        p, _ = chart_forward(cfg, section, m, pt)
        assert cmath.isfinite(p) and abs(p) >= 2.0 ** -1021
        back = chart_inverse(cfg, section, m, (p, 0.5 + 0j))
        assert abs(back.zeta.t - t) <= 1e-8 * abs(t)
    else:
        with pytest.raises(ModulusOutOfRange, match=r"log-modulus log\|p\| = "):
            chart_forward(cfg, section, m, pt)


def _section_k(k):
    """Section of PL2 deviating at 0 to the gap (-(k+1)^2, -k^2)."""
    s = base_section(PL2)
    if k == 0:
        return s
    mid = -(k * k + (k + 1) ** 2) / 2.0
    return s.deviate(0j, class_of(PL2, ImHPoint(mid, 0j)))


def test_canonical_multiplier_divisors():
    assert canonical_multiplier(PL2, _section_k(0)).divisor.entries == ()
    for k in (1, 2, 3):
        m = canonical_multiplier(PL2, _section_k(k))
        assert m.divisor.as_dict() == {0j: -k}


def test_deviated_chart_value_is_extension_limit():
    s = _section_k(1)
    m = canonical_multiplier(PL2, s)
    v0 = section_coordinate(PL2, s, m, gauge_point(PL2, -2.5, 0j, 0.0))
    assert v0 != 0 and np.isfinite(abs(v0))
    vals = []
    for e in range(3, 9):
        q = 10.0 ** (-e)
        v = section_coordinate(PL2, s, m, gauge_point(PL2, -2.5, complex(q), 0.0))
        vals.append(v)
    errs = [abs(v - v0) / abs(v0) for v in vals]
    assert errs[-1] <= 1e-6
    assert all(b <= a * 1.1 for a, b in zip(errs, errs[1:]))


def test_section_coordinate_base_equals_f_base():
    pt = gauge_point(PL2, 1.3, 0.2 - 0.1j, 0.7)
    a = base_coordinate(PL2, pt)
    b = section_coordinate(PL2, base_section(PL2), Multiplier.one(), pt)
    assert a == b


def test_unit_factor_scales():
    pt = gauge_point(PL2, 1.3, 0.2 - 0.1j, 0.7)
    c = 0.3 - 0.2j
    m = Multiplier(unit_log_coeffs=(c,))
    a = section_coordinate(PL2, base_section(PL2), m, pt)
    b = base_coordinate(PL2, pt)
    assert abs(a - b * cmath.exp(c)) <= 1e-12 * abs(a)


def test_wrong_divisor_and_section_mismatch():
    s = _section_k(2)
    with pytest.raises(WrongDivisor):
        section_coordinate(PL2, s, Multiplier.one(), gauge_point(PL2, -5.0, 0j))
    m = canonical_multiplier(PL2, s)
    with pytest.raises(SectionMismatch):
        section_coordinate(PL2, s, m, gauge_point(PL2, 0.0, 0j))
    with pytest.raises(SingularPoint):
        gauge_point(PL2, -4.0, 0j)


def test_round_trips_across_sections():
    rng = random.Random(17)
    for k in range(5):
        s = _section_k(k)
        m = canonical_multiplier(PL2, s)
        gap = s.gap_at(0j)
        lo, hi = gap.bounds(PL2)
        for i in range(20):
            if i % 2 == 0 and k > 0:
                t = rng.uniform(lo + 0.3, hi - 0.3)
                q = 0j
            else:
                t = rng.uniform(-8, 8)
                q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if q == 0:
                    q = 1 + 0j
                if k > 0:
                    t = rng.uniform(lo + 0.3, hi - 0.3) if False else t
            if q == 0j and k == 0:
                t = rng.uniform(-0.8, 8)
            pt = gauge_point(PL2, t, q, rng.uniform(0, 2 * math.pi))
            if class_of(PL2, pt.zeta) != s.gap_at(q):
                continue
            p, qq = chart_forward(PL2, s, m, pt)
            back = chart_inverse(PL2, s, m, (p, qq))
            assert abs(back.zeta.t - pt.zeta.t) <= 1e-8 * (1 + abs(pt.zeta.t))
            assert back.zeta.z == pt.zeta.z
            dtheta = (back.theta - pt.theta + math.pi) % (2 * math.pi) - math.pi
            assert abs(dtheta) <= 1e-8
            p2, _ = chart_forward(PL2, s, m, back)
            assert abs(p2 - p) <= 1e-8 * abs(p)


SOLVER_FIN = finite_list([(1.0, 0j), (3.0, 0j), (-2.0, 0j), (0.5, 1 + 0j)])


def _deviated(cfg, t, z=0j):
    return base_section(cfg).deviate(z, class_of(cfg, ImHPoint(t, z)))


# (configuration, section, height, base point): roots within 1e-6 of a gap
# end, far up the unbounded base gap (and far along an off-axis fiber line),
# and inside deviated gaps of a power law and of a finite list
SOLVER_EDGES = (
    [(PL2, _deviated(PL2, -6.5), t, 0j) for t in (-9 + 1e-6, -4 - 1e-6, -9 + 1e-7)]
    + [(PL2, base_section(PL2), t, 0j) for t in (-1 + 1e-6, 1e3, 1e5)]
    + [(PL2, base_section(PL2), t, 0.5j) for t in (-1e3, 1e4)]
    + [(PL2, _deviated(PL2, -12.3), t, 0j) for t in (-12.3, -16 + 1e-3, -9 - 1e-4)]
    + [(SOLVER_FIN, _deviated(SOLVER_FIN, -2.0), t, 0j) for t in (-3 + 1e-6, -1.0001)])


@pytest.mark.parametrize("cfg,section,t,z", SOLVER_EDGES)
def test_solver_round_trips_at_the_edges(cfg, section, t, z, monkeypatch):
    m = canonical_multiplier(cfg, section)
    p, q = chart_forward(cfg, section, m, gauge_point(cfg, t, z, 0.4))
    evals = []
    for name in ("value", "deriv"):
        orig = getattr(charts._LogProfile, name)
        monkeypatch.setattr(charts._LogProfile, name,
                            lambda self, x, orig=orig: evals.append(x) or orig(self, x))
    back = chart_inverse(cfg, section, m, (p, q))
    assert abs(back.zeta.t - t) <= 1e-8 * (1 + abs(t))
    # Newton from the gap's interior height: at most 8 value/derivative pairs
    assert len(evals) <= 16


@pytest.mark.parametrize("z, target", [(0j, 1e4), (1j, 1e4), (1j, -1e4)],
                         ids=["axis_up", "off_axis_up", "off_axis_down"])
def test_solver_raises_on_an_unbracketable_target(z, target):
    # one center: log|f|^2 grows like log|t| toward an infinite gap end, so
    # +-1e4 is out of reach of any float height; Newton runs off and the
    # solver raises instead of overflowing
    cfg = finite_list([(1.0, 0j)])
    profile = charts._LogProfile(cfg, z, base_section(cfg).gap_at(z))
    with pytest.raises(RootBracketFailure, match="last height"):
        charts._solve_monotone(profile, target)


def test_inverse_examples():
    s = base_section(PL2)
    m = Multiplier.one()
    pt = chart_inverse(PL2, s, m, (1.0 + 0j, 0j))
    assert abs(pt.zeta.t) <= 1e-10 and pt.zeta.z == 0j and abs(pt.theta) <= 1e-12
    pt = chart_inverse(PL2, s, m, (2.5 + 0j, 0j))
    assert pt.theta == 0.0
    v = base_coordinate(PL2, pt)
    assert abs(v - 2.5) <= 1e-8


def test_equivariance():
    rng = random.Random(23)
    for k in (0, 1, 3):
        s = _section_k(k)
        m = canonical_multiplier(PL2, s)
        gap = s.gap_at(0j)
        lo, hi = gap.bounds(PL2)
        for _ in range(15):
            if k > 0:
                pt = gauge_point(PL2, rng.uniform(lo + 0.4, hi - 0.4), 0j,
                                 rng.uniform(0, 6.28))
            else:
                pt = gauge_point(PL2, rng.uniform(-0.5, 6), complex(rng.uniform(-1, 1), 0.3),
                                 rng.uniform(0, 6.28))
                if class_of(PL2, pt.zeta) != s.gap_at(pt.zeta.z):
                    continue
            g = cmath.rect(math.exp(rng.uniform(-1.5, 1.5)), rng.uniform(0, 6.28))
            moved = act(PL2, pt, g)
            a = section_coordinate(PL2, s, m, moved)
            b = g * section_coordinate(PL2, s, m, pt)
            assert abs(a - b) <= 1e-8 * abs(b)


def test_transition_examples():
    m1 = Multiplier.one()
    assert transition_eq(m1, m1, (2 + 1j, 0.5 + 0j)) == (2 + 1j, 0.5 + 0j)
    mq = Multiplier.from_divisor({0j: 1})
    from ainfty.charts import transition
    p2, q2 = transition(m1, mq, (2 + 1j, 0.5 + 0j))
    assert p2 == (2 + 1j) * (0.5 + 0j) and q2 == 0.5 + 0j
    with pytest.raises(OutsideOverlap):
        transition(m1, mq, (1 + 0j, 0j))


def transition_eq(m1, m2, pq):
    from ainfty.charts import transition
    return transition(m1, m2, pq)


def test_transition_cocycle_exact_curated():
    from ainfty.charts import transition
    m1 = Multiplier.one()
    m2 = Multiplier.from_divisor({1 + 0j: 1})
    m3 = Multiplier.from_divisor({1 + 0j: 2, -2 + 0j: -1})
    for pq in [(2 + 1j, 3 + 0j), (0.5 - 0.25j, -4 + 0j), (8 + 0j, 5 + 0j)]:
        step = transition(m2, m3, transition(m1, m2, pq))
        direct = transition(m1, m3, pq)
        assert step == direct   # bit-exact for integer-coefficient multipliers


def test_transition_cocycle_random():
    from ainfty.charts import transition
    rng = random.Random(31)
    for _ in range(200):
        ms = [Multiplier.from_divisor(
            {complex(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-2, 2)
             for _ in range(rng.randint(0, 3))}) for _ in range(3)]
        q = complex(rng.uniform(4, 6), rng.uniform(4, 6))   # away from supports
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1 + 0j
        a = transition(ms[1], ms[2], transition(ms[0], ms[1], (p, q)))
        b = transition(ms[0], ms[2], (p, q))
        assert abs(a[0] - b[0]) <= 1e-12 * max(1.0, abs(b[0]))
        assert a[1] == b[1]


def test_transition_preserves_log_symplectic_form():
    from ainfty.charts import transition
    m1 = Multiplier.from_divisor({0j: -1})
    m2 = Multiplier(IntegerDivisor2({2 + 1j: 1, 0j: -1}), (0.1j, 0.05))
    h = 1e-5
    rng = random.Random(41)
    for _ in range(25):
        p = cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(0, 6.28))
        q = complex(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5))

        def logp_out(logp, qq):
            pp, _ = transition(m1, m2, (cmath.exp(logp), qq))
            return cmath.log(pp)

        lp = cmath.log(p)
        j11 = (logp_out(lp + h, q) - logp_out(lp - h, q)) / (2 * h)
        j12 = (logp_out(lp, q + h) - logp_out(lp, q - h)) / (2 * h)
        # q' = q exactly: det of d(logp', q')/d(logp, q) is j11 * 1
        det = j11
        assert abs(det - 1.0) <= 1e-6
        assert abs(j12) < 10   # finite; the form dlogp ^ dq ignores it


def IntegerDivisor2(d):
    from ainfty.quotient import IntegerDivisor
    return IntegerDivisor.from_dict(d)


def test_overlap_charts_related_by_transition():
    from ainfty.charts import transition
    rng = random.Random(61)
    s1 = _section_k(0)
    m1 = canonical_multiplier(PL2, s1)
    for k in (1, 2):
        s2 = _section_k(k)
        m2 = canonical_multiplier(PL2, s2)
        for _ in range(10):
            q = complex(rng.uniform(0.3, 2), rng.uniform(0.3, 2))
            pt = gauge_point(PL2, rng.uniform(-6, 6), q, rng.uniform(0, 6.28))
            p1, q1 = chart_forward(PL2, s1, m1, pt)
            p2, q2 = chart_forward(PL2, s2, m2, pt)
            glued = transition(m1, m2, (p1, q1))
            assert q2 == q1
            assert abs(glued[0] - p2) <= 1e-10 * abs(p2)
