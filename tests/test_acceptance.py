"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import cmath
import math
import random
import time

import mpmath
import numpy as np

from ainfty.charts import act, gauge_point
from ainfty.config import finite_list, power_law
from ainfty.geometry import ImHPoint
from ainfty.isomorphism import apply_isomorphism, build_isomorphism
from ainfty.potential import growth_exponent, phi
from ainfty.quotient import base_section, class_of
from ainfty.verification import (suite_charts, suite_isomorphism, suite_potential,
                                 suite_quotient)

PL2 = power_law(2.0, truncation=1024)
PL3 = power_law(3.0, truncation=1024)


def _report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def _report_suite(name, suite, trials):
    """Criteria 3-5 and 7 run the ``ainfty verify`` suites at seed 42."""
    results = suite(42, trials=trials)
    _report(name, all(passed for _, passed, _ in results), "; ".join(
        f"{check}{'' if passed else ' FAILED'}{': ' + detail if detail else ''}"
        for check, passed, detail in results))


# -- 1. volume growth ---------------------------------------------------------

def test_criterion_1_growth_single_center_control():
    rho = list(np.geomspace(1e2, 1e4, 9))
    t0 = time.monotonic()
    fit = growth_exponent(finite_list([(0.0, 0j)]), rho, 1_000_000, seed=42)
    dt = time.monotonic() - t0
    _report("1a single-center slope 4.0 +/- 0.05",
            abs(fit.slope - 4.0) <= 0.05 and dt <= 300.0,
            f"slope {fit.slope:.4f}, stderr {fit.slope_stderr:.1e}, {dt:.0f}s")


def test_criterion_1_growth_beta2():
    rho = list(np.geomspace(1e2, 1e4, 9))
    t0 = time.monotonic()
    fit = growth_exponent(power_law(2.0), rho, 1_000_000, seed=42)
    dt = time.monotonic() - t0
    _report("1b beta=2 slope 10/3 +/- 0.1",
            abs(fit.slope - 10.0 / 3.0) <= 0.1 and dt <= 300.0,
            f"slope {fit.slope:.4f}, stderr {fit.slope_stderr:.1e}, {dt:.0f}s")


def test_criterion_1_growth_beta3():
    rho = list(np.geomspace(1e2, 1e4, 9))
    t0 = time.monotonic()
    fit = growth_exponent(power_law(3.0), rho, 1_000_000, seed=42)
    dt = time.monotonic() - t0
    _report("1c beta=3 slope 3.5 +/- 0.1",
            abs(fit.slope - 3.5) <= 0.1 and dt <= 300.0,
            f"slope {fit.slope:.4f}, stderr {fit.slope_stderr:.1e}, {dt:.0f}s")


# -- 2. potential accuracy ----------------------------------------------------

def _euler_maclaurin_quarter_sum(n_cut=1000):
    """Independent oracle for (1/4) sum 1/n^2: partial sum plus explicit
    Euler-Maclaurin tail with derivative corrections."""
    with mpmath.workdps(50):
        f = lambda x: 1 / x**2
        partial = mpmath.fsum(f(n) for n in range(1, n_cut + 1))
        a = mpmath.mpf(n_cut + 1)
        tail = 1 / a + f(a) / 2            # integral_a^inf + f(a)/2
        tail += mpmath.mpf(1) / 6 / 2 * (2 / a**3)       # B2/2! * (-f')(a)
        tail -= mpmath.mpf(1) / 30 / 24 * (24 / a**5)    # B4/4! * (-f''')(a)
        return float((partial + tail) / 4)


def test_criterion_2_potential_accuracy():
    oracle = _euler_maclaurin_quarter_sum()
    assert abs(oracle - math.pi ** 2 / 24) < 1e-14
    v = phi(PL2, ImHPoint(0.0, 0j), 1e-10)
    ok = abs(v.value - oracle) <= 1e-10 and v.contains(oracle)
    _report("2 potential within 1e-10 of the Euler-Maclaurin oracle",
            ok, f"value {v.value!r}, oracle {oracle!r}, bound {v.error_bound:.1e}")


# -- 3. flow identity ---------------------------------------------------------

def test_criterion_3_flow_identity():
    _report_suite("3 flow identity (derivative, dual route, closed form)",
                  suite_potential, 100)


# -- 4. quotient combinatorics ------------------------------------------------

def test_criterion_4_quotient_combinatorics():
    _report_suite("4 quotient combinatorics (brute force, cocycle, antisymmetry)",
                  suite_quotient, 1000)


# -- 5. chart correctness -----------------------------------------------------

def test_criterion_5_chart_correctness():
    _report_suite("5 charts (round trips, equivariance, cocycle, symplectic form)",
                  suite_charts, 100)


# -- 6. the mapped charts between the two power laws --------------------------

def test_criterion_6_biholomorphism():
    data = build_isomorphism(PL2, PL3, 10.0)
    rng = random.Random(42)
    ok_mu = True
    worst_eq = 0.0
    worst_ci = 0.0
    alt = class_of(PL2, ImHPoint(-2.5, 0j))
    for i in range(100):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or (1 + 0j)
        pt = gauge_point(PL2, rng.uniform(-6, 6), q, rng.uniform(0, 2 * math.pi))
        img = apply_isomorphism(data, pt)
        if img.zeta.z != pt.zeta.z:
            ok_mu = False
        if i < 34:
            g = cmath.rect(math.exp(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            lhs = apply_isomorphism(data, act(PL2, pt, g))
            rhs = act(PL3, img, g)
            worst_eq = max(worst_eq,
                           abs(lhs.zeta.t - rhs.zeta.t) / (1 + abs(rhs.zeta.t)),
                           abs((lhs.theta - rhs.theta + math.pi) % (2 * math.pi) - math.pi))
        if 34 <= i < 67:
            img2 = apply_isomorphism(data, pt,
                                     via_section=base_section(PL2).deviate(0j, alt))
            worst_ci = max(worst_ci,
                           abs(img.zeta.t - img2.zeta.t) / (1 + abs(img.zeta.t)),
                           abs((img.theta - img2.theta + math.pi) % (2 * math.pi) - math.pi))
    _report("6 mapped charts (moment pass-through, equivariance, gluing)",
            ok_mu and worst_eq <= 1e-8 and worst_ci <= 1e-8,
            f"moment exact {ok_mu}, equivariance {worst_eq:.1e}, "
            f"chart independence {worst_ci:.1e}")


# -- 7. classifier ------------------------------------------------------------

def test_criterion_7_classifier():
    _report_suite("7 classifier (matching search, shifts, invariances)",
                  suite_isomorphism, 1000)
