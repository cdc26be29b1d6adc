"""Holomorphic chart coordinates on the section opens, multipliers, and
transition maps.

The base coordinate is the equivariant function given by the convergent
product of z_n/alpha_n over centers with positive real part times the
inverse product of w_n/beta_n over the rest; its squared modulus obeys the
flow identity (difference of log-moduli = unscaled flow sum = 4x the
quarter-normalized potential integral).  A multiplier in A(k) is a rational
product prod (q - z_j)^{k_j} times an entire unit exp(polynomial); charts
on a deviated section are the base coordinate times the multiplier,
extended across the deviated fibers by cancelling the exact factor
((q - z0)/2)^(-k0) against the multiplier's zero or pole and regrouping the
affected fiber terms in raw (unnormalized) form.

Heights come back by Newton on the gap's log-modulus profile
(``_solve_monotone``).  For the power law the profile's log-product tail,
the integral in t of the potential tail's Legendre series, meets its
tolerance at the enumerated truncation near the origin, so each call
builds its profile once.

Gauge: the fiber phase theta of a ManifoldPoint is the argument of the base
coordinate on base-section gaps and of the regrouped product on deviated
gaps.  This pins the S^1 phase ambiguity; any other admissible convention
rotates each chart by a fixed unit constant.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import Configuration, moduli_pair
from .errors import (ModulusOutOfRange, NotChartAdmissible, OutsideOverlap,
                     RootBracketFailure, SectionMismatch, SingularPoint, WrongDivisor)
from .geometry import ImHPoint
from .potential import _potential_sum, _refine
from .quotient import (CombinatorialSection, IntegerDivisor, QuotientClass,
                       base_gap, base_section, class_of, count_between)

_TWO_PI = 2.0 * math.pi
_NEWTON_STEPS = 60
# A step this far from the interior height means the target is out of reach
# of any float height; left to run on, Newton passes |t| = 2^512, where
# ``s *= s`` in potential._potential_sum overflows.
_RUN_OFF = 2.0 ** 400
# Chart coordinates keep log|p| in [_LOG_MIN, _LOG_MAX], so that |p| lies
# within 2^-1021 to 2^1023 (normal floats, rounding included); outside it p
# would overflow, underflow to 0 or lose digits
_LOG_MIN = -1021.0 * math.log(2.0)
_LOG_MAX = 1023.0 * math.log(2.0)


# ---------------------------------------------------------------------------
# Multipliers
# ---------------------------------------------------------------------------

def _poly_eval(coeffs, q):
    out = 0j
    for c in reversed(coeffs):
        out = out * q + c
    return out


@dataclass(frozen=True)
class Multiplier:
    """prod (q - z)^{k(z)} * exp(polynomial(q)); the rational part's divisor
    is the zero/pole data, the exponential is an entire unit."""

    divisor: IntegerDivisor = IntegerDivisor()
    unit_log_coeffs: tuple = ()

    @staticmethod
    def one() -> "Multiplier":
        return Multiplier()

    @staticmethod
    def from_divisor(divisor) -> "Multiplier":
        if isinstance(divisor, dict):
            divisor = IntegerDivisor.from_dict(divisor)
        return Multiplier(divisor=divisor)

    def eval(self, q: complex) -> complex:
        q = complex(q)
        out = cmath.exp(_poly_eval(self.unit_log_coeffs, q)) if self.unit_log_coeffs else 1.0 + 0j
        for z, k in self.divisor.entries:   # canonical order: deterministic
            out *= (q - z) ** k
        return out

    def leading_at(self, z0: complex) -> complex:
        """lim_{q->z0} eval(q) * (q - z0)^(-k(z0)): the multiplier with the
        exact z0 factor cancelled."""
        z0 = complex(z0)
        out = cmath.exp(_poly_eval(self.unit_log_coeffs, z0)) if self.unit_log_coeffs else 1.0 + 0j
        for z, k in self.divisor.entries:
            if z != z0:
                out *= (z0 - z) ** k
        return out

    def _combine(self, other: "Multiplier", sign: int) -> "Multiplier":
        n = max(len(self.unit_log_coeffs), len(other.unit_log_coeffs))
        a = list(self.unit_log_coeffs) + [0j] * (n - len(self.unit_log_coeffs))
        b = list(other.unit_log_coeffs) + [0j] * (n - len(other.unit_log_coeffs))
        coeffs = tuple(x + sign * y for x, y in zip(a, b))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        divisor = self.divisor - other.divisor if sign < 0 else self.divisor + other.divisor
        return Multiplier(divisor, coeffs)

    def ratio(self, other: "Multiplier") -> "Multiplier":
        return self._combine(other, -1)

    def product(self, other: "Multiplier") -> "Multiplier":
        return self._combine(other, +1)


def section_base_divisor(config: Configuration, section: CombinatorialSection) -> IntegerDivisor:
    """The divisor of the section against the base section (signed fiber
    point counts on the deviated fibers)."""
    out = {}
    for z, gap in section.deviations:
        k = count_between(config, z, base_gap(config, z), gap)
        if k:
            out[z] = k
    return IntegerDivisor.from_dict(out)


def canonical_multiplier(config: Configuration, section: CombinatorialSection) -> Multiplier:
    """prod (q - z)^{k(z)} for the section's divisor against the base."""
    return Multiplier.from_divisor(section_base_divisor(config, section))


# ---------------------------------------------------------------------------
# Manifold points and the log-modulus profile of a gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifoldPoint:
    """A point away from the fixed locus, in gauge coordinates: the moment
    value zeta plus the fiber phase theta."""

    zeta: ImHPoint
    theta: float = 0.0


def gauge_point(config: Configuration, t: float, z, theta: float = 0.0) -> ManifoldPoint:
    p = ImHPoint(float(t), complex(z))
    if config.is_singular(p):
        raise SingularPoint(f"{(p.t, p.z)} coincides with a center")
    return ManifoldPoint(p, float(theta) % _TWO_PI)


class _LogProfile:
    """log|f|^2 along one gap as a function of the height t, with the
    regrouped finite form on deviated fibers.

    Terms are grouped per center: normalized z- or w-terms where the gap
    grouping matches the base grouping (sign of lambda_r), raw unnormalized
    terms on the between set; the t-derivative of every term is 1/|zeta +
    lambda_n|, so the derivative of the profile is the unscaled potential
    sum (4x the quarter-normalized potential).  Given a section, the other
    deviated fibers z are regrouped too: there a raw term is the normalized
    one less log(c^2/4), c = |z0 - z|, and ``factor`` folds (c/2)^-k, k the
    signed count of that between set, into the chart constant, so no
    log c^2 cancels near a deviated fiber.
    """

    def __init__(self, config: Configuration, z0: complex, gap: QuotientClass,
                 eps: float = 1e-10, section: CombinatorialSection = None):
        if gap.is_fixed:
            raise SingularPoint("fixed classes carry no chart data")
        self.config = config
        self.z0 = complex(z0)
        self.eps = eps
        self.lo, self.hi = gap.bounds(config)
        self._t_int = gap.interior_height(config)
        others = () if section is None else section.deviations
        self._fibers = [(self.z0, self._t_int)] + [
            (z, g.interior_height(config)) for z, g in others if z != self.z0]
        needed = max((i for i in (gap.lower, gap.upper) if i is not None), default=0)
        self._setup(max(config.n_enumerated, config.family.clamp(2 * needed + 2)))

    def _setup(self, n):
        fam = self.config.family
        n = fam.clamp(n)
        self.n = n
        lr, lc = fam.center_arrays(n)
        if np.any(lr == 0):
            raise NotChartAdmissible("a center with zero real part is enumerated")
        self.lr, self.lc = lr, lc
        norm = np.hypot(lr, np.abs(lc))
        self.a2 = (norm + lr) / 2.0          # |alpha_n|^2
        self.b2 = (norm - lr) / 2.0          # |beta_n|^2
        self.between_low = np.zeros(lr.shape, dtype=bool)    # gap below the base gap
        self.between_high = np.zeros(lr.shape, dtype=bool)   # gap above the base gap
        self.factor = 1.0
        for z, t_int in self._fibers:
            on = -lc == z
            low = on & (t_int + lr < 0) & (lr > 0)
            high = on & (t_int + lr > 0) & (lr < 0)
            self.between_low |= low
            self.between_high |= high
            k = int(np.count_nonzero(high)) - int(np.count_nonzero(low))
            self.factor *= (2.0 if z == self.z0 else 2.0 / abs(self.z0 - z)) ** k
        between = self.between_low | self.between_high
        self.cat_z = (lr > 0) & ~between
        self.cat_w = (lr < 0) & ~between

    def _log_tail(self, n: int, t: float):
        """The log-product tail estimate at height t with N = n, or None
        while its bound exceeds eps."""
        if n != self.n:
            self._setup(n)
        est, err = self.config.family.log_tail(n, t, self.z0)
        return est if err <= self.eps else None

    def value(self, t: float) -> float:
        """log|f|^2 at height t inside the gap."""
        est = _refine(self.config, lambda n: self._log_tail(n, t), self.n)
        zsq, wsq = moduli_pair(self.lr, self.lc, ImHPoint(t, self.z0))
        with np.errstate(divide="ignore", invalid="ignore"):
            term_z = np.log(zsq / self.a2)
            term_w = -np.log(wsq / self.b2)
            term_bl = -np.log(self.a2 * wsq)
            term_bh = np.log(self.b2 * zsq)
        total = float(
            np.sum(term_z, where=self.cat_z)
            + np.sum(term_w, where=self.cat_w)
            + np.sum(term_bl, where=self.between_low)
            + np.sum(term_bh, where=self.between_high))
        return total + est

    def deriv(self, t: float) -> float:
        """d/dt of value: the unscaled potential sum at (t, z0)."""
        return float(_potential_sum(self.config, self.n, t, self.z0,
                                    (self.lr, self.lc))[0])


def _solve_monotone(profile: _LogProfile, target: float, t=None, v=None) -> float:
    """Root of profile.value(t) = target in the gap (lo, hi) by safeguarded
    Newton from t (default the interior height; v its value, if known).

    The profile is strictly increasing, tends to -+inf at finite gap ends
    and has the exact derivative profile.deriv.  From the second step the
    cubic matching the last two values and slopes refines a Newton step
    that it moves by less than the step.  A step leaving the bracket (a, b)
    becomes the Newton step in log|t - e| toward an untouched gap end e,
    else bisection.  As |f''| <= f'^2 (so for each term), at |f| <= 1/4
    the step lands within 4.5 |f step| of the root, which ends the loop at
    1e-14 (1 + |t|); f = profile - target.  Raises RootBracketFailure when
    a value or slope is not finite and positive, a step runs off past
    _RUN_OFF, or _NEWTON_STEPS steps do not converge."""
    a, b = lo, hi = profile.lo, profile.hi
    t = profile._t_int if t is None else t
    last = None
    for _ in range(_NEWTON_STEPS):
        f = (profile.value(t) if v is None else v) - target
        v = None
        if f == 0:
            return t
        if not math.isfinite(f):
            break
        if f < 0:
            a = t
        else:
            b = t
        slope = profile.deriv(t)
        if not 0.0 < slope < math.inf:
            break
        step = f / slope
        t_new = t - step
        if abs(f) <= 0.25 and 4.5 * abs(f * step) <= 1e-14 * (1.0 + abs(t)):
            return t_new
        if last is not None and last[1] != f:
            t_h = _hermite_root(*last, t, f, slope)
            if a < t_h < b and abs(t_h - t_new) <= abs(step):
                t_new = t_h
        last = (t, f, slope)
        if not a < t_new < b:
            side, end = (a, lo) if t_new <= a else (b, hi)
            if side == end and math.isfinite(end):
                t_new = end + (t - end) * math.exp(-step / (t - end))
            if not a < t_new < b:
                t_new = 0.5 * (a + b)
        if not abs(t_new - profile._t_int) < _RUN_OFF:
            break
        t = t_new
    raise RootBracketFailure(
        f"no converged height in gap ({profile.lo}, {profile.hi}) for target "
        f"{target}; last height {t}")


def _hermite_root(t0, f0, d0, t1, f1, d1):
    """t at f = 0 on the cubic t(f) through (f0, t0), (f1, t1) with slopes
    1/d0, 1/d1."""
    h = f1 - f0
    x, y = -f0 / h, 1.0 + f0 / h
    return (y * y * ((1.0 + 2.0 * x) * t0 + x * h / d0)
            + x * x * ((3.0 - 2.0 * x) * t1 - y * h / d1))


# ---------------------------------------------------------------------------
# Chart maps
# ---------------------------------------------------------------------------

def _chart_constant(multiplier: Multiplier, profile: _LogProfile) -> complex:
    return multiplier.leading_at(profile.z0) * profile.factor


def _coordinate(config, section, multiplier, point, eps):
    p = point.zeta
    cls = class_of(config, p)
    if cls.is_fixed:
        raise SingularPoint(f"{(p.t, p.z)} is a center")
    if section.gap_at(p.z) != cls:
        raise SectionMismatch(
            f"point class {cls} is not the section's gap over {p.z}")
    if multiplier.divisor != section_base_divisor(config, section):
        raise WrongDivisor(
            f"multiplier divisor {multiplier.divisor.entries} does not match "
            f"the section divisor")
    profile = _LogProfile(config, p.z, cls, eps=2.0 * eps, section=section)
    const = _chart_constant(multiplier, profile)
    half = 0.5 * profile.value(p.t)
    log_mod = math.log(abs(const)) + half
    if not _LOG_MIN <= log_mod <= _LOG_MAX:
        raise ModulusOutOfRange(
            f"chart log-modulus log|p| = {log_mod:.6g} at {(p.t, p.z)} leaves "
            f"the float range [{_LOG_MIN:.6g}, {_LOG_MAX:.6g}]")
    # exp(half) alone leaves the range only where |const| brings it back
    unit = (const * math.exp(half) if abs(half) <= _LOG_MAX
            else const / abs(const) * math.exp(log_mod))
    return unit * cmath.exp(1j * point.theta)


def base_coordinate(config: Configuration, point: ManifoldPoint,
                    eps: float = 1e-10) -> complex:
    """The equivariant coordinate on the base-section open set; equals
    exp(i theta) on the zero-height locus by the gauge convention."""
    return _coordinate(config, base_section(config), Multiplier.one(), point, eps)


def section_coordinate(config: Configuration, section: CombinatorialSection,
                       multiplier: Multiplier, point: ManifoldPoint,
                       eps: float = 1e-10) -> complex:
    """The chart coordinate on the section's open set: base coordinate times
    multiplier, extended analytically across deviated fibers."""
    return _coordinate(config, section, multiplier, point, eps)


def chart_forward(config: Configuration, section: CombinatorialSection,
                  multiplier: Multiplier, point: ManifoldPoint,
                  eps: float = 1e-10):
    """(p, q): the chart coordinate and the complex moment value."""
    return (section_coordinate(config, section, multiplier, point, eps),
            point.zeta.z)


def chart_inverse(config: Configuration, section: CombinatorialSection,
                  multiplier: Multiplier, pq, eps: float = 1e-10) -> ManifoldPoint:
    """The unique point on the section with the given chart image: the
    height solves a monotone log-modulus equation inside the gap, the phase
    is read off the chart constant."""
    p, q = complex(pq[0]), complex(pq[1])
    if p == 0:
        raise ValueError("chart coordinate must be nonzero")
    if multiplier.divisor != section_base_divisor(config, section):
        raise WrongDivisor("multiplier divisor does not match the section")
    gap = section.gap_at(q)
    profile = _LogProfile(config, q, gap, eps=2.0 * eps, section=section)
    const = _chart_constant(multiplier, profile)
    target = 2.0 * (math.log(abs(p)) - math.log(abs(const)))
    t = _solve_monotone(profile, target)
    theta = (cmath.phase(p) - cmath.phase(const)) % _TWO_PI
    return ManifoldPoint(ImHPoint(t, q), theta)


def transition(multiplier1: Multiplier, multiplier2: Multiplier, pq):
    """The gluing map between two charts: (p, q) -> (p * (m2/m1)(q), q),
    with exact divisor cancellation; q must avoid the net divisor support."""
    p, q = complex(pq[0]), complex(pq[1])
    net = multiplier2.ratio(multiplier1)
    if net.divisor.get(q) != 0:
        raise OutsideOverlap(
            f"{q} lies in the support of the section-pair divisor")
    return p * net.eval(q), q


def act(config: Configuration, point: ManifoldPoint, g: complex,
        eps: float = 1e-10) -> ManifoldPoint:
    """The free action of a nonzero complex scalar in gauge coordinates:
    |g| flows the height inside its gap (log-modulus shift 2 log|g|),
    arg g rotates the fiber phase."""
    g = complex(g)
    if g == 0:
        raise ValueError("the acting scalar must be nonzero")
    p = point.zeta
    cls = class_of(config, p)
    if cls.is_fixed:
        raise SingularPoint("fixed points are not moved in gauge coordinates")
    profile = _LogProfile(config, p.z, cls, eps=eps)
    v = profile.value(p.t)
    t = _solve_monotone(profile, v + 2.0 * math.log(abs(g)), p.t, v)
    return ManifoldPoint(ImHPoint(t, p.z), (point.theta + cmath.phase(g)) % _TWO_PI)
