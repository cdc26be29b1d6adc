"""Center configurations, fibers, and certified tail oracles.

A configuration is a (possibly infinite) list of centers lambda_n in
Im H ~ R x C subject to genericity (pairwise distinct) and summability
(sum 1/(1+|lambda_n|) < infinity).  Infinite families are realized as a
generator plus a truncation N and analytic tail bounds; all quotient and
fiber data is stored in the -lambda convention: the fiber over a base point
z collects the heights -lambda_real of the centers with -lambda_complex = z.

Tail oracles.  Each family provides two primitives,

* ``min_tail_norm(N)``   -- a certified lower bound on inf_{n>N} |lambda_n|,
* ``tail_inv_sum(N, r)`` -- a certified upper bound on
  sum_{n>N} 1/(|lambda_n| - r), finite only when min_tail_norm(N) > r,
  at a radius r or at each radius of an array r,

from which coarse potential / log-product / flow tails derive.  Every
family's potential tail ``phi_tail`` is pointwise: a point's estimate
depends on that point alone, and one bound, at the call's largest radius,
covers every point, so a batch and its per-point calls agree bit for bit.
The power law family lambda_n = n^beta i overrides these with sharp series
whose remainders and rounding are certified: the potential tail is the
axisymmetric multipole (Legendre) series of order _LEGENDRE_ORDER, whose
coefficients are scaled ``hurwitz_zeta`` values that do not underflow and
which converges while the radius stays below (N + 1)^beta, and the log
product and flow tails are its term-by-term integral in t, on the same
coefficients and with the same radius of convergence.  The coarse 1/N
bounds alone cannot certify tolerances near 1e-10 at sane truncations.

Combinatorial identity (fiber membership, base-point matching, divisor
supports) uses exact float equality; tolerances appear only in numerical
guards such as singular-point detection.  So each center's height has one
home: ``center(n)``, for an axial family ``a(n)``.  The arrays that sums
run over hold the same values; the power law's are a memo of ``a(n)``, not
a second formula that numpy's SIMD dispatch could round differently.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import TailUnresolved, UnknownOrderType
from .geometry import ImHPoint, as_point


# (2k)! / B_2k for the Euler-Maclaurin corrections of ``hurwitz_zeta``
_EM_COEFFS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16     # 2^-53


def hurwitz_zeta(x: float, q: float, scaled: bool = False) -> float:
    """The Hurwitz zeta function sum_{k>=0} (k + q)^-x for x > 1, q > 0,
    or with ``scaled`` its multiple q^x zeta(x, q) = sum_{k>=0} (1 + k/q)^-x.

    A port of the Euler-Maclaurin summation of the Cephes ``zeta(x, q)``
    (the one scipy.special.zeta uses): the same loop, coefficients and
    stopping tests, so values agree bit for bit.  Where every term
    underflows the running sum is 0 and the stopping tests, 0/0 in C, never
    fire; they are skipped here the same way and the result is 0.0.

    The scaled value runs the same summation with each term a^-x taken as
    (a/q)^-x, within x + 16 ulps.  It is at least 1, so it does not
    underflow where zeta(x, q) does.  Rounding a/q moves a term by a
    relative x u (u = 2^-53); the power, the sums and the Euler-Maclaurin
    steps add a few ulps.  It has no asymptotic branch for q > 1e8: there
    the loop stops after nine terms and the corrections converge at once.
    Both are one function, so that a replaced ``hurwitz_zeta`` (a tracer)
    sees every zeta evaluation.
    """
    x, q = float(x), float(q)
    if not (x > 1.0 and q > 0.0):
        raise ValueError("hurwitz_zeta needs x > 1 and q > 0")
    if scaled:
        return _cephes_zeta(x, q, q)
    if q > 1e8:     # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    return _cephes_zeta(x, q, 1.0)


def _cephes_zeta(x: float, q: float, scale: float) -> float:
    """sum_{k>=0} ((k + q)/scale)^-x by the Cephes loop; with scale = 1.0
    every term and step is the Cephes one."""
    s = (q / scale) ** -x
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = (a / scale) ** -x
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coeff in _EM_COEFFS:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


# Elements in one block of the vectorized kernels (about 1 MB of float64,
# so that a block stays in cache); the potential kernel uses it too.
_BLOCK = 1 << 17


# Order L of the power-law potential tail: Legendre terms l = 0..L.
_LEGENDRE_ORDER = 16
# Steps l = 1..L-1 of (l+1) R_{l+1} = (2l+1) y R_l - l w R_{l-1}: the factors
# ((2l+1)/(l+1), l/(l+1))
_STEPS = tuple(((2 * l + 1) / (l + 1), l / (l + 1)) for l in range(1, _LEGENDRE_ORDER))


def _majorants(order: int):
    # alpha_l = |P_l(i)|, the sum of the absolute coefficients of P_l:
    # (l+1) alpha_{l+1} = (2l+1) alpha_l + l alpha_{l-1}, all terms positive
    alpha = [1.0, 1.0]
    for l in range(1, order):
        alpha.append(((2 * l + 1) * alpha[l] + l * alpha[l - 1]) / (l + 1))
    return tuple(alpha)


_ALPHA = _majorants(_LEGENDRE_ORDER)


@functools.lru_cache(maxsize=256)
def _legendre_coeffs(fn, beta: float, n_centers: int):
    """Z_l = s0^(l+1) zeta((l+1) beta, N + 1) = sum_{n>N} (s0/n^beta)^(l+1),
    s0 = (N + 1)^beta, for l <= _LEGENDRE_ORDER, as a tuple of the scaled
    values of the zeta function fn, the one zeta memo of both power-law
    tails.  Keyed on fn, so that a replaced ``hurwitz_zeta`` (a tracer) is
    called, not bypassed."""
    return tuple(fn((l + 1) * beta, n_centers + 1, scaled=True)
                 for l in range(_LEGENDRE_ORDER + 1))


def _legendre_rounding(beta: float, n_centers: int, rho: float, log: bool = False) -> float:
    """The rounding term of ``_legendre_tail``, or with ``log`` of
    ``_log_tail``, at points whose y and sqrt(w) are at most rho.

    After Higham (Accuracy and Stability of Numerical Algorithms, 3.1 and
    5.1), with u = 2^-53: the recurrence moves R_l by at most
    (1 + 4u)^l - 1 of alpha_l rho^l, where alpha_l = |P_l(i)| (``_ALPHA``)
    bounds |R_l| / rho^l for every point; the rounding of y and w moves it
    by 8 u per degree; Z_l is off by the (l + 1) beta + 16 ulps (2 u each)
    of the scaled ``hurwitz_zeta`` and 2 u per power of s0; the sum and the
    division add (L + 2) u.  With Z_l <= Zb_0 = 1 + (N + 1)/(beta - 1)
    (the first term plus the integral of the rest) all of it stays below
    kappa = 16 L + 64 + 2 (L + 1) beta units u of Zb_0 alpha_l rho^l / s0
    on the l-th term.  Underflow adds at most 2^-1000 Zb_0 / s0 and 256
    subnormal units.

    The log series has the terms l = 1..L only, with coefficients -Z_{l-1}/l,
    also at most Zb_0 and off by fewer ulps (one more for the division), and
    no division by s0: the same kappa covers it, with s0 taken as 1 and no
    l = 0 term, so its rounding term vanishes with rho but for underflow."""
    a = float(n_centers + 1)
    s0 = 1.0 if log else a ** beta
    zb0 = 1.0 + a / (beta - 1.0)
    poly = 0.0
    for alpha in reversed(_ALPHA[1:] if log else _ALPHA):
        poly = poly * rho + alpha
    if log:
        poly *= rho
    kappa = (16 * _LEGENDRE_ORDER + 64 + 2 * (_LEGENDRE_ORDER + 1) * beta) * _MACHEP
    return kappa * zb0 * poly / s0 + math.ldexp(zb0 / s0, -1000) + 256.0 * math.ulp(0.0)


def _legendre_bound(beta: float, n_centers: int, r: float) -> float:
    """The error bound of ``_legendre_tail`` at points of radius at most r,
    inf where the series does not converge: its remainder plus
    ``_legendre_rounding``.

    With rho = r/s0, |P_l| <= 1 and Z_l decreasing in l, the terms past L
    add up to at most Z_{L+1} rho^(L+1) / ((1 - rho) s0), and Z_{L+1} <=
    1 + (N + 1)/((L + 2) beta - 1).  rho carries 16 u more than r/s0, for
    the rounding of r, y and w.  The bound grows with r, and the slack of
    these closed forms covers its own rounding.  Where s0 overflows, the
    whole tail is below Zb_0 2^-1023.
    """
    a = float(n_centers + 1)
    s0 = a ** beta
    if s0 == math.inf:      # then rho < 1/2 where r <= 2^1023, and 1/s0 < 2^-1024
        return math.ldexp(1.0 + a / (beta - 1.0), -1023) if r <= 2.0 ** 1023 else math.inf
    rho = r / s0 * (1.0 + 16.0 * _MACHEP)
    if not rho < 1.0:
        return math.inf
    top = _LEGENDRE_ORDER + 1
    rem = (1.0 + a / ((top + 1) * beta - 1.0)) * rho ** top / (1.0 - rho)
    return rem / s0 + _legendre_rounding(beta, n_centers, rho)


def _max_radius(t, z) -> float:
    """The largest radius |(t, z)| of the points, to within a few ulps
    (``_legendre_bound`` allows for them): from the largest t^2 + |z|^2,
    or by hypot where that square may have overflowed or underflowed."""
    if isinstance(t, float) and isinstance(z, (float, complex)):
        return math.hypot(t, abs(z))
    t, c = np.asarray(t, dtype=float), np.abs(z)
    if not (t.size and c.size):
        return 0.0
    r2 = t * t
    if r2.shape == c.shape:         # in place, for large batches
        c *= c
        r2 += c
    else:
        r2 = r2 + c * c
    r2 = float(r2.max())
    if 1e-300 < r2 < 1e300:
        return math.sqrt(r2)
    return float(np.max(np.hypot(t, np.abs(z))))


def _legendre_tail(beta: float, n_centers: int, t, z):
    """(estimates, error bound) for sum_{n>N} 1/|zeta + n^beta i| at the
    points zeta = (t, z), vectorized; one bound, ``_legendre_bound`` at
    their largest radius, covers every point (inf, with zero estimates,
    where the series is not valid).

    The axisymmetric multipole expansion 1/|zeta + s i| = sum_l (-1)^l
    r^l P_l(t/r) / s^(l+1), r = |zeta|, summed over s = n^beta, n > N,
    gives sum_l (-1)^l Z_l rho^l P_l(t/r) / s0 with the scaled coefficients
    Z_l of ``_legendre_coeffs``.  In y = -t/s0 and w = y^2 + (|z|/s0)^2
    the term (-1)^l rho^l P_l(t/r) is R_l, R_0 = 1, R_1 = y,
    (l+1) R_{l+1} = (2l+1) y R_l - l w R_{l-1}, summed by ``_legendre_sum``:
    on floats for one point, and on arrays in blocks of _BLOCK / 16 points
    (a few arrays of a block stay in cache), with the same value at each
    point as on floats, whatever the blocks.
    """
    s0 = float(n_centers + 1) ** beta
    if np.ndim(t) == 0 and np.ndim(z) == 0:
        t, c = float(t), float(abs(z))
        err = _legendre_bound(beta, n_centers, _max_radius(t, c))
        if err == math.inf:
            return np.float64(0.0), math.inf
        y = t / -s0
        v = c / s0
        return np.float64(_legendre_sum(_legendre_coeffs(hurwitz_zeta, beta, n_centers),
                                        y, y * y + v * v) / s0), err
    t = np.asarray(t, dtype=float)
    err = _legendre_bound(beta, n_centers, _max_radius(t, z))
    z = np.asarray(z)
    if t.shape != z.shape:
        t, z = np.broadcast_arrays(t, z)
    if err == math.inf:
        return np.zeros(t.shape), math.inf
    tv, zv = t.ravel(), z.ravel()
    coeffs = _legendre_coeffs(hurwitz_zeta, beta, n_centers)
    step = _BLOCK // 16
    est = np.empty(tv.size)
    for lo in range(0, tv.size, step):
        y = tv[lo:lo + step] / -s0
        v = np.abs(zv[lo:lo + step])
        v /= s0
        v *= v
        w = y * y
        w += v
        est[lo:lo + step] = _legendre_sum(coeffs, y, w)
    est /= s0
    return est.reshape(t.shape), err


def _legendre_sum(z, y, w):
    """sum_l z_l R_l(y, w): the same operations on floats or, elementwise
    and in place (y and w are left as they are), on arrays."""
    r0, r1 = 1.0, y * 1.0       # a copy of an array y: r0 is scaled in place
    est = z[1] * y
    est += z[0]
    for (a, b), zl in zip(_STEPS, z[2:]):
        r = y * r1
        r *= a
        r0 *= w
        r0 *= b
        r -= r0                 # a (y R_l) - b (w R_{l-1})
        r0, r1 = r1, r
        r = zl * r1
        est += r
    return est


def _log_tail(beta: float, n_centers: int, t: float, c: float):
    """(estimate, error bound) for sum_{n>N} log((s + d)/(2S)), S = n^beta,
    d = t + S, s = sqrt(d^2 + c^2), c = |z|: the charts' log-product tail.

    Each term is harmonic in the ball r < S, is 0 at the origin and has
    t-derivative 1/s, the potential tail's term; and d/dt (r^(l+1)
    P_{l+1}(t/r)) = (l+1) r^l P_l(t/r) (Hobson, The Theory of Spherical and
    Ellipsoidal Harmonics, 1931).  So the tail is ``_legendre_tail``'s
    series integrated term by term, -sum_{l>=0} Z_l R_{l+1}(y, w)/(l+1):
    ``_legendre_sum`` on (0, -Z_0/1, ..., -Z_{L-1}/L).  With rho = r/s0
    (16 u more, as in ``_legendre_bound``), |R_l| <= rho^l and Z_l
    decreasing, the terms past L add up to at most Z_L rho^(L+1) / ((L+1)
    (1 - rho)), Z_L <= 1 + (N + 1)/((L + 1) beta - 1), and
    ``_legendre_rounding`` adds the rounding.  For rho >= 1 the bound is
    inf, with a zero estimate, and no term is formed.
    """
    a = float(n_centers + 1)
    s0 = a ** beta
    rho = _max_radius(t, c) / s0 * (1.0 + 16.0 * _MACHEP)
    if not rho < 1.0:
        return 0.0, math.inf
    zl = _legendre_coeffs(hurwitz_zeta, beta, n_centers)
    y = t / -s0
    v = c / s0
    est = _legendre_sum((0.0,) + tuple(-z / (l + 1) for l, z in enumerate(zl[:-1])),
                        y, y * y + v * v)
    top = _LEGENDRE_ORDER + 1
    rem = (1.0 + a / (top * beta - 1.0)) * rho ** top / (top * (1.0 - rho))
    return est, rem + _legendre_rounding(beta, n_centers, rho, log=True)


# ---------------------------------------------------------------------------
# Order types and fibers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderType:
    """Order type of a fiber as a subset of R: finite, or a discrete closed
    set unbounded below (omega_down), above (omega_up), or both."""

    kind: str
    count: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("finite", "omega_up", "omega_down", "omega_both"):
            raise ValueError(f"unknown order type kind {self.kind!r}")
        if (self.kind == "finite") != (self.count is not None):
            raise ValueError("finite order types carry a count, infinite ones do not")

    @property
    def bounded_below(self) -> bool:
        return self.kind in ("finite", "omega_up")

    @property
    def bounded_above(self) -> bool:
        return self.kind in ("finite", "omega_down")

    def __str__(self):
        return f"Finite({self.count})" if self.kind == "finite" else self.kind


def Finite(k: int) -> OrderType:
    return OrderType("finite", k)


OMEGA_UP = OrderType("omega_up")
OMEGA_DOWN = OrderType("omega_down")
OMEGA_BOTH = OrderType("omega_both")


@dataclass(frozen=True)
class Fiber:
    """Fiber points (center index, height) inside a window, sorted ascending;
    ``order_type`` describes the full fiber, not just the window."""

    z: complex
    points: tuple
    order_type: OrderType
    window: Optional[tuple] = None

    def __post_init__(self):
        heights = [t for _, t in self.points]
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise ValueError("fiber points must be strictly ascending")

    @property
    def heights(self) -> tuple:
        return tuple(t for _, t in self.points)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class CenterFamily:
    """Shared machinery: subclasses supply centers and tail oracles."""

    kind = "abstract"
    n_first = 0          # index of the first center
    count: Optional[int] = None   # number of centers, None = infinite

    # --- centers ---------------------------------------------------------

    def center(self, n: int):
        """Return (lambda_real, lambda_complex) of center n."""
        raise NotImplementedError

    def center_arrays(self, n_centers: int):
        """Arrays (lr, lc) of the first ``n_centers`` centers."""
        pts = [self.center(n) for n in self.index_range(n_centers)]
        return (np.array([p[0] for p in pts], dtype=float),
                np.array([p[1] for p in pts], dtype=complex))

    def index_range(self, n_centers: int) -> range:
        return range(self.n_first, self.n_first + self.clamp(n_centers))

    def clamp(self, n_centers: int) -> int:
        return n_centers if self.count is None else min(n_centers, self.count)

    # --- fibers (stored -lambda convention) ------------------------------

    def fiber_bases(self, radius: float) -> frozenset:
        raise NotImplementedError

    def fiber_points_window(self, z: complex, lo: float, hi: float, n_max: int):
        """All fiber points (idx, t) with t in [lo, hi], certified complete."""
        raise NotImplementedError

    def fiber_points_all(self, z: complex, n_max: int):
        """All fiber points, only for certifiably finite fibers."""
        raise NotImplementedError

    def fiber_order_type(self, z: complex) -> OrderType:
        raise NotImplementedError

    def fiber_neighbors(self, z: complex, t: float, n_max: int):
        """(lower, upper, hit): nearest fiber points strictly below/above t
        (None = certified none on that side) and an exact hit if t is one."""
        raise NotImplementedError

    def fiber_from_top(self, z: complex, k: int, n_max: int):
        """First k fiber points counted downward from the top."""
        raise NotImplementedError

    def fiber_from_bottom(self, z: complex, k: int, n_max: int):
        raise NotImplementedError

    def nearest_center_distance(self, p: ImHPoint, n_max: int) -> float:
        raise NotImplementedError

    # --- tail oracles -----------------------------------------------------

    def min_tail_norm(self, n_centers: int) -> float:
        raise NotImplementedError

    def tail_inv_sum(self, n_centers: int, r):
        """The bound at the radius r, a float, or at each radius of an
        array r (the potential tail's estimates take one call per batch)."""
        raise NotImplementedError

    def tail_chart_admissible(self, n_centers: int) -> Optional[bool]:
        """Whether every non-enumerated center has nonzero real part
        (None = not certifiable)."""
        return None

    # Derived coarse tails; PowerLaw overrides with sharp expansions.

    def phi_tail(self, n_centers: int, t, z):
        """(estimates, error bound) for sum_{n>N} 1/|zeta + lambda_n| at the
        points zeta = (t, z), vectorized.  With T(r) = tail_inv_sum(N, r), a
        point's tail lies in [0, min(T(r), T(rmax))], r its radius and rmax
        the largest; the midpoint is its estimate, T(rmax) / 2 the one bound."""
        r = np.hypot(t, np.abs(z))
        rmax = float(np.max(r))
        b = (self.tail_inv_sum(n_centers, rmax) / 2.0
             if self.min_tail_norm(n_centers) > rmax else math.inf)
        if not 0.0 < b < math.inf:      # no tail left, or none certified
            return np.zeros_like(r), b if b == 0.0 else math.inf
        return np.minimum(self.tail_inv_sum(n_centers, r) / 2.0, b), b

    def phi_tail_bound(self, n_centers: int, t, z) -> float:
        """The error bound of ``phi_tail``, for truncation probes."""
        return self.phi_tail(n_centers, t, z)[1]

    def log_tail(self, n_centers: int, t: float, z: complex):
        """(estimate, error bound) for the chart log-product tail at zeta."""
        r = math.hypot(t, abs(z))
        if self.min_tail_norm(n_centers) < 4.0 * r:
            return 0.0, math.inf
        return 0.0, 4.0 * r * self.tail_inv_sum(n_centers, 0.0)

    def flow_tail(self, n_centers: int, t0: float, t1: float, z: complex):
        """(estimate, error bound) for the flow log-ratio tail between
        heights t0 and t1 on the fiber line over z."""
        rbar = max(math.hypot(t0, abs(z)), math.hypot(t1, abs(z)))
        if self.min_tail_norm(n_centers) <= 2.0 * rbar:
            return 0.0, math.inf
        return 0.0, 2.0 * abs(t1 - t0) * self.tail_inv_sum(n_centers, 2.0 * rbar)


def _fill(r, value: float):
    """value at the radius r, a float, or at each radius of an array r."""
    return value if np.ndim(r) == 0 else np.full(np.shape(r), value)


def _inv_sum(base: float, s0: float, x, r):
    """base / (1 - x/s0) where x < s0, base where also r <= 0, inf where
    x >= s0: the closed-form tail_inv_sum at the scaled radii x = r / c,
    on a float or elementwise on an array."""
    if np.ndim(x) == 0:
        return math.inf if x >= s0 else base if r <= 0 else base / (1.0 - x / s0)
    with np.errstate(divide="ignore"):
        out = base / (1.0 - x / s0)
    out[r <= 0] = base
    out[x >= s0] = math.inf
    return out


def _neighbors_from_sorted(points, t):
    """Neighbor search in an explicitly sorted, complete point list."""
    lower = upper = hit = None
    for idx, h in points:
        if h == t:
            hit = idx
        elif h < t:
            if lower is None or h > lower[1]:
                lower = (idx, h)
        else:
            if upper is None or h < upper[1]:
                upper = (idx, h)
    return lower, upper, hit


class _AxialDecreasingFamily(CenterFamily):
    """Common logic for axial families lambda_n = a_n i with a_n strictly
    increasing to +infinity: the single nonempty fiber sits over z = 0 and
    its points -a_n decrease (order type omega_down after finitely many
    negative a_n, which validation rejects as non-generic duplicates would)."""

    n_first = 1

    def a(self, n: int) -> float:
        raise NotImplementedError

    def center(self, n: int):
        return self.a(n), 0j

    def fiber_bases(self, radius):
        return frozenset({0j})

    def fiber_order_type(self, z):
        return OMEGA_DOWN if z == 0 else Finite(0)

    def _last_above(self, t: float, n_max: int):
        """(n, a_n, a_(n+1)): the largest n with -a_n > t, i.e. a_n < -t, 0
        if none (a_0 is then None), and the two heights the search ends on,
        so that callers need not evaluate them again.  Raises
        TailUnresolved iff a_n < -t at n = n_max, so the answer is below
        n_max; a is evaluated at indices up to n_max only."""
        a_hi = self.a(1)
        if a_hi >= -t:
            return 0, None, a_hi
        lo, a_lo, hi = 1, a_hi, 2
        while hi < n_max and (a_hi := self.a(hi)) < -t:
            lo, a_lo, hi = hi, a_hi, 2 * hi
        if hi >= n_max:
            hi = n_max
            if (a_hi := self.a(hi)) < -t:
                raise TailUnresolved(
                    f"fiber enumeration beyond max truncation {n_max} needed at height {t}")
        while hi - lo > 1:          # a_lo < -t <= a_hi
            mid = (lo + hi) // 2
            if (a_mid := self.a(mid)) < -t:
                lo, a_lo = mid, a_mid
            else:
                hi, a_hi = mid, a_mid
        return lo, a_lo, a_hi

    def fiber_points_window(self, z, lo, hi, n_max):
        if z != 0:
            return []
        if lo > hi:
            return []
        # points -a_n in [lo, hi]  <=>  a_n in [-hi, -lo], in order of height
        n, a_n, a_next = self._last_above(lo, n_max)    # last n with -a_n > lo
        # the exact left endpoint, if -a_(n+1) == lo
        out = [(n + 1, -a_next)] if -a_next == lo else []
        while n >= 1 and -a_n <= hi:
            out.append((n, -a_n))
            n -= 1
            a_n = self.a(n) if n >= 1 else None
        return out

    def fiber_points_all(self, z, n_max):
        if z != 0:
            return []
        raise ValueError("the fiber over 0 is infinite; pass an explicit window")

    def fiber_neighbors(self, z, t, n_max):
        if z != 0:
            return None, None, None
        # -a_n > t strictly, so only n+1 can hit
        n, a_n, a_next = self._last_above(t, n_max)
        below = -a_next
        if below == t:
            return None, None, n + 1
        return (n + 1, below), ((n, -a_n) if n >= 1 else None), None

    def fiber_from_top(self, z, k, n_max):
        if z != 0 or k > n_max:
            raise TailUnresolved("fiber depth not certifiable")
        return [(n, -self.a(n)) for n in range(1, k + 1)]

    def fiber_from_bottom(self, z, k, n_max):
        raise TailUnresolved("fiber over 0 is unbounded below")

    def nearest_center_distance(self, p, n_max):
        # centers at -a_n on the axis; distance^2 = (t + a_n)^2 + |z|^2
        n, a_n, a_next = self._last_above(p.t, n_max)
        best = math.inf
        for a in (a_n, a_next, self.a(n + 2), self.a(1)):
            if a is not None:
                best = min(best, math.hypot(p.t + a, abs(p.z)))
        return best


class PowerLawFamily(_AxialDecreasingFamily):
    """lambda_n = n^beta i, beta > 1."""

    kind = "power_law"

    def __init__(self, beta: float):
        if not beta > 1:
            raise ValueError("power law exponent must exceed 1")
        if not math.isfinite(beta):
            raise ValueError("power law exponent must be finite")
        self.beta = float(beta)
        self._heights = np.empty(0)

    def a(self, n: int) -> float:
        return float(n) ** self.beta

    def center_arrays(self, n_centers: int):
        """A read-only prefix of the memo a(1), a(2), ..., which grows to the
        next power of two when it is too short, one a(n) per new index."""
        n_centers, have = int(n_centers), self._heights.size
        if n_centers > have:
            size = 1 << (n_centers - 1).bit_length()
            new = np.fromiter(map(self.a, range(have + 1, size + 1)), float, size - have)
            self._heights = np.concatenate((self._heights, new))
            self._heights.flags.writeable = False
        return self._heights[:n_centers], np.zeros(n_centers, dtype=complex)

    # --- sharp tails ------------------------------------------------------

    def min_tail_norm(self, n_centers):
        return float(n_centers + 1) ** self.beta

    def tail_inv_sum(self, n_centers, r):
        base = float(n_centers) ** (1.0 - self.beta) / (self.beta - 1.0)
        return _inv_sum(base, self.min_tail_norm(n_centers), r, r)

    def phi_tail(self, n_centers, t, z):
        return _legendre_tail(self.beta, n_centers, t, z)

    def phi_tail_bound(self, n_centers, t, z):
        return _legendre_bound(self.beta, n_centers, _max_radius(t, z))

    def log_tail(self, n_centers, t, z):
        return _log_tail(self.beta, n_centers, float(t), abs(z))

    def flow_tail(self, n_centers, t0, t1, z):
        est0, err0 = self.log_tail(n_centers, t0, z)
        est1, err1 = self.log_tail(n_centers, t1, z)
        return est1 - est0, err0 + err1

    def tail_chart_admissible(self, n_centers):
        return True


class AxialMonotoneFamily(_AxialDecreasingFamily):
    """lambda_n = a_n i for a user-supplied strictly increasing sequence.

    ``growth`` = (c, gamma, n0) declares a_n >= c * n^gamma for n >= n0
    (c > 0, gamma > 1) and powers the tail oracles; without it, tails are
    uncertifiable and tight tolerances raise TailUnresolved.
    """

    kind = "axial_monotone"

    def __init__(self, values: Callable[[int], float], growth=None):
        self.values = values
        if growth is not None:
            try:
                c, gamma, n0 = (float(v) for v in growth)
            except (TypeError, ValueError):
                raise ValueError(f"growth {growth!r} is not a triple (c, gamma, n0)") from None
            if not (c > 0 and gamma > 1 and 1 <= n0 < math.inf):
                raise ValueError("growth minorant must satisfy c > 0, gamma > 1, n0 >= 1")
            growth = (c, gamma, int(n0))
        self.growth = growth

    def a(self, n: int) -> float:
        return float(self.values(n))

    def min_tail_norm(self, n_centers):
        if self.growth is None:
            return 0.0
        c, gamma, n0 = self.growth
        if n_centers < n0:
            return 0.0
        return c * float(n_centers + 1) ** gamma

    def tail_inv_sum(self, n_centers, r):
        if self.growth is None or n_centers < self.growth[2]:
            return _fill(r, math.inf)
        c, gamma, _ = self.growth
        base = float(n_centers) ** (1.0 - gamma) / (c * (gamma - 1.0))
        return _inv_sum(base, float(n_centers + 1) ** gamma, r / c, r)

    def tail_chart_admissible(self, n_centers):
        # increasing sequence: once positive, stays positive
        return True if self.a(n_centers) > 0 else None


class FiniteListFamily(CenterFamily):
    """Explicit finite center list (the classical k+1 center case)."""

    kind = "finite"
    n_first = 0

    def __init__(self, centers: Sequence):
        pts = [as_point(c) for c in centers]
        if not pts:
            raise ValueError("a finite configuration needs at least one center")
        self.centers = tuple((p.t, p.z) for p in pts)
        self.count = len(self.centers)

    def center(self, n: int):
        return self.centers[n]

    def _fiber(self, z: complex):
        pts = [(i, -lr) for i, (lr, lc) in enumerate(self.centers) if -lc == z]
        pts.sort(key=lambda p: p[1])
        return pts

    def fiber_bases(self, radius):
        # 0j - lc, not -lc: an on-axis center gives the base 0j, not -0j
        return frozenset(0j - lc for lr, lc in self.centers if abs(lc) <= radius)

    def fiber_points_window(self, z, lo, hi, n_max):
        return [(i, t) for i, t in self._fiber(z) if lo <= t <= hi]

    def fiber_points_all(self, z, n_max):
        return self._fiber(z)

    def fiber_order_type(self, z):
        return Finite(len(self._fiber(z)))

    def fiber_neighbors(self, z, t, n_max):
        return _neighbors_from_sorted(self._fiber(z), t)

    def fiber_from_top(self, z, k, n_max):
        pts = self._fiber(z)
        if k > len(pts):
            raise TailUnresolved(f"fiber has only {len(pts)} points")
        return [(i, t) for i, t in reversed(pts[-k:])]

    def fiber_from_bottom(self, z, k, n_max):
        pts = self._fiber(z)
        if k > len(pts):
            raise TailUnresolved(f"fiber has only {len(pts)} points")
        return pts[:k]

    def nearest_center_distance(self, p, n_max):
        return min(math.hypot(p.t + lr, abs(p.z + lc)) for lr, lc in self.centers)

    def min_tail_norm(self, n_centers):
        return math.inf if n_centers >= self.count else 0.0

    def tail_inv_sum(self, n_centers, r):
        return _fill(r, 0.0 if n_centers >= self.count else math.inf)

    def phi_tail(self, n_centers, t, z):
        # every center summed: no tail is left, so the estimate is 0 and,
        # where no radius can overflow, so is the bound, with no radii formed
        if (n_centers >= self.count and np.max(np.abs(t)) < 2.0 ** 1023
                and np.max(np.abs(z)) < 2.0 ** 1023):
            return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(z))), 0.0
        return super().phi_tail(n_centers, t, z)

    def tail_chart_admissible(self, n_centers):
        return True if n_centers >= self.count else None


class GeneralAxialFiberedFamily(FiniteListFamily):
    """Explicit centers inside a working region plus declared per-fiber
    asymptotic order types.

    Contract: every fiber base inside |z| <= base_radius appears among the
    enumerated centers, and for those fibers every point with
    |height| <= fiber_window is enumerated.  Fibers carrying points must be
    declared in ``order_types`` (keyed by base point, -lambda convention).
    Optional tail oracles (min_norm(N), inv_sum(N, r)) certify summability.
    """

    kind = "general_axial_fibered"

    def __init__(self, centers, base_radius: float, order_types: dict,
                 fiber_window: float = math.inf, tail_oracles=None):
        super().__init__(centers)
        self.base_radius = float(base_radius)
        self.order_types = {complex(z): ot for z, ot in order_types.items()}
        self.fiber_window = float(fiber_window)
        self.tail_oracles = tail_oracles

    def fiber_bases(self, radius):
        if radius > self.base_radius:
            raise TailUnresolved(
                f"fiber bases certified only inside radius {self.base_radius}")
        return super().fiber_bases(radius)

    def fiber_order_type(self, z):
        if z in self.order_types:
            return self.order_types[z]
        if self._fiber(z):
            raise UnknownOrderType(f"no declared order type for the fiber over {z}")
        if abs(z) <= self.base_radius:
            return Finite(0)
        raise TailUnresolved(f"fiber over {z} lies outside the certified base disk")

    def _check_window(self, z, lo, hi):
        if lo < -self.fiber_window or hi > self.fiber_window:
            raise TailUnresolved(
                f"fiber points certified only for |height| <= {self.fiber_window}")

    def fiber_points_window(self, z, lo, hi, n_max):
        self._check_window(z, lo, hi)
        return super().fiber_points_window(z, lo, hi, n_max)

    def fiber_points_all(self, z, n_max):
        ot = self.fiber_order_type(z)
        if ot.kind != "finite":
            raise ValueError(f"fiber over {z} is infinite; pass an explicit window")
        pts = self._fiber(z)
        if ot.count != len(pts):
            raise TailUnresolved(
                f"declared Finite({ot.count}) but {len(pts)} points enumerated")
        return pts

    def fiber_neighbors(self, z, t, n_max):
        ot = self.fiber_order_type(z)
        if abs(t) > self.fiber_window:
            raise TailUnresolved(f"height {t} outside the certified window")
        lower, upper, hit = _neighbors_from_sorted(self._fiber(z), t)
        if hit is not None:
            return None, None, hit
        if lower is None and not ot.bounded_below:
            raise TailUnresolved("no enumerated point below but fiber is unbounded below")
        if upper is None and not ot.bounded_above:
            raise TailUnresolved("no enumerated point above but fiber is unbounded above")
        return lower, upper, None

    def fiber_from_top(self, z, k, n_max):
        if not self.fiber_order_type(z).bounded_above:
            raise TailUnresolved("fiber unbounded above has no top end")
        return super().fiber_from_top(z, k, n_max)

    def fiber_from_bottom(self, z, k, n_max):
        if not self.fiber_order_type(z).bounded_below:
            raise TailUnresolved("fiber unbounded below has no bottom end")
        return super().fiber_from_bottom(z, k, n_max)

    def min_tail_norm(self, n_centers):
        if n_centers < self.count:
            return 0.0
        user = self.tail_oracles[0](n_centers) if self.tail_oracles else 0.0
        return max(self.base_radius, user)

    # the tail past the list is the declared oracles'
    phi_tail = CenterFamily.phi_tail

    def tail_inv_sum(self, n_centers, r):
        if self.tail_oracles is None or n_centers < self.count:
            return _fill(r, math.inf)
        if np.ndim(r) == 0:
            return self.tail_oracles[1](n_centers, r)
        # the user's oracle takes one radius at a time
        return np.array([self.tail_oracles[1](n_centers, ri) for ri in np.ravel(r).tolist()],
                        dtype=float).reshape(np.shape(r))

    def tail_chart_admissible(self, n_centers):
        return None


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """A center family plus truncation policy and comparison tolerances.

    ``truncation`` is the initial number of enumerated centers; adaptive
    operations may extend enumeration up to ``max_truncation`` before
    raising TailUnresolved.  Growth batches are the exception: they start
    at one center and choose, per radius octave, the least N whose tail
    bound meets their tolerance, often below ``truncation``.
    """

    family: CenterFamily
    truncation: int
    max_truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.max_truncation < self.truncation:
            raise ValueError("max_truncation must be >= truncation")

    @property
    def n_enumerated(self) -> int:
        return self.family.clamp(self.truncation)

    def center(self, n: int):
        return self.family.center(n)

    def center_arrays(self, n_centers=None):
        return self.family.center_arrays(self.family.clamp(n_centers or self.truncation))

    def nearest_center_distance(self, p) -> float:
        return self.family.nearest_center_distance(as_point(p), self.max_truncation)

    def is_singular(self, p) -> bool:
        p = as_point(p)
        return self.nearest_center_distance(p) <= 1e-12 * (1.0 + p.norm())


def power_law(beta: float, truncation: int = 4096,
              max_truncation: int = 1 << 21) -> Configuration:
    return Configuration(PowerLawFamily(beta), truncation, max_truncation)


def finite_list(centers) -> Configuration:
    fam = FiniteListFamily(centers)
    return Configuration(fam, fam.count, fam.count)


def axial_monotone(values, growth=None, truncation: int = 4096,
                   max_truncation: int = 1 << 21) -> Configuration:
    return Configuration(AxialMonotoneFamily(values, growth), truncation, max_truncation)


def general_axial(centers, base_radius, order_types, fiber_window=math.inf,
                  tail_oracles=None) -> Configuration:
    fam = GeneralAxialFiberedFamily(centers, base_radius, order_types,
                                    fiber_window, tail_oracles)
    return Configuration(fam, fam.count, fam.count)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidityReport:
    generic: bool
    duplicates: tuple
    summable: bool
    summability_bound: float
    chart_admissible: bool
    zero_real_indices: tuple
    n_enumerated: int


def validate(config: Configuration) -> ValidityReport:
    """Check genericity and summability of the enumerated centers plus tail
    oracle; never raises, always returns a report."""
    n = config.n_enumerated
    lr, lc = config.center_arrays(n)
    idx = list(config.family.index_range(n))

    seen = {}
    dups = []
    for i, key in enumerate(zip(lr.tolist(), lc.tolist())):
        if key in seen:
            dups.append((idx[seen[key]], idx[i]))
        else:
            seen[key] = i

    norms = np.hypot(lr, np.abs(lc))
    partial = math.fsum((1.0 / (1.0 + v) for v in norms.tolist()))
    bound = partial + config.family.tail_inv_sum(n, 0.0)

    zero_real = tuple(idx[i] for i in np.flatnonzero(lr == 0.0).tolist())
    tail_ok = config.family.tail_chart_admissible(n)
    chart_ok = (len(zero_real) == 0) and (tail_ok is not False)

    return ValidityReport(
        generic=not dups,
        duplicates=tuple(dups),
        summable=math.isfinite(bound),
        summability_bound=bound,
        chart_admissible=chart_ok,
        zero_real_indices=zero_real,
        n_enumerated=n,
    )


# ---------------------------------------------------------------------------
# Delta sets and fibers
# ---------------------------------------------------------------------------

def delta_set(config: Configuration, disk_radius: float) -> frozenset:
    """Fiber base points {-lambda_complex} inside the closed disk.

    Raises ValueError for a NaN or negative radius (inf is the whole
    plane), and TailUnresolved when the family cannot certify that no
    further bases enter the disk.
    """
    if not disk_radius >= 0:
        raise ValueError(f"disk radius must be nonnegative, got {disk_radius!r}")
    return config.family.fiber_bases(disk_radius)


def fiber(config: Configuration, z: complex, window=None) -> Fiber:
    """The fiber over z: points inside ``window`` (or all of them when the
    fiber is certifiably finite), plus the full fiber's order type."""
    z = complex(z)
    fam = config.family
    order_type = fam.fiber_order_type(z)
    if window is None:
        pts = fam.fiber_points_all(z, config.max_truncation)
    else:
        lo, hi = float(window[0]), float(window[1])
        if lo > hi:
            raise ValueError("window must satisfy lo <= hi")
        pts = fam.fiber_points_window(z, lo, hi, config.max_truncation)
        window = (lo, hi)
    return Fiber(z=z, points=tuple(pts), order_type=order_type, window=window)


def moduli_pair(lr, lc, p: ImHPoint):
    """(|z_n|^2, |w_n|^2) at moment value p for the centers (lr, lc), scalars
    or arrays: half of |zeta + lambda_n| +- (zeta_r + lambda_r).  The sum
    with d = zeta_r + lambda_r on its own side is formed directly, the other
    as c^2/(s -+ d), c = |zeta_c + lambda_c|, so neither cancels."""
    d = p.t + np.asarray(lr, dtype=float)
    c = np.abs(p.z + np.asarray(lc))
    s = np.hypot(d, c)
    c2 = c * c
    with np.errstate(divide="ignore", invalid="ignore"):
        zsq = np.where(d >= 0, s + d, c2 / (s - d))
        wsq = np.where(d <= 0, s - d, c2 / (s + d))
    return zsq / 2.0, wsq / 2.0


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def config_to_dict(config: Configuration) -> dict:
    fam = config.family
    if fam.kind == "power_law":
        return {"family": "power_law", "beta": fam.beta,
                "truncation": config.truncation,
                "max_truncation": config.max_truncation}
    if fam.kind == "finite":
        return {"family": "finite",
                "centers": [[lr, lc.real, lc.imag] for lr, lc in fam.centers]}
    raise ValueError(f"family {fam.kind!r} has no JSON form")


def config_from_dict(d: dict) -> Configuration:
    kind = d.get("family")
    if kind == "power_law":
        return power_law(float(d["beta"]),
                         truncation=int(d.get("truncation", 4096)),
                         max_truncation=int(d.get("max_truncation", 1 << 21)))
    if kind == "finite":
        return finite_list([(c[0], complex(c[1], c[2])) for c in d["centers"]])
    raise ValueError(f"unknown configuration family {kind!r}")


def config_digest(config: Configuration) -> str:
    payload = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
