"""Certified evaluation of the harmonic potential, flow integrals, and the
volume-growth experiment.

The potential is Phi(zeta) = (1/4) sum_n 1/|zeta + lambda_n|, a sum over
the first N centers plus the family's tail estimate (``phi_tail``).  Two
kernels form the sum, vectorized over points: ``_potential_sum`` for the
certified calls (``phi``, the integrand of ``flow_log_g``,
``radial_distance``, the chart profile's derivative), and ``_direct_sums``
for the growth batches (``_phi_batch`` and the boundary tables), whose
points may land on a center, with the floor that ``_octave_sums`` sets.
The first lays a block out as points x centers and sums each row with
numpy's pairwise sum; the second as centers x points, reduced along the
centers, so that each point adds its terms in center index order.
One loop, ``_refine``, picks N for every certified quantity here and in
the chart profile: it doubles N through ``_grow`` until the caller's bound
meets its tolerance, raising TailUnresolved once N reaches max_truncation.
It starts at the configuration's enumerated count, except in growth
batches: ``_octave_truncation`` starts at one center and picks, per radius
octave of the points and from the nearest octave outward, the least N
whose tail bound meets 15/16 of the batch's one tolerance (doubling, then
bisection).  Growth sums with N >= _TREE_MIN go by a treecode
(``_cluster_sum``; Barnes and Hut 1986, Greengard and Rokhlin 1987): a
binary tree over the sorted heights, whose nodes far from a point go by
the order-16 Legendre expansion of the power-law tail with the node's
moments as coefficients, within the other 1/16, and whose near leaves go
through ``_direct_sums``.
Flow quantities come in two deliberately independent routes:
``flow_log_g`` integrates Phi along a vertical segment on Gauss-Legendre
panels (``quad``) sized by a Bernstein-ellipse error bound, while
``flow_log_g_sum`` evaluates the explicit sum of log ratios plus the
family's ``flow_tail`` (for the power law the integral of the potential
tail's Legendre series, which meets 1e-12 at the enumerated truncation near
the origin); their agreement is one of the bundled invariants.

Normalization: both flow routes return the integral of the
quarter-normalized potential, whose eta-derivative is exactly Phi.  The
complex flow multiplier g moving a point between the two heights satisfies
log|g|^2 = 4 * flow_log_g (equivariant chart moduli use that unscaled sum).

The growth experiment measures W(rho) = integral of Phi over the base
region {radial_distance <= rho} and fits the slope of log W against
log rho.  The constant fiber-circle period is omitted from W (it rescales
W and cannot move the slope), and the base-distance proxy differs from the
true geodesic distance by bounded distortion, again affecting constants
only.  The region's boundary tables depend on the configuration and the
grid alone, not the seed; they are built once per configuration, grid and
sizes and kept, read-only, while the configuration lives, in a weak-keyed
memo.  Monte Carlo sampling uses counter-based Philox streams split per
rho stratum, so results are bit-reproducible for a given seed.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import (_ALPHA, _BLOCK, _LEGENDRE_ORDER, _MACHEP, Configuration,
                     _legendre_sum, moduli_pair)
from .errors import (InsufficientRange, QuadratureUnresolved, RayHitsCenter,
                     SegmentHitsCenter, SingularPoint, TailUnresolved)
from .geometry import ImHPoint, as_point

_EPS = float(np.finfo(float).eps)

# Gauss-Legendre nodes per panel: at least 9, so that each panel integrates
# the power-law tail estimate, a polynomial of degree 16, exactly.
_GL_N = 12
_GL = leggauss(_GL_N)
_GL2 = leggauss(2 * _GL_N)
# Relative error of the _GL_N-node weights, which carry more rounding than
# the nodes do (both checked against mpmath in the tests).
_GL_WEIGHT_ERR = 1e-14
# Bernstein ellipses reach this fraction of the way to the nearest
# singularity of the integrand (see _bernstein_bound).
_THETA = 0.9
_MAX_PANELS = 1 << 14
# Relative accuracy of the potential in growth batches (see _octave_truncation)
_BATCH_REL_TOL = 1e-5
# Terms (points x N) summed per column block of the boundary tables' sweep,
# each node counted as at least _NODE_TERMS
_SWEEP_TERMS = 1 << 20
_NODE_TERMS = 32
# The treecode of growth batches (_cluster_sum): calls with N >= _TREE_MIN
# use it; leaves of _LEAF centers; the traversal starts at the lowest level
# of at most _START nodes; points go in blocks of about _PAIRS node pairs;
# the clusters get _CLUSTER_SHARE of a batch's tolerance, the tail the rest
_TREE_MIN = 256
_LEAF = 64
_START = 8
_PAIRS = 1 << 14
_CLUSTER_SHARE = 1.0 / 16.0
# The growth fits' boundary tables, per configuration while it lives (see
# _growth_tables)
_TABLES = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CertifiedValue:
    """A value with a certified error bound (given correct tail oracles)."""

    value: float
    error_bound: float

    def contains(self, x: float) -> bool:
        return abs(self.value - x) <= self.error_bound

    def __float__(self):
        return self.value


def _rounding_slop(magnitude: float) -> float:
    """Bound on the floating-point rounding of a sum of terms with total
    absolute size ``magnitude``."""
    return 64.0 * _EPS * (1.0 + magnitude)


def _reachable(rounding: float, eps: float) -> float:
    """``rounding`` when it is below eps; otherwise no truncation can meet
    eps, so raise TailUnresolved with the bound that is reachable."""
    if rounding > eps:
        raise TailUnresolved(
            f"requested tolerance {eps:.3g} unreachable: rounding alone "
            f"bounds the error at {rounding:.3g}")
    return rounding


def _grow(config: Configuration, n: int):
    limit = config.family.clamp(config.max_truncation)
    if n >= limit:
        raise TailUnresolved(
            f"requested tolerance unreachable at max truncation {limit}")
    return min(2 * n, limit)


def _refine(config: Configuration, accept, n=None):
    """The truncation loop: call ``accept(N)`` for N = n (default the
    enumerated count), then for each doubling of N, and return its first
    result that is not None.  ``_grow`` raises TailUnresolved past
    max_truncation."""
    if n is None:
        n = config.n_enumerated
    while (out := accept(n)) is None:
        n = _grow(config, n)
    return out


def _potential_sum(config: Configuration, n: int, t, z, centers=None):
    """The kernel of certified calls: sum_{k<=N} 1/|zeta + lambda_k| plus
    the family's tail estimate at each point zeta = (t, z), for scalars or
    arrays of one shape, and the tail error bound, one for all points.

    ``centers`` passes the first N centers when the caller holds them.
    Axial centers use c = |z| without forming z + lambda_c.

    The points go in blocks of about _BLOCK elements (rows of N terms),
    each summed in place in one reused, cache-sized buffer, in the
    calling thread.  A row's sum does not depend on its block, so the
    result is the same bit for bit for any blocking.
    """
    fam = config.family
    lr, lc = fam.center_arrays(n) if centers is None else centers
    t = np.asarray(t, dtype=float)
    z = np.asarray(z)
    tv, zv = t.reshape(-1), z.reshape(-1)
    axial = not lc.any()
    if axial:
        c2 = np.abs(zv)
        c2 *= c2
    out = np.empty(tv.shape)
    rows = max(1, _BLOCK // max(lr.size, 1))
    buf = np.empty(min(rows, tv.size) * lr.size)
    for a in range(0, tv.size, rows):
        b = min(a + rows, tv.size)
        s = buf[:(b - a) * lr.size].reshape(b - a, lr.size)
        np.add(tv[a:b, None], lr, out=s)
        s *= s
        if axial:
            s += c2[a:b, None]
        else:
            ck = np.abs(zv[a:b, None] + lc[None, :])
            s += ck * ck
        np.sqrt(s, out=s)
        np.reciprocal(s, out=s)
        np.sum(s, axis=1, out=out[a:b])
    est, err = fam.phi_tail(n, t, z)
    out += np.ravel(est)
    return out.reshape(t.shape), err


def _tail_truncation(config: Configuration, t, z, tol: float, n=None):
    """(N, bound): the first N, doubling from n (default the enumerated
    count), whose quarter-normalized potential tail bound at the
    points (t, z) is at most tol, and that bound."""
    fam = config.family

    def accept(n):
        err = fam.phi_tail_bound(n, t, z)
        return (n, err / 4.0) if err / 4.0 <= tol else None
    return _refine(config, accept, n)


def phi(config: Configuration, zeta, eps: float = 1e-10) -> CertifiedValue:
    """The potential at zeta with certified absolute error <= eps."""
    p = as_point(zeta)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if config.is_singular(p):
        raise SingularPoint(f"{(p.t, p.z)} coincides with a center")

    def accept(n):
        total, err = _potential_sum(config, n, p.t, p.z)
        total = float(total)
        bound = err / 4.0 + _reachable(_rounding_slop(abs(total)) / 4.0, eps)
        return CertifiedValue(total / 4.0, bound) if bound <= eps else None
    return _refine(config, accept)


# ---------------------------------------------------------------------------
# Flow integrals
# ---------------------------------------------------------------------------

def _segment_clear(config: Configuration, z: complex, lo: float, hi: float):
    pts = config.family.fiber_points_window(z, lo, hi, config.max_truncation)
    if pts:
        raise SegmentHitsCenter(
            f"fiber points {[t for _, t in pts][:4]} lie on the segment "
            f"[{lo}, {hi}] over {z}")


def _bernstein_bound(lr, c2, lo, hi):
    """(bound, distance) on each panel [lo_i, hi_i] for the integrand
    sum_k 1/sqrt((t + lr_k)^2 + c2_k): a bound on the error of the
    _GL_N-node rule, and a lower bound on the distance from the panel to
    every branch point.

    For an integrand analytic in the Bernstein ellipse E_rho of the panel
    and bounded there by M, the error of the (n + 1)-node rule is at most
    h 64 M / (15 (rho^2 - 1) rho^2n), h the half-length (Trefethen,
    Approximation Theory and Approximation Practice, Thm 19.3); here
    n = _GL_N - 1, as that rule is exact up to degree 2n + 1.  Term k is
    analytic off its branch points p = -lr_k +- i sqrt(c2_k), which lie on
    the confocal ellipse of semi-major axis h a_k, a_k h = (|p - lo| +
    |p - hi|)/2.  Confocal ellipses are at least the difference of their
    semi-major axes apart, so on E_rho with semi-major axis h a,
    a = 1 + _THETA (min a_k - 1), term k is at most 1/(h (a_k - a)); the
    panel itself is the confocal ellipse a = 1, h (min a_k - 1) from them.
    """
    h = 0.5 * (hi - lo)
    out = np.empty_like(h)
    dist = np.empty_like(h)
    rows = max(1, _BLOCK // max(lr.size, 1))
    for i in range(0, h.size, rows):
        j = min(i + rows, h.size)
        a_k = np.sqrt((lo[i:j, None] + lr) ** 2 + c2)
        a_k += np.sqrt((hi[i:j, None] + lr) ** 2 + c2)
        a_k *= (0.5 / h[i:j])[:, None]
        a_min = a_k.min(axis=1)
        dist[i:j] = h[i:j] * (a_min - 1.0)
        a = 1.0 + _THETA * (a_min - 1.0)
        a_k -= a[:, None]
        # a branch point that rounds onto the panel gives inf or nan: the
        # panel is then rejected and halved
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            m = np.sum(np.reciprocal(a_k, out=a_k), axis=1)
            rho = a + np.sqrt(a * a - 1.0)
            out[i:j] = 64.0 * m / (15.0 * (rho * rho - 1.0) * rho ** (2 * _GL_N - 2))
    # the factor covers the rounding of this evaluation, relative N eps at most
    return out * (1.0 + 1e-9), dist


def _gauss(func, lo, hi, *rules):
    """Per-panel sums of each Gauss-Legendre rule over the panels
    [lo_i, hi_i], from one call of func on all their nodes (none when there
    are no panels)."""
    if not lo.size:
        return [lo] * len(rules)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = [mid[:, None] + half[:, None] * x for x, _ in rules]
    f = func(np.concatenate([v.ravel() for v in nodes]))
    sums, at = [], 0
    for v, (_, w) in zip(nodes, rules):
        sums.append(half * (f[at:at + v.size].reshape(v.shape) @ w))
        at += v.size
    return sums


def quad(func, a: float, b: float, panels):
    """(value, bound): the integral of func from a to b (negative for
    b < a) on Gauss-Legendre panels.

    func maps an array of nodes to an array of values.  Starting from the
    one panel between a and b, each refinement level passes its pending
    panels, as arrays lo < hi, to ``panels(func, lo, hi)``, which returns
    a mask of the panels it accepts and, for those, their sums and error
    terms; the rejected ones are halved.  The value and the bound add up
    the accepted panels.  Raises QuadratureUnresolved when a rejected
    panel cannot be halved or more than _MAX_PANELS are pending.
    """
    lo, hi = np.array([min(a, b)], dtype=float), np.array([max(a, b)], dtype=float)
    sums, errs = [], []
    while True:
        ok, s, e = panels(func, lo, hi)
        sums.append(s)
        errs.append(e)
        if ok.all():
            break
        lo, hi = lo[~ok], hi[~ok]
        mid = 0.5 * (lo + hi)
        if lo.size > _MAX_PANELS or np.any((mid <= lo) | (mid >= hi)):
            raise QuadratureUnresolved(
                f"quadrature panels between {a!r} and {b!r} cannot meet the tolerance")
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    value = float(np.sum(np.concatenate(sums)))
    return (value if b >= a else -value), float(np.sum(np.concatenate(errs)))


def flow_log_g(config: Configuration, z, from_t: float, to_t: float,
               eps: float = 1e-8) -> CertifiedValue:
    """log|g|^2 between two heights on a fiber line, as the integral of the
    potential along the vertical segment, on Gauss-Legendre panels.

    The segment must stay clear of centers.  The error bound is certified:
    the panels' Bernstein-ellipse bounds (at most eps/2), the tail bound
    along the segment (at most eps/4) and rounding.  Rounding includes the
    rule's: a node at height t lands within delta = 2^-51 (|t| + panel
    length) of its place, which moves the integrand, whose log-derivative
    is at most 1/distance to the nearest center, by a relative
    delta / (distance - 3 delta) at most, and the weights are off by a
    relative _GL_WEIGHT_ERR.  Raises TailUnresolved when the sum exceeds
    eps, before any work when rounding alone must.
    """
    z = complex(z)
    if from_t == to_t:
        return CertifiedValue(0.0, 0.0)
    _reachable(_rounding_slop(0.0), eps)
    lo, hi = min(from_t, to_t), max(from_t, to_t)
    _segment_clear(config, z, lo, hi)
    length = hi - lo
    # the segment's largest radius is at an end
    n, tail_err = _tail_truncation(config, [lo, hi], [z, z], eps / (4.0 * length))
    centers = config.family.center_arrays(n)
    lr, c2 = centers[0], np.abs(z + centers[1]) ** 2

    def panels(func, lo, hi):
        err, dist = _bernstein_bound(lr, c2, lo, hi)
        err /= 4.0
        ok = err <= eps / 2.0 * (hi - lo) / length
        lo, hi, err, dist = lo[ok], hi[ok], err[ok], dist[ok]
        (sums,) = _gauss(func, lo, hi, _GL)
        shift = 2.0 ** -51 * (np.maximum(np.abs(lo), np.abs(hi)) + (hi - lo))
        with np.errstate(divide="ignore"):
            rel = shift / np.maximum(dist - 3.0 * shift, 0.0) + _GL_WEIGHT_ERR
        return ok, sums, err + rel * np.abs(sums)

    def integrand(t):
        total, _ = _potential_sum(config, n, t, np.full(t.shape, z), centers)
        return total / 4.0

    val, quad_err = quad(integrand, from_t, to_t, panels)
    bound = quad_err + length * tail_err + _rounding_slop(abs(val))
    if not bound <= eps:
        raise TailUnresolved(
            f"requested tolerance {eps:.3g} unreachable: with rounding the "
            f"bound is {bound:.3g}")
    return CertifiedValue(val, bound)


def flow_log_g_sum(config: Configuration, eta_t: float, zeta_t: float, z,
                   eps: float = 1e-9) -> CertifiedValue:
    """The flow integral between heights zeta_t -> eta_t over z, via the
    explicit sum of log ratios split by the sign of zeta_r + lambda_r
    (quarter-normalized to match ``flow_log_g``; the flow multiplier itself
    satisfies log|g|^2 = 4x this value, see the module docstring).

    Independent of ``flow_log_g``; both points must lie in the same gap.
    A ratio is log1p((s1 + d1 - s0 - d0)/(s0 + d0)) (or its w-side mirror),
    or, where that argument is below -1/2 or the segment crosses the
    center's height, the log of the ``config.moduli_pair`` ratio.
    """
    z = complex(z)
    if eta_t == zeta_t:
        return CertifiedValue(0.0, 0.0)
    lo, hi = min(eta_t, zeta_t), max(eta_t, zeta_t)
    _segment_clear(config, z, lo, hi)
    fam = config.family

    def accept(n):
        lr, lc = fam.center_arrays(n)
        d0 = zeta_t + lr
        d1 = eta_t + lr
        c = np.abs(z + lc)
        s0 = np.hypot(d0, c)
        s1 = np.hypot(d1, c)
        # log1p of the ratios: s1 - s0 = (d1-d0)(d1+d0)/(s1+s0), d1 - d0 = dt
        dt = eta_t - zeta_t
        ds = dt * (d1 + d0) / (s1 + s0)
        plus = d0 >= 0
        num = np.where(plus, ds + dt, ds - dt)
        den = np.where(plus, s0 + d0, s0 - d0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = num / den
            terms = np.log1p(ratio)
        # below -1/2, or across a center's height, log1p loses digits
        stable = (ratio < -0.5) | ((d1 >= 0) != plus)
        if stable.any():
            zsq0, wsq0 = moduli_pair(lr[stable], lc[stable], ImHPoint(zeta_t, z))
            zsq1, wsq1 = moduli_pair(lr[stable], lc[stable], ImHPoint(eta_t, z))
            on_z = plus[stable]
            terms[stable] = np.log(np.where(on_z, zsq1, wsq1) / np.where(on_z, zsq0, wsq0))
        terms = np.where(plus, terms, -terms)
        partial = float(np.sum(terms))
        est, err = fam.flow_tail(n, zeta_t, eta_t, z)
        # 64 eps max(|term|, 1/4) covers 17 ulps of a log1p term and 16 ulps
        # of 1 plus one of itself for a moduli term
        magnitude = float(np.where(stable, np.maximum(np.abs(terms), 0.25), np.abs(terms)).sum())
        magnitude += abs(est)
        bound = err / 4.0 + _reachable(_rounding_slop(magnitude) / 4.0, eps)
        return CertifiedValue((partial + est) / 4.0, bound) if bound <= eps else None
    return _refine(config, accept)


# ---------------------------------------------------------------------------
# Radial distance and volume growth
# ---------------------------------------------------------------------------

def _unit_direction(direction):
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or not np.all(np.isfinite(d)) or not np.any(d):
        raise ValueError("direction must be a nonzero 3-vector (t, re, im)")
    return d / np.linalg.norm(d)


def radial_distance(config: Configuration, direction, R: float,
                    rel_tol: float = 1e-9) -> float:
    """Base-distance proxy along a ray: integral of sqrt(Phi) from the
    origin to radius R (substituted s = sigma^2 to tame the endpoint when a
    center sits at the origin)."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    if R == 0:
        return 0.0
    d = _unit_direction(direction)
    # enumerate far enough that all non-enumerated centers lie beyond R
    fam = config.family
    n = _refine(config, lambda n: n if fam.min_tail_norm(n) > R else None)
    lr, lc = fam.center_arrays(n)
    pos_t, pos_z = -lr, -lc
    proj = pos_t * d[0] + np.real(pos_z) * d[1] + np.imag(pos_z) * d[2]
    perp2 = (pos_t - proj * d[0]) ** 2 + (np.real(pos_z) - proj * d[1]) ** 2 \
        + (np.imag(pos_z) - proj * d[2]) ** 2
    on_ray = (proj > 1e-12) & (proj <= R) & (perp2 <= (1e-10 * (1.0 + proj)) ** 2)
    if np.any(on_ray):
        raise RayHitsCenter(
            f"center {int(np.flatnonzero(on_ray)[0])} lies on the ray; perturb the direction")

    # the bound at the far end covers every node of the ray
    n, _ = _tail_truncation(config, R * d[0], complex(R * d[1], R * d[2]),
                            rel_tol / (4.0 * (R + 1.0)))
    centers = fam.center_arrays(n)
    dz = complex(d[1], d[2])

    def integrand(sigma):
        s = sigma * sigma
        total, _ = _potential_sum(config, n, s * d[0], s * dz, centers)
        return 2.0 * sigma * np.sqrt(np.maximum(total / 4.0, 0.0))

    def panels(func, lo, hi):
        q, q2 = _gauss(func, lo, hi, _GL, _GL2)
        err = np.abs(q - q2)
        ok = err <= rel_tol * np.abs(q2)
        return ok, q2[ok], err[ok]

    val, _ = quad(integrand, 0.0, math.sqrt(R), panels)
    return val


def _axial_check(config: Configuration):
    _, lc = config.center_arrays()
    if np.any(lc != 0):
        raise ValueError("the growth experiment supports axial configurations only")


def _least_truncation(config: Configuration, r: float, tol: float, n: int) -> int:
    """The least N >= n whose quarter-normalized tail bound on the axis at
    radius r is at most tol, for an n whose predecessor misses it: N
    doubles from n until the bound meets tol, then bisection between the
    last doubling that missed and the first that met it."""
    hi, _ = _tail_truncation(config, r, 0.0, tol, n)
    lo = max(hi // 2, n) if hi > n else hi      # misses tol, unless lo = hi
    bound = config.family.phi_tail_bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid, r, 0.0) / 4.0 <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def _octave_truncation(config: Configuration, r: np.ndarray, rel_tol: float):
    """The certified truncation of every point of a growth batch at the
    radii r (an array of any shape), as (n_at, octave, share): a point sums
    the first n_at[octave] centers.  Accuracy: absolute error at
    most rel_tol / (4 (rmax + |lambda_first| + 1)), a relative rel_tol at
    the farthest point of the batch; the tail bound meets all but
    _CLUSTER_SHARE of it, and share, the rest, is left to the clusters of
    ``_cluster_sum``.

    The truncation is chosen per radius octave rmax 2^-(k+1) < r <=
    rmax 2^-k (the last, k = 63, also holds every point below it): the
    least N whose tail bound at the octave's outer radius on the axis meets
    the tail's share (``_least_truncation``), from the nearest octave outward,
    each starting from the previous octave's N.  The tail bounds depend on
    the radius alone and grow with it, so that N serves every point of the
    octave.  Every N is certified before any term is summed.  When the
    nearest octave's N is also certified at rmax, it serves every octave:
    n_at holds that N alone and every point is in octave 0."""
    rmax = float(r.max())
    lr0 = abs(config.center(config.family.n_first)[0])
    scale = 1.0 / (4.0 * (rmax + lr0 + 1.0))   # lower bound for Phi at rmax
    share = rel_tol * scale * _CLUSTER_SHARE
    tol = rel_tol * scale * (1.0 - _CLUSTER_SHARE)
    outer = np.ldexp(rmax, -np.arange(64))
    edges = outer[::-1]
    inner = 63 - int(np.searchsorted(edges, r.min()))
    n_in = _least_truncation(config, outer[inner], tol, config.family.clamp(1))
    n, _ = _tail_truncation(config, rmax, 0.0, tol, n_in)
    if n == n_in:       # the nearest octave's N is certified out to rmax
        return np.array([n]), np.zeros(r.shape, dtype=int), share

    octave = np.searchsorted(edges, r)
    np.subtract(63, octave, out=octave)     # exact: r <= outer[octave]
    filled = np.flatnonzero(np.bincount(octave.ravel()))
    n_at = np.zeros(inner + 1, dtype=int)
    n = n_in
    for k in filled[::-1]:
        n = _least_truncation(config, outer[k], tol, n)
        n_at[k] = n
    return n_at, octave, share


@functools.cache
def _far_ratios():
    """(rho, g): g(rho) = rho^(L+2)/(1 - rho) + kappa rho A(rho) on a grid
    of rho in (0, 1/2], increasing; A(rho) = sum_l alpha_l rho^l (``_ALPHA``)
    and kappa = (16 L + 64) u, u = 2^-53.

    A node of half-width w and midpoint m, at distance d = w/rho from a
    point, holds centers at heights m + w u_k, |u_k| <= 1; their sum is
    (1/d) sum_l q_l R_l(y, v), q_l = sum_k u_k^l, with R_l as in
    ``config._legendre_tail`` for y = -w (t + m)/d^2 and v = w^2/d^2.
    With |q_l| <= count and |R_l| <= rho^l, cutting at L leaves at most
    count rho^(L+1)/(d - w) = count rho^(L+2)/(w (1 - rho)).  Rounding,
    after Higham as in ``config._legendre_rounding``, moves R_l by at most
    (4 l + 8 l) u alpha_l rho^l, q_l by (3 l + 40) u count (powers of u_k,
    each off by 2 u, and pairwise sums of at most 2^32 terms), and the sum
    and the division by (L + 3) u: at most kappa count A(rho)/d =
    kappa count rho A(rho)/w in all.  So a node whose w/d is at most the
    largest grid rho with g(rho) <= b w is within b of the exact sum per
    center."""
    rho = np.arange(1, 4097) / 8192.0
    kappa = (16 * _LEGENDRE_ORDER + 64) * _MACHEP
    g = rho ** (_LEGENDRE_ORDER + 2) / (1.0 - rho)
    g += kappa * rho * np.polynomial.polynomial.polyval(rho, _ALPHA)
    return rho, g


def _cluster_tree(lr, b: float):
    """The treecode's tree over the centers of heights lr, as flat arrays
    (m, w, dc2, q, offs, leaves).  With h the sorted heights, level k,
    leaves first, holds the nodes offs[k] to offs[k + 1] - 1, and its node
    j the heights h[j S:(j + 1) S], S = _LEAF 2^k; the top level is the
    lowest of at most _START nodes.  Per node: midpoint m, half-width w,
    squared far radius dc2 for an error of at most b per center
    (``_far_ratios``; a far node's centers are at least 2e-9 (1 + |m| + w)
    away, so the floor of ``_octave_sums`` binds on none of them), and the
    moments q_l = sum ((h - m)/w)^l as rows.  leaves holds h in columns
    of _LEAF, one per leaf, padded with inf: the kernel's layout
    (``_direct_sums``), _LEAF x leaves."""
    h = np.sort(lr)
    rho, g = _far_ratios()
    levels, offs = [], [0]
    size = _LEAF
    while not levels or offs[-1] - offs[-2] > _START:
        nodes = -(-h.size // size)
        ends = np.minimum(np.arange(1, nodes + 1) * size, h.size)
        first, last = h[::size], h[ends - 1]
        m = 0.5 * (first + last)
        w = 0.5 * (last - first) + (np.abs(first) + np.abs(last)) * _EPS
        u = np.full(nodes * size, m[-1])
        u[:h.size] = h
        u = u.reshape(nodes, size) - m[:, None]
        u /= np.where(w > 0.0, w, 1.0)[:, None]
        q = np.empty((_LEGENDRE_ORDER + 1, nodes))
        q[0] = ends - np.arange(nodes) * size
        p = u.copy()
        for l in range(1, _LEGENDRE_ORDER + 1):
            np.sum(p, axis=1, out=q[l])
            p *= u
        k = np.searchsorted(g, b * w, side="right")
        dc = np.where(k > 0, w / rho[k - 1], np.inf)
        dc = np.maximum(dc, w + 2e-9 * (1.0 + np.abs(m) + w)) * (1.0 + 2.0 ** -40)
        levels.append((m, w, dc * dc, q))
        offs.append(offs[-1] + nodes)
        size *= 2
    m, w, dc2, q = (np.concatenate(a, axis=-1) for a in zip(*levels))
    leaves = np.full((_LEAF, offs[1]), np.inf)
    leaves.T.flat[:h.size] = h
    return m, w, dc2, q, offs, leaves


def _cluster_sum(tree, t, c, fl):
    """The kernel's sums at the axial points (t, c), c = |z| >= 0 (1-D
    arrays), over the centers of a ``_cluster_tree`` with the floor fl of
    ``_octave_sums``, by the treecode.

    Each point descends the tree from its top level: a node far from the
    point adds its order-L expansion (``_legendre_sum`` with the node's
    moments as per-pair coefficients), a near one passes the point to its
    children, and a near leaf adds its direct sum (``_direct_sums``).
    Points go in blocks of about _PAIRS top-level pairs.  Each point's
    nodes, and the order in which its terms add up, depend on the point
    alone, so its value does not depend on the other points or on any
    blocking."""
    m, w, dc2, q, offs, leaves = tree
    top = len(offs) - 2
    out = np.empty(t.size)
    step = max(1, _PAIRS // (offs[-1] - offs[-2]))
    for a in range(0, t.size, step):
        tb, c2 = t[a:a + step], c[a:a + step] ** 2
        pt = np.repeat(np.arange(tb.size), offs[-1] - offs[-2])
        nd = np.tile(np.arange(offs[-2], offs[-1]), tb.size)
        far_pairs = []
        for k in range(top, -1, -1):
            dt = tb[pt] + m[nd]
            d2 = dt * dt
            d2 += c2[pt]
            far = d2 >= dc2[nd]
            far_pairs.append((pt[far], nd[far], dt[far], d2[far]))
            pt, nd = pt[~far], nd[~far]
            if k:       # the children of the near nodes
                nd = (2 * (nd - offs[k]) + offs[k - 1])[:, None] + (0, 1)
                pt, nd = np.repeat(pt, 2), nd.ravel()
                if (offs[k] - offs[k - 1]) % 2:     # the last node has one child
                    keep = nd < offs[k]
                    pt, nd = pt[keep], nd[keep]
        fp, fn, fdt, fd2 = (np.concatenate(x) for x in zip(*far_pairs))
        vals = np.concatenate([_expansions(q, w, fn, fdt, fd2),
                               _direct_sums(tb[pt], c2[pt], fl[a:a + step][pt], leaves, nd)])
        out[a:a + step] = np.bincount(np.concatenate([fp, pt]), vals, tb.size)
    return out


def _expansions(q, w, nd, dt, d2):
    """Each far pair's expansion (1/d) sum_l q_l[nd] R_l(y, v), in equal
    blocks of at most _BLOCK / 16 pairs."""
    out = np.empty(nd.size)
    blocks = max(1, -(-nd.size // (_BLOCK // 16)))
    step = max(1, -(-nd.size // blocks))
    for lo in range(0, nd.size, step):
        j = nd[lo:lo + step]
        wj = w[j]
        y = dt[lo:lo + step] * wj
        y /= d2[lo:lo + step]
        np.negative(y, out=y)
        wj *= wj
        wj /= d2[lo:lo + step]
        out[lo:lo + step] = _legendre_sum(q[:, j], y, wj)
    out /= np.sqrt(d2)
    return out


def _direct_sums(t, c2, fl, h, nd=None):
    """The growth kernel: sums of 1/max(|(t + h_k, c)|, fl) at the points
    (t, c2 = c^2), 1-D arrays, over the heights h of every point, or with
    nd over each point's column h[:, nd] of a 2-D h (inf adds 0).

    Column layout: a block is centers x points, about _BLOCK terms in one
    reused buffer, reduced along the centers, so that each point adds its
    terms one center at a time, in index order, whatever its block.  A
    lone point goes in twice, as two columns summed into a spare last slot
    of the output: numpy would sum a block of one column pairwise."""
    width = h.shape[0]
    cols = max(2, _BLOCK // max(width, 1))
    out = np.empty(t.size + 1)
    buf = np.empty(max(min(cols, t.size), 2) * width)
    for a in range(0, t.size, cols):
        b = min(a + cols, t.size)
        pts = slice(a, b) if b - a > 1 else [a, a]
        tb = t[pts]
        s = buf[:tb.size * width].reshape(width, tb.size)
        if nd is None:
            np.add(h[:, None], tb, out=s)
        else:
            np.take(h, nd[pts], axis=1, out=s)
            s += tb
        s *= s
        s += c2[pts]
        np.sqrt(s, out=s)
        fb = fl[pts]
        k = np.flatnonzero(fb)
        if k.size:
            s[:, k] = np.maximum(s[:, k], fb[k])
        np.reciprocal(s, out=s)
        np.sum(s, axis=0, out=out[a:a + tb.size])
    return out[:t.size]


def _truncated_sums(config: Configuration, m: int, t, c, fl, lr, share: float, trees):
    """The sums of ``_octave_sums`` at the points of one truncation m: over
    the first m heights lr, directly below _TREE_MIN and from it on by the
    treecode on ``trees[m]``, within 4 share (share on the potential),
    plus the tail estimate past them."""
    if m < _TREE_MIN:
        out = _direct_sums(t, c * c, fl, lr[:m])
    else:
        if m not in trees:
            trees[m] = _cluster_tree(lr[:m], 4.0 * share / m)
        out = _cluster_sum(trees[m], t, c, fl)
    out += np.ravel(config.family.phi_tail(m, t, c)[0])
    return out


def _octave_sums(config: Configuration, n_at, octave, share, t, c, r, centers=None,
                 trees=None):
    """The kernel's sums at the axial points (t, c), c = |z| >= 0, of radii
    r (arrays of one shape), each point at its truncation from
    ``_octave_truncation`` (n_at, octave, share): one ``_truncated_sums``
    call per distinct N of their octaves, on prefixes of ``centers``
    (default the first n_at[0] centers; octave 0 holds rmax), whose trees
    ``trees`` keeps by N.  A point may land on a center: where c <
    2e-9 (1 + r) the floor fl = 1e-9 (1 + r) clamps its distances, and
    elsewhere, each at least c (1 - 2u), fl = 0."""
    trees = {} if trees is None else trees
    lr = (config.family.center_arrays(int(n_at[0])) if centers is None else centers)[0]
    t, c, rv, octave = t.ravel(), c.ravel(), r.ravel(), octave.ravel()
    fl = np.where(c < 2e-9 * (1.0 + rv), 1e-9 * (1.0 + rv), 0.0)
    ms = np.unique(n_at[np.flatnonzero(np.bincount(octave))]).tolist()
    n_pt = n_at[octave]
    total = np.empty(rv.shape)
    for m in ms:
        # one N for every point: a basic slice, with no gather or scatter
        idx = slice(None) if len(ms) == 1 else np.flatnonzero(n_pt == m)
        total[idx] = _truncated_sums(config, m, t[idx], c[idx], fl[idx], lr, share, trees)
    return total.reshape(r.shape)


def _phi_batch(config: Configuration, t: np.ndarray, c: np.ndarray,
               rel_tol: float = _BATCH_REL_TOL) -> np.ndarray:
    """Vectorized potential for axial configurations at the 1-D arrays of
    points (t, c), c = |z| >= 0, each point summed at the truncation
    ``_octave_truncation`` certifies for the batch (``_octave_sums``)."""
    r = np.hypot(t, c)
    return _octave_sums(config, *_octave_truncation(config, r, rel_tol), t, c, r) / 4.0


@dataclass(frozen=True)
class GrowthFit:
    """log-log samples of the region volume against the distance proxy and
    the fitted slope (base-10 logs; the slope is base-independent)."""

    samples: tuple
    slope: float
    slope_stderr: float

    def __post_init__(self):
        xs = [x for x, _ in self.samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("samples must be strictly increasing in log rho")


def _boundary_tables(config: Configuration, rho_grid, n_psi: int, n_radial: int):
    """R(x, rho) for x = cos(polar angle): invert cumulative sqrt(Phi) ray
    integrals computed on a shared sigma grid (s = sigma^2).

    The rays are summed from the inside out, and each stops at its first
    node whose trapezoid cumulative reaches the largest rho, the last node
    ``np.interp`` reads; the potential past it is never summed.  The rays
    still short go out together, in blocks of columns of about
    _SWEEP_TERMS terms (points x N), so the cheap inner octaves take few
    kernel calls and the costly outer ones stop within a few columns of
    each ray's crossing.

    The tables equal, bit for bit, those interpolated from the potential at
    every node: every point keeps the truncation ``_octave_truncation``
    certifies for the whole grid; neither a row's sum nor its tail estimate
    depends on the other points of its kernel call; and the cumulative runs
    through each ray's nodes in order, as one cumsum along it does.  Raises
    TailUnresolved when a ray's cumulative falls short of the largest rho."""
    rho_max = rho_grid[-1]
    x_grid = np.linspace(-1.0, 1.0, n_psi + 2)[1:-1]   # strictly interior

    # probe the slowest-accumulating rays for an upper radius, the three
    # rays as one batch
    x = np.array([x_grid[-1], 0.0, x_grid[0]])[:, None]
    y = np.sqrt(1.0 - x * x)
    r_up = 4.0 * (1.0 + rho_max)
    for _ in range(64):
        sig = np.sqrt(r_up) * np.linspace(0.0, 1.0, 512)
        s = sig * sig
        g = 2.0 * sig * np.sqrt(_phi_batch(config, (s * x).ravel(), (s * y).ravel(),
                                           rel_tol=1e-3).reshape(3, -1))
        if not (np.trapezoid(g, sig) < 1.2 * rho_max).any():
            break
        r_up *= 4.0
    else:
        raise TailUnresolved("could not bracket the growth region boundary")

    sig_up = math.sqrt(r_up)
    sig = np.unique(np.concatenate([
        np.linspace(0.0, sig_up, n_radial // 3),
        sig_up * np.geomspace(1e-8, 1.0, n_radial),
    ]))
    s = sig * sig
    dsig = np.diff(sig)
    x = x_grid[:, None]
    y = np.sqrt(1.0 - x * x)
    r = np.hypot(x * s, y * s)
    n_at, octave, share = _octave_truncation(config, r, _BATCH_REL_TOL)
    centers, trees = config.family.center_arrays(int(n_at[0])), {}
    # the work of the columns before each column: a node costs the largest N
    # of its column, and at least _NODE_TERMS, so that blocks of cheap inner
    # nodes stay small
    before = np.concatenate([[0], np.cumsum(np.maximum(n_at[octave.min(axis=0)],
                                                       _NODE_TERMS))])

    cum = np.empty(r.shape)
    g_edge = np.empty(n_psi)                  # g at each live ray's last node
    end = np.zeros(n_psi, dtype=int)          # nodes through the crossing
    live = np.arange(n_psi)
    j0 = 0
    while live.size and j0 < sig.size:
        rows = live if live.size < n_psi else slice(None)
        budget = before[j0] + _SWEEP_TERMS / live.size
        j1 = max(int(np.searchsorted(before, budget, side="right")) - 1, j0 + 1)
        g = _octave_sums(config, n_at, octave[rows, j0:j1], share, x[rows] * s[j0:j1],
                         y[rows] * s[j0:j1], r[rows, j0:j1], centers, trees)
        # g = 2 sigma sqrt(Phi), Phi a quarter of the kernel's sum, in place
        g /= 4.0
        np.sqrt(g, out=g)
        g *= 2.0 * sig[j0:j1]
        a = max(j0 - 1, 0)
        g_pair = np.concatenate([g_edge[rows, None], g], axis=1) if j0 else g
        # the trapezoid cumulative from node a on, carried exactly as one
        # cumsum along the whole ray adds it
        seg = np.empty((live.size, j1 - a))
        seg[:, 0] = cum[rows, a] if j0 else 0.0
        np.add(g_pair[:, 1:], g_pair[:, :-1], out=seg[:, 1:])
        seg[:, 1:] *= 0.5
        seg[:, 1:] *= dsig[a:j1 - 1]
        np.cumsum(seg, axis=1, out=seg)
        cum[rows, a:j1] = seg
        g_edge[rows] = g[:, -1]
        hit = seg >= rho_max
        crossed = hit.any(axis=1)
        end[live[crossed]] = a + hit[crossed].argmax(axis=1) + 1
        live = live[~crossed]
        j0 = j1
    if live.size:
        raise TailUnresolved("boundary cumulative fell short; raise n_radial")

    tables = np.empty((len(rho_grid), x_grid.size))
    for i in range(x_grid.size):
        tables[:, i] = np.interp(rho_grid, cum[i, :end[i]], sig[:end[i]]) ** 2
    return x_grid, tables


def _growth_tables(config: Configuration, rho, n_psi: int, n_radial: int):
    """``_boundary_tables`` (x_grid, tables), read-only, built once per
    configuration, rho grid, n_psi and n_radial and kept while the
    configuration lives.  The tables do not depend on the seed, but on the
    family and on max_truncation (through ``_refine``): they are keyed by
    the configuration, so equal ones (the same family object and
    truncations) share them.  A failure is not kept: the next call tries
    again."""
    memo = _TABLES.setdefault(config, {})
    key = (tuple(rho.tolist()), n_psi, n_radial)
    if key not in memo:
        out = _boundary_tables(config, rho, n_psi, n_radial)
        for a in out:
            a.flags.writeable = False
        memo[key] = out
    return memo[key]


def _grid_interp(x, xp, fp):
    """``np.interp(x, xp, fp)``, bit for bit, on the grid xp =
    linspace(-1, 1, n + 2)[1:-1] of the boundary tables, at points x that
    are not NaN, with the node index found by arithmetic instead of a
    search.

    i, the count of nodes at or below x, is floor((x + 1) (n + 1) / 2)
    clamped to [0, n], off by at most one next to a node, so one comparison
    each way corrects it.  Then np.interp's own formula, slope_j (x - xp_j)
    + fp_j on the node xp_j = xp[i - 1] below x, gives fp_j at the node,
    and with slope 0 below the grid (i = 0) and on or above its last node
    (i = n) it gives the end values."""
    n = xp.size
    i = x + 1.0
    i *= 0.5 * (n + 1)
    np.clip(i, 0.0, n, out=i)
    i = i.astype(np.intp)
    i -= x < np.concatenate([[-np.inf], xp])[i]
    i += x >= np.concatenate([xp, [np.inf]])[i]
    slope = np.concatenate([[0.0], np.diff(fp) / np.diff(xp), [0.0]])
    node = np.concatenate([xp[:1], xp])
    out = x - node[i]
    out *= slope[i]
    out += np.concatenate([fp[:1], fp])[i]
    return out


def growth_exponent(config: Configuration, rho_grid, mc_samples: int, seed: int,
                    *, n_psi: int = 320, n_radial: int = 768) -> GrowthFit:
    """Fit the exponent of W(rho) ~ rho^alpha where W integrates the
    potential over the star-shaped region {radial_distance <= rho}.

    ``mc_samples`` is the total budget, split evenly across the rho grid;
    stratum k draws from Philox(seed) jumped k times.  The region's
    boundary comes from ``_boundary_tables``, which sums each of the
    ``n_psi`` rays of its ``n_radial``-based grid outward only until it
    passes the largest rho; its tables, and so the fit, are the same bit
    for bit as from the potential at every node of the grid.  They do not
    depend on the seed, so they are built once per configuration, rho grid,
    ``n_psi`` and ``n_radial`` and kept while the configuration lives
    (``_growth_tables``): a refit pays for the strata alone, while the
    first fit in a process, such as a cold ``ainfty growth``, still builds
    them.

    Raises ValueError, before any work, for an ``n_psi`` or ``n_radial``
    below 1 or an ``mc_samples`` below 16 per rho value, and
    InsufficientRange for a rho grid that is not finite, has fewer than two
    positive values or spans less than a decade.
    """
    for name, value in (("n_psi", n_psi), ("n_radial", n_radial)):
        if not value >= 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    rho = np.unique(np.asarray([float(r) for r in rho_grid]))
    if not np.isfinite(rho).all():
        raise InsufficientRange("rho_grid must hold finite values only")
    if rho.size < 2 or rho[0] <= 0:
        raise InsufficientRange("need at least two positive rho values")
    if math.log10(rho[-1] / rho[0]) < 1.0:
        raise InsufficientRange("rho grid must span at least one decade")
    if not mc_samples >= 16 * rho.size:
        raise ValueError(f"mc_samples must be at least 16 per rho value, "
                         f"{16 * rho.size} here, got {mc_samples!r}")
    _axial_check(config)

    x_grid, tables = _growth_tables(config, rho, n_psi, n_radial)
    m = int(mc_samples) // rho.size
    base = np.random.Philox(key=int(seed))

    samples = []
    for k, rho_k in enumerate(rho):
        rng = np.random.Generator(base.jumped(k))
        x = rng.uniform(-1.0, 1.0, m)
        u = rng.random(m)
        r_max = _grid_interp(x, x_grid, tables[k])
        s = r_max * np.cbrt(u)
        vals = _phi_batch(config, s * x, s * np.sqrt(1.0 - x * x))
        w = float(np.mean(vals * (4.0 * math.pi / 3.0) * r_max ** 3))
        samples.append((math.log10(rho_k), math.log10(w)))

    xs = np.array([a for a, _ in samples])
    ys = np.array([b for _, b in samples])
    xbar = xs.mean()
    sxx = float(np.sum((xs - xbar) ** 2))
    slope = float(np.sum((xs - xbar) * (ys - ys.mean())) / sxx)
    resid = ys - (ys.mean() + slope * (xs - xbar))
    dof = max(len(xs) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return GrowthFit(samples=tuple(samples), slope=slope, slope_stderr=stderr)
