"""Certified evaluation of the harmonic potential, flow integrals, and the
volume-growth experiment.

The potential is Phi(zeta) = (1/4) sum_n 1/|zeta + lambda_n|.  One
evaluator, ``_potential_sum``, forms the sum over the first N centers plus
the family's tail estimate (``phi_tail``), vectorized over points; ``phi``,
the integrand of ``flow_log_g``, ``radial_distance``, the growth batches
``_phi_batch`` and the chart profile's derivative all call it.  One loop,
``_refine``, picks N for every certified quantity here and in the chart
profile: it doubles N through ``_grow`` until the caller's bound meets its
tolerance, raising TailUnresolved once N reaches max_truncation.  It
starts at the configuration's enumerated count, except in growth batches:
``_phi_batch`` starts at one center and picks N per radius octave of its
points, from the nearest octave outward, under the batch's one tolerance.
Flow quantities come in two deliberately independent routes:
``flow_log_g`` integrates Phi along a vertical segment with adaptive
quadrature, while ``flow_log_g_sum`` evaluates the explicit sum of log
ratios; their agreement is one of the bundled invariants.

Normalization: both flow routes return the integral of the
quarter-normalized potential, whose eta-derivative is exactly Phi.  The
complex flow multiplier g moving a point between the two heights satisfies
log|g|^2 = 4 * flow_log_g (equivariant chart moduli use that unscaled sum).

The growth experiment measures W(rho) = integral of Phi over the base
region {radial_distance <= rho} and fits the slope of log W against
log rho.  The constant fiber-circle period is omitted from W (it rescales
W and cannot move the slope), and the base-distance proxy differs from the
true geodesic distance by bounded distortion, again affecting constants
only.  Monte Carlo sampling uses counter-based Philox streams split per
rho stratum, so results are bit-reproducible for a given seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .config import Configuration
from .errors import (InsufficientRange, RayHitsCenter, SegmentHitsCenter,
                     SingularPoint, TailUnresolved)
from .geometry import as_point

_EPS = float(np.finfo(float).eps)


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


def _potential_sum(config: Configuration, n: int, t, z, centers=None,
                   floor=None):
    """The evaluator: sum_{k<=N} 1/|zeta + lambda_k| plus the family's tail
    estimate at each point zeta = (t, z), for scalars or arrays of one
    shape, and the tail error bound, one for all points.

    ``centers`` passes the first N centers when the caller holds them.
    Axial centers use c = |z| without forming z + lambda_c.  ``floor``,
    the points' |zeta| as a flat array, clamps every distance to
    1e-9 (1 + |zeta|), for growth samples that may land on a center.
    """
    fam = config.family
    lr, lc = fam.center_arrays(n) if centers is None else centers
    t = np.asarray(t, dtype=float)
    z = np.asarray(z)
    tv, zv = t.reshape(-1), z.reshape(-1)
    axial = not lc.any()
    out = np.empty(tv.shape)
    chunk = max(256, 2_000_000 // max(lr.size, 1))
    for a in range(0, tv.size, chunk):
        b = min(a + chunk, tv.size)
        # in place: one (chunk, N) temporary keeps peak memory down
        s = tv[a:b, None] + lr[None, :]
        s *= s
        c = np.abs(zv[a:b, None]) if axial else np.abs(zv[a:b, None] + lc[None, :])
        s += c * c
        np.sqrt(s, out=s)
        if floor is not None:
            np.maximum(s, 1e-9 * (1.0 + floor[a:b, None]), out=s)
        np.reciprocal(s, out=s)
        out[a:b] = np.sum(s, axis=1)
    est, err = fam.phi_tail(n, t, z)
    return out.reshape(t.shape) + est, err


def _tail_truncation(config: Configuration, t, z, tol: float, n=None):
    """(N, bound): the first N, doubling from n (default the enumerated
    count), whose quarter-normalized potential tail bound at the
    points (t, z) is at most tol, and that bound."""
    fam = config.family

    def accept(n):
        _, err = fam.phi_tail(n, t, z)
        return (n, err / 4.0) if err / 4.0 <= tol else None
    return _refine(config, accept, n)


def _scalar_phi(config: Configuration, ref_t, ref_z, tol: float):
    """The potential as a function of (t, z) at the truncation whose tail
    bound at the reference points is at most tol (keeps quadrature inner
    loops cheap), and that bound."""
    n, tail_err = _tail_truncation(config, ref_t, ref_z, tol)
    centers = config.family.center_arrays(n)

    def phi_at(t: float, z: complex) -> float:
        return float(_potential_sum(config, n, t, z, centers)[0]) / 4.0
    return phi_at, tail_err


def phi(config: Configuration, zeta, eps: float = 1e-10) -> CertifiedValue:
    """The potential at zeta with certified absolute error <= eps."""
    p = as_point(zeta)
    if eps <= 0:
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


def flow_log_g(config: Configuration, z, from_t: float, to_t: float,
               eps: float = 1e-8) -> CertifiedValue:
    """log|g|^2 between two heights on a fiber line, as the integral of the
    potential along the vertical segment (adaptive quadrature).

    The segment must stay clear of centers.  The truncation part of the
    error bound is certified; the quadrature part is QUADPACK's estimate.
    """
    z = complex(z)
    if from_t == to_t:
        return CertifiedValue(0.0, 0.0)
    lo, hi = min(from_t, to_t), max(from_t, to_t)
    _segment_clear(config, z, lo, hi)
    length = hi - lo
    phi_at, tail_err = _scalar_phi(config, [lo, hi], [z, z], eps / (4.0 * length))
    val, quad_err = quad(lambda t: phi_at(t, z), from_t, to_t,
                         epsabs=eps / 2.0, epsrel=0.0, limit=400)
    bound = abs(quad_err) + length * tail_err + _rounding_slop(abs(val))
    return CertifiedValue(val, bound)


def flow_log_g_sum(config: Configuration, eta_t: float, zeta_t: float, z,
                   eps: float = 1e-9) -> CertifiedValue:
    """The flow integral between heights zeta_t -> eta_t over z, via the
    explicit sum of log ratios split by the sign of zeta_r + lambda_r
    (quarter-normalized to match ``flow_log_g``; the flow multiplier itself
    satisfies log|g|^2 = 4x this value, see the module docstring).

    Independent of ``flow_log_g``; both points must lie in the same gap.
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
        # stable log ratios: (s1 - s0) = (d1-d0)(d1+d0)/(s1+s0)
        ds = (d1 - d0) * (d1 + d0) / (s1 + s0)
        plus = d0 >= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.where(plus, ds + (d1 - d0), ds - (d1 - d0))
            den = np.where(plus, s0 + d0, s0 - d0)
            terms = np.where(plus, np.log1p(num / den), -np.log1p(num / den))
        partial = float(np.sum(terms))
        est, err = fam.flow_tail(n, zeta_t, eta_t, z)
        bound = err / 4.0 + _reachable(
            _rounding_slop(np.abs(terms).sum() + abs(est)) / 4.0, eps)
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

    far_z = complex(R * d[1], R * d[2])
    phi_at, _ = _scalar_phi(config, [R * d[0], 0.5 * R * d[0]], [far_z, 0.5 * far_z],
                            rel_tol / (4.0 * (R + 1.0)))

    def integrand(sigma):
        s = sigma * sigma
        return 2.0 * sigma * math.sqrt(
            max(phi_at(s * d[0], complex(s * d[1], s * d[2])), 0.0))

    val, _ = quad(integrand, 0.0, math.sqrt(R), limit=400,
                  epsabs=0.0, epsrel=rel_tol)
    return val


def _axial_check(config: Configuration):
    _, lc = config.center_arrays()
    if np.any(lc != 0):
        raise ValueError("the growth experiment supports axial configurations only")


def _phi_batch(config: Configuration, t: np.ndarray, c: np.ndarray,
               rel_tol: float = 1e-5) -> np.ndarray:
    """Vectorized potential for axial configurations at the 1-D arrays of
    points (t, c), c = |z| >= 0.  Accuracy: absolute error at most
    rel_tol / (4 (rmax + |lambda_first| + 1)), a relative rel_tol at the
    farthest point of the batch.

    The truncation is chosen per radius octave rmax 2^-(k+1) < r <=
    rmax 2^-k (the last, k = 63, also holds every point below it), at the
    octave's outer radius on the axis, from the nearest octave outward.
    Every N is certified before any term is summed.  When the nearest
    octave's N is also certified at rmax, it serves every octave and one
    kernel call sums the points as given; otherwise each distinct N takes
    one call on prefixes of one center array."""
    r = np.hypot(t, c)
    rmax = float(r.max())
    lr0 = abs(config.center(config.family.n_first)[0])
    scale = 1.0 / (4.0 * (rmax + lr0 + 1.0))   # lower bound for Phi at rmax
    tol = rel_tol * scale
    outer = np.ldexp(rmax, -np.arange(64))
    edges = outer[::-1]
    inner = 63 - int(np.searchsorted(edges, r.min()))
    n_in, _ = _tail_truncation(config, outer[inner], 0.0, tol, config.family.clamp(1))
    n, _ = _tail_truncation(config, rmax, 0.0, tol, n_in)
    if n == n_in:       # the nearest octave's N is certified out to rmax
        total, _ = _potential_sum(config, n, t, c, floor=r)
        return total / 4.0

    octave = 63 - np.searchsorted(edges, r)   # exact: r <= outer[octave]
    filled = np.flatnonzero(np.bincount(octave))
    n_at = np.zeros(inner + 1, dtype=int)
    n = n_in
    for k in filled[::-1]:
        n, _ = _tail_truncation(config, outer[k], 0.0, tol, n)
        n_at[k] = n
    n_pt = n_at[octave]
    lr, lc = config.family.center_arrays(n)
    total = np.empty_like(r)
    for m in np.unique(n_at[filled]).tolist():
        idx = np.flatnonzero(n_pt == m)
        total[idx], _ = _potential_sum(config, m, t[idx], c[idx], (lr[:m], lc[:m]),
                                       floor=r[idx])
    return total / 4.0


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
    integrals computed on a shared sigma grid (s = sigma^2)."""
    rho_max = rho_grid[-1]
    x_grid = np.linspace(-1.0, 1.0, n_psi + 2)[1:-1]   # strictly interior

    # probe the slowest-accumulating rays for an upper radius
    r_up = 4.0 * (1.0 + rho_max)
    for _ in range(64):
        done = True
        for x in (x_grid[-1], 0.0, x_grid[0]):
            sig = np.sqrt(r_up) * np.linspace(0.0, 1.0, 512)
            s = sig * sig
            g = 2.0 * sig * np.sqrt(_phi_batch(config, s * x, s * math.sqrt(1.0 - x * x),
                                               rel_tol=1e-3))
            if np.trapezoid(g, sig) < 1.2 * rho_max:
                done = False
        if done:
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

    tt = np.repeat(x_grid, sig.size) * np.tile(s, x_grid.size)
    cc = np.repeat(np.sqrt(1.0 - x_grid * x_grid), sig.size) * np.tile(s, x_grid.size)
    phi_vals = _phi_batch(config, tt, cc).reshape(x_grid.size, sig.size)
    g = 2.0 * sig[None, :] * np.sqrt(phi_vals)
    cum = np.concatenate([np.zeros((x_grid.size, 1)),
                          np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * np.diff(sig), axis=1)],
                         axis=1)
    if cum[:, -1].min() < rho_max:
        raise TailUnresolved("boundary cumulative fell short; raise n_radial")

    tables = np.empty((len(rho_grid), x_grid.size))
    for i in range(x_grid.size):
        tables[:, i] = np.interp(rho_grid, cum[i], sig) ** 2
    return x_grid, tables


def growth_exponent(config: Configuration, rho_grid, mc_samples: int, seed: int,
                    *, n_psi: int = 320, n_radial: int = 768) -> GrowthFit:
    """Fit the exponent of W(rho) ~ rho^alpha where W integrates the
    potential over the star-shaped region {radial_distance <= rho}.

    ``mc_samples`` is the total budget, split evenly across the rho grid;
    stratum k draws from Philox(seed) jumped k times.
    """
    rho = np.unique(np.asarray([float(r) for r in rho_grid]))
    if rho.size < 2 or rho[0] <= 0:
        raise InsufficientRange("need at least two positive rho values")
    if math.log10(rho[-1] / rho[0]) < 1.0:
        raise InsufficientRange("rho grid must span at least one decade")
    _axial_check(config)

    x_grid, tables = _boundary_tables(config, rho, n_psi, n_radial)
    m = max(16, int(mc_samples) // rho.size)
    base = np.random.Philox(key=int(seed))

    samples = []
    for k, rho_k in enumerate(rho):
        rng = np.random.Generator(base.jumped(k))
        x = rng.uniform(-1.0, 1.0, m)
        u = rng.random(m)
        r_max = np.interp(x, x_grid, tables[k])
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
