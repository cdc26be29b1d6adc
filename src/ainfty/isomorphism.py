"""Deciding and constructing equivariant isomorphisms between two center
configurations.

Two configurations admit an equivariant biholomorphism preserving the
log-symplectic chart form precisely when their fiber-base sets agree (up to
a uniform complex translation) and corresponding fibers are isomorphic as
ordered sets.  The classifier certifies this inside a working disk; the
constructive side picks the canonical order matching per fiber, the
connecting multiplier for the pair of base sections, and evaluates the map
chart-by-chart: push a point through its section chart on the source,
pull back through the matched section chart on the target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .charts import (Multiplier, canonical_multiplier, chart_forward,
                     chart_inverse, ManifoldPoint, section_base_divisor)
from .config import Configuration, OrderType, delta_set
from .errors import FixedPointInput, NotIsomorphic, TailUnresolved
from .geometry import as_point
from .quotient import (CombinatorialSection, QuotientClass, base_gap,
                       base_section, class_of, count_between)

_BASE_TOL = 8.0 * math.ulp(1.0)   # relative to |z| + |c| when matching bases


@dataclass(frozen=True)
class FiberCertificate:
    """One matched fiber: base z of a, its base z_b in b, their order types."""

    z: complex
    z_b: complex
    order_type_a: OrderType
    order_type_b: OrderType

    @property
    def ok(self) -> bool:
        return self.order_type_a == self.order_type_b


@dataclass(frozen=True)
class IsomCertificate:
    isomorphic: bool
    shift: complex
    fibers: tuple
    obstruction: Optional[str] = None


def _match_delta(da, db):
    """(c, {z: z_b}) pairing every base z of da with the base z_b of db
    within a few ulps of z + c, preferring c = 0; None when no uniform
    translation c pairs the two sets."""
    if da == db:
        return 0j, {z: z for z in da}
    if len(da) != len(db) or not da:
        return None
    # |a0| <= |z| keeps the rounding of c within the tolerance at every z
    a0 = min(da, key=lambda z: (abs(z), z.real, z.imag))
    for b0 in db:
        c = b0 - a0
        pairs = {}
        for z in da:
            tol = _BASE_TOL * (abs(z) + abs(c))
            zb = next((w for w in db if abs(z + c - w) <= tol), None)
            if zb is None or zb in pairs.values():
                break
            pairs[z] = zb
        else:
            return c, pairs
    return None


def isomorphism_exists(config_a: Configuration, config_b: Configuration,
                       disk_radius: float, allow_shift: bool = True) -> IsomCertificate:
    """Certify, inside the disk, that fiber-base sets match (up to a uniform
    shift when ``allow_shift``) and that matched fibers share their order
    type (including cardinality when finite)."""
    da = delta_set(config_a, disk_radius)
    db = delta_set(config_b, disk_radius)
    match = _match_delta(da, db) if allow_shift else (
        (0j, {z: z for z in da}) if da == db else None)
    if match is None:
        return IsomCertificate(False, 0j, (), obstruction="fiber base sets do not match")
    shift, pairs = match
    fibers = [FiberCertificate(z, pairs[z], config_a.family.fiber_order_type(z),
                               config_b.family.fiber_order_type(pairs[z]))
              for z in sorted(da, key=lambda z: (z.real, z.imag))]
    bad = [f for f in fibers if not f.ok]
    return IsomCertificate(
        isomorphic=not bad,
        shift=shift,
        fibers=tuple(fibers),
        obstruction=None if not bad else
        f"fiber over {bad[0].z}: {bad[0].order_type_a} vs {bad[0].order_type_b}",
    )


# ---------------------------------------------------------------------------
# The canonical order isomorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderIso:
    """Per-fiber increasing matching between two configurations' fiber
    points over the certificate's base map (a-base z <-> its matched b-base,
    any other base point z <-> z + shift).  Matchings are canonical: count
    from the bounded end (top for omega_down, bottom for omega_up, the least
    nonnegative point for omega_both)."""

    config_a: Configuration
    config_b: Configuration
    shift: complex = 0j
    bases: tuple = ()      # (a-base, b-base) pairs of the certified disk

    def base(self, z: complex) -> complex:
        """The b-side base point matched with the a-side base point z."""
        z = complex(z)
        zb = dict(self.bases).get(z)
        # + 0j clears signed zeros, as z + shift does for shift 0
        return z + self.shift if zb is None else zb + 0j

    def match_index(self, z: complex, n_a: int) -> int:
        """The b-center index matched with a-center n_a on the fiber over z."""
        fam_a, fam_b = self.config_a.family, self.config_b.family
        z = complex(z)
        zb = self.base(z)
        ot = fam_a.fiber_order_type(z)
        na_max = self.config_a.max_truncation
        nb_max = self.config_b.max_truncation
        if ot.kind == "finite":
            pts = fam_a.fiber_points_all(z, na_max)
            pos = [i for i, _ in pts].index(n_a)
            return fam_b.fiber_from_bottom(zb, pos + 1, nb_max)[-1][0]
        if ot.kind in ("omega_up", "omega_down"):
            enum_a = fam_a.fiber_from_bottom if ot.kind == "omega_up" else fam_a.fiber_from_top
            enum_b = fam_b.fiber_from_bottom if ot.kind == "omega_up" else fam_b.fiber_from_top
            k = 1
            while True:
                pts = enum_a(z, k, na_max)
                ids = [i for i, _ in pts]
                if n_a in ids:
                    return enum_b(zb, ids.index(n_a) + 1, nb_max)[-1][0]
                k *= 2
        # omega_both: anchor at the least nonnegative point of each side
        wa = getattr(fam_a, "fiber_window", math.inf)
        wb = getattr(fam_b, "fiber_window", math.inf)
        if not (math.isfinite(wa) and math.isfinite(wb)):
            raise TailUnresolved("two-sided fibers need a certified window")
        pts_a = fam_a.fiber_points_window(z, -wa, wa, na_max)
        pts_b = fam_b.fiber_points_window(zb, -wb, wb, nb_max)
        ids_a = [i for i, _ in pts_a]
        try:
            anchor_a = next(j for j, (_, t) in enumerate(pts_a) if t >= 0)
            anchor_b = next(j for j, (_, t) in enumerate(pts_b) if t >= 0)
            offset = ids_a.index(n_a) - anchor_a
            if anchor_b + offset < 0:
                raise TailUnresolved("matched point below the enumerated window")
            return pts_b[anchor_b + offset][0]
        except (StopIteration, IndexError):
            raise TailUnresolved("anchored matching exceeds the enumerated window")

    def map_gap(self, gap: QuotientClass) -> QuotientClass:
        z = gap.z
        return QuotientClass(
            z=self.base(z),
            lower=None if gap.lower is None else self.match_index(z, gap.lower),
            upper=None if gap.upper is None else self.match_index(z, gap.upper),
        )

    def map_section(self, section: CombinatorialSection) -> CombinatorialSection:
        out = base_section(self.config_b)
        for z, gap in section.deviations:
            out = out.deviate(self.base(z), self.map_gap(gap))
        return out


def build_order_isomorphism(config_a: Configuration, config_b: Configuration,
                            disk_radius: float, allow_shift: bool = True) -> OrderIso:
    cert = isomorphism_exists(config_a, config_b, disk_radius, allow_shift)
    if not cert.isomorphic:
        raise NotIsomorphic(cert.obstruction or "no order isomorphism")
    return OrderIso(config_a, config_b, cert.shift,
                    tuple((f.z, f.z_b) for f in cert.fibers))


def build_connecting_multiplier(config_a: Configuration, config_b: Configuration,
                                h: OrderIso, disk_radius: float) -> Multiplier:
    """The canonical multiplier for the divisor between the target base
    section and the image of the source base section, inside the disk."""
    out = {}
    for z in delta_set(config_a, disk_radius):
        gap_a = base_section(config_a).gap_at(z)
        image = h.map_gap(gap_a)
        k = count_between(config_b, image.z, base_gap(config_b, image.z), image)
        if k:
            out[image.z] = k
    return Multiplier.from_divisor(out)


@dataclass(frozen=True)
class IsomorphismData:
    """An order isomorphism plus a connecting multiplier on a working disk."""

    h: OrderIso
    phi0: Multiplier
    disk_radius: float


def build_isomorphism(config_a: Configuration, config_b: Configuration,
                      disk_radius: float, allow_shift: bool = True) -> IsomorphismData:
    h = build_order_isomorphism(config_a, config_b, disk_radius, allow_shift)
    phi0 = build_connecting_multiplier(config_a, config_b, h, disk_radius)
    return IsomorphismData(h=h, phi0=phi0, disk_radius=disk_radius)


# ---------------------------------------------------------------------------
# Applying the map
# ---------------------------------------------------------------------------

def _covering_section(config: Configuration, cls: QuotientClass) -> CombinatorialSection:
    """The point's class extended by the base gap on all other fibers."""
    s = base_section(config)
    if cls == base_gap(config, cls.z):
        return s
    return s.deviate(cls.z, cls)


def apply_isomorphism(data: IsomorphismData, point: ManifoldPoint,
                      eps: float = 1e-10,
                      via_section: Optional[CombinatorialSection] = None) -> ManifoldPoint:
    """Map a point of the source through matched section charts: the image
    has the same chart coordinates under the target chart with the
    connecting multiplier folded in.  The complex moment value moves by
    the certificate's base map."""
    ca, cb = data.h.config_a, data.h.config_b
    p = as_point(point.zeta)
    if abs(p.z) > data.disk_radius:
        raise TailUnresolved(
            f"point base {p.z} outside the certified disk {data.disk_radius}")
    cls = class_of(ca, p)
    if cls.is_fixed:
        raise FixedPointInput(
            "the map extends across fixed points by continuity but is only "
            "evaluated away from them")
    section = via_section if via_section is not None else _covering_section(ca, cls)
    if section.gap_at(p.z) != cls:
        raise ValueError("via_section does not contain the point's class")
    mult = canonical_multiplier(ca, section)
    pq = chart_forward(ca, section, mult, point, eps)
    target_section = data.h.map_section(section)
    target_mult_divisor = section_base_divisor(cb, target_section)
    combo = Multiplier.from_divisor(
        {data.h.base(z): k for z, k in mult.divisor.entries}).product(data.phi0)
    if combo.divisor != target_mult_divisor:
        raise NotIsomorphic(
            "section divisor mismatch between source image and target; "
            "certificate disk too small")
    return chart_inverse(cb, target_section, combo,
                         (pq[0], data.h.base(pq[1])), eps)
