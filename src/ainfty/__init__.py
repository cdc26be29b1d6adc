"""Computations on multi-center Gibbons-Hawking geometries presented by
center configurations: certified potentials, flow integrals, quotient
combinatorics, holomorphic section charts, equivariant isomorphisms, and
the volume-growth experiment."""

from .config import (
    Configuration, Fiber, Finite, OMEGA_BOTH, OMEGA_DOWN, OMEGA_UP, OrderType,
    ValidityReport, axial_monotone, config_digest, config_from_dict,
    config_to_dict, delta_set, fiber, finite_list, general_axial, power_law,
    validate,
)
from .charts import (
    ManifoldPoint, Multiplier, act, base_coordinate, canonical_multiplier,
    chart_forward, chart_inverse, gauge_point, section_base_divisor,
    section_coordinate, transition,
)
from .geometry import ImHPoint, as_point
from .isomorphism import (
    IsomCertificate, IsomorphismData, OrderIso, apply_isomorphism,
    build_connecting_multiplier, build_isomorphism, build_order_isomorphism,
    isomorphism_exists,
)
from .potential import (
    CertifiedValue, GrowthFit, flow_log_g, flow_log_g_sum, growth_exponent,
    phi, radial_distance,
)
from .quotient import (
    CombinatorialSection, IntegerDivisor, Ordering, QuotientClass,
    base_gap, base_section, class_of, compare_classes, count_between,
    is_continuous, same_class, section_divisor,
)
from . import errors

__version__ = "0.1.0"
