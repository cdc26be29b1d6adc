"""Points of Im H identified with R x C.

A point zeta splits as (t, z) with t real and z complex; the Euclidean norm
on Im H = R^3 is sqrt(t^2 + |z|^2).  Centers lambda_n use the same splitting
(lambda_real, lambda_complex).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ImHPoint:
    """A point of Im H ~ R x C; both components must be finite."""

    t: float
    z: complex

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
            raise ValueError(f"ImHPoint components must be finite, got ({self.t}, {self.z})")

    def norm(self) -> float:
        return math.hypot(self.t, abs(self.z))


def as_point(p) -> ImHPoint:
    """Coerce an ImHPoint, (t, z) pair, or (t, re, im) triple."""
    if isinstance(p, ImHPoint):
        return p
    if len(p) == 2:
        return ImHPoint(float(p[0]), complex(p[1]))
    if len(p) == 3:
        return ImHPoint(float(p[0]), complex(float(p[1]), float(p[2])))
    raise ValueError(f"cannot interpret {p!r} as a point of Im H")
