"""Coverage for the non-JSON families and certification edges."""

import numpy as np
import pytest

from ainfty.config import (Finite, OMEGA_DOWN, axial_monotone, fiber,
                           general_axial, power_law, validate)
from ainfty.errors import TailUnresolved
from ainfty.geometry import ImHPoint
from ainfty.potential import GrowthFit, growth_exponent, phi
from ainfty.quotient import class_of, is_continuous, base_section


def test_axial_monotone_with_minorant():
    cfg = axial_monotone(lambda n: n * n + 0.5 * n, growth=(1.0, 2.0, 1))
    rep = validate(cfg)
    assert rep.generic and rep.summable and rep.chart_admissible
    f = fiber(cfg, 0j, window=(-40.0, 0.0))
    assert f.order_type == OMEGA_DOWN
    assert f.heights[-1] == -1.5
    cls = class_of(cfg, ImHPoint(-2.0, 0j))
    assert (cls.lower, cls.upper) == (2, 1)
    v = phi(cfg, ImHPoint(0.0, 0j), 1e-4)       # coarse tails still certify
    assert v.error_bound <= 1e-4
    direct = sum(1 / (n * n + 0.5 * n) for n in range(1, 200000)) / 4
    assert abs(v.value - direct) <= 2e-4


def test_axial_monotone_without_minorant_unresolved():
    cfg = axial_monotone(lambda n: float(n ** 2), truncation=64, max_truncation=256)
    assert not validate(cfg).summable        # bound cannot be certified
    with pytest.raises(TailUnresolved):
        phi(cfg, ImHPoint(0.0, 0j), 1e-6)
    with pytest.raises(TailUnresolved):
        growth_exponent(cfg, np.geomspace(10, 1000, 4), 4000, seed=1,
                        n_psi=16, n_radial=64)


def test_is_continuous_general_config():
    cfg = general_axial(
        centers=[(1.0, 0j), (-2.0, 0j), (3.0, 1 + 0j)],
        base_radius=4.0,
        order_types={0j: Finite(2), complex(-1): Finite(1)},
        fiber_window=10.0,
    )
    base = base_section(cfg)
    gap = class_of(cfg, ImHPoint(0.5, 0j))
    assert is_continuous(cfg, base, {0j: gap})
    with pytest.raises(ValueError):
        bad = type(gap)(z=0j, lower=1, upper=0)   # not adjacent: -1 < 2 swapped
        is_continuous(cfg, base, {0j: bad})


def test_growth_fit_requires_increasing_samples():
    with pytest.raises(ValueError):
        GrowthFit(samples=((1.0, 2.0), (1.0, 3.0)), slope=1.0, slope_stderr=0.0)


def test_power_law_fiber_window_beyond_truncation():
    cfg = power_law(2.0, truncation=16, max_truncation=64)
    with pytest.raises(TailUnresolved):
        fiber(cfg, 0j, window=(-1e12, -1e10))
