"""Certified potential values and the two flow routes.

A configuration is a list of centers in Im H ~ R x C.  The power-law
family puts center n at height n^beta on the axis fiber; the potential
Phi(zeta) = (1/4) sum 1/|zeta + lambda_n| converges because the heights
grow fast enough, and every evaluation carries a certified error bound.
"""
import math

from ainfty import (finite_list, flow_log_g, flow_log_g_sum, phi, power_law,
                    validate)

cfg = power_law(2.0)
report = validate(cfg)
print("power-law beta=2 configuration")
print(f"  generic={report.generic}  chart_admissible={report.chart_admissible}")
print(f"  certified summability bound: {report.summability_bound:.9f}")
print(f"  (true value (pi*coth(pi)-1)/2 = {(math.pi / math.tanh(math.pi) - 1) / 2:.9f})")

v = phi(cfg, (0.0, 0j), 1e-10)
print(f"\npotential at the origin: {v.value!r} +/- {v.error_bound:.1e}")
print(f"  closed form pi^2/24   = {math.pi ** 2 / 24!r}")

v = phi(cfg, (250.0, 40 + 9j), 1e-9)
print(f"potential far out at (250, 40+9i): {v.value!r} +/- {v.error_bound:.1e}")

# The flow integral between two heights on a fiber line, computed two
# independent ways: Gauss-Legendre panels on the potential, and the explicit
# sum of log ratios.  Both require the segment to stay clear of centers.
a, b, z = -2.5, -3.5, 0j
quadrature = flow_log_g(cfg, z, a, b, eps=1e-10)
series = flow_log_g_sum(cfg, b, a, z, eps=1e-11)
print(f"\nflow integral {a} -> {b} on the axis fiber:")
print(f"  quadrature route: {quadrature.value!r} +/- {quadrature.error_bound:.1e}")
print(f"  series route:     {series.value!r} +/- {series.error_bound:.1e}")
print(f"  difference:       {abs(quadrature.value - series.value):.2e}")

# Single center at the origin: the integral has the closed form asinh(1)/4.
single = finite_list([(0.0, 0j)])
v = flow_log_g(single, 1 + 0j, 0.0, 1.0, eps=1e-11)
print(f"\nsingle-center closed form check: {v.value!r} vs {math.asinh(1.0) / 4!r}")
