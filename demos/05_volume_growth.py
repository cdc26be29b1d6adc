"""The volume-growth experiment at demo scale.

W(rho) integrates the potential over the region of base points whose
ray distance proxy (integral of sqrt(potential)) stays below rho.  For
the power-law family the growth exponent is 4 - 2/(beta+1); a single
center gives flat four-space and exponent 4.  Demo sample counts are small
so this finishes in a few seconds; the acceptance suite runs the
contractual 10^6 samples.
"""
import numpy as np

from ainfty import finite_list, growth_exponent, power_law, radial_distance

single = finite_list([(0.0, 0j)])
print("single center: distance proxy along a ray is sqrt(R):")
for R in (4.0, 100.0):
    print(f"  R={R}: {radial_distance(single, (0.2, 0.9, 0.1), R):.6f}")

rho = list(np.geomspace(1e2, 1e4, 7))
for name, cfg, target in [
    ("single center", single, 4.0),
    ("beta=2", power_law(2.0), 4 - 2 / 3),
    ("beta=3", power_law(3.0), 3.5),
]:
    fit = growth_exponent(cfg, rho, mc_samples=60_000, seed=11)
    print(f"\n{name}: fitted slope {fit.slope:.3f} "
          f"(stderr {fit.slope_stderr:.3f}, expected {target:.3f})")
    for lr, lw in fit.samples[:3]:
        print(f"  log10 rho={lr:.2f}  log10 W={lw:.3f}")
    print("  ...")
