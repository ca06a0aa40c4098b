"""One number, three derivations: E''(0) = 13 pi / 12.

Perturb the unit disk by r = 1 + t cos(2 theta) + O(t^2), keeping the
volume fixed to second order, with the torsion energy at alpha = 1.  The
second derivative of the energy in t comes out three independent ways:

  1. the per-degree series over Steklov modes,
  2. the boundary quadratic functional evaluated by quadrature,
  3. plain finite differences of an independent PDE solver on the
     perturbed domains (no shape calculus at all).
"""
import math

from rsv import (
    TORSION,
    PerturbationField,
    curve,
    finite_difference_derivatives,
    second_variation_energy_ball,
    solve_torsion_ball,
    theorem_bounds,
)

WANT = 13.0 * math.pi / 12.0
N = {(2, 0): math.sqrt(math.pi)}  # cos(2 theta) with unit boundary L2 norm

sol = solve_torsion_ball(2, 1.0, 1.0)
report = second_variation_energy_ball(sol, N)

print("route 1, mode series:        ", repr(report.Eddot0))
print("route 2, boundary functional:", repr(report.extras["Eddot0_quadrature"]))

p = PerturbationField(2, 1.0, N, {}).with_volume_correction()
fd = finite_difference_derivatives(curve(p, 1.0, 28, TORSION), h=5e-3, richardson_levels=2)
print("route 3, PDE oracle d2E/dt2: ", repr(fd.d2), f"(error est {fd.d2_error:.1e})")
print("target 13 pi / 12 =          ", repr(WANT))

for value in (report.Eddot0, report.extras["Eddot0_quadrature"], fd.d2):
    assert abs(value - WANT) < 1e-3 * WANT

print()
print("supporting quantities from the same report:")
print(f"  E(B_1)        = {report.E0!r}   (-5 pi/8)")
print(f"  E'(0)         = {report.Edot0!r}   (the ball is critical)")
print(f"  S''(0)        = {report.Sddot0!r}   (3 pi)")
print(f"  F series      = {report.F_series!r}   (pi/3)")
print(f"  classification: {report.classification}")

b1, b2 = theorem_bounds(sol, N)
print()
print("lower bounds (alpha > 0):")
print(f"  uniform bound   {b1!r}  (3 pi/4; replaces each mu_s by the smallest)")
print(f"  refined bound   {b2!r}  (tight here: single-degree data)")
assert b1 <= b2 <= report.Eddot0 + 1e-12
