"""Sign of the torsion second variation as alpha crosses its resonances.

Per unit of boundary data concentrated at degree s, the second variation
contributes

    e_s = (s - 1)/n^2 * [ (s + n - 1)/alpha + 2 R (1 + alpha R)/(s + alpha R) ]

(n = 2, R = 1 below).  Three regimes on the unit disk:

    alpha > 0:            every degree positive  -> local minimum
    -2 < alpha R < 0:     every degree negative  (alpha R != -1)
    alpha R < -2:         both signs occur       -> saddle

The independent PDE oracle confirms the per-degree values by second
differences of the actual energy on perturbed domains.
"""
import math

from rsv import (
    TORSION,
    PerturbationField,
    classify_torsion_sign,
    curve,
    finite_difference_derivatives,
    second_variation_energy_ball,
    solve_torsion_ball,
)

print(f"  {'alpha':>7}   {'e_2':>9} {'e_3':>9} {'e_4':>9}   classification")
for alpha in (4.0, 1.0, 0.25, -0.5, -0.9, -1.5, -2.5, -3.5):
    values = {}
    for s in (2, 3, 4):
        rep = second_variation_energy_ball(
            solve_torsion_ball(2, 1.0, alpha), {(s, 0): 1.0}
        )
        values[s] = rep.Eddot0
    cls = classify_torsion_sign(2, 1.0, alpha)
    print(
        f"  {alpha:>7.2f}   {values[2]:>9.4f} {values[3]:>9.4f} {values[4]:>9.4f}"
        f"   {cls.classification}"
    )

print()
print("oracle confirmation (d2E/dt2 for N = cos 2 theta, unit L2 norm):")
N = {(2, 0): math.sqrt(math.pi)}
p = PerturbationField(2, 1.0, N, {}).with_volume_correction()
for alpha, label in ((-1.5, "-pi expected"), (-2.5, "+1.2 pi expected")):
    fd = finite_difference_derivatives(
        curve(p, alpha, 28, TORSION), h=5e-3, richardson_levels=1
    )
    closed = second_variation_energy_ball(solve_torsion_ball(2, 1.0, alpha), N).Eddot0
    print(f"  alpha = {alpha}: series {closed!r}, oracle {fd.d2!r}  ({label})")
    assert abs(fd.d2 - closed) < 1e-6 * max(1.0, abs(closed))
print()
print("note the boundary of the mixed-sign region: it is alpha R = -2,")
print("where 1 + alpha R has long been negative; between -2 and -1 every")
print("degree still contributes with the same (negative) sign.")
