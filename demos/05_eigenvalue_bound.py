"""The first Robin eigenvalue is convex along volume-preserving families,
with an explicit floor.

For alpha > 0 and mean-free boundary data N,

    lam''(0) >= alpha u(R)^2 S''(0),

where u is the normalized first eigenfunction and S''(0) the area second
variation.  The floor is reached exactly on degree-1 (translation) data,
where both sides vanish; everywhere else the Steklov series adds a
strictly positive amount.
"""
import math

from rsv import (
    ROBIN_EIGEN,
    PerturbationField,
    curve,
    finite_difference_derivatives,
    second_variation_eigenvalue_ball,
    solve_robin_eigen_ball,
)

header = "lam''(0)"
print(f"  {'n':>2} {'R':>4} {'alpha':>6}   {header:>12} {'floor':>12} {'slack':>10}")
N2 = {(2, 0): 0.8, (3, 1): 0.5, (4, 0): 0.3}
N3 = {(2, 2): 0.8, (3, 3): 0.4, (4, 4): 0.2}
for n in (2, 3):
    N = N2 if n == 2 else N3
    for R in (1.0, 2.0):
        for alpha in (0.5, 1.0, 2.0):
            sol = solve_robin_eigen_ball(n, R, alpha)
            rep = second_variation_eigenvalue_ball(sol, N)
            floor = rep.extras["lower_bound_surface_term"]
            print(
                f"  {n:>2} {R:>4.1f} {alpha:>6.2f}   {rep.Eddot0:>12.6f}"
                f" {floor:>12.6f} {rep.Eddot0 - floor:>10.6f}"
            )
            assert rep.Eddot0 >= floor - 1e-12

print()
print("degree-1 data sits exactly on the floor (translations):")
sol = solve_robin_eigen_ball(2, 1.0, 1.0)
rep1 = second_variation_eigenvalue_ball(sol, {(1, 0): 1.0})
print(f"  lam''(0) = {rep1.Eddot0:.3e}, floor = {rep1.extras['lower_bound_surface_term']:.3e}")

print()
print("oracle cross-check for N = cos 2 theta (reference configuration):")
N = {(2, 0): math.sqrt(math.pi)}
p = PerturbationField(2, 1.0, N, {}).with_volume_correction()
# the curve is asked for its five t values at once and solves them as one family
fd = finite_difference_derivatives(curve(p, 1.0, 20, ROBIN_EIGEN), h=5e-3, richardson_levels=1)
closed = second_variation_eigenvalue_ball(sol, N).Eddot0
print(f"  closed form {closed!r}")
print(f"  oracle      {fd.d2!r}")
assert abs(fd.d2 - closed) < 1e-3 * closed
