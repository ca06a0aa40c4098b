"""Inside the PDE oracle: collocation residuals, difference quotients,
and a family sweep.

The oracle never sees a shape-derivative formula.  It solves the actual
boundary-value problem on each perturbed domain with a particular-solution
basis (harmonic polynomials times a torsion particular term, or Helmholtz
waves for eigenvalues), then differentiates scalar outputs in t by
Richardson-extrapolated central differences.  Trust comes from watching
the residuals, not from agreement with the formulas being tested.
"""
import math

import numpy as np

from rsv import (
    ROBIN_EIGEN,
    TORSION,
    PerturbationField,
    curve,
    finite_difference_derivatives,
    perturbed_domain,
    solve_perturbed_eigen,
    solve_perturbed_family,
    solve_perturbed_torsion,
    sweep_rows,
)

N = {(2, 0): math.sqrt(math.pi)}
p = PerturbationField(2, 1.0, N, {}).with_volume_correction()
d = perturbed_domain(p, 0.05)

print("spectral convergence of the torsion boundary residual (t = 0.05):")
for modes in (8, 16, 24, 32):
    sol = solve_perturbed_torsion(d, 1.0, modes=modes)
    print(
        f"  modes = {modes:>2}: max residual {sol.residual:.3e} on the collocation "
        f"angles, {sol.midway_residual:.3e} midway between them"
    )

print()
print("eigenvalue solve on the same domain:")
esol = solve_perturbed_eigen(d, 1.0, modes=20)
print(f"  lam(0.05)    = {esol.lam!r}")
print(f"  max residual = {esol.residual:.3e} ({esol.midway_residual:.3e} midway)")
print(f"  (located by minimizing the smallest singular value of the")
print(f"   boundary-condition block over lam, then Rayleigh-checked)")

print()
print("difference quotients with error estimates (energy curve):")
# a curve maps the whole stencil of t values to their energies at once,
# solving them as one family
E = curve(p, 1.0, 28, TORSION)

for levels in (0, 1, 2):
    fd = finite_difference_derivatives(E, h=5e-3, richardson_levels=levels)
    err = "n/a" if math.isnan(fd.d2_error) else f"{fd.d2_error:.1e}"
    print(f"  richardson {levels}: d2 = {fd.d2!r}  (err est {err})")
print(f"  target 13 pi/12 = {13 * math.pi / 12!r}")

print()
print("a stencil solved as one family, of either kind: the lam searches of")
print("its five domains share one Bessel table per round, and a torsion member")
print("asks for none; each result is bit for bit its own:")
ts = [0.0, 0.01, -0.01, 0.005, -0.005]
domains = [perturbed_domain(p, t) for t in ts]
family = solve_perturbed_family(domains, 1.0, 20, ROBIN_EIGEN)
torsion = solve_perturbed_family(domains, 1.0, 28, TORSION)
for d, sol, tsol in zip(domains, family, torsion):
    alone = solve_perturbed_eigen(d, 1.0, modes=20)
    assert sol.lam == alone.lam and np.array_equal(sol.coefficients, alone.coefficients)
    assert tsol.energy == solve_perturbed_torsion(d, 1.0, modes=28).energy
    print(
        f"  t = {d.t:>6.3f}: lam = {sol.lam!r}  ({sol.sigma_evals} slope evaluations),"
        f" E = {tsol.energy!r}"
    )

print()
print("sweep of the family (t, E, lam, S, V); volume is pinned to O(t^4):")
rows = sweep_rows(p, 1.0, TORSION, [-0.04, -0.02, 0.0, 0.02, 0.04], modes=24)
print(f"  {'t':>6} {'E':>20} {'S':>18} {'V':>18}")
for t, Ev, _lam, S, V in rows:
    print(f"  {t:>6.2f} {Ev:>20.12f} {S:>18.12f} {V:>18.12f}")
v_dev = max(abs(r[4] - math.pi) for r in rows)
print(f"  max |V - pi| = {v_dev:.2e}  (quartic remainder of the completion)")

print()
print("weak form: every torsion solve checks its assembled energy")
print("  E = int |grad u|^2 - 2 int u + alpha boundary-int u^2 against E = -int u")
print("  (ArithmeticError beyond 1e-9 relative), so a returned energy passed it:")
psol = solve_perturbed_torsion(d, 1.0)
print(f"  E(0.05) = {psol.energy!r}, boundary residual {psol.residual:.1e}")
