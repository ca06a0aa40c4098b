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
    PerturbationField,
    finite_difference_derivatives,
    perturbed_domain,
    solve_perturbed_eigen,
    solve_perturbed_eigens,
    solve_perturbed_torsion,
    sweep_rows,
)
from rsv.radial_solutions import TORSION

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
cache = {}


def E(ts):
    # a curve maps the whole stencil of t values to their values at once;
    # the levels below share their t values, so each is solved once
    for t in ts:
        if t not in cache:
            cache[t] = solve_perturbed_torsion(perturbed_domain(p, t), 1.0, modes=28).energy
    return [cache[t] for t in ts]


for levels in (0, 1, 2):
    fd = finite_difference_derivatives(E, h=5e-3, richardson_levels=levels)
    err = "n/a" if math.isnan(fd.d2_error) else f"{fd.d2_error:.1e}"
    print(f"  richardson {levels}: d2 = {fd.d2!r}  (err est {err})")
print(f"  target 13 pi/12 = {13 * math.pi / 12!r}")

print()
print("an eigen stencil solved as one family: the lam searches of its five")
print("domains share one Bessel table per round, each result bit for bit its own:")
ts = [0.0, 0.01, -0.01, 0.005, -0.005]
family = solve_perturbed_eigens([perturbed_domain(p, t) for t in ts], 1.0, modes=20)
for t, sol in zip(ts, family):
    alone = solve_perturbed_eigen(perturbed_domain(p, t), 1.0, modes=20)
    assert sol.lam == alone.lam and np.array_equal(sol.coefficients, alone.coefficients)
    print(f"  t = {t:>6.3f}: lam = {sol.lam!r}  ({sol.sigma_evals} slope evaluations)")

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
