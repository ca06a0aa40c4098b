"""The Dirichlet limit: convexity of lam_D and a vanishing bound coefficient.

Two classical facts appear as computations here.  First, the second
variation of the first Dirichlet eigenvalue on the ball is a positive
series over mode degrees (the ball is a local minimum under volume
constraint).  Second, the natural lower-bound coefficient

    n/R - sqrt(lam_D) J_{n/2+1}(sqrt(lam_D) R) / J_{n/2}(sqrt(lam_D) R)

vanishes identically, which is exactly why degree-1 (translation) data
contributes zero.
"""
import math

from rsv import dirichlet_variations

for n in (2, 3):
    for R in (1.0, 2.0):
        rep = dirichlet_variations(n, R, {(2, 0) if n == 2 else (2, 2): 1.0})
        print(f"== n = {n}, R = {R} ==")
        print(f"  lam_D                 = {rep.extras['lambda_D']!r}")
        print(f"  bound coefficient     = {rep.extras['gs_coefficient']: .3e}")
        print(f"  lam_D''(0), degree 2  = {rep.Eddot0!r}  ({rep.classification})")
        assert abs(rep.extras["gs_coefficient"]) < 1e-10
        assert rep.Eddot0 > 0.0
        print()

print("mixed data stays positive, degree by degree (n = 2, R = 1):")
rep = dirichlet_variations(2, 1.0, {(2, 0): 0.7, (3, 1): 0.4, (5, 0): 0.2})
for s, value in rep.modes:
    print(f"  degree {s}: {value!r}")
assert all(v > 0 for _s, v in rep.modes)

print()
print("the Dirichlet torsion energy rides along in the same report:")
print(f"  E''(0) for cos 2 theta data = {dirichlet_variations(2, 1.0, {(2, 0): math.sqrt(math.pi)}).extras['torsion_energy_Eddot0']!r}")
print(f"  (pi / 2 = {math.pi / 2!r}: 2 c^2 (s - 1)/R with c = (R/n) b)")
