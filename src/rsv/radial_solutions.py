"""Radial reference states on the ball B_R in R^n.

Two problem families, both with the Robin condition du/dnu + alpha u = 0:

  torsion      -Lap u = 1,     solved in closed form;
  robin-eigen  -Lap u = lam u, first eigenvalue, normalized int u^2 = 1,

plus the Dirichlet first eigenvalue (u = 0 on the boundary) used by the
boundary-condition comparison routines.  `RadialSolution` alone decides
which (kind, n, R, alpha) is a ball problem.  All Bessel evaluations go
through `special_functions.bessel_j`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .special_functions import bessel_j, bessel_j_zeros
from .sphere_geometry import sphere_measure

TORSION = "torsion"
ROBIN_EIGEN = "robin-eigen"
DIRICHLET_EIGEN = "dirichlet-eigen"


@dataclass(frozen=True)
class RadialSolution:
    """Radial profile u(|x|) of a ball problem with value/derivative evaluators.

    For eigenvalue kinds `lam` is set and `scale` L2-normalizes the profile
    over the ball; for torsion `lam` is None.
    """

    kind: str
    n: int
    R: float
    alpha: float = 0.0
    lam: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.n not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.R <= 0:
            raise ValueError("radius must be positive")
        if self.kind == TORSION and self.alpha == 0.0:
            raise ValueError("torsion problem needs alpha != 0")
        if self.kind == ROBIN_EIGEN and (self.alpha is None or self.alpha <= 0.0):
            raise ValueError("first Robin eigenvalue implemented for alpha > 0")

    # -- profile ------------------------------------------------------------

    def u(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        n, R, alpha = self.n, self.R, self.alpha
        if self.kind == TORSION:
            return R / (alpha * n) + (R * R - r * r) / (2.0 * n)
        k = math.sqrt(self.lam)
        return self.scale * _bessel_profile(self.n, k, r)

    def u_r(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == TORSION:
            return -r / self.n
        k = math.sqrt(self.lam)
        nu = self.n / 2.0 - 1.0
        vec = np.vectorize(lambda x: bessel_j(nu + 1.0, k * x))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -self.scale * k * np.where(r > 0, r, 1.0) ** (-nu) * vec(r)
        return np.where(r > 0, out, 0.0)

    # -- boundary data ------------------------------------------------------

    def boundary_value(self) -> float:
        return float(self.u(self.R))

    def boundary_slope(self) -> float:
        return float(self.u_r(self.R))

    def source_at_boundary(self) -> float:
        """g(u(R)) for the source g of -Lap u = g(u)."""
        if self.kind == TORSION:
            return 1.0
        return self.lam * self.boundary_value()

    def source_primitive_at_boundary(self) -> float:
        """G(u(R)) with G' = g, G(0) = 0."""
        uR = self.boundary_value()
        if self.kind == TORSION:
            return uR
        return 0.5 * self.lam * uR * uR

    def k_g(self) -> float:
        """Normal derivative of (du/dnu + alpha u) on the boundary:
        k_g = g(u(R)) - alpha (n-1) u(R)/R + alpha^2 u(R)."""
        uR = self.boundary_value()
        n, R, alpha = self.n, self.R, self.alpha
        return self.source_at_boundary() - alpha * (n - 1) * uR / R + alpha**2 * uR

    # -- integrals ----------------------------------------------------------

    def volume_integral_u(self) -> float:
        """int_B u dx (torsion); equals minus the torsion energy."""
        if self.kind != TORSION:
            raise ValueError("defined for the torsion profile")
        n, R, alpha = self.n, self.R, self.alpha
        om = sphere_measure(n)
        return om * (R ** (n + 1) / (alpha * n * n) + R ** (n + 2) / (n * n * (n + 2)))

    def energy(self) -> float:
        """Critical value of the problem: the Robin torsion energy
        int |grad u|^2 - 2u dx + alpha int u^2 dS = -int u dx, or lam."""
        if self.kind == TORSION:
            return -self.volume_integral_u()
        return float(self.lam)

    def l2_norm_sq(self) -> float:
        """int_B u^2 dx, in closed form."""
        n, R = self.n, self.R
        om = sphere_measure(n)
        if self.kind == TORSION:
            a = R / (self.alpha * n) + R * R / (2.0 * n)  # u = a - r^2/(2n)
            return om * (
                a * a * R**n / n
                - a * R ** (n + 2) / (n * (n + 2))
                + R ** (n + 4) / (4 * n * n * (n + 4))
            )
        k = math.sqrt(self.lam)
        return om * self.scale**2 * _lommel_integral(n / 2.0 - 1.0, k, R)


def _bessel_profile(n: int, k: float, r: np.ndarray) -> np.ndarray:
    """phi(r) = r^{1-n/2} J_{n/2-1}(k r), continuous at r = 0."""
    nu = n / 2.0 - 1.0
    vec = np.vectorize(lambda x: bessel_j(nu, k * x))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(r > 0, r, 1.0) ** (-nu) * vec(r)
    limit = (k / 2.0) ** nu / math.gamma(n / 2.0)
    return np.where(r > 0, out, limit)


def _lommel_integral(nu: float, k: float, R: float) -> float:
    """int_0^R J_nu(k r)^2 r dr."""
    z = k * R
    j = bessel_j(nu, z)
    jp = (nu / z) * j - bessel_j(nu + 1.0, z)
    return 0.5 * R * R * (jp * jp + (1.0 - nu * nu / (z * z)) * j * j)


def solve_torsion_ball(n: int, R: float, alpha: float) -> RadialSolution:
    """u = R/(alpha n) + (R^2 - r^2)/(2n), the explicit Robin torsion state."""
    return RadialSolution(TORSION, n, R, alpha)


@functools.lru_cache(maxsize=None)
def dirichlet_eigenvalue(n: int, R: float) -> float:
    """First Dirichlet eigenvalue (j_{n/2-1,1} / R)^2."""
    j1 = bessel_j_zeros(n / 2.0 - 1.0, 1)[0]
    return (j1 / R) ** 2


@functools.lru_cache(maxsize=None)
def robin_eigenvalue(n: int, R: float, alpha: float) -> float:
    """First Robin eigenvalue on B_R, alpha > 0: the root of

        sqrt(lam) J_{n/2}(sqrt(lam) R) = alpha J_{n/2-1}(sqrt(lam) R)

    in (0, lam_Dirichlet), found by bisection in k = sqrt(lam).  The
    bisection stops once the midpoint rounds to an end of the bracket: the
    ends are then neighbouring floats and every further step leaves the
    midpoint, and so k, unchanged."""
    nu = n / 2.0 - 1.0
    k_hi = math.sqrt(dirichlet_eigenvalue(n, R))

    def f(k: float) -> float:
        return k * bessel_j(nu + 1.0, k * R) - alpha * bessel_j(nu, k * R)

    lo, hi = 1e-12 * k_hi, k_hi * (1.0 - 1e-14)
    flo = f(lo)
    if flo > 0:
        raise RuntimeError("no sign change bracketing the first eigenvalue")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return k * k


def solve_robin_eigen_ball(n: int, R: float, alpha: float) -> RadialSolution:
    """First Robin eigenstate on B_R, normalized int u^2 = 1.  The problem
    is validated before the cached `robin_eigenvalue` is read, so an
    invalid alpha raises on every call."""
    problem = RadialSolution(ROBIN_EIGEN, n, R, alpha)
    sol = replace(problem, lam=robin_eigenvalue(n, R, alpha))
    return replace(sol, scale=1.0 / math.sqrt(sol.l2_norm_sq()))


def solve_dirichlet_eigen_ball(n: int, R: float) -> RadialSolution:
    """First Dirichlet eigenstate on B_R, normalized int u^2 = 1."""
    sol = RadialSolution(DIRICHLET_EIGEN, n, R, lam=dirichlet_eigenvalue(n, R))
    return replace(sol, scale=1.0 / math.sqrt(sol.l2_norm_sq()))
