"""Mode-wise Steklov-type spectrum attached to a radial state on the ball.

For each spherical-harmonic degree s the separated solution of the linearized
interior equation is a_s(r) Y_{s,i}, and

    mu_s = alpha + a_s'(R) / a_s(R)

is the eigenvalue of the Robin-trace map psi -> (d psi/d nu + alpha psi) on
the boundary mode.  The shape derivative u' of the state under a normal
perturbation N solves that linearized problem with data k_g N, so its
expansion is c_{s,i} = k_g b_{s,i} / mu_s per mode, where b collects the
coefficients of N in the L2(boundary)-orthonormal basis.

Torsion states give a_s = (r/R)^s and mu_s = alpha + s/R; eigenvalue states
give Bessel profiles and a mu_0 = 0 resonance handled by the normalization
int u u' = 0 (c_0 = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .radial_solutions import DIRICHLET_EIGEN, ROBIN_EIGEN, TORSION, RadialSolution
from .special_functions import bessel_j, multiplicity, synthesize
from .sphere_geometry import BoundaryFunction, mean_free, trace_coefficients

RESONANCE_TOL = 1e-9


class SteklovSpectrum:
    """mu_s table of the radial mode profiles a_s of a ball state; for the
    Dirichlet state the ground mode a_0, the eigenfunction, vanishes at R."""

    def __init__(self, sol: RadialSolution):
        self.sol = sol

    def log_derivative(self, s: int) -> float:
        """a_s'(R) / a_s(R); a_s(r) = r^{1-n/2} J_{s+n/2-1}(k r) for eigenstates."""
        n, R = self.sol.n, self.sol.R
        if self.sol.kind == TORSION:
            return s / R
        k = math.sqrt(self.sol.lam)
        nu = n / 2.0 - 1.0 + s
        jR = bessel_j(nu, k * R)
        if abs(jR) < 1e-300 or (s == 0 and self.sol.kind == DIRICHLET_EIGEN):
            raise ArithmeticError(f"degenerate mode s={s}: a_s(R) = 0")
        return s / R - k * bessel_j(nu + 1.0, k * R) / jR

    def mu(self, s: int) -> float:
        return self.sol.alpha + self.log_derivative(s)

    def nonresonant_mu(self, s: int) -> float:
        """mu_s; raises when |mu_s| < RESONANCE_TOL * max(1, |alpha|), where
        the linearized problem of degree s is singular."""
        m = self.mu(s)
        if abs(m) < RESONANCE_TOL * max(1.0, abs(self.sol.alpha)):
            raise ArithmeticError(
                f"resonant mode s={s}: mu_s = {m:.3e} at alpha = {self.sol.alpha!r}; "
                "the linearized problem is singular at this configuration"
            )
        return m

    def table(self, max_degree: int) -> list[tuple[int, float, int]]:
        return [
            (s, self.mu(s), multiplicity(s, self.sol.n))
            for s in range(max_degree + 1)
        ]

    def smallest_positive_mu(self, min_degree: int = 1) -> float:
        """min over s >= min_degree of mu_s restricted to mu_s > 0.

        mu_s is increasing and unbounded in s, so a scan up to degree 64
        suffices.
        """
        best = None
        for s in range(min_degree, 64 + 1):
            m = self.mu(s)
            if m > RESONANCE_TOL and (best is None or m < best):
                best = m
        if best is None:
            raise ArithmeticError("no positive mu_s found in scan range")
        return best


@dataclass(frozen=True)
class ShapeDerivative:
    """Expansion of u' over boundary modes phi_{s,i} = a_s(r) Y_{s,i}(x/|x|)
    / (a_s(R) R^{(n-1)/2}), whose traces are orthonormal in L2(boundary)."""

    spectrum: SteklovSpectrum
    b: dict[tuple[int, int], float]  # data N in the orthonormal trace basis
    c: dict[tuple[int, int], float]  # u' in the same basis
    mu: dict[int, float] = field(default_factory=dict)

    @property
    def sol(self) -> RadialSolution:
        return self.spectrum.sol

    def boundary_values(self, directions) -> np.ndarray:
        n, R = self.sol.n, self.sol.R
        scale = R ** (-(n - 1) / 2.0)
        return synthesize(n, {si: cc * scale for si, cc in self.c.items()}, directions)

    def robin_trace_values(self, directions) -> np.ndarray:
        """(du'/dnu + alpha u') on the boundary; equals k_g N for exact data."""
        n, R = self.sol.n, self.sol.R
        scale = R ** (-(n - 1) / 2.0)
        coeffs = {(s, i): cc * self.mu[s] * scale for (s, i), cc in self.c.items()}
        return synthesize(n, coeffs, directions)


def shape_derivative_uprime(
    sol: RadialSolution, N: BoundaryFunction
) -> ShapeDerivative:
    """Solve the linearized boundary problem (du'/dnu + alpha u') = k_g N.

    N is given over unit-sphere-orthonormal harmonics.  For eigenvalue states
    the degree-0 mode is resonant (mu_0 = 0): mean-free N is required there,
    and u' has no degree-0 part (the normalization int u u' = 0).
    """
    if sol.kind == DIRICHLET_EIGEN:
        raise ValueError("u' needs a Robin trace: a torsion or robin-eigen state")
    if sol.kind == ROBIN_EIGEN and not mean_free(N):
        raise ArithmeticError(
            "resonant degree-0 mode: N must be mean-free for eigenvalue states"
        )
    spec = SteklovSpectrum(sol)
    k_g = sol.k_g()
    b = trace_coefficients(N, sol.n, sol.R)
    mu = {s: spec.nonresonant_mu(s) for s in dict.fromkeys(s for s, _i in b)}
    c = {(s, i): k_g * bv / mu[s] for (s, i), bv in b.items()}
    return ShapeDerivative(spectrum=spec, b=b, c=c, mu=mu)
