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

from .radial_solutions import ROBIN_EIGEN, TORSION, RadialSolution
from .special_functions import bessel_j, multiplicity, synthesize
from .sphere_geometry import BoundaryFunction

RESONANCE_TOL = 1e-9


class SteklovSpectrum:
    """mu_s table and radial mode profiles a_s for a torsion or Robin
    eigenvalue state."""

    def __init__(self, sol: RadialSolution):
        if sol.kind not in (TORSION, ROBIN_EIGEN):
            raise ValueError("spectrum defined for torsion and robin-eigen states")
        self.sol = sol

    def mode_profile(self, s: int, r) -> np.ndarray:
        """a_s(r) normalized to a_s(R) = 1."""
        r = np.asarray(r, dtype=float)
        n, R = self.sol.n, self.sol.R
        if self.sol.kind == TORSION:
            return (r / R) ** s
        k = math.sqrt(self.sol.lam)
        nu = n / 2.0 - 1.0 + s
        jR = bessel_j(nu, k * R)
        if abs(jR) < 1e-300:
            raise ArithmeticError(f"degenerate mode s={s}: a_s(R) = 0")
        vec = np.vectorize(lambda x: bessel_j(nu, k * x))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(r > 0, r, 1.0) ** (1.0 - n / 2.0) * vec(r)
        # r -> 0 limit of r^{1-n/2} J_nu(kr): zero unless s = 0
        limit = (k / 2.0) ** nu / math.gamma(nu + 1.0) if s == 0 else 0.0
        out = np.where(r > 0, out, limit)
        return out * R ** (n / 2.0 - 1.0) / jR

    def log_derivative(self, s: int) -> float:
        """a_s'(R) / a_s(R)."""
        n, R = self.sol.n, self.sol.R
        if self.sol.kind == TORSION:
            return s / R
        k = math.sqrt(self.sol.lam)
        nu = n / 2.0 - 1.0 + s
        jR = bessel_j(nu, k * R)
        if abs(jR) < 1e-300:
            raise ArithmeticError(f"degenerate mode s={s}: a_s(R) = 0")
        return s / R - k * bessel_j(nu + 1.0, k * R) / jR

    def mu(self, s: int) -> float:
        return self.sol.alpha + self.log_derivative(s)

    def table(self, max_degree: int) -> list[tuple[int, float, int]]:
        return [
            (s, self.mu(s), multiplicity(s, self.sol.n))
            for s in range(max_degree + 1)
        ]

    def smallest_positive_mu(self, min_degree: int = 1, search_to: int = 64) -> float:
        """min over s >= min_degree of mu_s restricted to mu_s > 0.

        mu_s is increasing and unbounded in s, so a finite scan suffices.
        """
        best = None
        for s in range(min_degree, search_to + 1):
            m = self.mu(s)
            if m > RESONANCE_TOL and (best is None or m < best):
                best = m
        if best is None:
            raise ArithmeticError("no positive mu_s found in scan range")
        return best


def steklov_spectrum(sol: RadialSolution, max_degree: int) -> list[tuple[int, float, int]]:
    return SteklovSpectrum(sol).table(max_degree)


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

    def boundary_norm_sq_N(self) -> float:
        """int N^2 dS over the boundary sphere."""
        return sum(v * v for v in self.b.values())

    def quadratic_form(self) -> float:
        """Q = int (du'/dnu + alpha u') u' dS = sum c^2 mu_s."""
        return sum(cc * cc * self.mu[s] for (s, _i), cc in self.c.items())

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

    def interior_values(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        xhat = x / np.where(r > 0, r, 1.0)[..., None]
        n, R = self.sol.n, self.sol.R
        scale = R ** (-(n - 1) / 2.0)
        coeffs = {
            (s, i): cc * scale * self.spectrum.mode_profile(s, r)
            for (s, i), cc in self.c.items()
            if cc != 0.0
        }
        return synthesize(n, coeffs, xhat)


def shape_derivative_uprime(
    sol: RadialSolution, N: BoundaryFunction
) -> ShapeDerivative:
    """Solve the linearized boundary problem (du'/dnu + alpha u') = k_g N.

    N is given over unit-sphere-orthonormal harmonics.  For eigenvalue states
    the degree-0 mode is resonant (mu_0 = 0): mean-free N is required there
    and c_0 = 0 is fixed by the normalization int u u' = 0.
    """
    spec = SteklovSpectrum(sol)
    n, R = sol.n, sol.R
    k_g = sol.k_g()
    scale = R ** ((n - 1) / 2.0)
    b = {si: scale * v for si, v in N.items() if v != 0.0}
    data_scale = max((abs(v) for v in b.values()), default=1.0)
    c: dict[tuple[int, int], float] = {}
    mu: dict[int, float] = {}
    for (s, i), bv in b.items():
        if s not in mu:
            mu[s] = spec.mu(s)
        m = mu[s]
        if abs(m) < RESONANCE_TOL * max(1.0, abs(sol.alpha)):
            if s == 0 and sol.kind == ROBIN_EIGEN:
                if abs(bv) > 1e-12 * data_scale:
                    raise ArithmeticError(
                        "resonant degree-0 mode: N must be mean-free for "
                        "eigenvalue states"
                    )
                c[(s, i)] = 0.0
                continue
            raise ArithmeticError(
                f"resonant mode s={s}: mu_s = {m:.3e} with nonzero data; "
                "the linearized problem is singular at this configuration"
            )
        c[(s, i)] = k_g * bv / m
    return ShapeDerivative(spectrum=spec, b=b, c=c, mu=mu)


def quadratic_form_Q(sol: RadialSolution, N: BoundaryFunction) -> float:
    return shape_derivative_uprime(sol, N).quadratic_form()
