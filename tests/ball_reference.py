"""Independent routes that only the ball-state and Steklov checks use.

* `radial_quadrature`: Gauss-Legendre nodes and weights on (0, R);
* `u_rr`: the second radial derivative of a `RadialSolution`, from its
  equation, for the radial-equation residual checks;
* `k_g_from_profile`: k_g = -u''(R) + alpha^2 u(R) from the radial profile,
  against `RadialSolution.k_g`;
* `quadratic_form_Q_quadrature`: Q by boundary quadrature of
  (du'/dnu + alpha u') u', against the series Q (the Q column sum of
  `variations._degree_terms`, a second-variation report's `Q`);
* `robin_ball_lam_full_bisection`: the first Robin ball eigenvalue by all
  200 bisection steps, against `solve_robin_eigen_ball`, which stops once
  the bracket ends are neighbouring floats;
* `mode_profile` / `interior_values`: the radial mode profiles a_s and u'
  inside the ball, whose radial equation and harmonicity the Steklov
  checks test against `SteklovSpectrum.log_derivative` and the boundary
  data.
"""

import math

import numpy as np

from rsv.radial_solutions import TORSION, dirichlet_eigenvalue
from rsv.special_functions import SphereQuadrature, bessel_j, synthesize


def radial_quadrature(R: float, order: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, R)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * R * (x + 1.0), 0.5 * R * w


def u_rr(sol, r) -> np.ndarray:
    """Second radial derivative of `sol`, from the equation away from r = 0."""
    r = np.asarray(r, dtype=float)
    if sol.kind == TORSION:
        return np.full_like(r, -1.0 / sol.n)
    return -(sol.n - 1) / r * sol.u_r(r) - sol.lam * sol.u(r)


def k_g_from_profile(sol) -> float:
    """Normal derivative of (du/dnu + alpha u) from -u''(R) + alpha^2 u(R)."""
    return -float(u_rr(sol, sol.R)) + sol.alpha**2 * sol.boundary_value()


def quadratic_form_Q_quadrature(sd, order: int = 64) -> float:
    """Q by boundary quadrature of (du'/dnu + alpha u') u'."""
    sol = sd.sol
    quad = SphereQuadrature(sol.n, order)
    up = sd.boundary_values(quad.directions)
    tr = sd.robin_trace_values(quad.directions)
    return sol.R ** (sol.n - 1) * quad.integrate(up * tr)


def robin_ball_lam_full_bisection(n: int, R: float, alpha: float) -> float:
    """Root of k J_{n/2}(k R) = alpha J_{n/2-1}(k R) in k, squared, by 200
    bisection steps on the bracket `solve_robin_eigen_ball` starts from."""
    nu = n / 2.0 - 1.0
    k_hi = math.sqrt(dirichlet_eigenvalue(n, R))

    def f(k: float) -> float:
        return k * bessel_j(nu + 1.0, k * R) - alpha * bessel_j(nu, k * R)

    lo, hi = 1e-12 * k_hi, k_hi * (1.0 - 1e-14)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return k * k


def mode_profile(spectrum, s: int, r) -> np.ndarray:
    """a_s(r) of a `SteklovSpectrum`, normalized to a_s(R) = 1."""
    r = np.asarray(r, dtype=float)
    n, R = spectrum.sol.n, spectrum.sol.R
    if spectrum.sol.kind == TORSION:
        return (r / R) ** s
    k = math.sqrt(spectrum.sol.lam)
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


def interior_values(sd, points) -> np.ndarray:
    """u' of a `ShapeDerivative` at interior points of the ball."""
    x = np.asarray(points, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    xhat = x / np.where(r > 0, r, 1.0)[..., None]
    n, R = sd.sol.n, sd.sol.R
    scale = R ** (-(n - 1) / 2.0)
    coeffs = {
        (s, i): cc * scale * mode_profile(sd.spectrum, s, r)
        for (s, i), cc in sd.c.items()
        if cc != 0.0
    }
    return synthesize(n, coeffs, xhat)
