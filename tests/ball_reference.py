"""Independent routes that only the ball-state and Steklov checks use.

* `radial_quadrature`: Gauss-Legendre nodes and weights on (0, R);
* `k_g_from_profile`: k_g = -u''(R) + alpha^2 u(R) from the radial profile,
  against `RadialSolution.k_g`;
* `quadratic_form_Q_quadrature`: Q by boundary quadrature of
  (du'/dnu + alpha u') u', against `ShapeDerivative.quadratic_form`.
"""

import numpy as np

from rsv.special_functions import SphereQuadrature


def radial_quadrature(R: float, order: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, R)."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * R * (x + 1.0), 0.5 * R * w


def k_g_from_profile(sol) -> float:
    """Normal derivative of (du/dnu + alpha u) from -u''(R) + alpha^2 u(R)."""
    return -float(sol.u_rr(sol.R)) + sol.alpha**2 * sol.boundary_value()


def quadratic_form_Q_quadrature(sd, order: int = 64) -> float:
    """Q by boundary quadrature of (du'/dnu + alpha u') u'."""
    sol = sd.sol
    quad = SphereQuadrature(sol.n, order)
    up = sd.boundary_values(quad.directions)
    tr = sd.robin_trace_values(quad.directions)
    return sol.R ** (sol.n - 1) * quad.integrate(up * tr)
