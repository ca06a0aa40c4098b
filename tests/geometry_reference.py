"""Independent routes that only the geometry checks use.

* `jacobian_fd_error`: central-difference check of an AmbientField's
  Jacobian;
* `metric_expansions`: pointwise Taylor data of the deformation map at t=0;
* `surface_element_m2_from_map`: second t-derivative of the surface element
  from the Taylor coefficients of det(M) |M^{-T} nu|, against
  `sphere_geometry.surface_element_m2`;
* `project_zero_mean`: N without its constant mode;
* `radial_harmonic_jacobian`: the Jacobian of `radial_harmonic_field` as a
  per-mode loop over the public per-harmonic functions, which the library's
  one-angle-pass evaluation must reproduce bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from rsv.special_functions import spherical_harmonic, tangential_gradient


def jacobian_fd_error(field, points, h: float = 1e-6) -> float:
    """Max relative deviation of the field's Jacobian from central FD."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    for x in pts:
        jac = field.jacobian(x)
        scale = max(1.0, float(np.max(np.abs(jac))))
        for j in range(field.n):
            e = np.zeros(field.n)
            e[j] = h
            fd = (field(x + e) - field(x - e)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(jac[:, j] - fd))) / scale)
    return worst


def project_zero_mean(N):
    """Remove the constant mode so that the sphere integral of N vanishes."""
    return {si: c for si, c in N.items() if si[0] != 0}


@dataclass(frozen=True)
class MetricExpansion:
    """Taylor data at t=0 of J(t) = det(I + tD_v + (t^2/2)D_w), the surface
    element m(t), and the pulled-back coefficient matrices A(t)."""

    J0: float
    J1: float
    J2: float
    m0: float
    m1: float
    m2: float
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    sigma_A: float
    sigma_B: float
    sigma_A2: float


def metric_expansions(v, w, x) -> MetricExpansion:
    """Pointwise expansion data; the m-fields use nu = x/|x| (boundary points)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("metric_expansions is pointwise; pass a single point")
    n = x.shape[0]
    Dv = v.jacobian(x)
    Dw = w.jacobian(x)
    div_v = float(np.trace(Dv))
    div_w = float(np.trace(Dw))
    dv_dv = float(np.sum(Dv * Dv.T))  # D_v : D_v = sum_ij dv_i/dx_j dv_j/dx_i

    J1 = div_v
    J2 = div_v**2 - dv_dv + div_w

    eye = np.eye(n)
    A1 = div_v * eye - Dv - Dv.T
    Dv2 = Dv @ Dv
    A2 = (
        (div_v**2 - dv_dv) * eye
        + 2.0 * (Dv2 + Dv2.T)
        + 2.0 * Dv @ Dv.T
        - 2.0 * div_v * (Dv + Dv.T)
        + div_w * eye
        - (Dw + Dw.T)
    )

    nu = x / np.linalg.norm(x)
    P = eye - np.outer(nu, nu)
    DvP = Dv @ P
    # metric coefficients in an orthonormal tangent frame: g(t) = I + tA + (t^2/2)B
    sigma_A = 2.0 * float(np.trace(DvP))
    sigma_B = 2.0 * float(np.trace(P @ Dv.T @ Dv)) + 2.0 * float(np.trace(P @ Dw))
    Asym = P @ (Dv + Dv.T) @ P
    sigma_A2 = float(np.sum(Asym * Asym))
    m1 = 0.5 * sigma_A
    m2 = 0.5 * sigma_B - 0.5 * sigma_A2 + 0.25 * sigma_A**2

    return MetricExpansion(
        J0=1.0,
        J1=J1,
        J2=J2,
        m0=1.0,
        m1=m1,
        m2=m2,
        A0=eye,
        A1=A1,
        A2=A2,
        sigma_A=sigma_A,
        sigma_B=sigma_B,
        sigma_A2=sigma_A2,
    )


def surface_element_m2_from_map(v, w, R: float, quad) -> np.ndarray:
    """Independent route to m-double-dot: exact Taylor coefficients of
    det(M) |M^{-T} nu| for the quadratic-in-t deformation map."""
    x = R * quad.directions
    nu = quad.directions
    Dv = v.jacobian(x)
    Dw = w.jacobian(x)
    div_v = np.trace(Dv, axis1=-2, axis2=-1)
    div_w = np.trace(Dw, axis1=-2, axis2=-1)
    dv_dv = np.sum(Dv * np.swapaxes(Dv, -1, -2), axis=(-2, -1))
    a = np.einsum("qij,qj->qi", Dv, nu)  # D_v nu
    b = np.einsum("qji,qj->qi", Dv, nu)  # D_v^T nu
    c = np.einsum("qi,qi->q", nu, a)
    nDwn = np.einsum("qi,qij,qj->q", nu, Dw, nu)
    beta1 = -2.0 * c
    beta2 = np.einsum("qi,qi->q", b, b) + 2.0 * np.einsum("qi,qi->q", a, b) - nDwn
    # m(t) = J(t) sqrt(q(t)), q = 1 + beta1 t + beta2 t^2 + O(t^3)
    s1 = 0.5 * beta1
    s2 = beta2 - 0.25 * beta1**2
    J2 = div_v**2 - dv_dv + div_w
    return J2 + 2.0 * div_v * s1 + s2


def radial_harmonic_jacobian(n: int, R: float, coeffs, x) -> np.ndarray:
    """Jacobian of v(x) = sum c (|x|/R)^s Y_{s,i}(x/|x|) x/|x|, one mode at a
    time, each harmonic and gradient evaluated from the directions."""
    x = np.asarray(x, dtype=float)
    items = [(s, i, c) for (s, i), c in coeffs.items() if c != 0.0]
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    eye = np.eye(n)
    proj = eye - xhat[..., :, None] * xhat[..., None, :]
    out = np.zeros(x.shape + (n,))
    for s, i, c in items:
        rho = (r / R) ** s
        drho = s * r ** (s - 1) / R**s if s > 0 else np.zeros_like(r)
        y = np.asarray(spherical_harmonic(n, s, i, xhat))
        gy = tangential_gradient(n, s, i, xhat)
        out = out + (c * drho * y)[..., None, None] * (
            xhat[..., :, None] * xhat[..., None, :]
        )
        out = out + (c * rho / r)[..., None, None] * (
            xhat[..., :, None] * gy[..., None, :]
        )
        out = out + (c * rho * y / r)[..., None, None] * proj
    return out
