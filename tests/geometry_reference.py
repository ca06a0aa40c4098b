"""Independent routes that only the geometry checks use.

* `jacobian_fd_error`: central-difference check of an AmbientField's
  Jacobian;
* `metric_expansions`: pointwise Taylor data of the deformation map at t=0;
* `surface_element_m2_from_map`: second t-derivative of the surface element
  from the Taylor coefficients of det(M) |M^{-T} nu|, against
  `sphere_geometry.surface_element_m2`;
* `surface_element_m2_matmul`: the same tangential-contraction formula as
  `sphere_geometry._surface_element_m2`, with P = I - nu nu^T formed and
  every trace taken of batched 3 x 3 (2 x 2) matrix products;
* `surface_second_variation_general`: the area second variation for any
  ambient (v, w), by quadrature of `sphere_geometry.surface_element_m2`;
* `project_zero_mean`: N without its constant mode;
* `surface_divergence`: the tangential divergence of an AmbientField, for
  the divergence theorem on the sphere;
* `radial_harmonic_values` / `radial_harmonic_jacobian`: the values and the
  Jacobian of `radial_harmonic_field` in point-major (..., n) layout, from
  pointwise harmonics summed in mapping order; the Jacobian then forms the
  three products of D v = (d_r g) xhat xhat^T + xhat (grad_S g)^T / r +
  (g / r)(I - xhat xhat^T) once, which the library's memoised evaluation
  must reproduce bit for bit;
* `pointwise_lpmv_harmonic`: an n=3 harmonic and its angular derivatives
  with lpmv and cos/sin(|m| phi) called at every point, which the
  library's evaluation on the distinct cos(theta) and phi values must
  reproduce bit for bit;
* `pointwise_harmonic`: Y_{s,i} or one of its angular derivatives from
  those pointwise parts (n=3) or from `_harmonic` (n=2, which takes no
  distinct values);
* `pointwise_synthesis` / `pointwise_tangential_gradient`: the harmonic sum
  of `synthesize`, values or one angular derivative, one pointwise term at
  a time, and the tangential gradient of such a sum with the frame built
  at every point.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv

from rsv.special_functions import SphereQuadrature, _angles, _harmonic, _legendre_norm
from rsv.sphere_geometry import surface_element_m2


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


def surface_second_variation_general(v, w, n: int, R: float) -> float:
    """Area second variation for arbitrary ambient (v, w) by quadrature of
    the surface-element acceleration: S''(0) = int_{dB_R} m''(0) dS.

    Reduces to `surface_second_variation` when (v, w) is volume preserving
    of second order.
    """
    quad = SphereQuadrature(n)
    return R ** (n - 1) * quad.integrate(surface_element_m2(v, w, R, quad))


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


def surface_element_m2_matmul(Dv, Dw, nu) -> np.ndarray:
    """m''(0) = sigma_B / 2 - sigma_A2 / 2 + sigma_A^2 / 4 at the points R nu
    from the Jacobians Dv, Dw there, with the projection P = I - nu nu^T and
    the products P Dv^T Dv, P Dw and P (Dv + Dv^T) P formed point by point."""
    eye = np.eye(nu.shape[-1])
    P = eye - nu[..., :, None] * nu[..., None, :]
    sigma_A = 2.0 * np.trace(Dv @ P, axis1=-2, axis2=-1)
    sigma_B = 2.0 * np.trace(P @ np.swapaxes(Dv, -1, -2) @ Dv, axis1=-2, axis2=-1)
    sigma_B = sigma_B + 2.0 * np.trace(P @ Dw, axis1=-2, axis2=-1)
    Asym = P @ (Dv + np.swapaxes(Dv, -1, -2)) @ P
    sigma_A2 = np.sum(Asym * np.swapaxes(Asym, -1, -2), axis=(-2, -1))
    return 0.5 * sigma_B - 0.5 * sigma_A2 + 0.25 * sigma_A**2


def radial_harmonic_values(n: int, R: float, coeffs, x) -> np.ndarray:
    """v(x) = sum c (|x|/R)^s Y_{s,i}(x/|x|) x/|x|, one mode at a time, each
    harmonic evaluated pointwise and added in mapping order."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    total = np.zeros(r.shape)
    for (s, i), c in coeffs.items():
        if c != 0.0:
            total = total + c * (r / R) ** s * np.asarray(pointwise_harmonic(n, s, i, xhat))
    return total[..., None] * xhat


def radial_harmonic_jacobian(n: int, R: float, coeffs, x) -> np.ndarray:
    """Jacobian of v = g x/|x|, g = sum c (|x|/R)^s Y_{s,i}(x/|x|), in
    point-major (..., n, n) layout: g, d_r g and grad_S g summed over the
    nonzero modes in mapping order from pointwise harmonics, then

        D v = (d_r g) xhat xhat^T + xhat (grad_S g)^T / r + (g / r)(I - xhat xhat^T)."""
    x = np.asarray(x, dtype=float)
    items = [(s, i, c) for (s, i), c in coeffs.items() if c != 0.0]
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    radial = {(s, i): c * (r / R) ** s for s, i, c in items}
    slope = {(s, i): c * (s * r ** (s - 1) / R**s) for s, i, c in items if s > 0}
    g = pointwise_synthesis(n, radial, xhat)
    dg = pointwise_synthesis(n, slope, xhat)
    grad = pointwise_tangential_gradient(n, radial, xhat)
    xx = xhat[..., :, None] * xhat[..., None, :]
    out = dg[..., None, None] * xx
    out = out + xhat[..., :, None] * (grad / r[..., None])[..., None, :]
    return out + (g / r)[..., None, None] * (np.eye(n) - xx)


def pointwise_lpmv_harmonic(s: int, i: int, ang):
    """(Y_{s,i}, dY/dtheta, dY/dphi) for n=3 at the angles `ang` of
    `special_functions._angles`, with lpmv and cos/sin(|m| phi) evaluated
    at every point."""
    m = i - s
    am = abs(m)
    x = ang.cos_theta
    p = lpmv(am, s, x)
    k = _legendre_norm(s, am)
    p_lower = lpmv(am, s - 1, x) if s - 1 >= am else np.zeros_like(x)
    dp = (s * x * p - (s + am) * p_lower) / ang.sin_theta
    if m == 0:
        return k * p, k * dp, np.zeros_like(ang.theta)
    trig, dtrig = (np.cos, np.sin) if m > 0 else (np.sin, np.cos)
    azimuth = trig(am * ang.phi)
    return (
        math.sqrt(2.0) * k * p * azimuth,
        math.sqrt(2.0) * k * dp * azimuth,
        -m * math.sqrt(2.0) * k * p * dtrig(am * ang.phi),
    )


def pointwise_harmonic(n: int, s: int, i: int, directions, part: int = 0):
    """Part `part` of Y_{s,i} (0 the value, 1 dY/dtheta, 2 dY/dphi) at unit
    directions of shape (..., n), evaluated at every point."""
    ang = _angles(n, directions)
    if n == 2:
        return _harmonic(s, i, ang, part)
    return pointwise_lpmv_harmonic(s, i, ang)[part]


def pointwise_synthesis(n: int, coeffs, directions, part: int = 0) -> np.ndarray:
    """sum c Y_{s,i}, or the sum of part `part` of each (see
    `pointwise_harmonic`), at unit directions, one pointwise term at a time
    in mapping order; a coefficient may be an array over the points, and
    all-zero terms are skipped."""
    d = np.asarray(directions, dtype=float)
    total = np.zeros(d.shape[:-1])
    for (s, i), c in coeffs.items():
        if np.any(c != 0.0):
            total = total + c * np.asarray(pointwise_harmonic(n, s, i, d, part))
    return total


def pointwise_tangential_gradient(n: int, coeffs, directions) -> np.ndarray:
    """Tangential gradient of sum c Y_{s,i}, shape (..., n): the pointwise
    sums of the angular derivatives times the frame vectors, built at every
    point."""
    ang = _angles(n, directions)
    if n == 2:
        frame = np.stack([-ang.sin_theta, ang.cos_theta], axis=-1)
        return pointwise_synthesis(n, coeffs, directions, 1)[..., None] * frame
    cos_phi, sin_phi = np.cos(ang.phi), np.sin(ang.phi)
    theta_hat = np.stack(
        [ang.cos_theta * cos_phi, ang.cos_theta * sin_phi, -ang.sin_theta], axis=-1
    )
    phi_hat = np.stack([-sin_phi, cos_phi, np.zeros_like(ang.phi)], axis=-1)
    grad = pointwise_synthesis(n, coeffs, directions, 1)[..., None] * theta_hat
    d_phi = pointwise_synthesis(n, coeffs, directions, 2)
    return grad + (d_phi / ang.sin_theta)[..., None] * phi_hat


def surface_divergence(v, x) -> np.ndarray:
    """div_tangential v = div v - nu . D_v nu at points x (nu = x/|x|)."""
    x = np.asarray(x, dtype=float)
    nu = x / np.linalg.norm(x, axis=-1)[..., None]
    jac = v.jacobian(x)
    div = np.trace(jac, axis1=-2, axis2=-1)
    return div - np.einsum("...i,...ij,...j->...", nu, jac, nu)
