"""Perturbations of the ball: Hadamard normal data, ambient vector fields,
volume/surface expansions, and the surface-area second variation.

A boundary function is a dict {(degree s, index i): coefficient} over the
orthonormal harmonics of `special_functions`.  The domain family is

    Omega_t = { y = x + t v(x) + (t^2/2) w(x) },

realized for Hadamard data as the star domain r(theta, t) = R + t N +
(t^2/2) W with N = v.nu and W = w.nu.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .special_functions import (
    HarmonicBasis,
    HarmonicGradients,
    SphereQuadrature,
    lb_eigen,
    synthesize,
)

BoundaryFunction = dict[tuple[int, int], float]


def default_quad_order() -> int:
    return int(os.environ.get("RSV_QUAD_ORDER", "64"))


def sphere_measure(n: int) -> float:
    """|S^{n-1}|: 2 pi for n=2, 4 pi for n=3."""
    return 2.0 * math.pi if n == 2 else 4.0 * math.pi


# ---------------------------------------------------------------------------
# boundary functions (harmonic coefficient dicts)
# ---------------------------------------------------------------------------


def coeff_norm_sq(coeffs: BoundaryFunction) -> float:
    """Integral of the function squared over the *unit* sphere."""
    return sum(c * c for c in coeffs.values())


def boundary_mean(n: int, coeffs: BoundaryFunction) -> float:
    c0 = coeffs.get((0, 0), 0.0)
    return c0 / math.sqrt(sphere_measure(n))


def constant_coeffs(n: int, value: float) -> BoundaryFunction:
    """The constant function `value` as a harmonic expansion."""
    if value == 0.0:
        return {}
    return {(0, 0): value * math.sqrt(sphere_measure(n))}


def second_order_volume_correction(
    N: BoundaryFunction, n: int, R: float
) -> BoundaryFunction:
    """Constant W making the star family volume-preserving to second order.

    W = -(n-1) * mean(N^2) / R kills the t^2 term of the exact star volume
    (any W with that mean works; a constant keeps the domain band-limited).
    """
    if boundary_mean(n, N) != 0.0:
        raise ValueError("N must be mean-free (volume preserving of first order)")
    mean_sq = coeff_norm_sq(N) / sphere_measure(n)
    return constant_coeffs(n, -(n - 1) * mean_sq / R)


# ---------------------------------------------------------------------------
# perturbation fields and star domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbationField:
    """Hadamard perturbation data N = v.nu, W = w.nu on the sphere of radius R."""

    n: int
    R: float
    N: BoundaryFunction = field(default_factory=dict)
    W: BoundaryFunction = field(default_factory=dict)

    def volume_preserving_first_order(self) -> bool:
        return abs(boundary_mean(self.n, self.N)) < 1e-14

    def with_volume_correction(self) -> "PerturbationField":
        return replace(self, W=second_order_volume_correction(self.N, self.n, self.R))

    def ambient_pair(self) -> tuple["AmbientField", "AmbientField"]:
        """Radial extensions of (N, W) as ambient fields."""
        return (
            radial_harmonic_field(self.n, self.R, self.N),
            radial_harmonic_field(self.n, self.R, self.W),
        )

    def to_text(self) -> str:
        doc = {
            "n": self.n,
            "R": self.R,
            "N": [[s, i, c] for (s, i), c in sorted(self.N.items())],
            "W": [[s, i, c] for (s, i), c in sorted(self.W.items())],
        }
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_text(text: str) -> "PerturbationField":
        doc = json.loads(text)
        return PerturbationField(
            n=int(doc["n"]),
            R=float(doc["R"]),
            N={(int(s), int(i)): float(c) for s, i, c in doc.get("N", [])},
            W={(int(s), int(i)): float(c) for s, i, c in doc.get("W", [])},
        )


@dataclass(frozen=True)
class StarDomain:
    """Star-shaped domain r(theta, t) = R + t N(theta) + (t^2/2) W(theta)."""

    n: int
    R: float
    N: BoundaryFunction
    W: BoundaryFunction
    t: float

    def radius(self, directions, derivative: str | None = None) -> np.ndarray:
        """r at unit directions, or its "theta" / "phi" derivative
        (see `synthesize`); at t = 0 exactly R, or zeros."""
        d = np.asarray(directions, dtype=float)
        if self.t == 0.0:
            return np.full(d.shape[:-1], 0.0 if derivative else self.R)
        r = self.t * synthesize(self.n, self.N, d, derivative)
        if derivative is None:
            r = self.R + r
        return r + 0.5 * self.t**2 * synthesize(self.n, self.W, d, derivative)


def perturbed_domain(p: PerturbationField, t: float) -> StarDomain:
    return StarDomain(n=p.n, R=p.R, N=p.N, W=p.W, t=t)


def exact_volume(d: StarDomain, order: int | None = None) -> float:
    """V(t) = (1/n) * integral of r^n over the unit sphere."""
    quad = SphereQuadrature(d.n, order or default_quad_order())
    r = d.radius(quad.directions)
    if np.any(r <= 0.0):
        raise ValueError("domain is not star-shaped: r <= 0 at some direction")
    return quad.integrate(r**d.n) / d.n


def exact_surface_area(d: StarDomain, order: int | None = None) -> float:
    quad = SphereQuadrature(d.n, order or default_quad_order())
    r = d.radius(quad.directions)
    if np.any(r <= 0.0):
        raise ValueError("domain is not star-shaped: r <= 0 at some direction")
    r_th = d.radius(quad.directions, "theta")
    if d.n == 2:
        return quad.integrate(np.sqrt(r * r + r_th * r_th))
    r_ph = d.radius(quad.directions, "phi")
    grad_sq = r_th * r_th + (r_ph / np.sin(quad.theta)) ** 2
    return quad.integrate(r * np.sqrt(r * r + grad_sq))


# ---------------------------------------------------------------------------
# ambient vector fields
# ---------------------------------------------------------------------------


class AmbientField:
    """Vector field with closed-form value and Jacobian evaluators.

    `x` may be a single point (n,) or a batch (..., n); value has the same
    shape, Jacobian has shape (..., n, n) with J[i, j] = d v_i / d x_j.
    """

    def __init__(self, n: int, func, jac, label: str = ""):
        self.n = n
        self._func = func
        self._jac = jac
        self.label = label

    def __call__(self, x) -> np.ndarray:
        return self._func(np.asarray(x, dtype=float))

    def jacobian(self, x) -> np.ndarray:
        return self._jac(np.asarray(x, dtype=float))

    def __add__(self, other: "AmbientField") -> "AmbientField":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return AmbientField(
            self.n,
            lambda x: self._func(x) + other._func(x),
            lambda x: self._jac(x) + other._jac(x),
            label=f"({self.label}+{other.label})",
        )


def zero_field(n: int) -> AmbientField:
    return AmbientField(
        n,
        lambda x: np.zeros_like(x),
        lambda x: np.zeros(x.shape + (n,)),
        label="0",
    )


def constant_field(n: int, b) -> AmbientField:
    b = np.asarray(b, dtype=float)
    return AmbientField(
        n,
        lambda x: np.broadcast_to(b, x.shape).copy(),
        lambda x: np.zeros(x.shape + (n,)),
        label="const",
    )


def linear_field(M, b=None) -> AmbientField:
    """v(x) = M x + b with constant matrix M (covers dilations, rotations)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float)

    def func(x):
        return x @ M.T + b

    def jac(x):
        return np.broadcast_to(M, x.shape + (n,)).copy()

    return AmbientField(n, func, jac, label="linear")


def rotation_field(n: int, speed: float = 1.0) -> AmbientField:
    """Generator of a rigid rotation (about the z-axis for n=3); tangential on spheres."""
    if n == 2:
        M = np.array([[0.0, -1.0], [1.0, 0.0]]) * speed
    else:
        M = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) * speed
    return linear_field(M)


def radial_harmonic_field(n: int, R: float, coeffs: BoundaryFunction) -> AmbientField:
    """Radial extension v(x) = sum c (|x|/R)^s Y_{s,i}(x/|x|) * x/|x|.

    Normal trace on the sphere of radius R is exactly the boundary function;
    smooth away from the origin (which is never sampled by the quadratures).
    """
    items = [(s, i, c) for (s, i), c in coeffs.items() if c != 0.0]

    def func(x):
        r = np.linalg.norm(x, axis=-1)
        xhat = x / r[..., None]
        radial = {(s, i): c * (r / R) ** s for s, i, c in items}
        return synthesize(n, radial, xhat)[..., None] * xhat

    def jac(x):
        r = np.linalg.norm(x, axis=-1)
        xhat = x / r[..., None]
        xx = xhat[..., :, None] * xhat[..., None, :]
        proj = np.eye(n) - xx
        harmonic = HarmonicGradients(n, xhat)
        out = np.zeros(x.shape + (n,))
        for s, i, c in items:
            rho = (r / R) ** s
            drho = s * r ** (s - 1) / R**s if s > 0 else np.zeros_like(r)
            y, gy = harmonic(s, i)
            y = np.asarray(y)
            # three terms per mode, in this order: the reports' quadrature
            # values depend on the summation order
            out = out + (c * drho * y)[..., None, None] * xx
            out = out + (c * rho / r)[..., None, None] * (
                xhat[..., :, None] * gy[..., None, :]
            )
            out = out + (c * rho * y / r)[..., None, None] * proj
        return out

    return AmbientField(n, func, jac, label="radial-harmonic")


def normal_trace(v: AmbientField, R: float, quad: SphereQuadrature) -> np.ndarray:
    """v.nu sampled on the sphere of radius R at the quadrature directions."""
    x = R * quad.directions
    return np.einsum("qi,qi->q", v(x), quad.directions)


def project_normal_trace(
    v: AmbientField,
    n: int,
    R: float,
    max_degree: int = 24,
    order: int | None = None,
) -> BoundaryFunction:
    """Expand v.nu on the sphere of radius R over orthonormal harmonics.

    Exact for band-limited traces with degree <= max_degree (up to quadrature
    roundoff); coefficients below 1e-13 of the largest are dropped.
    """
    quad = SphereQuadrature(n, order or default_quad_order())
    basis = HarmonicBasis(n, max_degree, quad)
    coeffs = basis.project(normal_trace(v, R, quad))
    scale = max(abs(c) for c in coeffs.values()) if coeffs else 0.0
    return {si: c for si, c in coeffs.items() if abs(c) > 1e-13 * scale}


def surface_divergence(v: AmbientField, x) -> np.ndarray:
    """div_tangential v = div v - nu . D_v nu at points x (nu = x/|x|)."""
    x = np.asarray(x, dtype=float)
    nu = x / np.linalg.norm(x, axis=-1)[..., None]
    jac = v.jacobian(x)
    div = np.trace(jac, axis1=-2, axis2=-1)
    return div - np.einsum("...i,...ij,...j->...", nu, jac, nu)


def volume_completion_field(
    v: AmbientField, n: int, R: float, order: int | None = None
) -> AmbientField:
    """Constant-normal w making (v, w) volume preserving of second order.

    Solves the boundary form of the second-order volume condition:
    integral of (v.nu) div v - nu.(D_v v) + w.nu over the sphere = 0.
    """
    quad = SphereQuadrature(n, order or default_quad_order())
    x = R * quad.directions
    vx = v(x)
    jac = v.jacobian(x)
    nu = quad.directions
    div = np.trace(jac, axis1=-2, axis2=-1)
    integrand = np.einsum("qi,qi->q", vx, nu) * div - np.einsum(
        "qi,qij,qj->q", nu, jac, vx
    )
    total = R ** (n - 1) * quad.integrate(integrand)
    w_const = -total / (R ** (n - 1) * sphere_measure(n))
    return radial_harmonic_field(n, R, constant_coeffs(n, w_const))


# ---------------------------------------------------------------------------
# surface element
# ---------------------------------------------------------------------------


def surface_element_m2(v: AmbientField, w: AmbientField, R: float, quad: SphereQuadrature) -> np.ndarray:
    """Vectorized second t-derivative of the surface element on the sphere of
    radius R, from tangential contractions of the field Jacobians."""
    x = R * quad.directions
    nu = quad.directions
    Dv = v.jacobian(x)
    Dw = w.jacobian(x)
    eye = np.eye(quad.n)
    P = eye - nu[..., :, None] * nu[..., None, :]
    DvP = Dv @ P
    sigma_A = 2.0 * np.trace(DvP, axis1=-2, axis2=-1)
    sigma_B = 2.0 * np.trace(P @ np.swapaxes(Dv, -1, -2) @ Dv, axis1=-2, axis2=-1)
    sigma_B = sigma_B + 2.0 * np.trace(P @ Dw, axis1=-2, axis2=-1)
    Asym = P @ (Dv + np.swapaxes(Dv, -1, -2)) @ P
    sigma_A2 = np.sum(Asym * np.swapaxes(Asym, -1, -2), axis=(-2, -1))
    return 0.5 * sigma_B - 0.5 * sigma_A2 + 0.25 * sigma_A**2


# ---------------------------------------------------------------------------
# surface-area second variation
# ---------------------------------------------------------------------------


def surface_second_variation(N: BoundaryFunction, n: int, R: float) -> float:
    """Closed form of the area second variation for volume-preserving
    Hadamard data: sum over modes of c^2 R^(n-3) (s(s+n-2) - (n-1))."""
    if abs(boundary_mean(n, N)) > 1e-14:
        raise ValueError("N must be mean-free")
    total = 0.0
    for (s, _i), c in N.items():
        mu, _ = lb_eigen(s, n)
        total += c * c * R ** (n - 3) * (mu - (n - 1))
    return total


def surface_second_variation_general(
    v: AmbientField,
    w: AmbientField,
    n: int,
    R: float,
    order: int | None = None,
) -> float:
    """Area second variation for arbitrary ambient (v, w) by quadrature:

        S''(0) = int_{dB_R} |grad_tan(v.nu)|^2 - (n-1)/R^2 (v.nu)^2 dS
               + (n-1)/R int_{dB_R} (v.nu) div v - nu.(D_v v) + w.nu dS.

    Reduces to `surface_second_variation` when (v, w) is volume preserving
    of second order.
    """
    quad = SphereQuadrature(n, order or default_quad_order())
    x = R * quad.directions
    nu = quad.directions
    vx = v(x)
    wx = w(x)
    Dv = v.jacobian(x)
    N = np.einsum("qi,qi->q", vx, nu)
    # tangential gradient of the scalar x -> v(x).x/R restricted to the sphere
    grad_N = np.einsum("qji,qj->qi", Dv, nu) + vx / R
    grad_N = grad_N - np.einsum("qi,qi->q", grad_N, nu)[..., None] * nu
    term1 = np.einsum("qi,qi->q", grad_N, grad_N) - (n - 1) / R**2 * N * N
    div_v = np.trace(Dv, axis1=-2, axis2=-1)
    term2 = (
        N * div_v
        - np.einsum("qi,qij,qj->q", nu, Dv, vx)
        + np.einsum("qi,qi->q", wx, nu)
    )
    return R ** (n - 1) * quad.integrate(term1 + (n - 1) / R * term2)
