"""Perturbations of the ball: Hadamard normal data, ambient vector fields,
volume/surface expansions, and the surface-area second variation.

A boundary function is a dict {(degree s, index i): coefficient} over the
orthonormal harmonics of `special_functions`.  The domain family is

    Omega_t = { y = x + t v(x) + (t^2/2) w(x) },

realized for Hadamard data as the star domain r(theta, t) = R + t N +
(t^2/2) W with N = v.nu and W = w.nu.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .special_functions import (
    HarmonicBasis,
    SphereQuadrature,
    _tangential_gradient,
    lb_eigen,
    synthesize,
)

BoundaryFunction = dict[tuple[int, int], float]


# harmonic degree up to which `project_normal_trace` expands a normal trace
PROJECTION_DEGREE = 24


def sphere_measure(n: int) -> float:
    """|S^{n-1}|: 2 pi for n=2, 4 pi for n=3."""
    return 2.0 * math.pi if n == 2 else 4.0 * math.pi


# ---------------------------------------------------------------------------
# boundary functions (harmonic coefficient dicts)
# ---------------------------------------------------------------------------


def coeff_norm_sq(coeffs: BoundaryFunction) -> float:
    """Integral of the function squared over the *unit* sphere."""
    return sum(c * c for c in coeffs.values())


def trace_coefficients(N: BoundaryFunction, n: int, R: float) -> BoundaryFunction:
    """Coefficients b = R^((n-1)/2) c of the nonzero terms of N in the basis
    R^(-(n-1)/2) Y_{s,i}, orthonormal in L2 of the sphere of radius R."""
    scale = R ** ((n - 1) / 2.0)
    return {si: scale * c for si, c in N.items() if c != 0.0}


def mean_free(N: BoundaryFunction) -> bool:
    """Whether int N dS = 0 (first-order volume preservation): every real
    harmonic but Y_{0,0} integrates to exactly 0, so N's (0, 0) term decides."""
    return N.get((0, 0), 0.0) == 0.0


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
    if not mean_free(N):
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

    def with_volume_correction(self) -> "PerturbationField":
        return replace(self, W=second_order_volume_correction(self.N, self.n, self.R))


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
        (see `synthesize`); at t = 0 exactly R, or zeros.  The sums of N and
        W come from `_harmonic_sum`, shared by every t; the result is a new
        array.  Raises when a value of r is not > 0 (<= 0 or NaN): the
        domain is not star-shaped there."""
        d = np.asarray(directions, dtype=float)
        if self.t == 0.0:
            r = np.full(d.shape[:-1], 0.0 if derivative else self.R)
        else:
            key = (derivative, d.shape, d.tobytes())
            r = self.t * _harmonic_sum(self.n, tuple(self.N.items()), *key)
            if derivative is None:
                r = self.R + r
            r = r + 0.5 * self.t**2 * _harmonic_sum(self.n, tuple(self.W.items()), *key)
        if derivative is None and not np.all(r > 0.0):
            raise ValueError("domain is not star-shaped: r is not > 0 at some direction")
        return r


@functools.lru_cache(maxsize=18, typed=True)
def _harmonic_sum(n: int, items, derivative, shape, dbytes) -> np.ndarray:
    """`synthesize(n, dict(items), directions, derivative)`, evaluated once
    per key and shared read-only: the sums of N and W behind
    `StarDomain.radius`.  They do not depend on t, so every t of a stencil
    or sweep on one grid reads the same entry.

    The key holds every input bit, as `_radial_table`'s does: n; the
    (degree, index) -> coefficient items in mapping order, which sets the
    order of the sum; the part; and the shape and bytes of the directions,
    so that +0.0 and -0.0 stay apart.  One report touches N and W, in two
    parts on each of the oracle's grids (collocation, midway between its
    angles, eigen integrals) and in up to three on a SphereQuadrature
    grid: the 18 entries used last are kept.  Replaying the memo's keys
    over three rounds of the eigen and torsion CLI reports, 8 and 14
    entries hit as often as an unbounded memo.  An entry holds
    8 (n + 1) bytes per direction with its key, about 130 KB on an n = 3
    order-64 grid, so the memo holds at most about 2.4 MB."""
    d = np.frombuffer(dbytes).reshape(shape)
    out = synthesize(n, dict(items), d, derivative)
    out.flags.writeable = False
    return out


def perturbed_domain(p: PerturbationField, t: float) -> StarDomain:
    return StarDomain(n=p.n, R=p.R, N=p.N, W=p.W, t=t)


def exact_volume(d: StarDomain) -> float:
    """V(t) = (1/n) * integral of r^n over the unit sphere."""
    quad = SphereQuadrature(d.n)
    return quad.integrate(d.radius(quad.directions) ** d.n) / d.n


def exact_surface_area(d: StarDomain) -> float:
    """Area of the star domain by quadrature of r^(n-2) sqrt(r^2 + |grad r|^2).

    `oracle_solver._boundary` forms the same sqrt(r^2 + |grad r|^2) for its
    surface weights.  The repetition is deliberate: the oracle stays
    independent of the library geometry, so the two are not to be merged.
    `StarDomain.radius`, which defines the domain, is all they share; the
    memo of its sums sits below it."""
    quad = SphereQuadrature(d.n)
    r = d.radius(quad.directions)
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

    def __init__(self, n: int, func, jac):
        self.n = n
        self._func = func
        self._jac = jac

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
        )


def zero_field(n: int) -> AmbientField:
    return AmbientField(
        n,
        lambda x: np.zeros_like(x),
        lambda x: np.zeros(x.shape + (n,)),
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

    return AmbientField(n, func, jac)


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
    Values and Jacobians come from `_radial_table`, so fields built from
    equal data share them on equal points; the arrays are read-only.
    """
    items = tuple((s, i, c) for (s, i), c in coeffs.items() if c != 0.0)
    sign = math.copysign(1.0, R)

    def func(x):
        return _radial_table(n, R, sign, items, x.shape, x.tobytes())[0]

    def jac(x):
        return _radial_table(n, R, sign, items, x.shape, x.tobytes())[1]

    return AmbientField(n, func, jac)


@functools.lru_cache(maxsize=4, typed=True)
def _radial_table(n: int, R: float, sign: float, items, shape, xbytes):
    """Values and Jacobian of a radial-harmonic field, evaluated together
    once per key and shared read-only.

    The key holds every input bit: n; R with its type and sign (-0.0 == 0.0);
    the nonzero (s, i, c) terms in mapping order, which sets the order of the
    harmonic sums; and the shape and bytes of the points, so that +0.0 and
    -0.0 coordinates stay apart.  The second-variation routes of one
    deformation all sample its field at R * quad.directions and hit one
    entry; an n = 3 order-64 entry holds at most about 0.5 MB with its key.
    """
    x = np.frombuffer(xbytes).reshape(shape)
    out = _radial_fields(n, R, items, x)
    for a in out:
        a.flags.writeable = False
    return out


def _radial_fields(n: int, R: float, items, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, D v) at the points x for v = g xhat, g = sum c (r/R)^s Y_{s,i}(xhat):

        D v = (d_r g) xhat xhat^T + xhat (grad_S g)^T / r + (g / r)(I - xhat xhat^T),

    with g, d_r g and the angular derivatives of g each one `synthesize`
    sum in the mapping order of the terms (grad_S g from
    `_tangential_gradient`), and the three products formed once.  The
    radial factors (r/R)^s and s r^(s-1) / R^s are formed once per degree
    and scaled by each term's coefficient."""
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    degrees = {s for s, _, _ in items}
    # the per-point coefficients hold one array per term (1.5 MB for 45
    # terms on an n = 3 order-64 grid): one dict at a time, none kept
    # through the products
    rise = {s: s * r ** (s - 1) / R**s for s in degrees if s > 0}
    slope = {(s, i): c * rise[s] for s, i, c in items if s > 0}
    del rise
    dg = synthesize(n, slope, xhat)
    del slope
    power = {s: (r / R) ** s for s in degrees}
    radial = {(s, i): c * power[s] for s, i, c in items}
    del power
    g = synthesize(n, radial, xhat)
    grad = _tangential_gradient(n, radial, xhat)
    del radial
    xx = xhat[..., :, None] * xhat[..., None, :]
    jac = dg[..., None, None] * xx
    jac += xhat[..., :, None] * (grad / r[..., None])[..., None, :]
    jac += (g / r)[..., None, None] * (np.eye(n) - xx)
    return g[..., None] * xhat, jac


def normal_trace(v: AmbientField, R: float, quad: SphereQuadrature) -> np.ndarray:
    """v.nu sampled on the sphere of radius R at the quadrature directions."""
    x = R * quad.directions
    return np.einsum("qi,qi->q", v(x), quad.directions)


def project_normal_trace(v: AmbientField, n: int, R: float) -> BoundaryFunction:
    """Expand v.nu on the sphere of radius R over orthonormal harmonics.

    Exact for band-limited traces with degree <= PROJECTION_DEGREE (up to
    quadrature roundoff); coefficients below 1e-13 of the largest are dropped.
    """
    quad = SphereQuadrature(n)
    basis = HarmonicBasis(n, PROJECTION_DEGREE, quad)
    coeffs = basis.project(normal_trace(v, R, quad))
    scale = max(abs(c) for c in coeffs.values()) if coeffs else 0.0
    return {si: c for si, c in coeffs.items() if abs(c) > 1e-13 * scale}


def volume_completion_field(v: AmbientField, n: int, R: float) -> AmbientField:
    """Constant-normal w making (v, w) volume preserving of second order.

    Solves the boundary form of the second-order volume condition:
    integral of (v.nu) div v - nu.(D_v v) + w.nu over the sphere = 0.
    """
    quad = SphereQuadrature(n)
    x = R * quad.directions
    vx = v(x)
    integrand = _volume_integrand(quad.directions, vx, v.jacobian(x), np.zeros_like(vx))
    total = R ** (n - 1) * quad.integrate(integrand)
    w_const = -total / (R ** (n - 1) * sphere_measure(n))
    return radial_harmonic_field(n, R, constant_coeffs(n, w_const))


def _volume_integrand(nu, vx, Dv, wx) -> np.ndarray:
    """(v.nu) div v - nu.(D_v v) + w.nu at the points R nu, from v, its
    Jacobian Dv and w sampled there: the boundary integrand of V''(0)."""
    N_div_v = np.einsum("qi,qi->q", vx, nu) * np.trace(Dv, axis1=-2, axis2=-1)
    return N_div_v - np.einsum("qi,qij,qj->q", nu, Dv, vx) + np.einsum("qi,qi->q", wx, nu)


# ---------------------------------------------------------------------------
# surface element
# ---------------------------------------------------------------------------


def surface_element_m2(v: AmbientField, w: AmbientField, R: float, quad: SphereQuadrature) -> np.ndarray:
    """Vectorized second t-derivative of the surface element on the sphere of
    radius R, from tangential contractions of the field Jacobians."""
    x = R * quad.directions
    return _surface_element_m2(v.jacobian(x), w.jacobian(x), quad.directions)


def _surface_element_m2(Dv: np.ndarray, Dw: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """`surface_element_m2` from the Jacobians Dv, Dw at the points R nu:

        m''(0) = sigma_B / 2 - sigma_A2 / 2 + sigma_A^2 / 4,
        sigma_A = 2 tr(Dv P),  sigma_B = 2 tr(P Dv^T Dv) + 2 tr(P Dw),
        sigma_A2 = |P A P|_F^2,  A = Dv + Dv^T,

    with P = I - nu nu^T the tangential projection.  Each contraction is
    expanded from P and taken point by point, with no 3 x 3 product per
    point (|nu| = 1):

        tr(Dv P)       = tr Dv - nu.Dv nu
        tr(P Dv^T Dv)  = |Dv|_F^2 - |Dv nu|^2
        tr(P Dw)       = tr Dw - nu.Dw nu
        |P A P|_F^2    = |A|_F^2 - 2 |A nu|^2 + (nu.A nu)^2

    The tests check this against the Taylor coefficients of the deformation
    map's det(M) |M^{-T} nu| (`surface_element_m2_from_map` in the test
    references); the library keeps the tangential form so that the two
    stay independent routes."""
    Dv_nu = np.einsum("...ij,...j->...i", Dv, nu)
    A = Dv + np.swapaxes(Dv, -1, -2)
    A_nu = np.einsum("...ij,...j->...i", A, nu)
    nDvn = np.einsum("...i,...i->...", nu, Dv_nu)
    nDwn = np.einsum("...i,...ij,...j->...", nu, Dw, nu)
    sigma_A = 2.0 * (np.trace(Dv, axis1=-2, axis2=-1) - nDvn)
    sigma_B = 2.0 * (np.einsum("...ij,...ij->...", Dv, Dv) - np.einsum("...i,...i->...", Dv_nu, Dv_nu))
    sigma_B = sigma_B + 2.0 * (np.trace(Dw, axis1=-2, axis2=-1) - nDwn)
    nAn = np.einsum("...i,...i->...", nu, A_nu)
    sigma_A2 = (
        np.einsum("...ij,...ij->...", A, A)
        - 2.0 * np.einsum("...i,...i->...", A_nu, A_nu)
        + nAn**2
    )
    return 0.5 * sigma_B - 0.5 * sigma_A2 + 0.25 * sigma_A**2


# ---------------------------------------------------------------------------
# surface-area second variation
# ---------------------------------------------------------------------------


def _surface_term(s: int, b: float, n: int, R: float) -> float:
    """Term b^2 (s(s+n-2) - (n-1)) / R^2 of S''(0) for a trace coefficient b."""
    mu, _ = lb_eigen(s, n)
    return b * b * (mu - (n - 1)) / R**2


def surface_second_variation(N: BoundaryFunction, n: int, R: float) -> float:
    """Closed form of the area second variation for volume-preserving
    Hadamard data: the sum of `_surface_term` over the trace coefficients."""
    if not mean_free(N):
        raise ValueError("N must be mean-free")
    b = trace_coefficients(N, n, R)
    return sum((_surface_term(s, bv, n, R) for (s, _i), bv in b.items()), 0.0)

