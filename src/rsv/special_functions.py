"""Bessel functions, real spherical harmonics, and sphere quadrature.

Conventions used by every downstream module:

* spherical harmonics Y_{s,i} are real and orthonormal on the *unit* sphere
  S^{n-1}; integrals over a sphere of radius R carry explicit R^(n-1)
  factors at the call site;
* n=2 basis: 1/sqrt(2 pi), cos(s th)/sqrt(pi), sin(s th)/sqrt(pi)
  (index i=0 cosine branch, i=1 sine branch);
* n=3 basis: real associated-Legendre harmonics, index i = m + s with
  order m in [-s, s];
* Bessel J is evaluated in-repo (series / backward recurrence /
  trigonometric closed forms for half-integer orders); scipy.special is
  used only as a cross-check in the test suite.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import lpmv

_HALF_INT_TOL = 1e-12


def _is_integer(order: float) -> bool:
    return abs(order - round(order)) < _HALF_INT_TOL


def _is_half_integer(order: float) -> bool:
    return abs(order - math.floor(order) - 0.5) < _HALF_INT_TOL


def _besselj_series(nu: float, x: float, terms: int = 60) -> float:
    # Ascending series; safe for small x where no cancellation occurs.
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    xh = 0.5 * x
    log_lead = nu * math.log(xh) - math.lgamma(nu + 1.0)
    if log_lead < -745.0:  # underflow of (x/2)^nu / Gamma(nu+1)
        return 0.0
    lead = math.exp(log_lead)
    total = lead
    term = lead
    q = xh * xh
    for k in range(1, terms):
        term *= -q / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return total


def _besselj_int_miller(nu: int, x: float) -> float:
    # Backward (Miller) recurrence normalized by J0 + 2*sum J_{2k} = 1.
    # Stable for every x > 0; rescaling guards against overflow.
    m = int(max(nu, x)) + 60
    if m % 2:
        m += 1
    jp = 0.0
    j = 1e-30
    norm = 0.0
    out = 0.0
    have = False
    for k in range(m, 0, -1):
        jm = (2.0 * k / x) * j - jp
        jp = j
        j = jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            norm *= 1e-250
            out *= 1e-250
        kk = k - 1
        if kk == nu:
            out = j
            have = True
        if kk > 0 and kk % 2 == 0:
            norm += 2.0 * j
    norm += j  # j now holds the unnormalized J_0
    if not have:
        out = j if nu == 0 else 0.0
    return out / norm


def _spherical_jl(ell: int, x: float) -> float:
    # Spherical Bessel j_l by downward recurrence; normalization picks
    # whichever of j_0, j_1 is farther from a zero.
    if x < 1e-5:
        # j_l(x) ~ x^l/(2l+1)!! * (1 - x^2/(2(2l+3)))
        dfact = 1.0
        for i in range(1, 2 * ell + 2, 2):
            dfact *= i
        return (x**ell / dfact) * (1.0 - x * x / (2.0 * (2 * ell + 3)))
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if ell == 0:
        return j0
    if ell == 1:
        return j1
    m = int(max(ell, x)) + 60
    jp = 0.0
    j = 1e-30
    out = 0.0
    u0 = 0.0
    u1 = 0.0
    for k in range(m, 0, -1):
        jm = ((2.0 * k + 1.0) / x) * j - jp
        jp = j
        j = jm
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            out *= 1e-250
            u1 *= 1e-250
        kk = k - 1
        if kk == ell:
            out = j
        if kk == 1:
            u1 = j
        if kk == 0:
            u0 = j
    if abs(j0) >= abs(j1):
        scale = j0 / u0
    else:
        scale = j1 / u1
    return out * scale


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Supported orders are the nonnegative integers and half-integers (the
    orders arising for n in {2, 3}).  Absolute accuracy is ~1e-14 for
    x in [0, 60].
    """
    if order < 0:
        raise ValueError("negative orders not supported")
    if x < 0:
        raise ValueError("negative argument not supported")
    if _is_integer(order):
        nu = int(round(order))
        if x == 0.0:
            return 1.0 if nu == 0 else 0.0
        if x < 0.5:
            return _besselj_series(nu, x)
        return _besselj_int_miller(nu, x)
    if _is_half_integer(order):
        ell = int(math.floor(order))
        if x == 0.0:
            return 0.0
        return _spherical_jl(ell, x) * math.sqrt(2.0 * x / math.pi)
    raise ValueError(f"order {order} is neither integer nor half-integer")


def bessel_j_derivative(order: float, x: float) -> float:
    """d/dx J_order(x) via J'_nu = (nu/x) J_nu - J_{nu+1} (x > 0)."""
    if x <= 0:
        raise ValueError("derivative evaluated only for x > 0")
    return (order / x) * bessel_j(order, x) - bessel_j(order + 1.0, x)


def bessel_j_zeros(order: float, count: int, step: float = 0.05) -> list[float]:
    """First `count` positive zeros of J_order, by sign-change scan + bisection."""
    zeros: list[float] = []
    x = max(step, 0.5 * order)  # zeros of J_nu live beyond ~nu
    f_prev = bessel_j(order, x)
    while len(zeros) < count:
        x_next = x + step
        f_next = bessel_j(order, x_next)
        if f_prev == 0.0:
            zeros.append(x)
        elif f_prev * f_next < 0.0:
            lo, hi = x, x_next
            flo = f_prev
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = bessel_j(order, mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo < 1e-14 * max(1.0, mid):
                    break
            zeros.append(0.5 * (lo + hi))
        x, f_prev = x_next, f_next
        if x > 1e4:
            raise RuntimeError("zero scan ran away; check the order")
    return zeros


def lb_eigen(s: int, n: int) -> tuple[float, int]:
    """Laplace-Beltrami eigenvalue mu = s(s+n-2) on S^{n-1} and its multiplicity."""
    if s < 0:
        raise ValueError("degree must be >= 0")
    mu = float(s * (s + n - 2))
    if s == 0:
        return mu, 1
    d = (2 * s + n - 2) * math.factorial(s + n - 3) // (
        math.factorial(s) * math.factorial(n - 2)
    )
    return mu, d


def multiplicity(s: int, n: int) -> int:
    return lb_eigen(s, n)[1]


def harmonic_indices(n: int, max_degree: int) -> list[tuple[int, int]]:
    """All (degree, index) pairs up to max_degree, index within multiplicity."""
    out = []
    for s in range(max_degree + 1):
        for i in range(multiplicity(s, n)):
            out.append((s, i))
    return out


# ---------------------------------------------------------------------------
# real spherical harmonics
# ---------------------------------------------------------------------------


def _angles_from_directions(n: int, direction: np.ndarray):
    d = np.asarray(direction, dtype=float)
    if n == 2:
        return (np.arctan2(d[..., 1], d[..., 0]),)
    theta = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
    phi = np.arctan2(d[..., 1], d[..., 0])
    return theta, phi


def _legendre_norm(s: int, m: int) -> float:
    return math.sqrt(
        (2 * s + 1)
        / (4.0 * math.pi)
        * math.factorial(s - m)
        / math.factorial(s + m)
    )


def spherical_harmonic(n: int, s: int, i: int, direction) -> np.ndarray | float:
    """Real orthonormal spherical harmonic Y_{s,i} at unit direction(s).

    `direction` has shape (..., n).  For n=2, i=0 is the cosine branch and
    i=1 the sine branch; for n=3 the order is m = i - s.
    """
    if not 0 <= i < multiplicity(s, n):
        raise ValueError(f"index {i} out of range for degree {s}, n={n}")
    if n == 2:
        (theta,) = _angles_from_directions(2, direction)
        if s == 0:
            return np.full_like(theta, 1.0 / math.sqrt(2.0 * math.pi))
        if i == 0:
            return np.cos(s * theta) / math.sqrt(math.pi)
        return np.sin(s * theta) / math.sqrt(math.pi)
    if n == 3:
        theta, phi = _angles_from_directions(3, direction)
        m = i - s
        am = abs(m)
        p = lpmv(am, s, np.cos(theta))
        k = _legendre_norm(s, am)
        if m == 0:
            return k * p
        if m > 0:
            return math.sqrt(2.0) * k * p * np.cos(m * phi)
        return math.sqrt(2.0) * k * p * np.sin(am * phi)
    raise ValueError("n must be 2 or 3")


def _lpmv_dtheta(am: int, s: int, theta: np.ndarray) -> np.ndarray:
    # d/dtheta P_s^m(cos theta) = [s cos(th) P_s^m - (s+m) P_{s-1}^m]/sin(th)
    x = np.cos(theta)
    sin_t = np.sin(theta)
    p = lpmv(am, s, x)
    p_lower = lpmv(am, s - 1, x) if s - 1 >= am else np.zeros_like(x)
    return (s * x * p - (s + am) * p_lower) / sin_t


def spherical_harmonic_dtheta(n: int, s: int, i: int, direction) -> np.ndarray:
    """d/dtheta of Y_{s,i}; for n=3 theta is the polar angle (poles excluded)."""
    if n == 2:
        (theta,) = _angles_from_directions(2, direction)
        if s == 0:
            return np.zeros_like(theta)
        if i == 0:
            return -s * np.sin(s * theta) / math.sqrt(math.pi)
        return s * np.cos(s * theta) / math.sqrt(math.pi)
    theta, phi = _angles_from_directions(3, direction)
    m = i - s
    am = abs(m)
    dp = _lpmv_dtheta(am, s, theta)
    k = _legendre_norm(s, am)
    if m == 0:
        return k * dp
    if m > 0:
        return math.sqrt(2.0) * k * dp * np.cos(m * phi)
    return math.sqrt(2.0) * k * dp * np.sin(am * phi)


def spherical_harmonic_dphi(n: int, s: int, i: int, direction) -> np.ndarray:
    """d/dphi of Y_{s,i} (n=3 only; azimuthal derivative)."""
    if n != 3:
        raise ValueError("dphi is defined for n=3 only")
    theta, phi = _angles_from_directions(3, direction)
    m = i - s
    am = abs(m)
    if m == 0:
        return np.zeros_like(theta)
    p = lpmv(am, s, np.cos(theta))
    k = _legendre_norm(s, am)
    if m > 0:
        return -m * math.sqrt(2.0) * k * p * np.sin(m * phi)
    return am * math.sqrt(2.0) * k * p * np.cos(am * phi)


def synthesize(n: int, coeffs, directions, derivative: str | None = None) -> np.ndarray:
    """Harmonic sum of c * Y_{s,i} at unit directions of shape (..., n).

    `derivative` is None for the values, "theta" or "phi" for the angular
    derivatives.  A coefficient may be a scalar or an array that broadcasts
    against the points; zero terms are skipped and the others are added one
    at a time, in mapping order, so equal inputs give equal bits.
    """
    harmonic = {
        None: spherical_harmonic,
        "theta": spherical_harmonic_dtheta,
        "phi": spherical_harmonic_dphi,
    }.get(derivative)
    if harmonic is None:
        raise ValueError(f"derivative must be None, 'theta' or 'phi'; got {derivative!r}")
    d = np.asarray(directions, dtype=float)
    out = np.zeros(d.shape[:-1])
    for (s, i), c in coeffs.items():
        if np.any(c != 0.0):
            out = out + c * np.asarray(harmonic(n, s, i, d))
    return out


def tangential_gradient(n: int, s: int, i: int, direction) -> np.ndarray:
    """Tangential (surface) gradient of Y_{s,i} on the unit sphere.

    Returned as ambient vectors of shape (..., n); orthogonal to the
    direction, with |grad|^2 integrating to s(s+n-2) against the unit
    sphere for an orthonormal harmonic.
    """
    d = np.asarray(direction, dtype=float)
    if n == 2:
        (theta,) = _angles_from_directions(2, d)
        tau = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
        return spherical_harmonic_dtheta(2, s, i, d)[..., None] * tau
    theta, phi = _angles_from_directions(3, d)
    theta_hat = np.stack(
        [np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)],
        axis=-1,
    )
    phi_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    dth = spherical_harmonic_dtheta(3, s, i, d)
    dph = spherical_harmonic_dphi(3, s, i, d)
    return dth[..., None] * theta_hat + (dph / np.sin(theta))[..., None] * phi_hat


# ---------------------------------------------------------------------------
# quadrature on the unit sphere
# ---------------------------------------------------------------------------


class SphereQuadrature:
    """Quadrature nodes/weights on the unit sphere S^{n-1}.

    n=2: trapezoid rule on the circle (spectrally accurate for periodic
    integrands).  n=3: Gauss-Legendre in cos(theta) x trapezoid in phi.
    `weights` sum to the sphere measure (2 pi or 4 pi).
    """

    def __init__(self, n: int, order: int = 64):
        if n not in (2, 3):
            raise ValueError("n must be 2 or 3")
        self.n = n
        self.order = order
        if n == 2:
            theta = 2.0 * math.pi * np.arange(order) / order
            self.theta = theta
            self.phi = None
            self.directions = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
            self.weights = np.full(order, 2.0 * math.pi / order)
        else:
            x, w = np.polynomial.legendre.leggauss(order)
            theta_1d = np.arccos(x)
            phi_1d = 2.0 * math.pi * np.arange(order) / order
            theta, phi = np.meshgrid(theta_1d, phi_1d, indexing="ij")
            self.theta = theta.ravel()
            self.phi = phi.ravel()
            st = np.sin(self.theta)
            self.directions = np.stack(
                [st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)],
                axis=-1,
            )
            wt = np.repeat(w, order) * (2.0 * math.pi / order)
            self.weights = wt

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the unit sphere of a function sampled at the nodes."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


class HarmonicBasis:
    """Evaluation table of all Y_{s,i} with s <= max_degree on a quadrature."""

    def __init__(self, n: int, max_degree: int, quad: SphereQuadrature | None = None):
        self.n = n
        self.max_degree = max_degree
        self.quad = quad if quad is not None else SphereQuadrature(n)
        self.indices = harmonic_indices(n, max_degree)
        self.table = np.stack(
            [
                np.asarray(spherical_harmonic(n, s, i, self.quad.directions))
                for (s, i) in self.indices
            ]
        )

    def gram(self) -> np.ndarray:
        return (self.table * self.quad.weights) @ self.table.T

    def project(self, values: np.ndarray) -> dict[tuple[int, int], float]:
        """Coefficients of a node-sampled function w.r.t. the orthonormal basis."""
        coeffs = (self.table * self.quad.weights) @ np.asarray(values, dtype=float)
        return {si: float(c) for si, c in zip(self.indices, coeffs)}
