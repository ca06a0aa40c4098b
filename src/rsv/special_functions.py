"""Bessel functions, real spherical harmonics, and sphere quadrature.

Conventions used by every downstream module:

* spherical harmonics Y_{s,i} are real and orthonormal on the *unit* sphere
  S^{n-1}; integrals over a sphere of radius R carry explicit R^(n-1)
  factors at the call site;
* n=2 basis: 1/sqrt(2 pi), cos(s th)/sqrt(pi), sin(s th)/sqrt(pi)
  (index i=0 cosine branch, i=1 sine branch);
* n=3 basis: real associated-Legendre harmonics, index i = m + s with
  order m in [-s, s];
* Bessel J is evaluated in-repo: integer and half-integer orders share one
  downward recurrence and differ only in how it is normalized; scipy's
  Bessel J is only a test cross-check.  n=3 harmonics use scipy.special.lpmv.
"""

from __future__ import annotations

import functools
import math
import os
from typing import NamedTuple

import numpy as np
from scipy.special import lpmv

_HALF_INT_TOL = 1e-12


def _miller(nu: int, f: float, x: float) -> tuple[float, float, float, float]:
    """(c_nu, c_1, c_0, S) of the unnormalized downward (Miller) recurrence
    c_{k-1} = (2(k + f)/x) c_k - c_{k+1} for J_{k+f}, f in {0, 1/2} (DLMF
    10.6.1), from c_{m+1} = 0, c_m = 1e-30 at m = int(max(nu + f, x)) + 60,
    made even for integer orders.  Stable for every x > 0; a value past
    1e250 rescales everything kept by 1e-250.  Only integer orders sum
    S = 2 sum_{k>=1} c_{2k}: J_0 + 2 sum J_{2k} = 1 normalizes by c_0 + S."""
    m = int(max(nu + f, x)) + 60
    integer = f == 0.0
    if integer:
        m += m % 2
    t = 2.0 * (m + f)  # 2(k + f) for the running k
    jp = 0.0
    j = 1e-30
    out = 0.0
    even_sum = 0.0
    top = nu + 1
    for k in range(m, 0, -1):
        jm = (t / x) * j - jp
        t -= 2.0
        jp = j
        j = jm  # c_{k-1}
        if abs(j) > 1e250:
            j *= 1e-250
            jp *= 1e-250
            out *= 1e-250
            even_sum *= 1e-250
        if k == top:
            out = j
        if integer and k & 1 and k > 1:
            even_sum += 2.0 * j
    return out, jp, j, even_sum


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x).

    Supported orders are the nonnegative integers and half-integers (the
    orders arising for n in {2, 3}).  Both take one downward recurrence
    (`_miller`) at every x > 0, with no ascending series for integer
    orders.  Integer orders are normalized by J_0 + 2 sum J_{2k} = 1,
    half-integer orders by the closed-form J_{1/2} or J_{3/2}, whichever
    is farther from a zero, and below x = 1e-5 take the leading series
    terms.  Absolute accuracy is ~1e-14 for x in [0, 60]; for integer
    orders up to 30 and x <= 0.5 the error is also ~1e-13 relative.
    """
    if order < 0:
        raise ValueError("negative orders not supported")
    if x < 0:
        raise ValueError("negative argument not supported")
    doubled = round(2.0 * order)
    if abs(order - 0.5 * doubled) >= _HALF_INT_TOL:
        raise ValueError(f"order {order} is neither integer nor half-integer")
    nu = doubled // 2
    if x == 0.0:
        return 1.0 if doubled == 0 else 0.0
    if doubled % 2 == 0:
        c_nu, _, c_0, even_sum = _miller(nu, 0.0, x)
        return c_nu / (even_sum + c_0)
    # J_{nu+1/2}(x) = sqrt(2x/pi) j_nu(x), the spherical Bessel function
    root = math.sqrt(2.0 * x / math.pi)
    if x < 1e-5:
        # j_nu(x) ~ x^nu/(2nu+1)!! * (1 - x^2/(2(2nu+3)))
        dfact = 1.0
        for i in range(1, 2 * nu + 2, 2):
            dfact *= i
        return (x**nu / dfact) * (1.0 - x * x / (2.0 * (2 * nu + 3))) * root
    j0 = math.sin(x) / x
    j1 = math.sin(x) / (x * x) - math.cos(x) / x
    if nu == 0:
        return j0 * root
    if nu == 1:
        return j1 * root
    c_nu, c_1, c_0, _ = _miller(nu, 0.5, x)
    if abs(j0) >= abs(j1):
        return c_nu * (j0 / c_0) * root
    return c_nu * (j1 / c_1) * root


def bessel_j_zeros(order: float, count: int) -> list[float]:
    """First `count` positive zeros of J_order, by sign-change scan + bisection."""
    step = 0.05  # sign-change scan step
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
    """Laplace-Beltrami eigenvalue mu = s(s+n-2) on S^{n-1} and its multiplicity.

    The multiplicity (2s+n-2) (s+n-3)! / (s! (n-2)!) is taken as the sum of
    binomials C(s+n-2, n-2) + C(s+n-3, n-2), the same integer without the
    factorials."""
    if s < 0:
        raise ValueError("degree must be >= 0")
    mu = float(s * (s + n - 2))
    if s == 0:
        return mu, 1
    return mu, math.comb(s + n - 2, n - 2) + math.comb(s + n - 3, n - 2)


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


class _Angles(NamedTuple):
    """Angles of unit directions, taken once per grid of directions.

    theta is the circle angle for n=2 and the polar angle for n=3; phi is
    the azimuth (n=3 only).  For n=3, cos_unique[cos_inverse] is cos_theta
    and phi_unique[phi_inverse] is phi: the Legendre and the azimuthal
    factors are evaluated once per distinct cos(theta) and phi.  `values`
    holds the harmonic values and angular derivatives already evaluated on
    these directions, keyed by (s, i, part) (see `_harmonic_part`).
    """

    n: int
    theta: np.ndarray
    phi: np.ndarray | None
    cos_theta: np.ndarray
    sin_theta: np.ndarray
    cos_unique: np.ndarray | None = None
    cos_inverse: np.ndarray | None = None
    phi_unique: np.ndarray | None = None
    phi_inverse: np.ndarray | None = None
    values: dict | None = None


def _unique_bits(x) -> tuple[np.ndarray, np.ndarray]:
    """Distinct float64 values of x and the index map back, so that
    values[inverse] reproduces x bit for bit.  Values are keyed on their
    bit pattern: +0.0 and -0.0, and NaNs with different payloads, stay
    apart."""
    x = np.asarray(x, dtype=float)
    bits, inverse = np.unique(np.ravel(x).view(np.int64), return_inverse=True)
    return bits.view(np.float64), inverse.reshape(x.shape)


# highest degree whose rows `_harmonic_part` keeps for a grid
_MEMO_DEGREE = 8


def _angles(n: int, direction) -> _Angles:
    """The angles of `direction` (shape (..., n)), shared by every call on
    equal directions; see `_grid_angles`."""
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    d = np.asarray(direction, dtype=float)
    if d.ndim == 0 or d.shape[-1] != n:
        raise ValueError(f"directions of shape {d.shape} are not {n}-vectors (n={n})")
    return _grid_angles(n, d.shape, d.tobytes())


@functools.lru_cache(maxsize=18)
def _grid_angles(n: int, shape, dbytes) -> _Angles:
    """Angles and harmonic rows of one grid of directions, kept for the
    18 grids used last.

    The key is n and the shape and bytes of the directions, so +0.0 and
    -0.0 stay apart, and a miss rebuilds the directions from those bytes.
    Every array is read-only.  A grid keeps the rows of degree
    <= _MEMO_DEGREE asked of it, values and angular derivatives: at most
    3 * 81 rows (n=3) or 2 * 17 (n=2), so 243 * 8 bytes per direction, and
    9 * 8 more for the angles and the key: at most 8.3 MB for a
    SphereQuadrature(3, 64) grid, and at most about 150 MB if all 18 were
    such grids.  The oracle's grids (collocation, midway between its
    angles, integrals) hold at most max(32, 4 modes + 2) directions for
    n = 2 and max(32, 2 modes + 8) for n = 3, under 0.3 MB each up to 64
    modes.  Replaying the memo's keys over three rounds of each benchmark
    workload, 18 entries hit as often as an unbounded memo on the eigen CLI
    reports (17 grids; 12 entries miss 57 more of 732 calls, 4 miss 157),
    12 do on the torsion reports (12 grids), and the series scan asks for
    4 grids, so it never holds more than those.
    """
    d = np.frombuffer(dbytes).reshape(shape)
    if n == 2:
        theta = np.arctan2(d[..., 1], d[..., 0])
        ang = _Angles(n, theta, None, np.cos(theta), np.sin(theta), values={})
    else:
        theta = np.arccos(np.clip(d[..., 2], -1.0, 1.0))
        phi = np.arctan2(d[..., 1], d[..., 0])
        cos_theta = np.cos(theta)
        ang = _Angles(
            n, theta, phi, cos_theta, np.sin(theta),
            *_unique_bits(cos_theta), *_unique_bits(phi), values={},
        )
    for a in ang[1:-1]:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return ang


def _legendre_norm(s: int, m: int) -> float:
    return math.sqrt(
        (2 * s + 1)
        / (4.0 * math.pi)
        * math.factorial(s - m)
        / math.factorial(s + m)
    )


def _harmonic(s: int, i: int, ang: _Angles, part: int = 0) -> np.ndarray:
    """One part of Y_{s,i} at precomputed angles: 0 the value, 1 dY/dtheta,
    2 dY/dphi (n=3 only).  In n=3 every part takes lpmv(|m|, s, cos theta),
    and d/dtheta adds P_{s-1}^{|m|}:

        d/dtheta P_s^m(cos th) = [s cos(th) P_s^m - (s+m) P_{s-1}^m] / sin(th)

    (poles excluded).  `_angles` has already checked n.  lpmv runs on the
    distinct cos(theta) values and cos/sin(|m| phi) on the distinct phi,
    and both are gathered back to the points; being elementwise, they give
    the same bits as a call on every point.  Nothing is kept: this is the
    evaluator behind `_harmonic_part`'s memo.
    """
    n = ang.n
    if not 0 <= i < multiplicity(s, n):
        raise ValueError(f"index {i} out of range for degree {s}, n={n}")
    if n == 2:
        if part == 2:
            raise ValueError("dphi is defined for n=3 only")
        theta = ang.theta
        if s == 0:
            return np.full_like(theta, 1.0 / math.sqrt(2.0 * math.pi) if part == 0 else 0.0)
        # i = 0: cos(s theta), i = 1: sin(s theta); d/dtheta brings -+s and the other one
        trig, dtrig = (np.cos, np.sin) if i == 0 else (np.sin, np.cos)
        if part == 0:
            return trig(s * theta) / math.sqrt(math.pi)
        return (-s if i == 0 else s) * dtrig(s * theta) / math.sqrt(math.pi)
    m = i - s
    am = abs(m)
    if part == 2 and m == 0:
        return np.zeros_like(ang.theta)
    # the Legendre factor of the part: P_s^|m|, or its theta-derivative
    p = lpmv(am, s, ang.cos_unique)[ang.cos_inverse]
    k = _legendre_norm(s, am)
    if part == 1:
        x = ang.cos_theta
        if s - 1 >= am:
            p_lower = lpmv(am, s - 1, ang.cos_unique)[ang.cos_inverse]
        else:
            p_lower = np.zeros_like(x)
        p = (s * x * p - (s + am) * p_lower) / ang.sin_theta
    if m == 0:
        return k * p
    # m > 0: cos(m phi), m < 0: sin(|m| phi); d/dphi brings -m and the other one
    trig, dtrig = (np.cos, np.sin) if m > 0 else (np.sin, np.cos)
    if part == 2:
        return -m * math.sqrt(2.0) * k * p * dtrig(am * ang.phi_unique)[ang.phi_inverse]
    return math.sqrt(2.0) * k * p * trig(am * ang.phi_unique)[ang.phi_inverse]


def _harmonic_part(s: int, i: int, ang: _Angles, part: int) -> np.ndarray:
    """`_harmonic(s, i, ang, part)` at the angles of a grid from `_angles`,
    evaluated once per grid: rows of degree <= _MEMO_DEGREE are kept,
    read-only, in `ang.values` under (s, i, part)."""
    y = ang.values.get((s, i, part))
    if y is None:
        y = np.asarray(_harmonic(s, i, ang, part))
        if s <= _MEMO_DEGREE:
            y.flags.writeable = False
            ang.values[(s, i, part)] = y
    return y


def spherical_harmonic(n: int, s: int, i: int, direction) -> np.ndarray | float:
    """Real orthonormal spherical harmonic Y_{s,i} at unit direction(s).

    `direction` has shape (..., n).  For n=2, i=0 is the cosine branch and
    i=1 the sine branch; for n=3 the order is m = i - s.  The result is a
    new array on every call.
    """
    return _harmonic(s, i, _angles(n, direction))


_PARTS = {None: 0, "theta": 1, "phi": 2}


def synthesize(n: int, coeffs, directions, derivative: str | None = None) -> np.ndarray:
    """Harmonic sum of c * Y_{s,i} at unit directions of shape (..., n).

    `derivative` is None for the values, "theta" or "phi" for the angular
    derivatives.  A coefficient may be a scalar or an array that broadcasts
    against the points; zero terms are skipped and the others are added one
    at a time, in mapping order, so equal inputs give equal bits.  Every
    part comes from the grid's memo (`_harmonic_part`).
    """
    part = _PARTS.get(derivative)
    if part is None:
        raise ValueError(f"derivative must be None, 'theta' or 'phi'; got {derivative!r}")
    d = np.asarray(directions, dtype=float)
    ang = _angles(n, d)
    out = np.zeros(d.shape[:-1])
    for (s, i), c in coeffs.items():
        if np.any(c != 0.0):
            out = out + c * _harmonic_part(s, i, ang, part)
    return out


def _tangential_gradient(n: int, coeffs, directions) -> np.ndarray:
    """Tangential gradient of the harmonic sum of c * Y_{s,i}, shape (..., n)
    for unit directions of shape (..., n): the theta (and, for n=3, phi)
    derivative of `synthesize` times the unit frame vectors,

        d/dtheta theta_hat + (1 / sin theta) d/dphi phi_hat

    (theta_hat = (-sin theta, cos theta) for n=2).  Orthogonal to the
    direction; the poles are excluded for n=3."""
    ang = _angles(n, directions)
    if n == 2:
        frame = np.stack([-ang.sin_theta, ang.cos_theta], axis=-1)
        return synthesize(n, coeffs, directions, "theta")[..., None] * frame
    cos_phi = np.cos(ang.phi_unique)[ang.phi_inverse]
    sin_phi = np.sin(ang.phi_unique)[ang.phi_inverse]
    theta_hat = np.stack(
        [ang.cos_theta * cos_phi, ang.cos_theta * sin_phi, -ang.sin_theta], axis=-1
    )
    phi_hat = np.stack([-sin_phi, cos_phi, np.zeros_like(ang.phi)], axis=-1)
    grad = synthesize(n, coeffs, directions, "theta")[..., None] * theta_hat
    grad += (synthesize(n, coeffs, directions, "phi") / ang.sin_theta)[..., None] * phi_hat
    return grad


# ---------------------------------------------------------------------------
# quadrature on the unit sphere
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's `leggauss(count)` nodes and weights on [-1, 1], built once
    per count and shared; both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def default_quad_order() -> int:
    """Order of every sphere quadrature in the library: RSV_QUAD_ORDER, or 64."""
    text = os.environ.get("RSV_QUAD_ORDER", "64")
    try:
        order = int(text)
    except ValueError:
        order = 0
    if order < 1:
        raise ValueError(f"RSV_QUAD_ORDER: expected an integer >= 1, got {text!r}")
    return order


def polar_rule(n: int, count: int, azimuths: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """`count` polar angles theta_k and weights w_k of the sphere rules.

    n=2: the trapezoid rule theta_k = 2 pi k / count, w_k = 2 pi / count.
    n=3: Gauss-Legendre in cos(theta), theta_k = arccos(x_k) for numpy's
    `leggauss` nodes x_k, with w_k = 2 pi g_k / azimuths for its weights
    g_k: over `azimuths` equispaced azimuths the sum of w_k f(theta_k, phi)
    integrates f over S^2, and at the default of one azimuth
    sum w_k f(theta_k) integrates a function of theta alone.  The rule is
    exact for polynomials in cos(theta) of degree below 2 count, so the
    weights sum to 4 pi to rounding.  SphereQuadrature and the oracle's
    collocation and integrals take their polar angles from here."""
    if n == 2:
        return 2.0 * math.pi * np.arange(count) / count, np.full(count, 2.0 * math.pi / count)
    x, g = gauss_legendre(count)
    return np.arccos(x), g * (2.0 * math.pi / azimuths)


@functools.lru_cache(maxsize=8, typed=True)
def _sphere_nodes(n: int, order: int):
    """theta, phi (None for n=2), directions and weights of
    SphereQuadrature(n, order), built once per rule and shared read-only by
    every quadrature of it; the 8 rules used last are kept.  An n = 3 entry
    holds 6 * 8 bytes per node, about 200 KB at order 64, so the memo holds
    at most about 1.6 MB of order-64 rules."""
    if n == 2:
        theta, weights = polar_rule(2, order)
        phi = None
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        theta_1d, w = polar_rule(3, order, azimuths=order)
        phi_1d = polar_rule(2, order)[0]
        theta, phi = np.meshgrid(theta_1d, phi_1d, indexing="ij")
        theta = theta.ravel()
        phi = phi.ravel()
        st = np.sin(theta)
        directions = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
        weights = np.repeat(w, order)
    for a in (theta, phi, directions, weights):
        if a is not None:
            a.flags.writeable = False
    return theta, phi, directions, weights


class SphereQuadrature:
    """Quadrature nodes/weights on the unit sphere S^{n-1}.

    n=2: trapezoid rule on the circle (spectrally accurate for periodic
    integrands).  n=3: Gauss-Legendre in cos(theta) x trapezoid in phi;
    both factors are `polar_rule`'s.  `weights` sum to the sphere measure
    (2 pi or 4 pi).  The order defaults to `default_quad_order()`.  The
    node arrays are shared by every quadrature of the rule (`_sphere_nodes`)
    and are read-only.
    """

    def __init__(self, n: int, order: int | None = None):
        if n not in (2, 3):
            raise ValueError("n must be 2 or 3")
        order = default_quad_order() if order is None else order
        self.n = n
        self.order = order
        self.theta, self.phi, self.directions, self.weights = _sphere_nodes(n, order)

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the unit sphere of a function sampled at the nodes."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


@functools.lru_cache(maxsize=8)
def _projection_table(n: int, max_degree: int, order: int):
    """Indices, and the table of Y_{s,i}(x_q) w_q for all s <= max_degree
    on the nodes x_q and weights w_q of SphereQuadrature(n, order).

    Built on first use and kept for the process (n=3, degree 24, order 64
    holds about 20 MB); read-only because every HarmonicBasis on that grid
    shares it.  Its rows come from the uncached `_harmonic`, so the grid's
    memo does not hold a second copy of them.
    """
    quad = SphereQuadrature(n, order)
    ang = _angles(n, quad.directions)
    indices = tuple(harmonic_indices(n, max_degree))
    weighted = np.empty((len(indices), quad.weights.size))
    for row, (s, i) in zip(weighted, indices):
        row[:] = _harmonic(s, i, ang)
    weighted *= quad.weights
    weighted.flags.writeable = False
    return indices, weighted


class HarmonicBasis:
    """Weighted evaluation table `weighted[k, q]` = Y_k(x_q) w_q of all
    Y_{s,i} with s <= max_degree, in the order of `indices`, on the nodes
    x_q and weights w_q of a quadrature."""

    def __init__(self, n: int, max_degree: int, quad: SphereQuadrature | None = None):
        self.n = n
        self.max_degree = max_degree
        self.quad = quad if quad is not None else SphereQuadrature(n)
        if self.quad.n != n:
            raise ValueError(f"quadrature is for n={self.quad.n}, basis for n={n}")
        indices, self.weighted = _projection_table(n, max_degree, self.quad.order)
        self.indices = list(indices)

    def project(self, values: np.ndarray) -> dict[tuple[int, int], float]:
        """Coefficients of a node-sampled function w.r.t. the orthonormal basis."""
        coeffs = self.weighted @ np.asarray(values, dtype=float)
        return {si: float(c) for si, c in zip(self.indices, coeffs)}
