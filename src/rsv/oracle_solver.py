"""Brute-force PDE oracle on perturbed star domains.

Everything here treats the deformed domain r < R + t N + (t^2/2) W directly:
the torsion and first-eigenvalue problems are solved by Trefftz collocation
(the ansatz satisfies the PDE exactly, only the boundary condition is fitted
in least squares), and the resulting scalar maps t -> E(t), lam(t), S(t),
V(t) are differentiated by Richardson-extrapolated central differences.

The basis evaluations use scipy.special on purpose, keeping the oracle
independent of the in-repo special-function stack it is meant to check.
Its Bessel tables take scipy's values at the two top orders and fill the
lower orders by the standard downward recurrence (`_bessel_table`), not
by the in-repo Miller code, so scipy stays the only source of values.
Its Gauss rules are numpy's `leggauss`: the polar angles come from
`special_functions.polar_rule`, the one rule that `SphereQuadrature` also
takes (the trapezoid rule for n = 2, Gauss-Legendre in cos(theta) for
n = 3, whose weights sum to 4 pi to rounding), and the radii of the
eigenfunction integrals from the cached `special_functions.gauss_legendre`,
which only stores numpy's arrays.  A torsion state is a polynomial on each
ray, so its radial integrals are taken in closed form (`_torsion_integrals`)
on the collocation boundary, with no radial nodes and no second grid.
The domain itself (r and dr/dtheta on the boundary) comes from
`StarDomain.radius`, which defines the perturbed domain and is not shape
calculus.  The oracle uses neither `steklov` nor `variations`, and its
basis functions never touch the in-repo Bessel code (the ball eigenvalue
from `radial_solutions` only centres the lam search window, and its solve
rejects a robin-eigen alpha that is not positive).  The ball eigenvalues
are cached inside `radial_solutions`; the oracle still calls
`solve_robin_eigen_ball` / `solve_dirichlet_eigen_ball` by their names
here on every solve, so replacing those names moves the window.
Keeping the oracle apart from the formulas it checks is the one
duplication kept on purpose.

The solves of one finite-difference stencil or sweep form a family: the
domains of one PerturbationField at the same modes and kind, with the same
basis, boundary angle count and matrix shapes (`solve_perturbed_family`).
Every solve is one generator, driven by `_solve_family` for every kind, so
the trial on OVERSAMPLE angles per element and the repeat on
DECIDING_OVERSAMPLE are written once.  A torsion solve (`_torsion_solve`)
asks for nothing and ends on its first step.  An eigen solve
(`_eigen_solve`) asks for radial tables, one per secant slope and one for
the rows at lam*, and for the sigma kernel of the rows it builds from each
table; each round serves the tables of every member with one Bessel table
over all their points, and then their kernels with one stacked call.  The
table works element by element, so each member keeps the bits of a solve
of its own.  Each sigma(lam) takes one QR of the member's rows and the
smallest singular pair of their boundary block by inverse iteration on its
triangular factor, not a full SVD; only a close second singular value,
which the iteration would crawl through, sends the pair to LAPACK's SVD of
that factor (`_subspace_vectors`).  That linear algebra runs on the
stack of the round's blocks: numpy factors a stack matrix by matrix, so
each member keeps its bits too, and one call per round saves most of the
per-call cost that dominates at the small bases of the eigen reports.
The integrals stay per member, so one member's basis x nodes table is
held at a time.
Supported geometry: n = 2 with arbitrary band-limited boundary data, n = 3
restricted to zonal (axisymmetric) data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# jvp is not called here; perfbench/tracer.py wraps it by name
from scipy.special import eval_legendre, jv, jvp, spherical_jn  # noqa: F401

from .radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
)
from .special_functions import gauss_legendre, polar_rule
from .sphere_geometry import (
    PerturbationField,
    StarDomain,
    exact_surface_area,
    exact_volume,
    perturbed_domain,
)

# collocation angles per basis element.  A solve on fewer angles than
# DECIDING_OVERSAMPLE is kept only if it passes every check within
# 1/CHECK_MARGIN of its limit; otherwise the solve on DECIDING_OVERSAMPLE
# angles per element, with the limits themselves, decides (see `_collocation`)
OVERSAMPLE = 2
DECIDING_OVERSAMPLE = 4
CHECK_MARGIN = 2.0
RESIDUAL_LIMIT = 1e-6
CONDITION_LIMIT = 1e14
_SECANT_STEPS = 8  # secant steps before `_slope_root` gives up
# the largest entry change of an inverse-iteration step that moves its unit
# vector by rounding only (`_smallest_right_vectors`)
_SETTLED_STEP = 1e-15


# ---------------------------------------------------------------------------
# geometry on a polar angle grid
# ---------------------------------------------------------------------------


def _directions_from_theta(n: int, theta: np.ndarray) -> np.ndarray:
    if n == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)


@dataclass
class _Boundary:
    theta: np.ndarray
    w: np.ndarray | None  # angular weights of `polar_rule`; None midway
    r: np.ndarray
    nu_rho: np.ndarray  # radial component of the outward normal
    nu_theta: np.ndarray  # polar-tangent component
    dS: np.ndarray | None  # surface weights: sum dS f = boundary integral


def _rule_angles(n: int, count: int) -> np.ndarray:
    """The angles of `polar_rule(n, count)`, on which a solve fits."""
    return polar_rule(n, count)[0]


def _midway_angles(n: int, count: int) -> np.ndarray:
    """The angles midway between those of `polar_rule(n, count)`, the
    off-set sample of a collocation boundary: theta_k + pi/count for n = 2
    (the last one between theta_(count-1) and 2 pi), and the count - 1
    midpoints of consecutive Gauss angles for n = 3.  None of them is an
    angle of the rule."""
    theta = polar_rule(n, count)[0]
    if n == 2:
        return theta + math.pi / count
    return 0.5 * (theta[:-1] + theta[1:])


def _boundary(d: StarDomain, theta: np.ndarray, w: np.ndarray | None = None) -> _Boundary:
    """The boundary on the polar angles theta; with the weights w of
    `polar_rule` it carries the surface weights dS, without (as midway
    between the collocation angles) w and dS are None."""
    # sqrt(r^2 + r_theta^2) repeats the integrand of
    # `sphere_geometry.exact_surface_area` on purpose: the oracle stays
    # independent of the library geometry, so the two are not to be merged;
    # `StarDomain.radius`, which defines the domain, is all they share (the
    # memo of its sums sits below it)
    dirs = _directions_from_theta(d.n, theta)
    r = d.radius(dirs)
    rp = d.radius(dirs, "theta")
    g = np.sqrt(r * r + rp * rp)
    dS = None if w is None else w * g if d.n == 2 else w * r * g
    return _Boundary(theta, w, r, r / g, -rp / g, dS)


def _interior(bd: _Boundary, n: int, n_rho: int):
    """Tensor quadrature for volume integrals on the rays of the boundary
    angles: rho and weights, shaped (rays, n_rho)."""
    xg, wg = gauss_legendre(n_rho)
    rho = 0.5 * bd.r[:, None] * (xg[None, :] + 1.0)
    weight = 0.5 * bd.r[:, None] * wg[None, :] * rho ** (n - 1) * bd.w[:, None]
    # polar_rule's weights already carry the azimuthal factor for n=3
    return rho, weight


# ---------------------------------------------------------------------------
# Trefftz bases: every element solves the PDE in the interior exactly
# ---------------------------------------------------------------------------


def _angular_parts(n: int, modes: int, theta: np.ndarray):
    """Degrees k and angular factors T, dT/dtheta, shaped (basis, points)."""
    if n == 2:
        ks = [0]
        rows_t = [np.ones_like(theta)]
        rows_dt = [np.zeros_like(theta)]
        for k in range(1, modes + 1):
            cos_k, sin_k = np.cos(k * theta), np.sin(k * theta)
            ks += [k, k]
            rows_t += [cos_k, sin_k]
            rows_dt += [-k * sin_k, k * cos_k]
        return np.array(ks), np.vstack(rows_t), np.vstack(rows_dt)
    ls = np.arange(modes + 1)
    x = np.cos(theta)
    sin_t = np.sin(theta)
    T = eval_legendre(ls[:, None], x[None, :])
    shifted = T[np.maximum(ls - 1, 0)]  # P_{l-1}, P_0 in row 0
    # dP_l(cos t)/dt = l (cos t P_l - P_{l-1}) / sin t; zero on the axis
    with np.errstate(divide="ignore", invalid="ignore"):
        dT = np.where(
            sin_t[None, :] > 1e-14,
            ls[:, None] * (x[None, :] * T - shifted) / sin_t[None, :],
            0.0,
        )
    dT[0] = 0.0
    return ls, T, dT


@functools.lru_cache(maxsize=16)
def _grid_angular_parts(n: int, modes: int, angles, count: int):
    """`_angular_parts` on the angles `angles(n, count)` (`_rule_angles` or
    `_midway_angles`), which every boundary of that size shares; read-only,
    kept per grid.  Replaying the memo's keys over three rounds of the eigen
    CLI reports, 16 entries hit as often as an unbounded memo (the torsion
    reports need 8)."""
    parts = _angular_parts(n, modes, angles(n, count))
    for table in parts:
        table.flags.writeable = False
    return parts


def _radial_harmonic(top: int, rho: np.ndarray, scale: float) -> np.ndarray:
    """(rho/scale)^k for the orders k = 0..top, shaped (top + 1, points)."""
    return (rho[None, :] / scale) ** np.arange(top + 1)[:, None]


def _bessel_table(n: int, top: int, z: np.ndarray) -> np.ndarray:
    """J_k(z) (n = 2) or j_k(z) (n = 3) for the orders k = 0..top, shaped
    (top + 1, points), from two scipy seed orders.

    scipy evaluates the orders top - 1 and top only; the lower orders follow
    by the downward recurrence c_{k-1} = ((2k + n - 2)/z) c_k - c_{k+1},
    that is J_{k-1} = (2k/z) J_k - J_{k+1} (DLMF 10.6.1) and
    j_{l-1} = ((2l+1)/z) j_l - j_{l+1} (DLMF 10.51.1).  Downward is the
    stable direction for the regular solutions at the oracle's arguments
    (z up to about 4, orders up to 86).  A column (one point) whose top
    seed is zero or subnormal takes scipy's direct table instead: that is
    z = 0, and the underflow of high orders at tiny z, which begins near
    60 modes.  The recurrence works element by element, so a column's
    values do not depend on the other points in the call."""
    bessel = jv if n == 2 else spherical_jn
    table = np.empty((top + 1, z.size))
    table[-2:] = bessel(np.arange(top - 1, top + 1)[:, None], z[None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(top - 1, 0, -1):
            table[k - 1] = ((2 * k + n - 2) / z) * table[k] - table[k + 1]
    direct = ~(np.abs(table[-1]) >= np.finfo(float).tiny)
    if direct.any():
        table[:, direct] = bessel(np.arange(top + 1)[:, None], z[None, direct])
    return table


def _radial_wave(n: int, top: int, lam, rho: np.ndarray):
    """Radial factors solving the Helmholtz equation for the orders
    k = 0..top, shaped (top + 1, points), and their rho-derivatives.  `lam`
    is one value, or one per point, as when a family of solves shares one
    table; every column depends only on its own point and lam.

    The values are a view of one table over the orders 0..top+2
    (`_bessel_table`); the derivatives come from its neighbouring orders
    (`_wave_slopes`)."""
    k = np.sqrt(lam)
    z = k * rho
    table = _bessel_table(n, top + 2, z)
    return table[: top + 1], _wave_slopes(n, table, k, z)


def _wave_slopes(n: int, table: np.ndarray, k, z: np.ndarray) -> np.ndarray:
    """rho-derivatives of the orders 0..top of a `_bessel_table` over the
    orders 0..top+2 at z = k rho, shaped (top + 1, points):
    2 J_k' = J_{k-1} - J_{k+1} and J_0' = -J_1 (DLMF 10.6.1);
    j_l' = j_{l-1} - (l+1) j_l / z and j_0' = -j_1 (DLMF 10.51.2), which is
    0/0 at z = 0, where j_1'(0) = 1/3 and j_l'(0) = 0 for l >= 2.  So the
    values no longer equal scipy's direct jv / jvp /
    spherical_jn(derivative=True) bit for bit: at z in {0, 1e-3, 0.5, 3, 12}
    and orders up to 21 they agree to 4.3e-15 (n = 2) and 2.2e-14 (n = 3)
    of each column's largest entry, and at z = 0 they are exact."""
    top = table.shape[0] - 3
    # formed in place, operation by operation, without order-sized temporaries
    d = np.empty((top + 1, z.size))
    np.negative(table[1], out=d[0])
    if n == 2:
        np.subtract(table[:top], table[2 : top + 2], out=d[1:])
        d[1:] /= 2.0
    else:
        orders = np.arange(1, top + 1)[:, None]
        np.multiply(orders + 1.0, table[1 : top + 1], out=d[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:] /= z
            np.subtract(table[:top], d[1:], out=d[1:])
        on_axis = z == 0.0
        d[1:, on_axis] = 0.0
        d[1:2, on_axis] = 1.0 / 3.0
    d *= k
    return d


def _robin_rows(bd: _Boundary, alpha: float, Rf, dRf, T, dT) -> np.ndarray:
    """Collocation rows of du/dnu + alpha u: (points, basis) for the basis
    factors Rf, dRf (radial) and T, dT (angular) at the boundary points."""
    return (bd.nu_rho * (dRf * T) + bd.nu_theta * (Rf * dT) / bd.r + alpha * Rf * T).T


def _collocation(d: StarDomain, modes: int, per_element: int):
    """The collocation set-up both solves share, (degrees, fitted, midway):
    the boundary at `per_element` angles per basis element, which the solve
    fits, and the boundary at the angles midway between them, on which the
    fit is checked; each as (bd, T, dT) with its angular table.  Rejects a
    dimension other than 2 or 3, and non-zonal n = 3 data.

    The fitted residual alone cannot size the rule: at one angle per basis
    element the fit interpolates the condition to rounding, however far
    from met it is between the angles, so the fit is checked midway too.
    Nor does the midway check make a cheaper rule end every solve as the
    rule of DECIDING_OVERSAMPLE does: a case within a few percent of a
    limit can end either way (the survey is in the README and ROADMAP item
    4).  So a solve at OVERSAMPLE keeps its result only with a margin on
    every check (`_limit_share`), and the deciding rule decides the rest."""
    if d.n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if d.n == 3 and any(i != s for coeffs in (d.N, d.W) for s, i in coeffs):
        raise ValueError("n=3 oracle supports zonal (axisymmetric) data only")
    n_basis = 2 * modes + 1 if d.n == 2 else modes + 1
    count = per_element * n_basis
    degrees, T, dT = _grid_angular_parts(d.n, modes, _rule_angles, count)
    fitted = (_boundary(d, *polar_rule(d.n, count)), T, dT)
    _, T_mid, dT_mid = _grid_angular_parts(d.n, modes, _midway_angles, count)
    midway = (_boundary(d, _midway_angles(d.n, count)), T_mid, dT_mid)
    return degrees, fitted, midway


def _limit_share(per_element: int) -> float:
    """The share of each limit that a solve on `per_element` angles per
    basis element must stay under: all of it on the deciding rule, and
    1/CHECK_MARGIN on fewer angles, so that a result kept there leaves
    room under every limit for the spread between the two rules."""
    return 1.0 if per_element >= DECIDING_OVERSAMPLE else 1.0 / CHECK_MARGIN


def _check_residuals(fitted: float, midway: float, share: float, note: str = "") -> None:
    """Raises when the boundary residual on the collocation angles or the
    one midway between them exceeds `share` of RESIDUAL_LIMIT, giving both."""
    limit = share * RESIDUAL_LIMIT
    if fitted > limit or midway > limit:
        raise ArithmeticError(
            f"boundary residual {fitted:.2e} on the collocation angles, "
            f"{midway:.2e} midway between them, exceeds {limit:.0e}{note}"
        )


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass
class OracleSolution:
    """Collocation solution on one perturbed domain.

    The expansion coefficients multiply interior solutions of the PDE, so
    the only numerical defect is the boundary residual recorded here:
    max |boundary condition| on the collocation angles the solve fitted
    (`residual`), and at the angles midway between them (`midway_residual`,
    the off-set residual, which the fitted rows cannot hide).
    """

    kind: str
    domain: StarDomain
    alpha: float
    modes: int
    coefficients: np.ndarray
    lam: float | None
    residual: float
    midway_residual: float
    condition: float
    energy: float
    _scale: float
    # slope evaluations of the secant search, each one smallest singular pair
    sigma_evals: int = 0
    sigma_min: float = math.nan  # sigma at the located lam

    @property
    def n(self) -> int:
        return self.domain.n

    def _fields(self, rho: np.ndarray, angular) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, du/drho, (1/rho) du/dtheta) of an eigenfunction at the points
        rho[i, j] on the ray of angle theta[i] (zonal plane points for
        n = 3), given `angular` = _angular_parts(n, modes, theta), flattened
        in row order.  The last is NaN at rho = 0, where u and du/drho stay
        defined.  A torsion state needs no fields: `_torsion_integrals`
        integrates it along each ray in closed form.

        The radial tables hold one row per degree (cos and sin share one in
        2-D).  Each of the three products is gathered by degree into one
        basis x points buffer and multiplied there by its angular factor,
        which is constant on each ray; the products, and so the sums, are
        those of a node-by-node table bit for bit."""
        degrees, T, dT = angular
        rays = rho.shape
        rho = rho.ravel()
        k = np.sqrt(self.lam)
        z = k * rho
        table = _bessel_table(self.n, self.modes + 2, z)  # as in `_radial_wave`
        buf = np.empty((degrees.size, rho.size))
        rows = buf.reshape(-1, *rays)

        def summed(radial, factor):
            # mode="clip" lets take write into `out` directly; the default
            # "raise" goes through a hidden temporary of the same size
            np.take(radial, degrees, axis=0, out=buf, mode="clip")
            np.multiply(rows, factor[:, :, None], out=rows)
            return self.coefficients @ buf

        u = summed(table, T)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_ang = summed(table, dT) / rho
        # the slopes only now, and without the table: the two order-sized
        # tables and the buffer are never held at once
        slopes = _wave_slopes(self.n, table, k, z)
        del table
        return u, summed(slopes, T), u_ang


def _integrals(sol: OracleSolution, n_theta: int, n_rho: int):
    """(int |grad u|^2 dx, int u^2 dx, boundary int u^2 dS, u at the
    interior quadrature nodes) of an eigenfunction, by Gauss
    rules in rho on the rays of the boundary angles.

    One boundary on n_theta angles gives the boundary quadrature and the
    n_theta rays of the interior nodes, so one angular table serves both.
    The boundary point r_i ends ray i as one more node, so one radial table
    serves both too; every node keeps the bits of a table of its own."""
    bd = _boundary(sol.domain, *polar_rule(sol.n, n_theta))
    rho, w = _interior(bd, sol.n, n_rho)
    nodes = np.hstack([rho, bd.r[:, None]])
    angular = _grid_angular_parts(sol.n, sol.modes, _rule_angles, n_theta)
    vals, g_rho, g_ang = (
        field.reshape(nodes.shape) for field in sol._fields(nodes, angular)
    )
    inside = (slice(None), slice(n_rho))
    u_in = vals[inside].ravel()
    wf = w.ravel()
    int_grad_sq = float(wf @ (g_rho * g_rho + g_ang * g_ang)[inside].ravel())
    int_u_sq = float(wf @ (u_in * u_in))
    bvals = vals[:, n_rho]
    bd_u_sq = float(bd.dS @ (bvals * bvals))
    return int_grad_sq, int_u_sq, bd_u_sq, u_in


def _quad_sizes(modes: int) -> tuple[int, int]:
    """Angles and Gauss nodes per ray of the eigen `_integrals`.

    Along a ray the integrands are entire in rho (Bessel functions of k rho
    times angular factors), and Gauss-Legendre converges faster than
    geometrically on entire integrands, so 16 nodes reach rounding level at
    every basis size: on a seeded survey (8 to 40 modes, |t| <= 0.1, and
    the README family at 20 to 60 modes) the three integrals agree with
    modes + 40 nodes to 1.02e-14 relative, as the former max(48, modes + 8)
    nodes did (1.44e-14).  In angle the integrands are trigonometric or
    Legendre sums of degree about 2 modes, so the angles grow with the
    basis: max(32, 2 modes + 8) of `polar_rule` keep the Rayleigh quotient
    and int u^2 of every solved survey case within 2.9e-14 of 1000 angles
    (the former max(64, 4 modes + 16) angles: 3.0e-14) and move no case's
    outcome, while a flat 32 angles leave 4.5e-8 in the Dirichlet Rayleigh
    quotient of the README family at t = 0.2, 44 modes.  The ground-state
    check of `solve_perturbed_eigen` samples u on these interior nodes."""
    return max(32, 2 * modes + 8), 16


def _torsion_integrals(sol: OracleSolution, bd: _Boundary):
    """(int u dx, int |grad u|^2 dx, boundary int u^2 dS) of a torsion
    state, exact along each ray; only the angular rule of `polar_rule`
    remains, on the rays of `bd`, the boundary the collocation fitted.

    On the ray of angle theta_i, which meets the boundary at r_i, u is a
    polynomial in s = rho / r_i: u = sum_k a_ki s^k, with the harmonic terms
    of degree k (cos and sin share one in 2-D) and, at k = 2, the
    particular part -rho^2/(2n).  Likewise r_i (1/rho) du/dtheta =
    sum_k b_ki s^(k-1).  So, with v_ki = k a_ki,
      int_0^r_i u rho^(n-1) drho = r_i^n sum_k a_ki / (k + n),
      int_0^r_i |grad u|^2 rho^(n-1) drho = r_i^(n-2) (v_i' H v_i + b_i' H b_i),
    where H_kl = 1 / (k + l + n - 2) for k, l >= 1 (v_0 = b_0 = 0), and u at
    the boundary point is sum_k a_ki."""
    n = sol.n
    degrees, T, dT = _grid_angular_parts(n, sol.modes, _rule_angles, bd.theta.size)
    top = max(sol.modes, 2)
    # the coefficients summed by degree: row k holds those of degree k
    by_degree = np.zeros((top + 1, degrees.size))
    by_degree[degrees, np.arange(degrees.size)] = sol.coefficients
    powers = _radial_harmonic(top, bd.r, sol._scale)
    a = (by_degree @ T) * powers
    a[2] -= bd.r**2 / (2.0 * n)
    b = (by_degree[1:] @ dT) * powers[1:]
    k = np.arange(1.0, top + 1.0)
    H = 1.0 / (k[:, None] + k[None, :] + (n - 2))
    v = k[:, None] * a[1:]
    along = np.sum(v * (H @ v), axis=0) + np.sum(b * (H @ b), axis=0)
    int_u = float(bd.w @ (bd.r**n * ((1.0 / (np.arange(top + 1) + n)) @ a)))
    int_grad_sq = float(bd.w @ (bd.r ** (n - 2) * along))
    u_bd = np.sum(a, axis=0)
    bd_u_sq = float(bd.dS @ (u_bd * u_bd))
    return int_u, int_grad_sq, bd_u_sq


def _torsion_solve(d: StarDomain, alpha: float, modes: int, per_element: int):
    """One torsion solve (see `solve_perturbed_torsion`) on `per_element`
    angles per basis element as a family member (`_lockstep`): a generator
    that asks for no radial table, solves on its first step and returns the
    OracleSolution, its checks held to `_limit_share` of their limits."""
    yield from ()
    degrees, fitted, midway = _collocation(d, modes, per_element)
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    share = _limit_share(per_element)
    bd = fitted[0]
    scale = float(np.max(bd.r))

    def rows(bd: _Boundary, T, dT):
        """The Robin rows of the harmonic basis at the points of bd, and
        the right-hand side that cancels the particular part's."""
        z = _radial_harmonic(modes, bd.r, scale)
        dz = np.arange(modes + 1.0)[:, None] * z / bd.r  # r > 0 on a star domain
        dz[1] = 1.0 / scale  # exactly, where (r/scale)/r would round
        A = _robin_rows(bd, alpha, z[degrees], dz[degrees], T, dT)
        rhs = -(bd.nu_rho * (-bd.r / d.n) + alpha * (-bd.r**2 / (2.0 * d.n)))
        return A, rhs

    A, rhs = rows(*fitted)
    col_norm = np.linalg.norm(A, axis=0)
    col_scale = np.maximum(col_norm, 1e-8 * col_norm.max())
    y, _, _, svals = np.linalg.lstsq(A / col_scale, rhs, rcond=None)
    condition = float(svals[0] / svals[-1])
    coeffs = y / col_scale
    residual = float(np.max(np.abs(A @ coeffs - rhs)))
    A, rhs = rows(*midway)
    midway_residual = float(np.max(np.abs(A @ coeffs - rhs)))
    if condition > share * CONDITION_LIMIT:
        raise ArithmeticError(
            f"ill-conditioned collocation (estimate {condition:.2e})"
        )
    _check_residuals(
        residual, midway_residual, share, f" (condition estimate {condition:.2e})"
    )

    sol = OracleSolution(
        kind=TORSION,
        domain=d,
        alpha=alpha,
        modes=modes,
        coefficients=coeffs,
        lam=None,
        residual=residual,
        midway_residual=midway_residual,
        condition=condition,
        energy=math.nan,
        _scale=scale,
    )
    int_u, int_grad_sq, bd_u_sq = _torsion_integrals(sol, bd)
    sol.energy = int_grad_sq - 2.0 * int_u + alpha * bd_u_sq
    # weak form: testing the PDE with u itself gives E = -int u
    if abs(sol.energy + int_u) > share * 1e-9 * max(1.0, abs(sol.energy)):
        raise ArithmeticError(
            f"energy forms disagree: {sol.energy!r} vs {-int_u!r}"
        )
    return sol


def _subspace_vectors(B, M) -> list:
    """For each member g of G blocks of (boundary; interior) samples B[g],
    M[g], shaped (rows, k) and (interior, k) (two sequences or stacks):
    (sigma, coefficients c, condition estimate, Bc, Mc), or the LinAlgError
    that its block meets alone (G = 1).

    Columns are rescaled to unit norm before the QR, so tiny natural scales
    cost nothing; only underflowed (exactly zero) columns are dropped.  sigma
    is the smallest singular value of the orthonormalized boundary block:
    the smallest angle between the trial space and boundary-vanishing
    fields, small iff some trial combination nearly vanishes on the boundary
    while staying of unit size inside.  Only its smallest singular pair is
    needed, so the block is reduced to its triangular factor R_B (a QR
    without Q) and the right singular vector x found by inverse iteration
    on R_B (`_smallest_right_vectors`), which leaves for an SVD of R_B only
    at a close second singular value.  c is x taken back through R, so
    that |Bc|^2 + |Mc|^2 = 1; Bc and Mc come from the orthonormal factor,
    not from B @ c, and sigma = |Bc|.

    The members run as one stack through every call: numpy's linalg and
    matmul take a stack matrix by matrix, as they take one matrix (a
    stacked A @ A^T too, and a stacked x^T x as the dot of one vector), so
    each member keeps the bits of a call of its own, for a fraction of the
    per-call cost at the small bases of a family.  Members whose zero
    columns differ stack apart, each stack without its zero columns.  A
    stacked inverse, solve or hand-off SVD raises for the whole stack when
    one member is singular or not finite, so such a stack is redone member
    by member."""
    G, (rows, k) = len(B), B[0].shape
    # each member column by column, as `_eigen_solve`'s rows are laid out:
    # a column norm then sums along memory, and its bits follow the layout
    S = np.empty((G, k, rows + M[0].shape[0])).transpose(0, 2, 1)
    for g in range(G):
        S[g, :rows] = B[g]
        S[g, rows:] = M[g]
    norms = np.linalg.norm(S, axis=1)
    keep = norms > 0.0
    if not keep.all():
        return _without_zero_columns(B, M, keep)
    S /= norms[:, None, :]
    try:
        Q, R = np.linalg.qr(S)
        x = _smallest_right_vectors(np.linalg.qr(Q[:, :rows], mode="r"))
        y = np.linalg.solve(R, x)[:, :, 0]
    except np.linalg.LinAlgError as error:
        if G == 1:
            return [error]
        return [_subspace_vectors([B[g]], [M[g]])[0] for g in range(G)]
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    condition = diag.max(axis=1) / np.maximum(diag.min(axis=1), 1e-300)
    coeffs = y / norms
    Sc = Q @ x
    Bc = Sc[:, :rows]
    sigma = np.sqrt(Bc.transpose(0, 2, 1) @ Bc)
    return [
        (float(sigma[g, 0, 0]), coeffs[g], float(condition[g]), Bc[g, :, 0], Sc[g, rows:, 0])
        for g in range(G)
    ]


def _without_zero_columns(B, M, keep: np.ndarray) -> list:
    """`_subspace_vectors` of members with exactly zero columns (`keep` is
    False there): the members with the same zero columns stack together
    without them, and their c is 0 on those columns."""
    outcomes: list = [None] * len(keep)
    stacks: dict = {}
    for g, mask in enumerate(keep):
        stacks.setdefault(mask.tobytes(), []).append(g)
    for members in stacks.values():
        mask = keep[members[0]]
        part = _subspace_vectors(
            [B[g][:, mask] for g in members], [M[g][:, mask] for g in members]
        )
        for g, outcome in zip(members, part):
            if not isinstance(outcome, Exception):
                c = np.zeros(mask.size)
                c[mask] = outcome[1]
                outcome = (outcome[0], c, *outcome[2:])
            outcomes[g] = outcome
    return outcomes


def _smallest_right_vectors(R_B: np.ndarray) -> np.ndarray:
    """For each square upper-triangular R_B[g] of the stack, the unit right
    singular vector x[g] of its smallest singular value, a (G, k, 1) stack
    of columns, by inverse iteration with the positive definite
    P = (R_B^T R_B)^-1 = R_B^-1 R_B^-T: x <- P x / |P x| from
    x = 1/sqrt(k), until a step moves x by rounding only (no entry by more
    than _SETTLED_STEP).  As x . P x > 0, no step flips the sign of x.
    Each member stops on its own, and its steps are those of a stack of
    one.

    Pivots below eps max|pivot| are lifted to that floor, as LAPACK's
    inverse iteration does, so an exactly singular R_B (the Dirichlet ball
    at its own eigenvalue) still has an inverse, whose largest direction
    is the null vector.

    A step that shrinks the move by less than 4x (or is NaN) means a
    second singular value close to the smallest, and x alone would crawl
    toward its answer (far from an eigenvalue of the domain, or at the
    near pair of one degree's cos and sin on a perturbed disk) or drift by
    rounding inside an equal pair (on the disk itself).  There the vector
    comes from LAPACK's SVD of that member's R_B instead, which raises
    LinAlgError on a NaN R_B.  Every other step shrinks the move by 4x, and
    the first moves an entry of a unit vector by at most 2, so the
    iteration settles or leaves for the SVD within 27 steps."""
    pivots = np.abs(np.diagonal(R_B, axis1=1, axis2=2))
    floor = np.finfo(float).eps * pivots.max(axis=1, keepdims=True)
    low = pivots < floor
    if low.any():
        R_B = R_B.copy()
        g, j = np.nonzero(low)
        R_B[g, j, j] = np.copysign(floor[g, 0], R_B[g, j, j])
    inverse = np.linalg.inv(R_B)
    P = inverse @ inverse.transpose(0, 2, 1)
    # each step is one stacked matrix-vector product and one stacked dot
    # product x[g]^T x[g], which numpy takes as the dot of one vector: a
    # norm along a stack axis sums in another order
    x = np.full((*R_B.shape[:2], 1), 1.0 / math.sqrt(R_B.shape[1]))
    out = np.empty_like(x)
    last = np.full(len(x), math.inf)
    pending = np.arange(len(x))  # the members still iterating
    while pending.size:
        y = P @ x
        y /= np.sqrt(y.transpose(0, 2, 1) @ y)
        step = np.abs(y - x).max(axis=(1, 2))
        going = (step > _SETTLED_STEP) & (step <= last / 4.0)
        if not going.all():
            for j, g in zip(np.flatnonzero(~going), pending[~going]):
                settled = step[j] <= _SETTLED_STEP
                out[g, :, 0] = y[j, :, 0] if settled else np.linalg.svd(R_B[g])[2][-1]
            P, y, step, pending = P[going], y[going], step[going], pending[going]
        x, last = y, step
    return out


def _slope_root(lam0: float):
    """The secant search for lam*, the root of slope(lam) = d sigma^2 / d lam,
    as a generator: it yields each lam whose slope it needs, is sent that
    slope, and returns (lam*, slope evaluations).  A family of solves runs
    one search per member in lockstep (`_solve_family`).

    Near a simple eigenvalue sigma^2 is the parabola
    c^2 (lam - lam*)^2 + floor^2, so its slope is linear in lam and a secant
    through two slopes lands on lam* in one step.  The first pair is lam0
    and lam0 (1 -+ 0.02), downhill from lam0.  The answer is the next
    iterate x once |x - b| <= 1e-8 lam0 for a pair (a, b) no wider than
    1e-5 lam0: a secant through a far point can step that little and still
    miss lam* by 1e-10 relative.  A step of at most 1e-13 lam0 ends the
    search from any pair: then the slope of the last point is rounding, as
    at t = 0, where lam* = lam0.  An iterate outside [0.6, 1.5] lam0, a
    secant slope that is not positive (so not a minimum of sigma), or no
    answer within _SECANT_STEPS steps raises."""
    a, s_a = lam0, (yield lam0)
    b = lam0 * (0.98 if s_a > 0.0 else 1.02)
    s_b = yield b
    for evals in range(2, 2 + _SECANT_STEPS):
        rise = (s_b - s_a) / (b - a)
        x = float(b - s_b / rise) if rise > 0.0 else math.nan
        if not 0.6 * lam0 <= x <= 1.5 * lam0:
            break
        step = abs(x - b)
        if step <= 1e-13 * lam0 or (step <= 1e-8 * lam0 and abs(b - a) <= 1e-5 * lam0):
            return x, evals
        a, s_a, b, s_b = b, s_b, x, (yield x)
    raise ArithmeticError(
        "root isolation failed: no interior singular-value minimum "
        f"near lam = {lam0:.6g}"
    )


def _eigen_solve(d: StarDomain, alpha: float | None, modes: int, kind: str, per_element: int):
    """One eigen solve (see `solve_perturbed_eigen`) on `per_element`
    angles per basis element as a generator, which returns the
    OracleSolution, its checks held to `_limit_share` of their limits.
    After the set-up it asks `_lockstep` for two things in turn, once per
    slope that `_slope_root` asks for and once at lam*: it yields
    ("table", rho, lam) and is sent `_radial_wave(d.n, modes, lam, rho)`,
    then yields ("kernel", B, M) for the rows of that table and is sent
    their (sigma, c, condition, Bc, Mc) of `_subspace_vectors`, or that
    kernel's LinAlgError thrown in."""
    degrees, (bd, T, dT), (mid, T_mid, dT_mid) = _collocation(d, modes, per_element)
    share = _limit_share(per_element)
    if kind == ROBIN_EIGEN:
        lam0 = solve_robin_eigen_ball(d.n, d.R, alpha).lam
    else:
        alpha = 0.0
        lam0 = solve_dirichlet_eigen_ball(d.n, d.R).lam
    # interior sample rings normalizing the trial functions' bulk size, on
    # every other boundary angle
    on_bd, int_r = bd.r.size, bd.r[::2]
    T_in = np.hstack([T[:, ::2], T[:, ::2]])
    # one radial table per evaluation, boundary points first
    rho = np.concatenate([bd.r, 0.45 * int_r, 0.8 * int_r])
    orders = np.arange(modes + 1.0)[:, None]

    def condition_rows(b: _Boundary, Rf, df, T, dT) -> np.ndarray:
        """The boundary-condition rows at the points of b, from the radial
        factors Rf of the basis there; the Dirichlet rows need no df."""
        if kind == DIRICHLET_EIGEN:
            return (Rf * T).T
        return _robin_rows(b, alpha, Rf, df[degrees], T, dT)

    def rows(f, df) -> tuple[np.ndarray, np.ndarray]:
        """(B, M) from the radial tables on `rho`."""
        Rf = f[degrees]
        M = (Rf[:, on_bd:] * T_in).T
        if df is not None:
            df = df[:, :on_bd]
        return condition_rows(bd, Rf[:, :on_bd], df, T, dT), M

    def slope(lam: float, f, df) -> float:
        """d sigma^2 / d lam at lam, from the radial tables f, df on `rho`.

        The rows are linear in the radial tables, so B_lam and M_lam are
        rows() of df/dlam = (rho / 2 lam) df/drho and, by Bessel's
        equation, d(df/drho)/dlam = [(k(k+n-2)/(lam rho) - rho) f
        - (n-2) (df/drho) / lam] / 2.  A generator: it yields the kernel
        request of the rows at lam and returns the slope.  Its views of
        the round's table end before that request, and its arrays with it,
        before the solve waits on the next table."""
        B, M = rows(f, df)
        df_lam = None
        if kind != DIRICHLET_EIGEN:
            k_term = orders * (orders + (d.n - 2)) / (lam * rho)
            df_lam = ((k_term - rho) * f - ((d.n - 2) / lam) * df) / 2.0
        dB, dM = rows(rho / (2.0 * lam) * df, df_lam)
        del f, df, df_lam
        _, c, _, Bc, Mc = yield "kernel", B, M
        b, m = Bc @ Bc, Mc @ Mc
        # the envelope theorem: d/dlam of |Bc|^2 / (|Bc|^2 + |Mc|^2) at fixed c
        return 2.0 * ((Bc @ (dB @ c)) * m - b * (Mc @ (dM @ c))) / (b + m) ** 2

    search = _slope_root(lam0)
    lam = next(search)
    while True:
        try:
            lam = search.send((yield from slope(lam, *(yield "table", rho, lam))))
        except StopIteration as stop:
            lam, evals = stop.value
            break

    # the normalized eigenfunction at the located lam, checked; the table
    # of this round also covers the midway points, after those of `rho`
    f, df = yield "table", np.concatenate([rho, mid.r]), lam
    B, M = rows(f[:, : rho.size], df[:, : rho.size])
    B_mid = condition_rows(mid, f[degrees, rho.size :], df[:, rho.size :], T_mid, dT_mid)
    del f, df  # views of the round's table, which the integrals do not need
    sigma_min, coeffs, condition, _, _ = yield "kernel", B, M
    if condition > share * CONDITION_LIMIT:
        raise ArithmeticError(
            f"degenerate collocation basis near lam = {lam:.6g} "
            f"(condition estimate {condition:.2e})"
        )

    sol = OracleSolution(
        kind=kind,
        domain=d,
        alpha=alpha,
        modes=modes,
        coefficients=coeffs,
        lam=lam,
        residual=math.nan,
        midway_residual=math.nan,
        condition=condition,
        energy=lam,
        _scale=1.0,
        sigma_evals=evals,
        sigma_min=sigma_min,
    )
    n_theta, n_rho = _quad_sizes(modes)
    int_grad_sq, int_u_sq, bd_u_sq, u_in = _integrals(sol, n_theta, n_rho)
    # the ground state has one sign: make it positive on the interior nodes
    norm = math.copysign(math.sqrt(int_u_sq), float(np.sum(u_in)))
    sol.coefficients = coeffs / norm
    # only the first eigenfunction keeps one sign (a higher mode found in
    # the lam window changes sign somewhere on the interior grid), and its
    # Rayleigh quotient must reproduce lam; a failure reports both checks
    u_min = float(np.min(u_in / norm))
    rayleigh = (int_grad_sq + alpha * bd_u_sq) / int_u_sq
    one_sign = u_min > 0.0
    matches = abs(rayleigh - lam) <= share * 1e-8 * max(1.0, abs(lam))
    if not (one_sign and matches):
        sign = "keeps one sign" if one_sign else "changes sign inside the domain"
        raise ArithmeticError(
            f"lam = {lam!r} is not shown to be the first eigenvalue: the "
            f"eigenfunction {sign} (min u = {u_min:.3e} on the interior "
            f"quadrature nodes) and its Rayleigh quotient {rayleigh!r} "
            f"{'matches' if matches else 'disagrees with'} lam"
        )

    # the boundary-condition rows at lam* applied to the normalized u, on
    # the collocation angles and midway between them
    sol.residual = float(np.max(np.abs(B @ sol.coefficients)))
    sol.midway_residual = float(np.max(np.abs(B_mid @ sol.coefficients)))
    _check_residuals(sol.residual, sol.midway_residual, share)
    return sol


def _solve_family(domains: list[StarDomain], alpha, modes: int, kind: str) -> list:
    """The outcome of each domain's solve of `kind`, in order: its
    OracleSolution, or the exception the solve raised.  A caller that
    raises the first exception in this order ends as a run of one solve
    after the other would, whatever stage each member failed at: a later
    member's error (a boundary that is not star-shaped, say) never stands
    in for an earlier member's.  An unknown kind and mixed dimensions are
    refused before any solve.

    The family solves at OVERSAMPLE angles per basis element; the members
    whose solve raised, or passed a check by less than CHECK_MARGIN, then
    solve as a family of their own at DECIDING_OVERSAMPLE, which decides
    their outcomes (`_collocation`).  Once a member's solve has raised
    there, the outcomes after it cannot change the first exception, so
    the members after it are no longer served and their outcome is None."""
    if kind not in (TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN):
        raise ValueError(f"unsupported kind {kind!r}")
    mixed = [d.n for d in domains if d.n != domains[0].n]
    if mixed:
        raise ValueError(
            f"a family's domains differ in dimension: n = {domains[0].n} and n = {mixed[0]}"
        )
    outcomes = _lockstep(domains, alpha, modes, kind, OVERSAMPLE)
    redo = [i for i, outcome in enumerate(outcomes) if isinstance(outcome, Exception)]
    if redo and OVERSAMPLE < DECIDING_OVERSAMPLE:
        decided = _lockstep([domains[i] for i in redo], alpha, modes, kind, DECIDING_OVERSAMPLE)
        for i, outcome in zip(redo, decided):
            outcomes[i] = outcome
    return outcomes


def _lockstep(domains: list[StarDomain], alpha, modes: int, kind: str, per_element: int) -> list:
    """The outcome of each domain's solve on `per_element` angles per basis
    element, in order, with the solves run in lockstep: each member is a
    generator (`_torsion_solve` or `_eigen_solve`), and each round serves
    the pending request of every member (`_serve`).  An eigen member asks
    for a radial table, for a secant slope or the rows at lam*, and then for
    the sigma kernel of the rows it built from it: the tables of a round are
    one table over all their points, and its kernels one stacked call.  A
    torsion member asks for nothing and ends in the first round.  The table
    and the kernel keep every member's bits of a solve of its own; its
    rows, integrals and checks stay per member.
    At DECIDING_OVERSAMPLE or more angles per element a raised error is the
    member's outcome for good, so from then on the members after it are
    dropped unserved, their outcome left None."""
    outcomes: list = [None] * len(domains)
    solves = {
        i: _torsion_solve(d, alpha, modes, per_element)
        if kind == TORSION
        else _eigen_solve(d, alpha, modes, kind, per_element)
        for i, d in enumerate(domains)
    }
    # member -> what it is sent, None to start the solve; each member's
    # entry goes as it is served, so a round's table goes with the last of
    # its views, before the next round's table is built
    sent = dict.fromkeys(solves)
    served = len(domains)  # the members before this one are served
    while True:
        requests = {}  # member -> its request of this round
        for i, solve in solves.items():
            if i >= served:
                del sent[i]
                continue
            reply = sent.pop(i)
            try:
                if isinstance(reply, Exception):
                    requests[i] = solve.throw(reply)
                else:
                    requests[i] = solve.send(reply)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except (ArithmeticError, ValueError) as error:
                outcomes[i] = error
                if per_element >= DECIDING_OVERSAMPLE:
                    served = i + 1
        if not requests:
            return outcomes
        solves = {i: solves[i] for i in requests}
        sent = _serve(domains[0].n, modes, requests)


def _serve(n: int, modes: int, requests: dict) -> dict:
    """What each member is sent for its request in `requests`,
    ("table", rho, lam) or ("kernel", B, M): the table requests share one
    radial table over all their points, lam per point, and each member is
    sent its views of it; the kernel requests of one block shape are one
    `_subspace_vectors` call, and each member is sent its outcome."""
    sent = {}
    tables = {i: request[1:] for i, request in requests.items() if request[0] == "table"}
    if tables:
        sizes = [rho.size for rho, _ in tables.values()]
        lam = np.repeat([lam for _, lam in tables.values()], sizes)
        rho = np.concatenate([rho for rho, _ in tables.values()])
        f, df = _radial_wave(n, modes, lam, rho)
        starts = np.cumsum([0, *sizes])
        sent = {i: (f[:, a:b], df[:, a:b]) for i, a, b in zip(tables, starts, starts[1:])}
    stacks: dict = {}  # (B shape, M shape) -> the members with blocks of it
    for i, (what, B, M) in requests.items():
        if what == "kernel":
            stacks.setdefault((B.shape, M.shape), []).append(i)
    for members in stacks.values():
        B = [requests[i][1] for i in members]
        M = [requests[i][2] for i in members]
        sent.update(zip(members, _subspace_vectors(B, M)))
    return sent


def solve_perturbed_family(
    domains, alpha: float | None, modes: int, kind: str
) -> list[OracleSolution]:
    """The solve of `kind` on each of `domains`, the domains of one
    PerturbationField (a finite-difference stencil or a sweep), solved as
    one family (`_solve_family`): the eigen kinds' lam searches share one
    radial table per round, and each result keeps the bits of a solve of
    its own.  An unknown kind raises before any solve; then the first
    failing member, in the order given, raises its error."""
    outcomes = _solve_family(list(domains), alpha, modes, kind)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def solve_perturbed_torsion(
    d: StarDomain, alpha: float, modes: int = 32
) -> OracleSolution:
    """Torsion state on the perturbed domain: -Lap u = 1 inside,
    du/dnu + alpha u = 0 on the boundary; the family of
    `solve_perturbed_family` with one member.

    Ansatz: u = -|y|^2/(2n) + harmonic expansion up to degree `modes`; the
    Robin condition is fitted at OVERSAMPLE times as many equispaced
    collocation angles as there are basis functions, and its residual is
    checked there and at the angles midway between them.  A solve that
    raises, or passes a check by less than CHECK_MARGIN, is repeated at
    DECIDING_OVERSAMPLE angles per element, which decides (`_solve_family`).
    """
    return solve_perturbed_family([d], alpha, modes, TORSION)[0]


def solve_perturbed_eigen(
    d: StarDomain,
    alpha: float | None,
    modes: int = 20,
    kind: str = ROBIN_EIGEN,
) -> OracleSolution:
    """First eigenvalue lam(t) of -Lap u = lam u on the perturbed domain with
    the Robin (du/dnu + alpha u = 0) or Dirichlet (u = 0) condition; the
    family of `solve_perturbed_family` with one member.  The solve is one
    generator (`_eigen_solve`); `_lockstep` builds each radial table it
    asks for, those of the lam search and the one for the rows at lam*, and
    runs the sigma kernel of the rows of each, one stacked call per round
    for every member of a family.

    The boundary-condition collocation matrix B(lam) is built from wave
    ansatz elements, with interior samples M(lam) next to it; lam is the
    minimum near the ball value lam0 of sigma(lam)^2, the minimum over c of
    |Bc|^2 / (|Bc|^2 + |Mc|^2) (`_subspace_vectors`).  At the minimizing c
    the envelope theorem gives its slope exactly from the lam-derivatives
    of the rows, and `_slope_root` takes secant steps on that slope from
    lam0, inside the window [0.6, 1.5] lam0; library minimizers of sigma
    stop at sqrt(eps)|x|, too coarse for clean second differences of
    lam(t), while the root of the slope settles to rounding.  The
    ground-state check (u > 0 at every interior node) and the Rayleigh
    quotient of the reconstructed eigenfunction, which must reproduce lam
    to 1e-8, prove that the minimum found is the first eigenvalue; both
    run, and a failure reports both outcomes.  Both read `_integrals` on
    the rule of `_quad_sizes`, 16 Gauss nodes on each ray: a higher mode
    changes sign on whole lobes, which those nodes sample.  They reach
    rho/r = 0.9947, so a low-mode Dirichlet fit whose u dips below zero
    only closer to the boundary passes the ground-state check and fails the
    Rayleigh check.  The coefficients c are L2-normalized with the sign that
    makes the sum of u over the interior nodes positive, and the residual is
    max |B(lam) c|; the midway residual applies the boundary-condition rows
    at the angles midway between the collocation angles, whose radial
    table the round at lam* builds with the collocation one.  A solve at
    OVERSAMPLE that raises, or passes a check by less than CHECK_MARGIN,
    is repeated at DECIDING_OVERSAMPLE angles per element, which decides.
    """
    return solve_perturbed_family([d], alpha, modes, kind)[0]


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Derivatives:
    """First and second derivative at 0 with Richardson error estimates."""

    d1: float
    d2: float
    d1_error: float
    d2_error: float


def finite_difference_derivatives(
    f, h: float = 5e-3, richardson_levels: int = 1
) -> Derivatives:
    """Central differences of f at 0 over steps h 2^m, extrapolated.

    f maps a sequence of t to the sequence of its values, and is asked for
    the whole stencil in one call, in the order 0, +-2^levels h, ..., +-h
    (so `curve` solves it as one family).  The error estimate is
    the difference between the last two Richardson diagonals.  Raises when
    refinement makes the estimates worse (step too small, cancellation).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    if richardson_levels < 0:
        raise ValueError("richardson_levels must be >= 0")
    levels = richardson_levels
    steps = [h * 2.0 ** (levels - m) for m in range(levels + 1)]
    f0, *values = f([0.0, *(t for s in steps for t in (s, -s))])
    d1 = []
    d2 = []
    for s, fp, fm in zip(steps, values[::2], values[1::2]):
        d1.append([(fp - fm) / (2.0 * s)])
        d2.append([(fp - 2.0 * f0 + fm) / (s * s)])
    for m in range(1, levels + 1):
        for table in (d1, d2):
            for j in range(1, m + 1):
                factor = 4.0**j
                table[m].append(
                    (factor * table[m][j - 1] - table[m - 1][j - 1])
                    / (factor - 1.0)
                )
    if levels == 0:
        return Derivatives(float(d1[0][0]), float(d2[0][0]), math.nan, math.nan)
    diag1 = [d1[m][m] for m in range(levels + 1)]
    diag2 = [d2[m][m] for m in range(levels + 1)]
    err1 = abs(diag1[-1] - diag1[-2])
    err2 = abs(diag2[-1] - diag2[-2])
    if levels >= 2:
        prev1 = abs(diag1[-2] - diag1[-3])
        prev2 = abs(diag2[-2] - diag2[-3])
        scale = max(1.0, abs(diag2[-1]), abs(diag1[-1]))
        # noise floors are normal; only clear blow-up under refinement counts
        if (err1 > 10.0 * prev1 and err1 > 1e-4 * scale) or (
            err2 > 10.0 * prev2 and err2 > 1e-4 * scale
        ):
            raise ArithmeticError(
                "finite differences diverge under refinement; "
                "h is too small for the available precision"
            )
    return Derivatives(float(diag1[-1]), float(diag2[-1]), float(err1), float(err2))


# ---------------------------------------------------------------------------
# curves in t and sweep tables
# ---------------------------------------------------------------------------


def curve(p: PerturbationField, alpha: float | None, modes: int, kind: str):
    """ts -> E(t) for each t: the torsion energy or, for the eigen kinds,
    the first eigenvalue lam(t) on the perturbed family, with the ts solved
    as one family (`solve_perturbed_family`)."""

    def f(ts) -> list[float]:
        domains = [perturbed_domain(p, t) for t in ts]
        return [sol.energy for sol in solve_perturbed_family(domains, alpha, modes, kind)]

    return f


def surface_curve(p: PerturbationField):
    def f(ts) -> list[float]:
        return [exact_surface_area(perturbed_domain(p, t)) for t in ts]

    return f


def sweep_rows(
    p: PerturbationField,
    alpha: float,
    kind: str,
    ts,
    modes: int = 20,
) -> list[tuple[float, float, float, float, float]]:
    """Rows (t, E, lam, S, V) along the family; lam is NaN for torsion.  All
    ts solve as one family (`_solve_family`); the first row whose solve,
    area or volume fails raises, in t order."""
    domains = [perturbed_domain(p, float(t)) for t in ts]
    rows = []
    for d, sol in zip(domains, _solve_family(domains, alpha, modes, kind)):
        if isinstance(sol, Exception):
            raise sol
        lam = math.nan if sol.lam is None else sol.lam
        rows.append((d.t, float(sol.energy), float(lam), exact_surface_area(d), exact_volume(d)))
    return rows
