"""The oracle's former node-by-node integrals, kept for swap tests, and
`fields`, the oracle's eigenfunction fields at arbitrary polar points.

`node_by_node_integrals` is `oracle_solver._integrals` as it was before the
interior quadrature took one angular table per ray: every interior node and
every boundary node gets its own angular factors, and the field at a node
is the coefficient sum over the products Rf * T of two node-by-node
tables.  The oracle now evaluates the angular factors once per distinct
angle and broadcasts them along each ray; the tests check that both give
the same bits.  For a torsion state, whose integrals the oracle now takes in
closed form along each ray, `node_by_node_integrals` is the Gauss-rule
reference, and `node_by_node_fields` the one evaluation of its fields;
`torsion_gauss_integrals` is the same Gauss rule taking the angular factors
once per ray and the radial powers once per degree, for surveys of many
solves.

Its radial tables are the oracle's former ones too (`basis_row_harmonic`,
`basis_row_wave`): one row per basis element, so cos and sin rows of one
degree are computed or copied twice.  The oracle now keeps one row per
degree and gathers the rows it multiplies into one reused buffer.

`one_block_subspace_vector` is the sigma kernel as it was before a family's
blocks were stacked into one `oracle_solver._subspace_vectors` call: one
block, one member, with the inverse iteration as a loop of its own.
"""

import math

import numpy as np

from rsv.oracle_solver import _SETTLED_STEP, _angular_parts, _bessel_table, _boundary, _interior
from rsv.radial_solutions import TORSION
from rsv.special_functions import polar_rule


def basis_row_harmonic(degrees, rho, scale):
    """(rho/scale)^k and its rho-derivative, shaped (basis, points)."""
    k = degrees[:, None].astype(float)
    z = (rho[None, :] / scale) ** degrees[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dz = np.where(rho[None, :] > 0.0, k * z / rho[None, :], 0.0)
    # k = 1 has a finite slope at the origin
    dz[degrees == 1] = 1.0 / scale
    return z, dz


def basis_row_wave(n, degrees, lam, rho):
    """Helmholtz radial factors and their rho-derivatives, shaped (basis,
    points), from one `_bessel_table` over the orders 0..max(degrees)+2."""
    k = math.sqrt(lam)
    z = k * rho
    top = int(degrees.max())
    table = _bessel_table(n, top + 2, z)
    f = table[degrees]
    d = np.empty((top + 1, z.size))
    d[0] = -table[1]
    if n == 2:
        d[1:] = (table[:top] - table[2 : top + 2]) / 2.0
    else:
        orders = np.arange(1, top + 1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:] = table[:top] - (orders + 1.0) * table[1 : top + 1] / z
        on_axis = z == 0.0
        d[1:, on_axis] = 0.0
        d[1:2, on_axis] = 1.0 / 3.0
    return f, k * d[degrees]


def fields(sol, rho, theta):
    """(u, du/drho, (1/rho) du/dtheta) of an eigen `OracleSolution` at polar
    points (zonal plane points for n = 3), from one angular and one radial
    table.
    The last is NaN at rho = 0, where u and du/drho stay defined."""
    rho, theta = np.broadcast_arrays(
        np.asarray(rho, dtype=float).ravel(), np.asarray(theta, dtype=float).ravel()
    )
    return sol._fields(rho[:, None], _angular_parts(sol.n, sol.modes, theta))


def node_by_node_fields(sol, rho, theta):
    """(u, du/drho, (1/rho) du/dtheta) at polar points, one table row per
    basis element and one column per point."""
    rho = np.asarray(rho, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    degrees, T, dT = _angular_parts(sol.n, sol.modes, theta)
    if sol.kind == TORSION:
        Rf, dRf = basis_row_harmonic(degrees, rho, sol._scale)
    else:
        Rf, dRf = basis_row_wave(sol.n, degrees, sol.lam, rho)
    u = sol.coefficients @ (Rf * T)
    u_rho = sol.coefficients @ (dRf * T)
    with np.errstate(divide="ignore", invalid="ignore"):
        u_ang = sol.coefficients @ (Rf * dT) / rho
    if sol.kind == TORSION:
        u = u - rho**2 / (2.0 * sol.n)
        u_rho = u_rho - rho / sol.n
    return u, u_rho, u_ang


def node_by_node_integrals(sol, n_theta: int, n_rho: int):
    """(int u dx, int |grad u|^2 dx, int u^2 dx, boundary int u^2 dS,
    u at the interior quadrature nodes)."""
    bd = _boundary(sol.domain, *polar_rule(sol.n, n_theta))
    rho, w = _interior(bd, sol.n, n_rho)
    th_flat = np.broadcast_to(bd.theta[:, None], rho.shape).ravel()
    vals, g_rho, g_ang = node_by_node_fields(sol, rho.ravel(), th_flat)
    wf = w.ravel()
    int_u = float(wf @ vals)
    int_grad_sq = float(wf @ (g_rho * g_rho + g_ang * g_ang))
    int_u_sq = float(wf @ (vals * vals))
    bvals = node_by_node_fields(sol, bd.r, bd.theta)[0]
    bd_u_sq = float(bd.dS @ (bvals * bvals))
    return int_u, int_grad_sq, int_u_sq, bd_u_sq, vals


def torsion_gauss_integrals(sol, n_theta: int, n_rho: int):
    """(int u dx, int |grad u|^2 dx, boundary int u^2 dS) of a torsion state
    by the Gauss rules of `node_by_node_integrals`.  On each ray the
    coefficients are summed by degree against the angular factors of that
    ray, so u is a polynomial in s = rho/scale: the powers s^k are taken
    once per degree and summed by one matrix product per ray, and
    du/drho = sum_k k a_k s^(k-1) / scale reuses them."""
    n = sol.n
    bd = _boundary(sol.domain, *polar_rule(sol.n, n_theta))
    rho, w = _interior(bd, n, n_rho)
    degrees, T, dT = _angular_parts(n, sol.modes, bd.theta)
    top = int(degrees.max())
    by_degree = np.zeros((top + 1, degrees.size))
    by_degree[degrees, np.arange(degrees.size)] = sol.coefficients
    # (rays, degree, 1): the coefficient of s^k on each ray
    a = (by_degree @ T).T[:, :, None]
    b = (by_degree @ dT).T[:, :, None]
    slope = np.arange(1.0, top + 1.0)[:, None] * a[:, 1:] / sol._scale
    k = np.arange(top + 1.0)
    z = (rho / sol._scale)[..., None] ** k  # (rays, nodes, degree)
    u = (z @ a)[..., 0] - rho**2 / (2.0 * n)
    u_rho = (z[..., :top] @ slope)[..., 0] - rho / n
    u_ang = (z @ b)[..., 0] / rho
    z_bd = (bd.r / sol._scale)[:, None] ** k
    u_bd = np.sum(z_bd * a[..., 0], axis=1) - bd.r**2 / (2.0 * n)
    int_u = float(np.sum(w * u))
    int_grad_sq = float(np.sum(w * (u_rho * u_rho + u_ang * u_ang)))
    return int_u, int_grad_sq, float(bd.dS @ (u_bd * u_bd))


def one_block_subspace_vector(B, M):
    """(sigma, c, condition estimate, Bc, Mc) of one (boundary; interior)
    block, computed alone; the stacked samples are laid out column by
    column, as the eigen solve's rows are."""
    S = np.asfortranarray(np.vstack([B, M]))
    norms = np.linalg.norm(S, axis=0)
    keep = norms > 0.0
    Q, R = np.linalg.qr(S[:, keep] / norms[keep])
    rows = B.shape[0]
    R_B = np.linalg.qr(Q[:rows], mode="r")
    pivots = np.abs(np.diagonal(R_B))
    floor = np.finfo(float).eps * pivots.max()
    low = pivots < floor
    if low.any():
        R_B = R_B.copy()
        R_B[low, low] = np.copysign(floor, np.diagonal(R_B)[low])
    inverse = np.linalg.inv(R_B)
    P = inverse @ inverse.T
    x = np.full(R_B.shape[0], 1.0 / math.sqrt(R_B.shape[0]))
    last = math.inf
    while True:
        y = P @ x
        y /= np.linalg.norm(y)
        step = float(np.max(np.abs(y - x)))
        if step <= _SETTLED_STEP:
            x = y
            break
        if not step <= last / 4.0:
            x = np.linalg.svd(R_B)[2][-1]
            break
        x, last = y, step
    diag = np.abs(np.diagonal(R))
    condition = float(diag.max() / max(diag.min(), 1e-300))
    coeffs = np.zeros(norms.shape[0])
    coeffs[keep] = np.linalg.solve(R, x) / norms[keep]
    Sc = Q @ x
    Bc = Sc[:rows]
    return float(np.linalg.norm(Bc)), coeffs, condition, Bc, Sc[rows:]
