"""The oracle's former node-by-node integrals, kept for swap tests.

`node_by_node_integrals` is `oracle_solver._integrals` as it was before the
interior quadrature took one angular table per ray: every interior node and
every boundary node gets its own angular factors, and the field at a node
is the coefficient sum over the products Rf * T of two node-by-node
tables.  The oracle now evaluates the angular factors once per distinct
angle and broadcasts them along each ray; the tests check that both give
the same bits.
"""

import numpy as np

from rsv.oracle_solver import (
    _angular_parts,
    _boundary,
    _interior,
    _radial_harmonic,
    _radial_wave,
)
from rsv.radial_solutions import TORSION


def node_by_node_fields(sol, rho, theta):
    """(u, du/drho, (1/rho) du/dtheta) at polar points, one table row per
    basis element and one column per point."""
    rho = np.asarray(rho, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    degrees, T, dT = _angular_parts(sol.n, sol.modes, theta)
    if sol.kind == TORSION:
        Rf, dRf = _radial_harmonic(degrees, rho, sol._scale)
    else:
        Rf, dRf = _radial_wave(sol.n, degrees, sol.lam, rho)
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
    bd = _boundary(sol.domain, n_theta)
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
