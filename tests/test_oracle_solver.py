import ast
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from golden_section import full_scan_bracket, golden_min, sigma_sq_min
from oracle_reference import (
    fields,
    node_by_node_fields,
    node_by_node_integrals,
    one_block_subspace_vector,
    torsion_gauss_integrals,
)
from scipy.optimize import brentq
from scipy.special import jv, jvp, spherical_jn

import rsv.oracle_solver as oracle_solver
from rsv.oracle_solver import (
    Derivatives,
    _bessel_table,
    _radial_wave,
    _slope_root,
    curve,
    finite_difference_derivatives,
    solve_perturbed_eigen,
    solve_perturbed_family,
    solve_perturbed_torsion,
    surface_curve,
    sweep_rows,
)
from rsv.radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.special_functions import SphereQuadrature
from rsv.sphere_geometry import (
    PerturbationField,
    StarDomain,
    exact_surface_area,
    exact_volume,
    perturbed_domain,
    second_order_volume_correction,
    surface_second_variation,
)
from rsv.variations import (
    dirichlet_variations,
    first_variation,
    second_variation_eigenvalue_ball,
    second_variation_energy_ball,
)

PI = math.pi
COS2T = {(2, 0): math.sqrt(PI)}
COS3T = {(3, 0): math.sqrt(PI)}
ZONAL = {(2, 2): 1.0}


def pfield(n, R, N):
    return PerturbationField(n, R, N, second_order_volume_correction(N, n, R))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def pointwise(g):
    """The curve ts -> [g(t) for t in ts] of a function of one t."""
    return lambda ts: [g(t) for t in ts]


def test_fd_polynomial():
    fd = finite_difference_derivatives(pointwise(lambda t: t * t), h=0.1, richardson_levels=1)
    assert fd.d1 == pytest.approx(0.0, abs=1e-14)
    assert fd.d2 == pytest.approx(2.0, abs=1e-12)


def test_fd_cosine_and_exponential():
    fd = finite_difference_derivatives(pointwise(math.cos), h=1e-2, richardson_levels=2)
    assert fd.d1 == pytest.approx(0.0, abs=1e-12)
    assert fd.d2 == pytest.approx(-1.0, abs=1e-10)
    assert fd.d2_error < 1e-8
    fd = finite_difference_derivatives(pointwise(math.exp), h=1e-2, richardson_levels=2)
    assert (fd.d1, fd.d2) == (pytest.approx(1.0, abs=1e-10), pytest.approx(1.0, abs=1e-8))


def test_fd_returns_a_derivatives_record():
    out = finite_difference_derivatives(pointwise(math.exp), h=1e-2)
    assert isinstance(out, Derivatives)
    assert (out.d1, out.d2) == (pytest.approx(1.0, abs=1e-4), pytest.approx(1.0, abs=1e-4))


def test_fd_rejects_bad_arguments():
    with pytest.raises(ValueError):
        finite_difference_derivatives(pointwise(math.exp), h=0.0)
    with pytest.raises(ValueError):
        finite_difference_derivatives(pointwise(math.exp), h=1e-2, richardson_levels=-1)


def test_fd_detects_cancellation():
    # at h = 1e-8 the second difference of cos is pure rounding noise
    with pytest.raises(ArithmeticError, match="too small"):
        finite_difference_derivatives(pointwise(math.cos), h=1e-8, richardson_levels=2)


def test_fd_asks_for_the_whole_stencil_in_one_call():
    # t = 0, then +s and -s from the largest step down: an oracle curve
    # solves the stencil as one family, and its first failing member in this
    # order is the one a solve-by-solve run would have met first
    calls = []

    def f(ts):
        calls.append(list(ts))
        return [math.exp(t) for t in ts]

    finite_difference_derivatives(f, h=1e-2, richardson_levels=2)
    assert calls == [[0.0, 0.04, -0.04, 0.02, -0.02, 0.01, -0.01]]


# ---------------------------------------------------------------------------
# torsion solver
# ---------------------------------------------------------------------------


def test_unperturbed_disk_matches_ball():
    sol = solve_perturbed_torsion(StarDomain(2, 1.0, {}, {}, 0.0), 1.0, modes=16)
    assert sol.residual <= 1e-12
    ball = solve_torsion_ball(2, 1.0, 1.0)
    assert sol.energy == pytest.approx(-5.0 * PI / 8.0, rel=2e-15, abs=0.0)
    assert sol.energy == pytest.approx(ball.energy(), rel=2e-15, abs=0.0)
    rho = np.linspace(0.05, 0.95, 9)
    theta = np.linspace(0.0, 6.0, 9)
    assert np.max(np.abs(node_by_node_fields(sol, rho, theta)[0] - ball.u(rho))) <= 1e-10


@pytest.mark.parametrize("modes", [16, 24, 28])
@pytest.mark.parametrize("alpha", [0.25, 1.0, 3.0, -0.7])
@pytest.mark.parametrize("R", [0.7, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3])
def test_unperturbed_ball_energy_to_the_last_bits(n, R, alpha, modes):
    # the radial integrals are exact and the polar weights sum to the
    # sphere's measure, so only rounding separates the oracle's energy from
    # the closed form (Gauss rules in rho: 1.1e-14; the former Gauss rule in
    # theta, whose weights missed 4 pi by 6.3e-15 at 28 modes: 6.9e-15)
    sol = solve_torsion_ball(n, R, alpha)
    oracle = solve_perturbed_torsion(StarDomain(n, R, {}, {}, 0.0), alpha, modes=modes)
    assert oracle.energy == pytest.approx(sol.energy(), rel=2e-15, abs=0.0)


@pytest.mark.parametrize("n", [2, 3])
def test_polar_weights_sum_to_the_sphere_measure(n):
    measure = 2.0 * PI if n == 2 else 4.0 * PI
    for count in range(8, 401):
        theta, w = oracle_solver.polar_rule(n, count)
        assert theta.shape == w.shape == (count,)
        assert abs(w.sum() - measure) <= 1e-15 * measure, count


def test_solves_build_no_sphere_quadrature(monkeypatch):
    # area and volume are the sweep's to compute, not every solve's
    init = SphereQuadrature.__init__
    builds = []

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SphereQuadrature, "__init__", counting)
    d = perturbed_domain(pfield(3, 1.0, {(2, 2): 0.1, (3, 3): -0.06, (4, 4): 0.04}), 0.02)
    solve_perturbed_torsion(d, 1.0, modes=28)
    assert builds == []
    solve_perturbed_eigen(d, 1.0, modes=8)
    assert builds == []


@pytest.mark.filterwarnings("error")
def test_values_at_the_centre():
    # u is defined at rho = 0 although (1/rho) du/dtheta is not
    sol = solve_perturbed_torsion(StarDomain(2, 1.0, {}, {}, 0.0), 1.0, modes=16)
    centre = float(solve_torsion_ball(2, 1.0, 1.0).u(0.0))
    assert node_by_node_fields(sol, [0.0], [0.0])[0][0] == pytest.approx(centre, abs=1e-10)


def test_unperturbed_ball_matches_n3():
    sol = solve_perturbed_torsion(StarDomain(3, 1.0, {}, {}, 0.0), 1.0, modes=12)
    assert sol.residual <= 1e-12
    assert sol.energy == pytest.approx(solve_torsion_ball(3, 1.0, 1.0).energy(), abs=1e-12)


def test_perturbed_residual_small():
    d = perturbed_domain(pfield(2, 1.0, COS2T), 0.05)
    sol = solve_perturbed_torsion(d, 1.0, modes=28)
    assert sol.residual <= 1e-8
    assert sol.condition < 1e6


def test_torsion_weak_form_disagreement_raises(monkeypatch):
    # E = -int u holds for the exact state; an int u off by 1e-6 relative
    # must stop the solve instead of returning an energy
    real = oracle_solver._torsion_integrals

    def skewed(sol, bd):
        int_u, *rest = real(sol, bd)
        return (int_u * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(oracle_solver, "_torsion_integrals", skewed)
    d = perturbed_domain(pfield(2, 1.0, COS2T), 0.05)
    with pytest.raises(ArithmeticError, match="energy forms disagree"):
        solve_perturbed_torsion(d, 1.0, modes=16)


def test_rotated_data_same_energy():
    # sin 2theta is cos 2theta in rotated coordinates: same domain shape
    p_cos = pfield(2, 1.0, COS2T)
    p_sin = pfield(2, 1.0, {(2, 1): math.sqrt(PI)})
    e_cos = solve_perturbed_torsion(perturbed_domain(p_cos, 0.05), 1.0, modes=28)
    e_sin = solve_perturbed_torsion(perturbed_domain(p_sin, 0.05), 1.0, modes=28)
    assert e_cos.energy == pytest.approx(e_sin.energy, abs=1e-11)


def test_non_star_domain_rejected():
    # one rule, in StarDomain.radius, for the oracle and the exact measures
    d = StarDomain(2, 1.0, {(2, 0): math.sqrt(PI)}, {}, 1.3)
    for measure in (lambda d: solve_perturbed_torsion(d, 1.0), exact_volume, exact_surface_area):
        with pytest.raises(ValueError, match="not star-shaped"):
            measure(d)
    # the t = 0 shortcut keeps the rule
    with pytest.raises(ValueError, match="not star-shaped"):
        StarDomain(2, 0.0, {}, {}, 0.0).radius([[1.0, 0.0]])


def test_nan_radius_rejected_before_lapack(monkeypatch):
    # NaN passes r <= 0; the rule asks for r > 0, so NaN data stop at the
    # domain and never reach the least-squares solve
    def no_lapack(*args, **kwargs):
        raise AssertionError("NaN data reached np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    d = StarDomain(2, 1.0, {(2, 0): math.nan}, {}, 0.1)
    for measure in (exact_volume, lambda d: solve_perturbed_torsion(d, 1.0, modes=16)):
        with pytest.raises(ValueError, match="not star-shaped"):
            measure(d)


def method_calls(monkeypatch, cls, name):
    """Calls of the method `name` of `cls` from now on, as a list."""
    calls = []
    method = getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(args)
        return method(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)
    return calls


@pytest.mark.parametrize("kind, modes", [(TORSION, 28), (ROBIN_EIGEN, 20)])
def test_torsion_samples_the_domain_on_two_grids_and_eigen_on_three(monkeypatch, kind, modes):
    # r and dr/dtheta on the collocation grid and on the angles midway
    # between its angles; eigen takes them once more on its quadrature grid,
    # whose rays also carry the interior nodes, while torsion integrates on
    # the collocation grid
    radius = method_calls(monkeypatch, StarDomain, "radius")
    fields = method_calls(monkeypatch, oracle_solver.OracleSolution, "_fields")
    d = readme_eigen_domain(0.05)
    if kind == TORSION:
        solve_perturbed_torsion(d, 1.0, modes)
    else:
        solve_perturbed_eigen(d, 1.0, modes)
    assert len(radius) == (4 if kind == TORSION else 6)
    # eigen: one integral pass, whose rays end at their boundary points; the
    # sign of the eigenfunction comes from the interior nodes already in
    # hand.  Torsion integrates its polynomials in closed form: no fields.
    assert len(fields) == (0 if kind == TORSION else 1)


def test_zero_alpha_rejected():
    with pytest.raises(ValueError):
        solve_perturbed_torsion(StarDomain(2, 1.0, {}, {}, 0.0), 0.0)


def test_n3_nonzonal_rejected():
    with pytest.raises(ValueError, match="zonal"):
        solve_perturbed_torsion(StarDomain(3, 1.0, {(2, 0): 1.0}, {}, 0.01), 1.0)


def test_residual_converges_spectrally():
    d = perturbed_domain(pfield(2, 1.0, COS2T), 0.05)
    residuals = [
        solve_perturbed_torsion(d, 1.0, modes=m).residual for m in (8, 16, 32, 64)
    ]
    for prev, nxt in zip(residuals, residuals[1:]):
        assert nxt <= max(0.25 * prev, 1e-12)


# ---------------------------------------------------------------------------
# eigenvalue solver
# ---------------------------------------------------------------------------


def test_unperturbed_robin_eigenvalue():
    sol = solve_perturbed_eigen(StarDomain(2, 1.0, {}, {}, 0.0), 1.0, modes=16)
    assert sol.lam == pytest.approx(solve_robin_eigen_ball(2, 1.0, 1.0).lam, abs=1e-9)
    assert sol.residual <= 1e-9


def test_unperturbed_dirichlet_eigenvalue():
    sol = solve_perturbed_eigen(
        StarDomain(2, 1.0, {}, {}, 0.0), None, modes=16, kind=DIRICHLET_EIGEN
    )
    assert sol.lam == pytest.approx(5.783185962946785, abs=1e-7)
    sol3 = solve_perturbed_eigen(
        StarDomain(3, 1.0, {}, {}, 0.0), None, modes=12, kind=DIRICHLET_EIGEN
    )
    assert sol3.lam == pytest.approx(PI * PI, abs=1e-7)


def test_perturbed_eigen_residual():
    d = perturbed_domain(pfield(2, 1.0, COS2T), 0.05)
    sol = solve_perturbed_eigen(d, 1.0, modes=24)
    assert sol.residual <= 1e-8


@pytest.mark.parametrize("kind", [ROBIN_EIGEN, DIRICHLET_EIGEN])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, {(2, 2): 1.0})])
def test_eigen_residual_is_the_boundary_condition_of_u(n, N, kind):
    # 12 modes leave a residual near 1e-8 (n = 2) and 1e-10 (n = 3), so a
    # residual of differently scaled coefficients misses by far more than 1e-12
    modes = 12
    d = perturbed_domain(pfield(n, 1.0, N), 0.05)
    sol = solve_perturbed_eigen(d, 1.0, modes=modes, kind=kind)
    n_basis = 2 * modes + 1 if n == 2 else modes + 1
    count = oracle_solver.OVERSAMPLE * n_basis
    bd = oracle_solver._boundary(d, *oracle_solver.polar_rule(n, count))
    u, u_rho, u_ang = fields(sol, bd.r, bd.theta)
    if kind == DIRICHLET_EIGEN:
        condition = u
    else:
        condition = bd.nu_rho * u_rho + bd.nu_theta * u_ang + sol.alpha * u
    assert sol.residual == pytest.approx(float(np.max(np.abs(condition))), abs=1e-12)


def midway_theta(n, count):
    """The angles midway between those of the collocation rule on `count`
    angles, from numpy's Gauss nodes for n = 3."""
    if n == 2:
        return 2.0 * PI * (np.arange(count) + 0.5) / count
    theta = np.arccos(np.polynomial.legendre.leggauss(count)[0])
    return (theta[:-1] + theta[1:]) / 2.0


@pytest.mark.parametrize("kind", [TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, {(2, 2): 1.0})])
def test_midway_residual_is_the_boundary_condition_between_the_collocation_angles(n, N, kind):
    # the residual off the collocation set: max |condition| of the solved u
    # midway between the collocation angles, where the fit was not made
    modes = 12
    d = perturbed_domain(pfield(n, 1.0, N), 0.05)
    if kind == TORSION:
        sol, field = solve_perturbed_torsion(d, 1.0, modes), node_by_node_fields
    else:
        sol, field = solve_perturbed_eigen(d, 1.0, modes, kind), fields
    n_basis = 2 * modes + 1 if n == 2 else modes + 1
    theta = midway_theta(n, oracle_solver.OVERSAMPLE * n_basis)
    if n == 2:
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    else:
        dirs = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    r, r_theta = d.radius(dirs), d.radius(dirs, "theta")
    u, u_rho, u_ang = field(sol, r, theta)
    if kind == DIRICHLET_EIGEN:
        condition = u
    else:
        condition = (r * u_rho - r_theta * u_ang) / np.hypot(r, r_theta) + sol.alpha * u
    midway = float(np.max(np.abs(condition)))
    assert sol.midway_residual == pytest.approx(midway, abs=1e-12)
    # a residual of its own, of the same size as the fitted one
    assert sol.midway_residual != sol.residual
    assert 0.1 < sol.midway_residual / sol.residual < 10.0


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("count", [5, 26, 75, 135])
def test_midway_angles_lie_strictly_between_the_collocation_angles(n, count):
    theta = oracle_solver.polar_rule(n, count)[0]
    midway = oracle_solver._midway_angles(n, count)
    assert np.intersect1d(theta, midway).size == 0
    assert np.allclose(midway, midway_theta(n, count), rtol=0.0, atol=1e-14)
    if n == 2:
        # one after each angle, the last one before 2 pi
        assert midway.size == count
        assert np.all(theta < midway) and np.all(midway < np.append(theta[1:], 2.0 * PI))
    else:
        # the Gauss angles fall from near pi to near 0: one between each pair
        assert midway.size == count - 1
        assert np.all(theta[1:] < midway) and np.all(midway < theta[:-1])


RESIDUALS = re.compile(
    r"boundary residual (\S+) on the collocation angles, (\S+) midway between them"
)


@pytest.mark.parametrize("kind", [TORSION, ROBIN_EIGEN])
def test_the_midway_check_catches_what_square_collocation_hides(monkeypatch, kind):
    # one angle per basis element interpolates the boundary condition: the
    # fitted residual is rounding, while the condition is far from met
    # between the angles, and only the midway sample sees it (one rule, so
    # no solve at more angles decides in its place)
    monkeypatch.setattr(oracle_solver, "OVERSAMPLE", 1)
    monkeypatch.setattr(oracle_solver, "DECIDING_OVERSAMPLE", 1)
    d = readme_eigen_domain(0.1)
    with pytest.raises(ArithmeticError, match="boundary residual") as error:
        if kind == TORSION:
            solve_perturbed_torsion(d, 1.0, 8)
        else:
            solve_perturbed_eigen(d, 1.0, 8)
    fitted, midway = map(float, RESIDUALS.search(str(error.value)).groups())
    assert fitted <= 1e-13
    assert midway > 10.0 * oracle_solver.RESIDUAL_LIMIT


def test_eigen_kind_validation(monkeypatch):
    d0 = StarDomain(2, 1.0, {}, {}, 0.0)
    with pytest.raises(ValueError):
        solve_perturbed_eigen(d0, None, kind=ROBIN_EIGEN)
    with pytest.raises(ValueError):
        solve_perturbed_eigen(d0, -1.0, kind=ROBIN_EIGEN)
    # an unknown kind is refused once, before any member's set-up, at the
    # sizes of a torsion call and of an eigen one
    set_ups = []
    monkeypatch.setattr(oracle_solver, "_collocation", lambda *args: set_ups.append(args))
    p, ts = pfield(2, 1.0, COS2T), [0.0, 0.01, -0.01]
    unknown = "^unsupported kind 'sloshing'$"
    with pytest.raises(ValueError, match=unknown):
        solve_perturbed_eigen(d0, 1.0, kind="sloshing")
    for modes in (32, 20):
        with pytest.raises(ValueError, match=unknown):
            solve_perturbed_family([perturbed_domain(p, t) for t in ts], 1.0, modes, "sloshing")
        with pytest.raises(ValueError, match=unknown):
            curve(p, 1.0, modes, "sloshing")(ts)
        with pytest.raises(ValueError, match=unknown):
            sweep_rows(p, 1.0, "sloshing", ts, modes)
    assert set_ups == []


def test_eigenvalue_even_in_t_for_mean_free_data():
    # lam'(0) = 0 for volume-preserving data, so lam(h) - lam(-h) = O(h^3);
    # mixed data breaks the accidental t -> -t congruence of single modes
    N = {(2, 0): 0.8, (3, 0): 0.5}
    p = pfield(2, 1.0, N)
    lam0, *lams = curve(p, 1.0, 16, ROBIN_EIGEN)([0.0, 0.04, -0.04, 0.02, -0.02])
    C = 50.0 * max(1.0, abs(lam0))
    for h, g_plus, g_minus in zip((0.04, 0.02), lams[::2], lams[1::2]):
        assert abs(g_plus - g_minus) <= C * h**3


def readme_eigen_domain(t):
    return perturbed_domain(pfield(2, 1.0, COS2T), t)


def test_eigen_solution_records_the_search():
    sol = solve_perturbed_eigen(readme_eigen_domain(0.01), 1.0)
    assert sol.sigma_evals == 4
    assert sol.sigma_min < 1e-6
    torsion = solve_perturbed_torsion(readme_eigen_domain(0.01), 1.0, modes=16)
    assert torsion.sigma_evals == 0
    assert math.isnan(torsion.sigma_min)


# README family (n = 2, 20 modes): lam0, its neighbour and one secant
# iterate at t = 0, where the next step is rounding; one iterate more
# elsewhere
@pytest.mark.parametrize("t, evals", [(0.0, 3), (0.005, 4), (-0.005, 4), (0.01, 4), (-0.02, 4)])
@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
def test_readme_family_sigma_evaluations(t, evals, alpha, kind):
    sol = solve_perturbed_eigen(readme_eigen_domain(t), alpha, 20, kind)
    assert sol.sigma_evals <= evals


def second_ball_eigenvalue(n, alpha):
    """The ball's second eigenvalue at R = 1: the first root k^2 of degree
    one, J_1 (n = 2) or j_1 (n = 3), under Dirichlet (alpha None) or Robin
    conditions."""
    if n == 2:
        f, df = (lambda k: jv(1, k)), (lambda k: jvp(1, k))
    else:
        f, df = (lambda k: spherical_jn(1, k)), (lambda k: spherical_jn(1, k, derivative=True))
    if alpha is None:
        return brentq(f, 2.5, 4.6) ** 2
    return brentq(lambda k: k * df(k) + alpha * f(k), 1.5, 4.6) ** 2


@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_second_mode_fails_the_ground_state_check(monkeypatch, n, N, alpha, kind):
    # centre the scan on the ball's second eigenvalue: the solver locks onto
    # a degree-one mode, which changes sign on the interior nodes
    second = types.SimpleNamespace(lam=second_ball_eigenvalue(n, alpha))
    monkeypatch.setattr(oracle_solver, "solve_robin_eigen_ball", lambda n, R, alpha: second)
    monkeypatch.setattr(oracle_solver, "solve_dirichlet_eigen_ball", lambda n, R: second)
    with pytest.raises(ArithmeticError, match="min u = -") as error:
        solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), 0.01), alpha, 12, kind)
    # a whole lobe of the normalized mode is negative, far from rounding,
    # while the mode is an eigenfunction all the same
    u_min = float(re.search(r"min u = (\S+) on", str(error.value)).group(1))
    assert u_min <= -0.5
    assert str(error.value).endswith("matches lam")
    # lam is a Python float, so the text reads plain numbers
    assert "np.float64" not in str(error.value)


@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_solution_lam_and_sigma_min_are_python_floats(n, N, alpha, kind):
    sol = solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), 0.01), alpha, 8, kind)
    assert type(sol.lam) is float and type(sol.sigma_min) is float


# ---------------------------------------------------------------------------
# Bessel tables
# ---------------------------------------------------------------------------

Z_SAMPLES = np.array([0.0, 1e-3, 0.5, 3.0, 12.0])
TOP_ORDER = 21
TABLE_TOL = 1e-13


def scipy_tables(n, degrees, z):
    """scipy's direct values and z-derivatives, shaped (degrees, points)."""
    ls, zs = np.broadcast_arrays(degrees[:, None], z[None, :])
    if n == 2:
        return jv(ls, zs), jvp(ls, zs, 1)
    return spherical_jn(ls, zs), spherical_jn(ls, zs, derivative=True)


def assert_columns_close(table, reference):
    # relative to each column's largest entry: the recurrence carries an
    # absolute error of a few ulps of the column's leading order
    scale = np.max(np.abs(reference), axis=0)
    assert np.all(scale > 0.0)
    assert np.all(np.abs(table - reference) <= TABLE_TOL * scale)


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_radial_wave_n2_equals_scipy(lam):
    # k = sqrt(lam) is 1 or 2, so z = k rho reproduces Z_SAMPLES exactly
    k = math.sqrt(lam)
    degrees = np.arange(TOP_ORDER + 1)
    f, df = _radial_wave(2, TOP_ORDER, lam, Z_SAMPLES / k)
    values, slopes = scipy_tables(2, degrees, Z_SAMPLES)
    assert_columns_close(f, values)
    assert_columns_close(df / k, slopes)
    assert np.array_equal(f[:, 0], (degrees == 0).astype(float))  # J_k(0) = delta_k0
    assert df[1, 0] == 0.5 * k  # J_1'(0) = 1/2


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_radial_wave_n3_equals_scipy(lam):
    k = math.sqrt(lam)
    degrees = np.arange(TOP_ORDER + 1)
    f, df = _radial_wave(3, TOP_ORDER, lam, Z_SAMPLES / k)
    values, slopes = scipy_tables(3, degrees, Z_SAMPLES)
    assert_columns_close(f, values)
    assert_columns_close(df / k, slopes)
    assert np.array_equal(f[:, 0], (degrees == 0).astype(float))  # j_l(0) = delta_l0
    assert df[1, 0] == k / 3.0  # j_1'(0) = 1/3


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("top", [61, 87])
def test_radial_wave_falls_back_to_scipy_where_the_top_seed_underflows(n, top):
    # seeds at the orders top - 1 and top; at top = 87 the seed underflows
    # at z = 1e-4 and 1.5e-3, at z = 0 it is zero for every top
    z = np.array([0.0, 1e-4, 1.5e-3])
    degrees = np.arange(top - 1)
    f, df = _radial_wave(n, top - 2, 1.0, z)
    values, slopes = scipy_tables(n, degrees, z)
    for table, reference in ((f, values), (df, slopes)):
        assert np.all(np.isfinite(table))
        assert_columns_close(table, reference)
    # the low orders are zero neither at every point nor at any one point
    for table in (f, df):
        assert np.all(np.any(table[:3] != 0.0, axis=1))
        assert np.all(np.any(table[:3] != 0.0, axis=0))


@pytest.mark.parametrize("n", [2, 3])
def test_bessel_table_columns_do_not_depend_on_the_other_points(n):
    # a family's searches share one table over all their points, so each
    # column must be what a table of its own points gives: z = 0 and, at top
    # 87, z = 1e-4, whose top seed underflows, take scipy's direct values in
    # one part and not in the other
    rng = np.random.default_rng(5)
    first = np.concatenate([[0.0, 1e-4], rng.uniform(0.0, 4.5, 40)])
    second = np.concatenate([rng.uniform(0.0, 4.5, 25), [3.0]])
    assert abs(jv(87, 1e-4)) < np.finfo(float).tiny
    for top in (22, 87):
        for parts in ((first, second), (second, first)):
            together = _bessel_table(n, top, np.concatenate(parts))
            apart = np.hstack([_bessel_table(n, top, z) for z in parts])
            assert np.array_equal(together.view(np.uint64), apart.view(np.uint64))


# ---------------------------------------------------------------------------
# the smallest singular pair: inverse iteration against the full SVD
# ---------------------------------------------------------------------------


def subspace_vector(B, M):
    """(sigma, c, condition, Bc, Mc) of the block (B, M) alone: the kernel
    `_subspace_vectors` on a stack of one, raising the error it gives."""
    (outcome,) = oracle_solver._subspace_vectors(B[None], M[None])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def svd_subspace_vector(B, M):
    """(sigma, c, Bc, Mc) of `subspace_vector` taken from a full SVD of the
    orthonormalized boundary block, as the oracle once did."""
    S = np.vstack([B, M])
    norms = np.linalg.norm(S, axis=0)
    keep = norms > 0.0
    Q, R = np.linalg.qr(S[:, keep] / norms[keep])
    _, svals, vt = np.linalg.svd(Q[: B.shape[0]], full_matrices=False)
    c = np.zeros(norms.size)
    c[keep] = np.linalg.solve(R, vt[-1]) / norms[keep]
    Sc = Q @ vt[-1]
    return svals[-1], c, Sc[: B.shape[0]], Sc[B.shape[0] :]


def assert_matches_the_svd(B, M, c_tol=1e-12, vector_tol=1e-14):
    """sigma to the rounding of a k-column SVD (sigma <= 1); c, Bc and Mc up
    to sign, Bc and Mc within `vector_tol` (which a near pair of singular
    values widens)."""
    sigma, c, _, Bc, Mc = subspace_vector(B, M)
    sigma_svd, c_svd, Bc_svd, Mc_svd = svd_subspace_vector(B, M)
    assert type(sigma) is float and abs(sigma - sigma_svd) <= B.shape[1] * 2e-16
    sign = math.copysign(1.0, c @ c_svd)
    assert np.max(np.abs(sign * c - c_svd)) <= c_tol * np.max(np.abs(c_svd))
    moved = sign * np.concatenate([Bc, Mc]) - np.concatenate([Bc_svd, Mc_svd])
    assert np.max(np.abs(moved)) <= vector_tol
    return sigma


def cs_block(rng, rows, cosines):
    """(B, M) with orthonormal columns whose boundary block B has exactly the
    singular values `cosines` (a CS decomposition), columns scaled apart."""
    k = len(cosines)
    U_B = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    U_M = np.linalg.qr(rng.normal(size=(rows, k)))[0]
    V = np.linalg.qr(rng.normal(size=(k, k)))[0]
    c = np.asarray(cosines, dtype=float)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, k)
    return (U_B * c) @ V.T * scales, (U_M * np.sqrt(1.0 - c * c)) @ V.T * scales


def counted_svd(monkeypatch):
    """Logs the shape of every np.linalg.svd call from here on; returns the
    log."""
    calls, real = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or real(a, **kw))
    return calls


@pytest.mark.parametrize("k", [5, 17, 41])
def test_subspace_vector_matches_the_svd_on_random_blocks(k):
    rng = np.random.default_rng(3400 + k)
    for _ in range(20):
        B, M = rng.normal(size=(2 * k, k)), rng.normal(size=(2 * k, k))
        assert_matches_the_svd(B, M)


@pytest.mark.parametrize("smallest", [1e-2, 1e-5, 1e-9, 1e-13, 0.0])
@pytest.mark.parametrize("k", [9, 25])
def test_subspace_vector_matches_the_svd_down_to_a_singular_boundary_block(k, smallest):
    rng = np.random.default_rng(3500 + k)
    cosines = [*rng.uniform(0.2, 0.99, k - 1), smallest]
    sigma = assert_matches_the_svd(*cs_block(rng, 2 * k, cosines))
    assert sigma <= smallest + 1e-15


@pytest.mark.parametrize(
    "pair",
    [
        (0.3, 0.3001),  # a near pair, which one vector alone would crawl through
        (0.3, 0.3),  # an equal pair, inside which one vector drifts by rounding
        (0.42, 0.6),  # far from an eigenvalue: sigma_1 / sigma_2 = 0.7
    ],
)
def test_subspace_vector_resolves_a_close_second_singular_value(monkeypatch, pair):
    rng = np.random.default_rng(3600)
    k = 21
    B, M = cs_block(rng, 2 * k, [*rng.uniform(0.7, 0.99, k - 2), pair[1], pair[0]])
    # at each pair a step shrinks the move by less than 4x, so the kernel
    # takes an SVD of the k x k R_B (the reference's is of the 2k x k Q_B)
    calls = counted_svd(monkeypatch)
    if pair[0] < pair[1]:
        # the pair's vectors are fixed to rounding / (1 - (sigma_1 / sigma_2)^2)
        assert_matches_the_svd(B, M, vector_tol=1e-15 / (1.0 - (pair[0] / pair[1]) ** 2))
    else:
        # any unit vector of the pair is an answer: sigma and |Bc| hold it
        sigma, c, _, Bc, Mc = subspace_vector(B, M)
        assert abs(sigma - 0.3) <= 1e-15 and abs(np.linalg.norm(B @ c) - 0.3) <= 1e-13
        assert abs(Bc @ Bc + Mc @ Mc - 1.0) <= 1e-14
    assert (k, k) in calls


def has_floored_pivot(B, M):
    """Whether the triangular factor of the block's orthonormalized
    boundary rows has a pivot below eps times its largest."""
    S = np.vstack([B, M])
    Q = np.linalg.qr(S / np.linalg.norm(S, axis=0))[0]
    pivots = np.abs(np.diagonal(np.linalg.qr(Q[: B.shape[0]], mode="r")))
    return bool(np.any(pivots < np.finfo(float).eps * pivots.max()))


def test_subspace_vector_matches_the_svd_on_the_dirichlet_ball_at_its_eigenvalue(monkeypatch):
    # at t = 0 the boundary rows at lam* have an exactly singular triangular
    # factor; without the pivot floor its inverse does not exist, and the
    # eigen-reports then failed on "changes sign inside the domain"
    blocks, real = [], oracle_solver._subspace_vectors
    monkeypatch.setattr(
        oracle_solver, "_subspace_vectors", lambda B, M: blocks.extend(zip(B, M)) or real(B, M)
    )
    for n, N in ((2, COS2T), (3, ZONAL)):
        solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), 0.0), None, 8, DIRICHLET_EIGEN)
    monkeypatch.undo()
    floored = 0
    for B, M in blocks:
        floored += has_floored_pivot(B, M)
        assert_matches_the_svd(B, M)
    assert floored > 0


def test_a_readme_family_solve_takes_no_svd(monkeypatch):
    # every step of its inverse iterations shrinks the move by 4x or more
    calls = counted_svd(monkeypatch)
    sol = solve_perturbed_eigen(readme_eigen_domain(0.01), 1.0, 20)
    assert sol.sigma_evals > 0 and calls == []


def test_a_nan_block_raises_linalg_error_instead_of_looping():
    R_B = np.triu(np.ones((5, 5)))
    R_B[2, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        oracle_solver._smallest_right_vectors(R_B[None])
    # so a family records it as that member's outcome, as any ValueError
    assert issubclass(np.linalg.LinAlgError, ValueError)


def test_the_second_mode_of_a_perturbed_disk_takes_the_svd_and_ends_as_before(monkeypatch):
    # cos 2 theta at t = 0.01, window on the disk's second (degree-one)
    # eigenvalue, whose cos and sin modes give a near pair of singular
    # values: some sigma evaluations take the SVD, and the solve still
    # fails the ground-state check with the numbers pinned here
    second = types.SimpleNamespace(lam=second_ball_eigenvalue(2, 1.0))
    monkeypatch.setattr(oracle_solver, "solve_robin_eigen_ball", lambda n, R, alpha: second)
    calls = counted_svd(monkeypatch)
    with pytest.raises(ArithmeticError) as error:
        solve_perturbed_eigen(perturbed_domain(pfield(2, 1.0, COS2T), 0.01), 1.0, 12)
    assert calls
    assert re.fullmatch(
        r"lam = 5\.7160369710813\d* is not shown to be the first eigenvalue: the "
        r"eigenfunction changes sign inside the domain \(min u = -8\.893e-01 on the "
        r"interior quadrature nodes\) and its Rayleigh quotient 5\.7160369710813\d* "
        r"matches lam",
        str(error.value),
    ), str(error.value)


def kernel_bits(outcome):
    """sigma, the condition estimate, c, Bc and Mc of a kernel outcome, as
    one uint64 array."""
    sigma, c, condition, Bc, Mc = outcome
    return np.concatenate([[sigma, condition], c, Bc, Mc]).view(np.uint64)


def stacked(blocks):
    """The kernel outcomes of the blocks [(B, M), ...] in one stacked call."""
    return oracle_solver._subspace_vectors([B for B, _ in blocks], [M for _, M in blocks])


def test_a_stacked_kernel_call_keeps_the_bits_of_one_block_calls(monkeypatch):
    # a lockstep round stacks its members' blocks into one call: each
    # member's outcome must be that of its block alone, and that of the
    # former one-block kernel, on blocks that take every branch of the
    # kernel: plain inverse iteration, the SVD of a near pair, a floored
    # pivot (the Dirichlet ball at its eigenvalue, n = 2 at 8 modes: 34 x 17
    # blocks) and a zero column
    real, ball = oracle_solver._subspace_vectors, []
    with monkeypatch.context() as patch:
        patch.setattr(
            oracle_solver, "_subspace_vectors", lambda B, M: ball.extend(zip(B, M)) or real(B, M)
        )
        solve_perturbed_eigen(perturbed_domain(pfield(2, 1.0, COS2T), 0.0), None, 8, DIRICHLET_EIGEN)
    ball = next(block for block in ball if has_floored_pivot(*block))
    rng = np.random.default_rng(3700)
    k = 17
    hollow = rng.normal(size=(2 * k, k)), rng.normal(size=(2 * k, k))
    for part in hollow:
        part[:, 5] = 0.0
    blocks = [
        (rng.normal(size=(2 * k, k)), rng.normal(size=(2 * k, k))),
        cs_block(rng, 2 * k, [*rng.uniform(0.7, 0.99, k - 2), 0.3001, 0.3]),
        ball,
        hollow,
        (rng.normal(size=(2 * k, k)), rng.normal(size=(2 * k, k))),
    ]
    assert all(B.shape == M.shape == (2 * k, k) for B, M in blocks)
    alone = [subspace_vector(B, M) for B, M in blocks]
    for one, (B, M) in zip(alone, blocks):
        assert np.array_equal(kernel_bits(one), kernel_bits(one_block_subspace_vector(B, M)))
    svds = counted_svd(monkeypatch)
    qrs, real_qr = [], np.linalg.qr
    monkeypatch.setattr(
        np.linalg, "qr", lambda a, mode="reduced": qrs.append((a.shape, mode)) or real_qr(a, mode)
    )
    together = stacked(blocks)
    for one, many in zip(alone, together):
        assert np.array_equal(kernel_bits(one), kernel_bits(many))
    assert (k, k) in svds
    # the block with a zero column stacks apart from the others, without it
    assert qrs == [
        ((4, 4 * k, k), "reduced"), ((4, 2 * k, k), "r"),
        ((1, 4 * k, k - 1), "reduced"), ((1, 2 * k, k - 1), "r"),
    ]
    assert together[3][1][5] == 0.0


def test_a_member_whose_kernel_raises_leaves_the_others_their_bits():
    # a stacked inverse, solve or SVD raises for the whole stack when one
    # member's block is singular or not finite (here an infinite entry,
    # whose scaled column is inf / inf = NaN), so the stack is redone one
    # member at a time: that member gets the LinAlgError of its own call,
    # and every other member the bits of its own
    rng = np.random.default_rng(3701)
    k = 17
    blocks = [cs_block(rng, 2 * k, rng.uniform(0.2, 0.99, k)) for _ in range(4)]
    blocks[2][0][3, 4] = np.inf
    with np.errstate(invalid="ignore"):
        outcomes = stacked(blocks)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            subspace_vector(*blocks[2])
    assert isinstance(outcomes[2], np.linalg.LinAlgError)
    assert str(outcomes[2]) == "SVD did not converge"
    for g in (0, 1, 3):
        assert np.array_equal(kernel_bits(outcomes[g]), kernel_bits(subspace_vector(*blocks[g])))


def test_a_kernel_error_ends_only_its_own_member_of_a_family(monkeypatch):
    # `_lockstep` throws a member's kernel error into its solve, which
    # raises it as its outcome; the other members solve as they would alone
    domains = [perturbed_domain(pfield(2, 1.0, COS2T), t) for t in (0.0, 0.01, -0.01)]
    rule = oracle_solver.OVERSAMPLE

    def lam(outcome):
        return float(outcome.lam).hex()

    alone = [lam(oracle_solver._lockstep([d], 1.0, 8, ROBIN_EIGEN, rule)[0]) for d in domains]
    real = oracle_solver._subspace_vectors
    failure = np.linalg.LinAlgError("SVD did not converge")

    def failing(B, M):
        out = real(B, M)
        if len(out) == 3:  # the first kernel round: the member of t = 0.01
            out[1] = failure
        return out

    monkeypatch.setattr(oracle_solver, "_subspace_vectors", failing)
    outcomes = oracle_solver._lockstep(domains, 1.0, 8, ROBIN_EIGEN, rule)
    assert outcomes[1] is failure
    assert [lam(outcomes[0]), lam(outcomes[2])] == [alone[0], alone[2]]

# ---------------------------------------------------------------------------
# lam search: secant steps on the slope of sigma^2
# ---------------------------------------------------------------------------

# the search's window and stop rule are relative to lam0
LAM0 = 1.5
XTOL = 1e-13 * LAM0
OFFSETS = [
    -0.1, -0.05, -0.02, -0.008, -1e-4, -2e-7, -2e-9, 0.0,
    3e-11, 2e-9, 1e-7, 1e-4, 0.005, 0.02, 0.05, 0.1,
]


def secant(slope, lam0):
    """`_slope_root` run to its end on one slope function."""
    search = _slope_root(lam0)
    lam = next(search)
    while True:
        try:
            lam = search.send(slope(lam))
        except StopIteration as stop:
            return stop.value


def counted_slope(slope):
    """slope, counting its calls, and the list of points it was called at."""
    calls = []

    def f(lam):
        calls.append(lam)
        return slope(lam)

    return f, calls


def bent_slope(lam_star, curve):
    """A slope with its root at lam*: (lam - lam*) / lam0, bent into
    expm1(curve x) / curve; a secant lands on the root of a straight one."""

    def slope(lam):
        x = (lam - lam_star) / LAM0
        return math.expm1(curve * x) / curve if curve else x

    return slope


@pytest.mark.parametrize("curve", [-3.0, -1.0, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("offset", OFFSETS)
def test_slope_root_finds_the_root(curve, offset):
    lam_star = LAM0 * (1.0 + offset)
    f, calls = counted_slope(bent_slope(lam_star, curve))
    lam, evals = secant(f, LAM0)
    assert abs(lam - lam_star) <= XTOL
    assert type(lam) is float
    assert evals == len(calls) <= 7
    assert 0.6 * LAM0 <= min(calls) and max(calls) <= 1.5 * LAM0


@pytest.mark.parametrize("offset", [-0.39, -0.3, -0.2, 0.2, 0.3, 0.49])
def test_slope_root_reaches_across_the_window_in_one_secant(offset):
    # lam0 and lam0 (1 -+ 0.02) on a straight slope: the first secant is exact
    lam_star = LAM0 * (1.0 + offset)
    f, calls = counted_slope(bent_slope(lam_star, 0.0))
    lam, evals = secant(f, LAM0)
    assert abs(lam - lam_star) <= XTOL
    assert evals == len(calls) == 3


@pytest.mark.parametrize("offset", [-0.45, -0.41, 0.51, 0.7])
def test_slope_root_rejects_a_root_outside_the_window(offset):
    f, calls = counted_slope(bent_slope(LAM0 * (1.0 + offset), 0.0))
    with pytest.raises(ArithmeticError, match="root isolation failed"):
        secant(f, LAM0)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "slope",
    [
        lambda lam: 0.0,  # flat
        lambda lam: 1.0,  # level: the secant has no slope
        lambda lam: LAM0 - lam,  # a maximum of sigma at lam0
        lambda lam: 1.01 * LAM0 - lam,  # a maximum off lam0
    ],
)
def test_slope_root_refuses_a_secant_slope_that_is_not_positive(slope):
    f, calls = counted_slope(slope)
    with pytest.raises(ArithmeticError, match="root isolation failed"):
        secant(f, LAM0)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "slope",
    [
        lambda lam: (lam - 1.013 * LAM0) ** 3,  # sigma^2 = (lam - lam*)^4
        lambda lam: (lam - 1.013 * LAM0) ** 5,
        lambda lam: math.copysign(1.0, lam - 1.013 * LAM0),  # a jump
    ],
)
def test_slope_root_gives_up_when_the_secant_does_not_settle(slope):
    # secants on a multiple root or a jump shrink their step by a fixed
    # factor at best, so the step cap runs out first
    f, calls = counted_slope(slope)
    with pytest.raises(ArithmeticError, match="root isolation failed"):
        secant(f, LAM0)
    assert 0.6 * LAM0 <= min(calls) and max(calls) <= 1.5 * LAM0
    assert len(calls) <= 2 + oracle_solver._SECANT_STEPS


@pytest.mark.parametrize("curve", [20.0, 50.0, 100.0])
@pytest.mark.parametrize("offset", [-2e-9, 1e-9, 3e-9])
def test_slope_root_does_not_stop_on_a_short_step_from_a_far_point(curve, offset):
    # lam* next to lam0 on a strongly bent slope: the secant through lam0
    # (1 + 0.02) and the first iterate steps far less than 1e-8 lam0, yet
    # misses lam* by 4e-11 to 3e-9 relative; only a pair within 1e-5 lam0
    # may end the search
    lam_star = LAM0 * (1.0 + offset)
    f, calls = counted_slope(bent_slope(lam_star, curve))
    lam, evals = secant(f, LAM0)
    assert abs(lam - lam_star) <= XTOL
    assert evals == len(calls) <= 6


def recorded_sigmas(monkeypatch):
    """The list that the sigma of every member of every `_subspace_vectors`
    call is appended to, in stack order."""
    real_vectors, sigmas = oracle_solver._subspace_vectors, []

    def vectors(B, M):
        out = real_vectors(B, M)
        sigmas.extend(outcome[0] for outcome in out)
        return out

    monkeypatch.setattr(oracle_solver, "_subspace_vectors", vectors)
    return sigmas


def member_slope(monkeypatch, d, alpha, modes, kind):
    """(slope, lam0) of one solve's search.  `_slope_root` is patched to ask
    for the lam given to slope(lam) (lam0 for None) and to record the slope
    it is sent; slope(lam) runs the member generator to that request and
    sends it a radial table of its own, then the kernel of the rows it asks
    for, as `_solve_family` does for a family of one."""
    lam0s, asked, slopes = [], [], []

    def search(lam0):
        lam0s.append(lam0)
        slopes.append((yield lam0 if asked[-1] is None else asked[-1]))
        yield lam0  # the solve is closed at this request

    monkeypatch.setattr(oracle_solver, "_slope_root", search)

    def slope(lam):
        asked.append(lam)
        solve = oracle_solver._eigen_solve(d, alpha, modes, kind, oracle_solver.OVERSAMPLE)
        _, rho, at = next(solve)
        _, B, M = solve.send(_radial_wave(d.n, modes, at, rho))
        solve.send(oracle_solver._subspace_vectors(B[None], M[None])[0])
        solve.close()
        return slopes[-1]

    slope(None)
    return slope, lam0s[0]


@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("where", ["lam0", "near lam*"])
def test_slope_matches_a_centred_difference_of_sigma_sq(monkeypatch, n, N, alpha, kind, where):
    d = perturbed_domain(pfield(n, 1.0, N), 0.02)
    lam_star = solve_perturbed_eigen(d, alpha, 20, kind).lam
    sigmas = recorded_sigmas(monkeypatch)
    slope, lam0 = member_slope(monkeypatch, d, alpha, 20, kind)
    lam = lam0 if where == "lam0" else lam_star * (1.0 + 1e-4)
    assert abs(lam - lam_star) >= 1e-5 * lam_star  # a slope well above rounding

    def sigma_sq(x):
        slope(x)
        return sigmas[-1] ** 2

    # the fourth-order centred difference at h = 1e-4 lam: the second-order
    # one is 1e-6 to 1e-5 off by truncation there, this one at most 3e-12
    h = 1e-4 * lam
    near, far = (sigma_sq(lam + j * h) - sigma_sq(lam - j * h) for j in (1, 2))
    centred = (8.0 * near - far) / (12.0 * h)
    assert abs(slope(lam) - centred) <= 1e-8 * abs(centred)


TRAP = {
    (2, 2): -0.04894501322013394,
    (3, 3): -0.08802305214116718,
    (4, 4): 0.09334895529959969,
}


def step_only_root(lam0):
    """`_slope_root` stopping on the first secant step below 1e-8 lam0,
    however wide the pair it came from."""
    a, s_a = lam0, (yield lam0)
    b = lam0 * (0.98 if s_a > 0.0 else 1.02)
    s_b = yield b
    for evals in range(2, 2 + oracle_solver._SECANT_STEPS):
        x = b - s_b * (b - a) / (s_b - s_a)
        if abs(x - b) <= 1e-8 * lam0:
            return float(x), evals
        a, s_a, b, s_b = b, s_b, x, (yield x)
    raise ArithmeticError("no short step")


@pytest.mark.parametrize("t", [0.005, -0.005])
def test_secant_lands_where_the_former_search_did_on_n3_dirichlet(monkeypatch, t):
    # n = 3 Dirichlet, 8 modes: here a secant through lam0 (1 - 0.02) steps
    # less than 1e-8 lam0 while still 7.7e-11 relative off lam*, so a
    # step-only stop rule ends too early; the secant lands where the former
    # full scan and parabola refine, swapped in, do
    d = perturbed_domain(pfield(3, 1.0, TRAP), t)
    lam, lam_before = lam_with(monkeypatch, parabola_refine, d, None, 8, DIRICHLET_EIGEN)
    assert abs(lam - lam_before) <= 1e-14 * lam_before
    monkeypatch.setattr(oracle_solver, "_slope_root", step_only_root)
    early = solve_perturbed_eigen(d, None, 8, DIRICHLET_EIGEN).lam
    assert abs(early - lam_before) >= 1e-11 * lam_before


GRID = np.linspace(0.6, 1.5, 37)


def lam_with(monkeypatch, refine, d, alpha, modes, kind):
    """lam (or the error text) of the secant, and of the former search in
    its place: sigma on every point of lam0 * GRID, then
    refine(sigma, a, m, b, lam0) on the lowest point m and its neighbours."""
    lam = solve_lam_or_error(d, alpha, modes, kind)
    with monkeypatch.context() as patch:
        sigmas = recorded_sigmas(patch)

        def former(f, lam0):
            grid = lam0 * GRID
            best = full_scan_bracket(f, grid, 16)
            if best is None:
                raise ArithmeticError(
                    "root isolation failed: no interior singular-value minimum "
                    f"near lam = {lam0:.6g}"
                )
            return refine(f, grid[best - 1], grid[best], grid[best + 1], lam0), 0

        patch.setattr(oracle_solver, "_slope_root", replayed(former, sigmas))
        return lam, solve_lam_or_error(d, alpha, modes, kind)


class Unseen(Exception):
    """A lam whose sigma a replayed search has not been given yet."""


def replayed(root, sigmas):
    """The search root(f, lam0), which calls f(lam) for sigma at lam, as a
    generator search like `_slope_root`.  root runs again from the start on
    the sigmas known so far; each lam it has not seen is yielded to the
    solve, which evaluates its slope there, and its sigma is the last one
    appended to `sigmas`."""

    def search(lam0):
        known = {}

        def f(lam):
            if lam not in known:
                raise Unseen(lam)
            return known[lam]

        while True:
            try:
                return root(f, lam0)
            except Unseen as unseen:
                lam = unseen.args[0]
                yield lam
                known[lam] = sigmas[-1]

    return search


def solve_lam_or_error(d, alpha, modes, kind):
    try:
        return solve_perturbed_eigen(d, alpha, modes, kind).lam
    except ArithmeticError as error:
        return str(error)


def parabola_refine(f, a, m, b, lam0):
    # the former answer: a vertex of sigma^2 parabolas at spacing 1e-8 lam0
    return sigma_sq_min(f, a, m, b, 1e-8 * lam0)


def golden_refine(f, a, m, b, lam0):
    # a 1e-13 lam0 bracket, which the rounding of sigma limits
    return golden_min(f, a, b, 1e-13 * lam0)


@pytest.mark.parametrize("t", [0.0, 0.01, -0.01])
@pytest.mark.parametrize(
    "n, N, alpha, kind",
    [
        (2, COS2T, 1.0, ROBIN_EIGEN),
        (2, COS2T, None, DIRICHLET_EIGEN),
        (3, ZONAL, 1.0, ROBIN_EIGEN),
    ],
)
def test_refine_agrees_with_golden_section(monkeypatch, t, n, N, alpha, kind):
    d = perturbed_domain(pfield(n, 1.0, N), t)
    lam, lam_golden = lam_with(monkeypatch, golden_refine, d, alpha, 20, kind)
    assert abs(lam - lam_golden) <= 1e-12 * lam_golden


@pytest.mark.parametrize("t", [0.05, -0.05])
@pytest.mark.parametrize(
    "n, N, alpha, kind",
    [(2, COS2T, 1.0, ROBIN_EIGEN), (3, ZONAL, None, DIRICHLET_EIGEN)],
)
def test_refine_agrees_with_golden_section_at_few_modes(monkeypatch, t, n, N, alpha, kind):
    # 8 modes leave sigma a floor of about 1e-7 at |t| = 0.05
    d = perturbed_domain(pfield(n, 1.0, N), t)
    lam, lam_golden = lam_with(monkeypatch, golden_refine, d, alpha, 8, kind)
    assert abs(lam - lam_golden) <= 1e-11 * lam_golden


def test_flat_slope_raises_after_two_evaluations(monkeypatch):
    # |Bc| = 0 at every lam: sigma^2 is flat, so is its slope
    real = oracle_solver._subspace_vectors
    calls = []

    def flat(B, M):
        calls.extend(block.shape for block in B)
        return [
            (sigma, c, condition, 0.0 * Bc, Mc) for sigma, c, condition, Bc, Mc in real(B, M)
        ]

    monkeypatch.setattr(oracle_solver, "_subspace_vectors", flat)
    with pytest.raises(ArithmeticError, match="root isolation failed"):
        solve_perturbed_eigen(readme_eigen_domain(0.01), 1.0, modes=8)
    # two at each rule: the solve at OVERSAMPLE raises, and so does the
    # deciding rule, on 17 basis elements
    assert calls == [
        (per_element * 17, 17)
        for per_element in (oracle_solver.OVERSAMPLE, oracle_solver.DECIDING_OVERSAMPLE)
        for _ in range(2)
    ]


@pytest.mark.parametrize("modes", [8, 20])
@pytest.mark.parametrize("t", [0.0, 0.01, -0.01, 0.05, -0.05])
@pytest.mark.parametrize(
    "n, N, alpha, kind",
    [
        (2, COS2T, 1.0, ROBIN_EIGEN),
        (2, COS2T, None, DIRICHLET_EIGEN),
        (3, ZONAL, 1.0, ROBIN_EIGEN),
        (3, ZONAL, None, DIRICHLET_EIGEN),
    ],
)
def test_secant_agrees_with_the_full_scan(monkeypatch, modes, t, n, N, alpha, kind):
    d = perturbed_domain(pfield(n, 1.0, N), t)
    lam, lam_full = lam_with(monkeypatch, parabola_refine, d, alpha, modes, kind)
    if (n, kind, modes, abs(t)) == (2, DIRICHLET_EIGEN, 8, 0.05):
        # 8 modes cannot fit this boundary to the residual limit
        assert lam.startswith("boundary residual")
        assert NUMBER.sub("#", lam) == NUMBER.sub("#", lam_full)
    else:
        assert type(lam) is float
        assert abs(lam - lam_full) <= 1e-14 * lam_full


def ball_lam(n, alpha, kind):
    if kind == ROBIN_EIGEN:
        return solve_robin_eigen_ball(n, 1.0, alpha).lam
    return solve_dirichlet_eigen_ball(n, 1.0).lam


# lam0 = lam1 / 1.6 puts lam1 above the window's top 1.5 lam0, lam1 / 0.55
# below its bottom 0.6 lam0; in the Dirichlet window lam1 / 0.55 holds the
# second eigenvalue, where the full scan lands and the ground-state check
# rejects it; the secant lands there too for n = 3, and for n = 2 leaves the
# window first
@pytest.mark.parametrize("factor", [1.6, 0.55])
@pytest.mark.parametrize(
    "n, N, alpha, kind",
    [
        (2, COS2T, 1.0, ROBIN_EIGEN),
        (3, ZONAL, 1.0, ROBIN_EIGEN),
        (2, COS2T, None, DIRICHLET_EIGEN),
        (3, ZONAL, None, DIRICHLET_EIGEN),
    ],
)
def test_lam1_outside_the_window_raises_as_the_full_scan(
    monkeypatch, factor, n, N, alpha, kind
):
    shifted = types.SimpleNamespace(lam=ball_lam(n, alpha, kind) / factor)
    monkeypatch.setattr(oracle_solver, "solve_robin_eigen_ball", lambda n, R, a: shifted)
    monkeypatch.setattr(oracle_solver, "solve_dirichlet_eigen_ball", lambda n, R: shifted)
    d = perturbed_domain(pfield(n, 1.0, N), 0.01)
    secant, full = lam_with(monkeypatch, parabola_refine, d, alpha, 12, kind)
    if kind == DIRICHLET_EIGEN and factor == 0.55:
        assert "changes sign inside the domain" in full
        if n == 3:
            assert NUMBER.sub("#", secant) == NUMBER.sub("#", full)
        else:
            assert secant.startswith("root isolation failed")
    else:
        assert secant == full and secant.startswith("root isolation failed")


@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
def test_a_warm_ball_cache_leaves_the_patched_lam0_in_charge(monkeypatch, alpha, kind):
    # the ball eigenvalues are cached in radial_solutions, below the names the
    # oracle calls, so patching those names still moves the lam window
    d = perturbed_domain(pfield(2, 1.0, COS2T), 0.01)
    lam = solve_perturbed_eigen(d, alpha, 12, kind).lam  # warms the cache
    lam0 = ball_lam(2, alpha, kind)
    assert abs(lam - lam0) < 0.1 * lam0
    shifted = types.SimpleNamespace(lam=lam0 / 1.6)
    monkeypatch.setattr(oracle_solver, "solve_robin_eigen_ball", lambda n, R, a: shifted)
    monkeypatch.setattr(oracle_solver, "solve_dirichlet_eigen_ball", lambda n, R: shifted)
    message = f"root isolation failed: .* near lam = {shifted.lam:.6g}$"
    with pytest.raises(ArithmeticError, match=message):
        solve_perturbed_eigen(d, alpha, 12, kind)


# ---------------------------------------------------------------------------
# derivative cross-checks against the analytic machinery
# ---------------------------------------------------------------------------


def test_surface_second_derivative_matches():
    cases = [
        (2, COS2T),
        (2, COS3T),
        (3, {(2, 2): 1.0}),
    ]
    for n, N in cases:
        p = pfield(n, 1.0, N)
        fd = finite_difference_derivatives(surface_curve(p), h=1e-3, richardson_levels=2)
        want = surface_second_variation(N, n, 1.0)
        assert fd.d2 == pytest.approx(want, rel=1e-6)
        assert abs(fd.d1) <= 1e-8 * max(1.0, abs(want))


def test_volume_stationary_to_second_order():
    p = pfield(2, 1.0, COS2T)
    fd = finite_difference_derivatives(
        pointwise(lambda t: exact_volume(perturbed_domain(p, t))), h=1e-3, richardson_levels=2
    )
    assert abs(fd.d1) <= 1e-10
    assert abs(fd.d2) <= 1e-8


def test_torsion_first_derivative_vanishes():
    p = pfield(2, 1.0, COS2T)
    f = curve(p, 1.0, 28, TORSION)
    fd = finite_difference_derivatives(f, h=5e-3, richardson_levels=1)
    assert abs(fd.d1) <= 1e-6 * abs(f([0.0])[0])


@pytest.mark.parametrize("h", [1e-3, 5e-3, 1e-2])
def test_torsion_second_derivative_matches_series(h):
    p = pfield(2, 1.0, COS2T)
    f = curve(p, 1.0, 28, TORSION)
    fd = finite_difference_derivatives(f, h=h, richardson_levels=2)
    want = second_variation_energy_ball(solve_torsion_ball(2, 1.0, 1.0), COS2T).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)
    assert want == pytest.approx(13.0 * PI / 12.0, abs=1e-12)


def test_torsion_second_derivative_n3_zonal():
    N = {(2, 2): 1.0}
    p = pfield(3, 1.0, N)
    f = curve(p, 1.0, 20, TORSION)
    fd = finite_difference_derivatives(f, h=5e-3, richardson_levels=1)
    want = second_variation_energy_ball(solve_torsion_ball(3, 1.0, 1.0), N).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)


def test_eigen_second_derivative_matches_series():
    p = pfield(2, 1.0, COS2T)
    g = curve(p, 1.0, 16, ROBIN_EIGEN)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = second_variation_eigenvalue_ball(
        solve_robin_eigen_ball(2, 1.0, 1.0), COS2T
    ).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)


def test_eigen_first_derivative_dilation():
    # N = 1 shrinks/grows the disk; lam'(0) = A u(R)^2 |boundary| < 0
    UNIT = {(0, 0): math.sqrt(2.0 * PI)}
    p = PerturbationField(2, 1.0, UNIT, {})
    g = curve(p, 1.0, 16, ROBIN_EIGEN)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = first_variation(solve_robin_eigen_ball(2, 1.0, 1.0), UNIT)
    assert fd.d1 < 0
    assert fd.d1 == pytest.approx(want, rel=1e-3)


@pytest.mark.parametrize("kind", [TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN])
@pytest.mark.parametrize(
    "n, N", [(2, {(0, 0): 0.3, (2, 0): 0.1}), (3, {(0, 0): 0.3, (2, 2): 0.1})]
)
def test_first_derivative_of_data_with_a_mean(n, N, kind):
    # one Hadamard integrand for all three kinds: the constant
    # -u_r^2 - 2G(u) + alpha (n-1) u^2/R times int N dS, so only the mean counts
    p = PerturbationField(n, 1.0, N, {})
    alpha = None if kind == DIRICHLET_EIGEN else 1.0
    if kind == TORSION:
        sol = solve_torsion_ball(n, 1.0, 1.0)
        modes = 28 if n == 2 else 20
    else:
        sol = (solve_robin_eigen_ball(n, 1.0, 1.0) if alpha
               else solve_dirichlet_eigen_ball(n, 1.0))
        modes = 16 if n == 2 else 12
    fd = finite_difference_derivatives(curve(p, alpha, modes, kind), h=5e-3, richardson_levels=2)
    assert fd.d1 == pytest.approx(first_variation(sol, N), rel=1e-8)


def test_dirichlet_second_derivative_matches_series():
    p = pfield(2, 1.0, COS2T)
    g = curve(p, None, 16, DIRICHLET_EIGEN)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = dirichlet_variations(2, 1.0, COS2T).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)
    assert fd.d2 >= 0


def test_ball_is_local_minimum_for_positive_alpha():
    for N in (COS2T, COS3T):
        p = pfield(2, 1.0, N)
        E0, E_plus, E_minus = curve(p, 1.0, 28, TORSION)([0.0, 0.05, -0.05])
        assert E_plus > E0
        assert E_minus > E0


def test_sign_change_region_oracle():
    # alpha in (-2/R, 0): every mode lowers the energy to second order;
    # below -2/R the degree-2 mode raises it while degree 3 lowers it
    p2 = pfield(2, 1.0, COS2T)
    fd = finite_difference_derivatives(
        curve(p2, -1.5, 28, TORSION), h=5e-3, richardson_levels=2
    )
    assert fd.d2 == pytest.approx(-PI, rel=1e-6)
    fd2 = finite_difference_derivatives(
        curve(p2, -2.5, 28, TORSION), h=5e-3, richardson_levels=2
    )
    assert fd2.d2 == pytest.approx(1.2 * PI, rel=1e-6)
    p3 = pfield(2, 1.0, COS3T)
    fd3 = finite_difference_derivatives(
        curve(p3, -2.5, 28, TORSION), h=5e-3, richardson_levels=2
    )
    assert fd3.d2 == pytest.approx(-3.8 * PI, rel=1e-6)


# ---------------------------------------------------------------------------
# eigen families: the searches of one stencil or sweep in lockstep
# ---------------------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# (modes, ts): the stencils of richardson_levels 1 and 2 in the order
# `finite_difference_derivatives` asks for them, and a 9-point sweep
FAMILIES = {
    "5-point stencil": (8, [0.0, 0.01, -0.01, 0.005, -0.005]),
    "7-point stencil": (20, [0.0, 0.02, -0.02, 0.01, -0.01, 0.005, -0.005]),
    "9-point sweep": (12, [-0.04, -0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03, 0.04]),
}


def solve_one(d, alpha, modes, kind):
    """The public single solve of `kind`."""
    if kind == TORSION:
        return solve_perturbed_torsion(d, alpha, modes)
    return solve_perturbed_eigen(d, alpha, modes, kind)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(
    "alpha, kind", [(1.0, TORSION), (1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)]
)
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_a_family_keeps_the_bits_of_one_solve_per_member(n, N, alpha, kind, family):
    modes, ts = FAMILIES[family]
    p = pfield(n, 1.0, N)
    domains = [perturbed_domain(p, t) for t in ts]
    together = solve_perturbed_family(domains, alpha, modes, kind)
    scalars = ("energy", "condition", "residual", "midway_residual")
    if kind != TORSION:
        scalars += ("lam", "sigma_min")
    evals = set()
    for d, sol in zip(domains, together, strict=True):
        alone = solve_one(d, alpha, modes, kind)
        assert sol.domain is d and sol.kind == kind
        assert np.array_equal(bits(sol.coefficients), bits(alone.coefficients))
        assert np.array_equal(
            bits([getattr(sol, name) for name in scalars]),
            bits([getattr(alone, name) for name in scalars]),
        )
        assert sol.sigma_evals == alone.sigma_evals
        evals.add(sol.sigma_evals)
    if kind == TORSION:
        # a torsion member asks for no table: every one ends in the first round
        assert evals == {0}
    else:
        # members leave the lockstep rounds at different times
        assert len(evals) > 1
    if family == "9-point sweep":
        energies = [sol.energy for sol in together]
        rows = sweep_rows(p, alpha, kind, ts, modes)
        assert np.array_equal(bits([row[1] for row in rows]), bits(energies))
        if kind != TORSION:
            lams = [row[2] for row in rows]
            assert np.array_equal(bits(lams), bits([sol.lam for sol in together]))
        assert np.array_equal(bits(curve(p, alpha, modes, kind)(ts)), bits(energies))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_a_family_builds_one_radial_table_per_round(monkeypatch, n, N, alpha, kind, family):
    # each round serves the pending request of every member, the rows at
    # lam* included: one table per slope of the longest search, and one
    # more for the rows of its solution
    real, calls = oracle_solver._radial_wave, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle_solver, "_radial_wave", counted)
    modes, ts = FAMILIES[family]
    p = pfield(n, 1.0, N)
    sols = solve_perturbed_family([perturbed_domain(p, t) for t in ts], alpha, modes, kind)
    assert len(calls) == max(sol.sigma_evals for sol in sols) + 1


@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_a_waiting_member_holds_no_table_of_an_earlier_round(n, N, alpha, kind):
    # a family keeps every member suspended between rounds, so a member that
    # kept its last table, or the arrays of its slope, would hold one more
    # order-sized table per member at the family's peak; it lets go of the
    # table already while it waits on the kernel of the rows it built
    d = perturbed_domain(pfield(n, 1.0, N), 0.01)
    solve = oracle_solver._eigen_solve(d, alpha, 12, kind, oracle_solver.OVERSAMPLE)
    request, rounds = next(solve), 0
    while request is not None:
        _, rho, lam = request
        f, df = _radial_wave(n, 12, lam, rho)
        held = [weakref.ref(f.base), weakref.ref(df)]
        _, B, M = solve.send((f, df))
        del f, df
        assert [ref() for ref in held] == [None, None]
        try:
            request = solve.send(oracle_solver._subspace_vectors(B[None], M[None])[0])
        except StopIteration as stop:
            request, sol = None, stop.value
        rounds += 1
    assert rounds == sol.sigma_evals + 1


@pytest.mark.parametrize("alpha, kind", [(1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_a_family_drops_each_round_table_before_the_next(monkeypatch, n, N, alpha, kind):
    # the driver serves every member its views and then lets go of the
    # round's table, so no two round tables over the family's points are
    # alive at once
    real, held, alive = oracle_solver._radial_wave, [], []

    def watched(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in held))
        f, df = real(*args, **kwargs)
        held.extend([weakref.ref(f.base), weakref.ref(df)])
        return f, df

    monkeypatch.setattr(oracle_solver, "_radial_wave", watched)
    modes, ts = FAMILIES["7-point stencil"]
    p = pfield(n, 1.0, N)
    sols = solve_perturbed_family([perturbed_domain(p, t) for t in ts], alpha, modes, kind)
    assert len(alive) == max(sol.sigma_evals for sol in sols) + 1 > 2
    assert alive == [0] * len(alive)
    assert [ref() for ref in held] == [None] * len(held)


def test_a_family_rejects_domains_of_different_dimensions(monkeypatch):
    # every round's table is built for one dimension, so a mixed family is
    # refused before any member's set-up; each member solves on its own
    d2 = perturbed_domain(pfield(2, 1.0, COS2T), 0.01)
    d3 = perturbed_domain(pfield(3, 1.0, ZONAL), 0.01)
    alone = [solve_perturbed_eigen(d, 1.0, 8).lam for d in (d2, d3)]
    set_ups = []
    monkeypatch.setattr(oracle_solver, "_collocation", lambda *args: set_ups.append(args))
    for domains, dims in (([d2, d2, d3], "n = 2 and n = 3"), ([d3, d2], "n = 3 and n = 2")):
        with pytest.raises(ValueError, match=f"differ in dimension: {dims}$"):
            solve_perturbed_family(domains, 1.0, 8, ROBIN_EIGEN)
    assert set_ups == []
    monkeypatch.undo()
    # a family of mixed R shares one dimension and solves as its members do
    d2_wide = perturbed_domain(pfield(2, 2.0, COS2T), 0.01)
    together = solve_perturbed_family([d2, d2_wide], 1.0, 8, ROBIN_EIGEN)
    assert together[0].lam == alone[0]
    assert together[1].lam == solve_perturbed_eigen(d2_wide, 1.0, 8).lam


DILATION = PerturbationField(2, 1.0, {(0, 0): math.sqrt(2.0 * PI)}, {})  # r = 1 + t


def raised(call):
    with pytest.raises(Exception) as error:
        call()
    return type(error.value), str(error.value)


@pytest.mark.parametrize(
    "kind, p, ts, first, text",
    [
        # one later member fails; the deciding rule, which gives the error
        # of a failed solve, fits on the angles of the former 4x rule and
        # reads that rule's residual there
        (
            DIRICHLET_EIGEN, pfield(2, 1.0, COS2T), [0.0, 0.01, 0.05], 0.05,
            "boundary residual 3.35e-06 on the collocation angles, 3.28e-06 midway between them",
        ),
        # two fail: the earlier one's text, not the later one's
        (
            DIRICHLET_EIGEN, pfield(2, 1.0, COS2T), [0.0, 0.08, 0.05], 0.08,
            "boundary residual 3.59e-05 on the collocation angles, 3.43e-05 midway between them",
        ),
        # the earlier member fails its checks at lam*, after the later one's
        # search has already failed
        (
            DIRICHLET_EIGEN, DILATION, [0.0, 0.6, 0.3], 0.6,
            "is not shown to be the first eigenvalue",
        ),
        # a later member is not star-shaped: its ValueError, raised as its
        # boundary is built, does not pre-empt the earlier member's error
        (DIRICHLET_EIGEN, DILATION, [0.0, 0.3, -1.5], 0.3, "root isolation failed"),
        # the same two rules for a torsion family, whose members end in the
        # first round: the earlier of two failing members, and an early
        # failing member ahead of a later one that is not star-shaped
        (
            TORSION, pfield(2, 1.0, COS2T), [0.0, 0.1, 0.08], 0.1,
            "boundary residual 3.05e-05 on the collocation angles, 3.02e-05 midway between them",
        ),
        (
            TORSION, pfield(2, 1.0, COS2T), [0.0, 0.08, -1.0], 0.08,
            "boundary residual 9.65e-06 on the collocation angles, 9.72e-06 midway between them",
        ),
    ],
)
def test_a_family_raises_the_error_of_its_first_failing_member(kind, p, ts, first, text):
    alpha = None if kind == DIRICHLET_EIGEN else 1.0

    def alone(t):
        return raised(lambda: solve_one(perturbed_domain(p, t), alpha, 8, kind))

    domains = [perturbed_domain(p, t) for t in ts]
    family = raised(lambda: solve_perturbed_family(domains, alpha, 8, kind))
    assert family == alone(first) and family[0] is ArithmeticError and text in family[1]
    if ts[-1] != first:  # the other failing member fails otherwise
        assert alone(ts[-1]) != family
    # the sweep and the finite-difference curve end the same way
    assert raised(lambda: sweep_rows(p, alpha, kind, ts, 8)) == family
    f = curve(p, alpha, 8, kind)
    assert raised(lambda: f(ts)) == family


def recorded_solves(monkeypatch):
    """Patch both solve generators to log ("served", t, per_element) as
    each member is sent its start or a table, and ("raised", t,
    per_element) as its solve raises."""
    events = []

    def recorded(generator):
        def solve(d, *args):
            inner, table = generator(d, *args), None
            while True:
                events.append(("served", d.t, args[-1]))
                try:
                    request = inner.send(table)
                except StopIteration as stop:
                    return stop.value
                except (ArithmeticError, ValueError):
                    events.append(("raised", d.t, args[-1]))
                    raise
                table = yield request

        return solve

    for name in ("_torsion_solve", "_eigen_solve"):
        monkeypatch.setattr(oracle_solver, name, recorded(getattr(oracle_solver, name)))
    return events


@pytest.mark.parametrize(
    "kind, p, ts, first",
    [
        # 0.1 and 0.08 both fail at 2x; once 0.1 has failed at 4x, 0.08
        # cannot change the error and is not solved there at all
        (TORSION, pfield(2, 1.0, COS2T), [0.0, 0.1, 0.08], 0.1),
        # 0.3's search fails at 4x while 0.6's is still running: 0.6 gets
        # no table after that round
        (DIRICHLET_EIGEN, DILATION, [0.0, 0.3, 0.6], 0.3),
    ],
)
def test_a_family_serves_no_member_after_a_decided_failure(monkeypatch, kind, p, ts, first):
    alpha = None if kind == DIRICHLET_EIGEN else 1.0
    domains = [perturbed_domain(p, t) for t in ts]
    events = recorded_solves(monkeypatch)
    family = raised(lambda: solve_perturbed_family(domains, alpha, 8, kind))
    decided = events.index(("raised", first, 4))
    assert ("served", ts[-1], 4) not in events[decided:]
    assert events[-1] == ("raised", first, 4)
    if kind == TORSION:
        assert ("served", 0.08, 4) not in events
    else:
        assert ("served", ts[-1], 4) in events[:decided]
    # the error is the one of the first failing member alone
    monkeypatch.undo()
    assert family == raised(lambda: solve_one(perturbed_domain(p, first), alpha, 8, kind))


@pytest.mark.parametrize("kind", [TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN])
def test_a_family_of_no_domains_solves_nothing(kind):
    assert solve_perturbed_family([], 1.0, 8, kind) == []


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------


def test_sweep_rows_torsion():
    p = pfield(2, 1.0, COS2T)
    ts = [-0.02, 0.0, 0.02]
    rows = sweep_rows(p, 1.0, TORSION, ts, modes=16)
    assert len(rows) == 3
    for t, row in zip(ts, rows):
        d = perturbed_domain(p, t)
        assert row[3] == exact_surface_area(d) and row[4] == exact_volume(d)
    t, E, lam, S, V = rows[1]
    assert t == 0.0
    assert E == pytest.approx(-5.0 * PI / 8.0, abs=1e-10)
    assert math.isnan(lam)
    assert S == pytest.approx(2.0 * PI, abs=1e-10)
    assert V == pytest.approx(PI, abs=1e-10)
    # volume matches to the O(t^4) term the quadratic completion leaves behind
    assert rows[0][4] == pytest.approx(PI, abs=1e-7)
    assert rows[2][4] == pytest.approx(PI, abs=1e-7)


def test_sweep_rows_eigen():
    p = pfield(2, 1.0, COS2T)
    rows = sweep_rows(p, 1.0, ROBIN_EIGEN, [0.0, 0.03], modes=14)
    assert rows[0][1] == pytest.approx(rows[0][2])
    assert rows[0][2] == pytest.approx(1.576992730808607, abs=1e-8)
    assert rows[1][2] > rows[0][2]


# ---------------------------------------------------------------------------
# interior tables: one angular factor per ray
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("modes", [8, 20, 28])
@pytest.mark.parametrize("t", [0.0, 0.05, -0.05])
@pytest.mark.parametrize("kind", [ROBIN_EIGEN, DIRICHLET_EIGEN])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_integrals_keep_the_bits_of_the_node_by_node_tables(monkeypatch, modes, t, kind, n, N):
    # checked inside the solve, on the coefficients the solve integrates
    real = oracle_solver._integrals
    calls = []

    def checked(sol, n_theta, n_rho):
        out = real(sol, n_theta, n_rho)
        calls.append((out, node_by_node_integrals(sol, n_theta, n_rho)))
        return out

    monkeypatch.setattr(oracle_solver, "_integrals", checked)
    d = perturbed_domain(pfield(n, 1.0, N), t)
    try:
        solve_perturbed_eigen(d, 1.0, modes, kind)
        raised = False
    except ArithmeticError as error:
        # 8 modes cannot fit this boundary to the residual limit
        assert (n, kind, modes, abs(t)) == (2, DIRICHLET_EIGEN, 8, 0.05), str(error)
        raised = True
    # a solve that raises integrates once more, at the deciding rule
    assert len(calls) == (2 if raised else 1)
    for (*sums, u_in), (_int_u, *sums_ref, u_in_ref) in calls:
        assert sums == sums_ref
        assert np.array_equal(u_in, u_in_ref)


@pytest.mark.parametrize("kind", [ROBIN_EIGEN, DIRICHLET_EIGEN])
@pytest.mark.parametrize("n, N", [(2, COS2T), (3, ZONAL)])
def test_fields_keep_the_bits_of_the_basis_row_tables(kind, n, N):
    # the eigenfunction fields against one radial row per basis element, on
    # boundary points and on scattered interior points (the axis included)
    d = perturbed_domain(pfield(n, 1.0, N), 0.05)
    sol = solve_perturbed_eigen(d, 1.0, 16, kind)
    bd = oracle_solver._boundary(d, *oracle_solver.polar_rule(n, 53))
    rng = np.random.default_rng(19)
    theta = rng.uniform(0.0, 2.0 * PI if n == 2 else PI, 300)
    dirs = oracle_solver._directions_from_theta(n, theta)
    rho = rng.uniform(0.0, 1.0, theta.size) * d.radius(dirs)
    rho[0] = 0.0
    for points in ((bd.r, bd.theta), (rho, theta)):
        for field, reference in zip(fields(sol, *points), node_by_node_fields(sol, *points)):
            assert np.array_equal(field, reference, equal_nan=True)


@pytest.mark.parametrize("n, N, kind, modes", [(2, COS2T, ROBIN_EIGEN, 20)])
def test_integrals_hold_one_basis_by_nodes_buffer(n, N, kind, modes):
    # per-degree radial tables and one product buffer: the peak of one call
    # stays below 2.5 basis x nodes doubles (above 3.1 with a fresh array
    # per product and basis-row tables)
    d = perturbed_domain(pfield(n, 1.0, N), 0.05)
    sol = solve_perturbed_eigen(d, 1.0, modes, kind)
    n_theta, n_rho = oracle_solver._quad_sizes(modes)
    tracemalloc.start()
    try:
        oracle_solver._integrals(sol, n_theta, n_rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sol.coefficients.size * n_theta * n_rho * 8


def former_quad_sizes(modes):
    """The rule of the eigen integrals before 16 nodes per ray, which the
    torsion integrals also took before their closed form."""
    return max(64, 4 * modes + 16), max(48, modes + 8)


def uncut_quad_sizes(modes):
    """The rule of the eigen integrals before their angles were cut to
    max(32, 2 modes + 8)."""
    return former_quad_sizes(modes)[0], 16


def survey_draw(rng, n):
    """(modes, t, N): modes in 8..40, |t| <= 0.1 and N(0, 0.6) data on
    degrees 2..4 (zonal for n = 3)."""
    modes = int(rng.integers(8, 41))
    t = float(rng.uniform(-0.1, 0.1))
    c = rng.normal(0.0, 0.6, 6)
    if n == 2:
        N = {(s, i): float(c[2 * j + i]) for j, s in enumerate((2, 3, 4)) for i in (0, 1)}
    else:
        N = {(s, s): float(c[j]) for j, s in enumerate((2, 3, 4))}
    return modes, t, N


def wide_draw(rng, n):
    """(modes, t, N): modes in 8..44, |t| <= 0.2 and the data of
    `survey_draw`, whose own modes and t are drawn and dropped."""
    modes = int(rng.integers(8, 45))
    t = float(rng.uniform(-0.2, 0.2))
    return modes, t, survey_draw(rng, n)[2]


def torsion_survey(seed=2101, draw=survey_draw):
    """480 seeded torsion cases: n in {2, 3}, five alphas, 48 draws each of
    `draw`."""
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        for alpha in (0.25, 1.0, 3.0, -0.7, -2.5):
            for _ in range(48):
                yield (n, alpha, *draw(rng, n))


@pytest.fixture(scope="module")
def solved_torsion_survey():
    """The torsion survey solved once at the collocation rule, for every
    test that reads it: per case (case, outcome, integrals, rules), the
    outcome being the OracleSolution or the ArithmeticError raised, the
    integrals each `_torsion_integrals` call's (sol, angle count, result)
    and the rules the angles per basis element of each `_collocation`."""
    real_integrals, real_collocation = oracle_solver._torsion_integrals, oracle_solver._collocation
    integrals, rules, solved = [], [], []

    def recorded(sol, bd):
        out = real_integrals(sol, bd)
        integrals.append((sol, bd.theta.size, out))
        return out

    def collocation(d, modes, per_element):
        rules.append(per_element)
        return real_collocation(d, modes, per_element)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_solver, "_torsion_integrals", recorded)
        patch.setattr(oracle_solver, "_collocation", collocation)
        for case in torsion_survey():
            n, alpha, modes, t, N = case
            d = perturbed_domain(pfield(n, 1.0, N), t)
            integrals.clear()
            rules.clear()
            try:
                outcome = solve_perturbed_torsion(d, alpha, modes)
            except ArithmeticError as error:
                outcome = error
            solved.append((case, outcome, list(integrals), list(rules)))
    return solved


@pytest.mark.parametrize("n, N", [(2, {(2, 0): 0.4, (3, 1): -0.3}), (3, {(2, 2): 0.5, (4, 4): 0.3})])
@pytest.mark.parametrize("modes", [16, 32])
def test_per_ray_torsion_gauss_rule_matches_the_node_by_node_one(n, N, modes):
    # the survey's Gauss reference against the node-by-node one, on the
    # sizes the survey uses
    sol = solve_perturbed_torsion(perturbed_domain(pfield(n, 1.0, N), 0.04), 1.0, modes)
    for sizes in ((former_quad_sizes(modes)[0], modes + 40), former_quad_sizes(modes)):
        int_u, int_grad_sq, _, bd_u_sq, _ = node_by_node_integrals(sol, *sizes)
        fast = torsion_gauss_integrals(sol, *sizes)
        assert np.allclose(fast, (int_u, int_grad_sq, bd_u_sq), rtol=1e-14, atol=0.0)


def test_torsion_integrals_match_gauss_rules_and_raise_where_they_did(solved_torsion_survey):
    # the closed form against Gauss rules with modes + 40 nodes per ray on
    # the collocation angles it integrates on, which are exact for these
    # polynomials up to rounding; and the weak-form check against the one
    # the former Gauss rules gave on the same coefficients
    worst, moved, outcomes = 0.0, [], {"ok": 0, "weak form": 0, "before": 0}
    for case, outcome, calls, _ in solved_torsion_survey:
        n, alpha, modes, t, N = case
        if not isinstance(outcome, ArithmeticError):
            ending = "ok"
        elif "energy forms disagree" in str(outcome):
            ending = "weak form"
        else:
            # the deciding rule's collocation limits, checked before its
            # integrals
            assert "residual" in str(outcome) or "ill-conditioned" in str(outcome)
            ending = "before"
        outcomes[ending] += 1
        n_basis = 2 * modes + 1 if n == 2 else modes + 1
        # one pass per rule that reached the integrals; each but the last
        # of a solved case failed the weak-form check, held to its rule's
        # share of the limit
        for j, (sol, n_theta, (int_u, int_grad_sq, bd_u_sq)) in enumerate(calls):
            raised = not (ending == "ok" and j == len(calls) - 1)
            share = oracle_solver._limit_share(n_theta // n_basis)
            energy = int_grad_sq - 2.0 * int_u + alpha * bd_u_sq
            g_u, g_grad_sq, g_bd_u_sq = torsion_gauss_integrals(sol, n_theta, modes + 40)
            gauss = g_grad_sq - 2.0 * g_u + alpha * g_bd_u_sq
            worst = max(worst, abs(energy - gauss) / abs(gauss))
            p_u, p_grad_sq, p_bd_u_sq = torsion_gauss_integrals(sol, *former_quad_sizes(modes))
            former = p_grad_sq - 2.0 * p_u + alpha * p_bd_u_sq
            if (abs(former + p_u) > share * 1e-9 * max(1.0, abs(former))) != raised:
                moved.append(case)
    assert worst <= 2e-13
    assert moved == []
    # every outcome occurs, so the comparison has cases of each kind
    assert min(outcomes.values()) > 0, outcomes


def eigen_survey(rng, draw=survey_draw):
    """Seeded eigen cases (n, N, alpha, kind, modes, t), one per dimension
    and kind in turn, with the data of `draw` (alpha = 1 for Robin)."""
    while True:
        for n in (2, 3):
            for alpha, kind in ((1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN)):
                modes, t, N = draw(rng, n)
                yield n, N, alpha, kind, modes, t


# README-family cases that the former rule solves: at t = 0.1 it solves
# from 20 modes on, at t = 0.2 from 44 (36 for Dirichlet)
README_SURVEY = [
    (2, COS2T, alpha, kind, modes, t)
    for t, modes in ((0.1, 20), (0.2, 44))
    for alpha, kind in ((1.0, ROBIN_EIGEN), (None, DIRICHLET_EIGEN))
]
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)(e[-+]?\d+)?")


def test_eigen_integrals_at_16_nodes_match_finer_rules_and_end_as_before(monkeypatch):
    # each case solved at the rule of `_quad_sizes`, at its uncut angles and
    # at the former rule: the integrals match modes + 40 nodes per ray, and,
    # where the case solves, its Rayleigh quotient and int u^2 match 800
    # angles; the case ends as at the uncut angles, and as at the former
    # rule, with lam to the bit or the same failure up to its numbers
    rule, real = oracle_solver._quad_sizes, oracle_solver._integrals
    gaps, angle_gaps = [], []

    def rayleigh(sol, integrals):
        int_grad_sq, int_u_sq, bd_u_sq, _ = integrals
        return (int_grad_sq + sol.alpha * bd_u_sq) / int_u_sq

    def compared(sol, n_theta, n_rho):
        out = real(sol, n_theta, n_rho)
        fine = real(sol, n_theta, sol.modes + 40)
        # relative gaps; u = 0 on a Dirichlet boundary, so there the boundary
        # integral, which takes no radial node, is rounding (about 1e-26)
        # and is measured against int u^2
        scales = [abs(fine[0]), abs(fine[1]), abs(fine[2 if sol.kind == ROBIN_EIGEN else 1])]
        gaps.append(max(abs(a - b) / c for a, b, c in zip(out[:3], fine[:3], scales)))
        wide = real(sol, 800, n_rho)
        angle_gaps.append(max(
            abs(rayleigh(sol, out) - rayleigh(sol, wide)) / rayleigh(sol, wide),
            abs(out[1] - wide[1]) / wide[1],
        ))
        return out

    def ending(case, quad_sizes, integrals):
        n, N, alpha, kind, modes, t = case
        monkeypatch.setattr(oracle_solver, "_quad_sizes", quad_sizes)
        monkeypatch.setattr(oracle_solver, "_integrals", integrals)
        try:
            sol = solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), t), alpha, modes, kind)
        except ArithmeticError as error:
            return NUMBER.sub("#", str(error))
        return float(sol.lam).hex()

    outcomes = {"solved": 0, "failed": 0}
    solved_gaps = []
    for case in [*itertools.islice(eigen_survey(np.random.default_rng(2501)), 32), *README_SURVEY]:
        now = ending(case, rule, compared)
        if now.startswith("0x"):
            solved_gaps.append(angle_gaps[-1])
        assert now == ending(case, uncut_quad_sizes, real), case
        before = ending(case, former_quad_sizes, real)
        if now != before:
            # n = 2 or 3 Dirichlet at few modes: the fitted u dips below zero
            # within 0.1% of the boundary, which the former outermost node
            # (rho/r = 0.9994) sees and the 16-node one (0.9947) does not;
            # the Rayleigh check rejects the same solve
            assert "changes sign" in before and "keeps one sign" in now, case
            assert before.endswith("disagrees with lam"), case
            assert now.endswith("disagrees with lam"), case
        outcomes["solved" if now.startswith("0x") else "failed"] += 1
    assert max(gaps) <= 1e-13
    assert max(solved_gaps) <= 1e-13
    assert min(outcomes.values()) > 0, outcomes


@pytest.mark.parametrize(
    "index, sign, quotient",
    [
        # u dips below zero only at the outermost node, rho/r = 0.9947, and
        # the Rayleigh gap is 2.2e-4: a poor fit near the first eigenvalue
        # (the second ball eigenvalue is 14.7), not a higher mode; min u is
        # that of the 32 rays of the rule (-5.906e-03 on the former 64)
        (113, "changes sign inside the domain (min u = -1.809e-03", "disagrees with lam"),
        (76, "keeps one sign (min u = 4.073e-01", "disagrees with lam"),
    ],
)
def test_a_failed_first_eigenvalue_check_reports_both_checks(index, sign, quotient):
    case = next(itertools.islice(eigen_survey(np.random.default_rng(2501)), index, None))
    n, N, alpha, kind, modes, t = case
    assert (n, modes) == (2, 12)
    with pytest.raises(ArithmeticError, match="is not shown to be the first eigenvalue") as error:
        solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), t), alpha, modes, kind)
    text = str(error.value)
    assert sign in text and text.endswith(quotient)
    # lam is a float, so the text shows its repr as a plain number
    assert re.match(r"lam = \d+\.\d+ is not", text), text


# a boundary condition of unit size: residuals below this are rounding,
# and the ratio of two of them is noise (2.1e-14 against 1.7e-15 in one
# torsion case, where every residual above it moves by at most 5%)
RESIDUAL_FLOOR = 1e-13


def test_the_collocation_rule_keeps_every_survey_outcome_of_four_angles_per_element(
    monkeypatch, solved_torsion_survey
):
    # the rule against the former 4 angles per basis element on the seeded
    # torsion survey and 40 eigen draws: every case ends the same way,
    # solved or raised; a solved case's midway residual stays within 2x of
    # its 4x value, and its E or lam moves by at most twice that 4x value,
    # relative
    def torsion(case):
        n, alpha, modes, t, N = case
        return solve_perturbed_torsion(perturbed_domain(pfield(n, 1.0, N), t), alpha, modes)

    def eigen(case):
        n, N, alpha, kind, modes, t = case
        return solve_perturbed_eigen(perturbed_domain(pfield(n, 1.0, N), t), alpha, modes, kind)

    real_collocation, rules = oracle_solver._collocation, []

    def collocation(d, modes, per_element):
        rules.append(per_element)
        return real_collocation(d, modes, per_element)

    monkeypatch.setattr(oracle_solver, "_collocation", collocation)

    def ends(solve, cases, factor, decided):
        # each case's (midway residual, E or lam), None where it raised; a
        # case in `decided` keeps its end there, and a case that the
        # deciding rule ends joins it: that solve is the one the rule of 4
        # makes, so the rule of 4 need not make it again
        monkeypatch.setattr(oracle_solver, "OVERSAMPLE", factor)
        out = []
        for i, case in enumerate(cases):
            if i in decided:
                out.append(decided[i])
                continue
            rules.clear()
            try:
                sol = solve(case)
            except ArithmeticError:
                out.append(None)
            else:
                out.append((sol.midway_residual, sol.energy))
            if rules[-1] == oracle_solver.DECIDING_OVERSAMPLE:
                decided[i] = out[-1]
        return out

    rule = oracle_solver.OVERSAMPLE
    assert rule < oracle_solver.DECIDING_OVERSAMPLE == 4
    # the torsion survey at the rule, as `ends` would give it
    torsion_cases, torsion_ends, torsion_decided = [], [], {}
    for i, (case, outcome, _, rules_of_case) in enumerate(solved_torsion_survey):
        torsion_cases.append(case)
        if isinstance(outcome, ArithmeticError):
            torsion_ends.append(None)
        else:
            torsion_ends.append((outcome.midway_residual, outcome.energy))
        if rules_of_case[-1] == oracle_solver.DECIDING_OVERSAMPLE:
            torsion_decided[i] = torsion_ends[-1]
    eigen_cases = list(itertools.islice(eigen_survey(np.random.default_rng(2501)), 40))
    solved = {}
    for solve, cases in ((torsion, torsion_cases), (eigen, eigen_cases)):
        solved[solve.__name__] = 0
        if solve is torsion:
            decided, now_ends = torsion_decided, torsion_ends
        else:
            decided = {}
            now_ends = ends(solve, cases, rule, decided)
        # most repeated cases raise at 4, and some solve there
        assert 0 < len(decided) < len(cases)
        for case, now, before in zip(cases, now_ends, ends(solve, cases, 4, decided)):
            assert (now is None) == (before is None), case
            if now is None:
                continue
            solved[solve.__name__] += 1
            (midway, value), (midway4, value4) = now, before
            bound = 2.0 * max(midway4, RESIDUAL_FLOOR)
            assert max(midway, RESIDUAL_FLOOR) <= bound, case
            assert abs(value - value4) <= bound * max(1.0, abs(value4)), case
    # both kinds of outcome occur, so the comparison has cases of each
    assert solved == {"torsion": 310, "eigen": 24}


@pytest.mark.parametrize(
    "survey, seed, index, factor",
    [
        # a plain rule of 2 angles per element solves each of these, and the
        # rule of 4 raises: the fitted and midway residuals at 2 sit just
        # under the limit (9.83e-07 and 9.69e-07; 9.96e-07 and 9.69e-07),
        # while 4 reads 1.046e-06 fitted, and 1.021e-06 midway
        ("eigen wide", 3201, 18, 2),
        ("eigen", 2501, 133, 2),
        # the weak-form defect at 4 is 1.09e-9 and 1.15e-9; the plain rules
        # of 3 (the first) and 2 pass it
        ("torsion wide", 3301, 307, 3),
        ("torsion wide", 3301, 307, 2),
        ("torsion wide", 3301, 349, 2),
    ],
)
def test_a_case_near_a_limit_ends_as_at_the_deciding_rule(monkeypatch, survey, seed, index, factor):
    # the cases of the wider surveys (8-44 modes, |t| <= 0.2) that a rule
    # cheaper than 4 angles per element, alone, ends otherwise than 4 does;
    # with the margin of the checks the deciding rule ends them
    if survey.startswith("torsion"):
        n, alpha, modes, t, N = next(itertools.islice(torsion_survey(seed, wide_draw), index, None))
        kind = TORSION
    else:
        draw = wide_draw if survey.endswith("wide") else survey_draw
        cases = eigen_survey(np.random.default_rng(seed), draw)
        n, N, alpha, kind, modes, t = next(itertools.islice(cases, index, None))
    d = perturbed_domain(pfield(n, 1.0, N), t)

    def solve():
        if kind == TORSION:
            return solve_perturbed_torsion(d, alpha, modes)
        return solve_perturbed_eigen(d, alpha, modes, kind)

    monkeypatch.setattr(oracle_solver, "OVERSAMPLE", factor)
    with pytest.raises(ArithmeticError) as error:
        solve()
    assert ("energy forms disagree" if kind == TORSION else "boundary residual") in str(error.value)
    monkeypatch.setattr(oracle_solver, "DECIDING_OVERSAMPLE", factor)
    sol = solve()
    assert max(sol.residual, sol.midway_residual) <= oracle_solver.RESIDUAL_LIMIT


def test_eigen_solution_lam_is_a_python_float():
    sol = solve_perturbed_eigen(readme_eigen_domain(0.01), 1.0, 12)
    assert type(sol.lam) is float and type(sol.energy) is float


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("angles", ["_rule_angles", "_midway_angles"])
def test_grid_angular_tables_are_kept_read_only(n, angles):
    angles = getattr(oracle_solver, angles)
    parts = oracle_solver._grid_angular_parts(n, 12, angles, 100)
    assert parts is oracle_solver._grid_angular_parts(n, 12, angles, 100)
    theta = angles(n, 100)
    for table, fresh in zip(parts, oracle_solver._angular_parts(n, 12, theta)):
        assert not table.flags.writeable
        assert np.array_equal(table, fresh)


def _rsv_imports(source: str):
    """(module, name) for each name that `source` imports from rsv; module
    is the rsv submodule, or "rsv" for the package itself."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "rsv":
                continue
            module = module.removeprefix("rsv").lstrip(".") or "rsv"
            yield from ((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rsv":
                    yield alias.name.removeprefix("rsv").lstrip(".") or "rsv", "*"


# every in-repo name the oracle may import: the kind constants and the two
# ball solvers that centre the eigenvalue search, numpy's Gauss rule as
# cached by `special_functions` and the polar rule built on it (shared with
# `SphereQuadrature`), and the perturbed domain with its exact volume and
# area
ORACLE_IMPORTS = {
    ("radial_solutions", name)
    for name in (
        "TORSION", "ROBIN_EIGEN", "DIRICHLET_EIGEN",
        "solve_robin_eigen_ball", "solve_dirichlet_eigen_ball",
    )
} | {("special_functions", name) for name in ("gauss_legendre", "polar_rule")} | {
    ("sphere_geometry", name)
    for name in (
        "PerturbationField", "StarDomain", "perturbed_domain",
        "exact_volume", "exact_surface_area",
    )
}


def test_oracle_imports_stay_apart_from_the_formulas_it_checks():
    # the oracle is the independent side of every closed-form check, the one
    # duplication kept on purpose: no shape calculus and no in-repo Bessel
    # code, so every in-repo import, at any depth of the module, is on the
    # allow-list
    imports = set(_rsv_imports(Path(oracle_solver.__file__).read_text()))
    assert imports <= ORACLE_IMPORTS, sorted(imports - ORACLE_IMPORTS)
    assert ("special_functions", "gauss_legendre") in imports


def test_an_eigen_solve_imports_no_scipy_linalg():
    # the oracle's linear algebra is numpy's: scipy.linalg alone adds about
    # 6 MB to a process, so a fresh one that imports rsv and runs an eigen
    # solve must not have loaded it
    code = (
        "import math, sys, rsv; "
        "from rsv.oracle_solver import solve_perturbed_eigen; "
        "from rsv.sphere_geometry import PerturbationField, perturbed_domain; "
        "p = PerturbationField(2, 1.0, {(2, 0): math.sqrt(math.pi)}, {}); "
        "solve_perturbed_eigen(perturbed_domain(p, 0.05), 1.0, 8); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    src = str(Path(oracle_solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
