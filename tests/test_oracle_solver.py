import math
import types

import numpy as np
import pytest
from golden_section import golden_min
from scipy.special import jv, jvp, spherical_jn

import rsv.oracle_solver as oracle_solver
from rsv.oracle_solver import (
    Derivatives,
    _radial_wave,
    _sigma_sq_min,
    eigenvalue_curve,
    finite_difference_derivatives,
    solve_perturbed_eigen,
    solve_perturbed_torsion,
    surface_curve,
    sweep_rows,
    torsion_energy_curve,
    volume_curve,
)
from rsv.radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.sphere_geometry import (
    PerturbationField,
    StarDomain,
    perturbed_domain,
    second_order_volume_correction,
    surface_second_variation,
)
from rsv.variations import (
    dirichlet_variations,
    first_variation_eigenvalue,
    second_variation_eigenvalue_ball,
    second_variation_energy_ball,
)

PI = math.pi
COS2T = {(2, 0): math.sqrt(PI)}
COS3T = {(3, 0): math.sqrt(PI)}


def pfield(n, R, N):
    return PerturbationField(n, R, N, second_order_volume_correction(N, n, R))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def test_fd_polynomial():
    fd = finite_difference_derivatives(lambda t: t * t, h=0.1, richardson_levels=1)
    assert fd.d1 == pytest.approx(0.0, abs=1e-14)
    assert fd.d2 == pytest.approx(2.0, abs=1e-12)


def test_fd_cosine_and_exponential():
    fd = finite_difference_derivatives(math.cos, h=1e-2, richardson_levels=2)
    assert fd.d1 == pytest.approx(0.0, abs=1e-12)
    assert fd.d2 == pytest.approx(-1.0, abs=1e-10)
    assert fd.d2_error < 1e-8
    d1, d2 = finite_difference_derivatives(math.exp, h=1e-2, richardson_levels=2)
    assert (d1, d2) == (pytest.approx(1.0, abs=1e-10), pytest.approx(1.0, abs=1e-8))


def test_fd_unpacks_as_pair():
    out = finite_difference_derivatives(math.exp, h=1e-2)
    assert isinstance(out, Derivatives)
    d1, d2 = out
    assert d1 == out.d1 and d2 == out.d2


def test_fd_rejects_bad_arguments():
    with pytest.raises(ValueError):
        finite_difference_derivatives(math.exp, h=0.0)
    with pytest.raises(ValueError):
        finite_difference_derivatives(math.exp, h=1e-2, richardson_levels=-1)


def test_fd_detects_cancellation():
    # at h = 1e-8 the second difference of cos is pure rounding noise
    with pytest.raises(ArithmeticError, match="too small"):
        finite_difference_derivatives(math.cos, h=1e-8, richardson_levels=2)


# ---------------------------------------------------------------------------
# torsion solver
# ---------------------------------------------------------------------------


def test_unperturbed_disk_matches_ball():
    sol = solve_perturbed_torsion(StarDomain(2, 1.0, {}, {}, 0.0), 1.0, modes=16)
    assert sol.residual <= 1e-12
    assert sol.energy == pytest.approx(-5.0 * PI / 8.0, abs=1e-12)
    ball = solve_torsion_ball(2, 1.0, 1.0)
    rho = np.linspace(0.05, 0.95, 9)
    theta = np.linspace(0.0, 6.0, 9)
    assert np.max(np.abs(sol.values(rho, theta) - ball.u(rho))) <= 1e-10
    assert sol.volume == pytest.approx(PI, abs=1e-12)
    assert sol.surface == pytest.approx(2.0 * PI, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_values_at_the_centre():
    # u is defined at rho = 0 although (1/rho) du/dtheta is not
    sol = solve_perturbed_torsion(StarDomain(2, 1.0, {}, {}, 0.0), 1.0, modes=16)
    centre = float(solve_torsion_ball(2, 1.0, 1.0).u(0.0))
    assert sol.values([0.0], [0.0])[0] == pytest.approx(centre, abs=1e-10)


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
    real = oracle_solver._integrals

    def skewed(sol, n_theta, n_rho):
        int_u, *rest = real(sol, n_theta, n_rho)
        return (int_u * (1.0 + 1e-6), *rest)

    monkeypatch.setattr(oracle_solver, "_integrals", skewed)
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
    with pytest.raises(ValueError, match="star"):
        solve_perturbed_torsion(StarDomain(2, 1.0, {(2, 0): math.sqrt(PI)}, {}, 1.3), 1.0)


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
    bd = oracle_solver._boundary(d, oracle_solver.OVERSAMPLE * n_basis)
    u, u_rho, u_ang = sol.fields(bd.r, bd.theta)
    if kind == DIRICHLET_EIGEN:
        condition = u
    else:
        condition = bd.nu_rho * u_rho + bd.nu_theta * u_ang + sol.alpha * u
    assert sol.residual == pytest.approx(float(np.max(np.abs(condition))), abs=1e-12)


def test_eigen_kind_validation():
    d0 = StarDomain(2, 1.0, {}, {}, 0.0)
    with pytest.raises(ValueError):
        solve_perturbed_eigen(d0, None, kind=ROBIN_EIGEN)
    with pytest.raises(ValueError):
        solve_perturbed_eigen(d0, -1.0, kind=ROBIN_EIGEN)
    with pytest.raises(ValueError):
        solve_perturbed_eigen(d0, 1.0, kind="sloshing")


def test_eigenvalue_even_in_t_for_mean_free_data():
    # lam'(0) = 0 for volume-preserving data, so lam(h) - lam(-h) = O(h^3);
    # mixed data breaks the accidental t -> -t congruence of single modes
    N = {(2, 0): 0.8, (3, 0): 0.5}
    p = pfield(2, 1.0, N)
    g = eigenvalue_curve(p, 1.0, modes=16)
    C = 50.0 * max(1.0, abs(g(0.0)))
    for h in (0.04, 0.02):
        assert abs(g(h) - g(-h)) <= C * h**3


def readme_eigen_domain(t):
    return perturbed_domain(pfield(2, 1.0, COS2T), t)


def test_eigen_solution_records_the_search():
    sol = solve_perturbed_eigen(readme_eigen_domain(0.01), 1.0)
    assert 37 < sol.sigma_evals <= 62
    assert sol.sigma_min < 1e-6
    torsion = solve_perturbed_torsion(readme_eigen_domain(0.01), 1.0, modes=16)
    assert torsion.sigma_evals == 0
    assert math.isnan(torsion.sigma_min)


def test_second_mode_fails_the_ground_state_check(monkeypatch):
    # centre the scan on j_{1,1}^2, the disk's second Dirichlet eigenvalue:
    # the solver locks onto J_1(k r) cos(theta + c), which changes sign
    second = types.SimpleNamespace(lam=3.831705970207512**2)
    monkeypatch.setattr(oracle_solver, "solve_dirichlet_eigen_ball", lambda n, R: second)
    with pytest.raises(ArithmeticError, match="min u = -"):
        solve_perturbed_eigen(
            readme_eigen_domain(0.01), None, modes=12, kind=DIRICHLET_EIGEN
        )


# ---------------------------------------------------------------------------
# Bessel table and lam refine
# ---------------------------------------------------------------------------

Z_SAMPLES = np.array([0.0, 1e-3, 0.5, 3.0, 12.0])
TOP_ORDER = 21


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_radial_wave_n2_equals_scipy(lam):
    # k = sqrt(lam) is 1 or 2, so z = k rho reproduces Z_SAMPLES exactly
    k = math.sqrt(lam)
    degrees = np.array([0] + [d for d in range(1, TOP_ORDER + 1) for _ in (0, 1)])
    f, df = _radial_wave(2, degrees, lam, Z_SAMPLES / k)
    z = Z_SAMPLES[None, :]
    assert np.array_equal(f, jv(degrees[:, None], z))
    assert np.array_equal(df, k * jvp(degrees[:, None], z, 1))
    assert df[1, 0] == 0.5 * k  # J_1'(0) = 1/2
    values, none = _radial_wave(2, degrees, lam, Z_SAMPLES / k, derivative=False)
    assert none is None and np.array_equal(values, f)


@pytest.mark.parametrize("lam", [1.0, 4.0])
def test_radial_wave_n3_equals_scipy(lam):
    k = math.sqrt(lam)
    degrees = np.arange(TOP_ORDER + 1)
    f, df = _radial_wave(3, degrees, lam, Z_SAMPLES / k)
    ls, z = np.broadcast_arrays(degrees[:, None], Z_SAMPLES[None, :])
    assert np.array_equal(f, spherical_jn(ls, z))
    assert np.array_equal(df, k * spherical_jn(ls, z, derivative=True))
    assert df[1, 0] == k / 3.0  # j_1'(0) = 1/3
    values, none = _radial_wave(3, degrees, lam, Z_SAMPLES / k, derivative=False)
    assert none is None and np.array_equal(values, f)


def synthetic_sigma(lam_star, c_left, c_right, floor):
    """sigma = sqrt(c^2 (lam - lam*)^2 + floor^2), slope c_left / c_right
    below / above lam*, and the list of points it was evaluated at."""
    calls = []

    def f(lam):
        calls.append(lam)
        c = c_left if lam < lam_star else c_right
        return math.sqrt((c * (lam - lam_star)) ** 2 + floor**2)

    return f, calls


# the solver's refine: one scan step either side of the lowest scan point
LAM0 = 1.5
BRACKET = (0.975 * LAM0, LAM0, 1.025 * LAM0)
XTOL, SPACING = 1e-13 * LAM0, 1e-8 * LAM0


@pytest.mark.parametrize("floor", [0.0, 1e-12, 1e-6])
@pytest.mark.parametrize(
    "slopes", [(1.0, 1.0), (1.0, 1.001), (1.001, 1.0), (0.5, 1.0), (2.0, 1.0)]
)
# offsets keep m the lowest bracket point for every slope pair
@pytest.mark.parametrize("offset", [-0.008, -2e-7, 0.0, 3e-11, 0.005, 0.008])
def test_sigma_sq_min_finds_the_argmin(floor, slopes, offset):
    a, m, b = BRACKET
    lam_star = m + offset * LAM0
    f, calls = synthetic_sigma(lam_star, *slopes, floor)
    lam = _sigma_sq_min(f, a, m, b, XTOL, SPACING)
    assert abs(lam - lam_star) <= XTOL
    assert a <= min(calls) and max(calls) <= b and a <= lam <= b
    assert len(set(calls)) <= 25


@pytest.mark.parametrize("edge", [0, 2])
def test_sigma_sq_min_rejects_a_minimum_on_the_bracket_edge(edge):
    a, m, b = BRACKET
    f, _ = synthetic_sigma(BRACKET[edge], 1.0, 1.0, 1e-9)
    with pytest.raises(ArithmeticError, match="no interior minimum"):
        _sigma_sq_min(f, a, m, b, XTOL, SPACING)


def golden_refine(f, a, m, b, xtol, spacing):
    return golden_min(f, a, b, xtol)


def lam_both_refines(monkeypatch, d, alpha, modes, kind):
    lam = solve_perturbed_eigen(d, alpha, modes, kind).lam
    with monkeypatch.context() as patch:
        patch.setattr(oracle_solver, "_sigma_sq_min", golden_refine)
        return lam, solve_perturbed_eigen(d, alpha, modes, kind).lam


ZONAL = {(2, 2): 1.0}


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
    lam, lam_golden = lam_both_refines(monkeypatch, d, alpha, 20, kind)
    assert abs(lam - lam_golden) <= 1e-12 * lam_golden


@pytest.mark.parametrize("t", [0.05, -0.05])
@pytest.mark.parametrize(
    "n, N, alpha, kind",
    [(2, COS2T, 1.0, ROBIN_EIGEN), (3, ZONAL, None, DIRICHLET_EIGEN)],
)
def test_refine_agrees_with_golden_section_at_few_modes(monkeypatch, t, n, N, alpha, kind):
    # 8 modes leave sigma a floor of about 1e-7 at |t| = 0.05
    d = perturbed_domain(pfield(n, 1.0, N), t)
    lam, lam_golden = lam_both_refines(monkeypatch, d, alpha, 8, kind)
    assert abs(lam - lam_golden) <= 1e-11 * lam_golden


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
    fd = finite_difference_derivatives(volume_curve(p), h=1e-3, richardson_levels=2)
    assert abs(fd.d1) <= 1e-10
    assert abs(fd.d2) <= 1e-8


def test_torsion_first_derivative_vanishes():
    p = pfield(2, 1.0, COS2T)
    f = torsion_energy_curve(p, 1.0, modes=28)
    fd = finite_difference_derivatives(f, h=5e-3, richardson_levels=1)
    assert abs(fd.d1) <= 1e-6 * abs(f(0.0))


@pytest.mark.parametrize("h", [1e-3, 5e-3, 1e-2])
def test_torsion_second_derivative_matches_series(h):
    p = pfield(2, 1.0, COS2T)
    f = torsion_energy_curve(p, 1.0, modes=28)
    fd = finite_difference_derivatives(f, h=h, richardson_levels=2)
    want = second_variation_energy_ball(solve_torsion_ball(2, 1.0, 1.0), COS2T).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)
    assert want == pytest.approx(13.0 * PI / 12.0, abs=1e-12)


def test_torsion_second_derivative_n3_zonal():
    N = {(2, 2): 1.0}
    p = pfield(3, 1.0, N)
    f = torsion_energy_curve(p, 1.0, modes=20)
    fd = finite_difference_derivatives(f, h=5e-3, richardson_levels=1)
    want = second_variation_energy_ball(solve_torsion_ball(3, 1.0, 1.0), N).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)


def test_eigen_second_derivative_matches_series():
    p = pfield(2, 1.0, COS2T)
    g = eigenvalue_curve(p, 1.0, modes=16)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = second_variation_eigenvalue_ball(
        solve_robin_eigen_ball(2, 1.0, 1.0), COS2T
    ).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)


def test_eigen_first_derivative_dilation():
    # N = 1 shrinks/grows the disk; lam'(0) = A u(R)^2 |boundary| < 0
    UNIT = {(0, 0): math.sqrt(2.0 * PI)}
    p = PerturbationField(2, 1.0, UNIT, {})
    g = eigenvalue_curve(p, 1.0, modes=16)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = first_variation_eigenvalue(solve_robin_eigen_ball(2, 1.0, 1.0), UNIT)
    assert fd.d1 < 0
    assert fd.d1 == pytest.approx(want, rel=1e-3)


def test_dirichlet_second_derivative_matches_series():
    p = pfield(2, 1.0, COS2T)
    g = eigenvalue_curve(p, None, modes=16, kind=DIRICHLET_EIGEN)
    fd = finite_difference_derivatives(g, h=5e-3, richardson_levels=1)
    want = dirichlet_variations(2, 1.0, COS2T).Eddot0
    assert fd.d2 == pytest.approx(want, rel=1e-3)
    assert fd.d2 >= 0


def test_ball_is_local_minimum_for_positive_alpha():
    for N in (COS2T, COS3T):
        p = pfield(2, 1.0, N)
        f = torsion_energy_curve(p, 1.0, modes=28)
        E0 = f(0.0)
        assert f(0.05) > E0
        assert f(-0.05) > E0


def test_sign_change_region_oracle():
    # alpha in (-2/R, 0): every mode lowers the energy to second order;
    # below -2/R the degree-2 mode raises it while degree 3 lowers it
    p2 = pfield(2, 1.0, COS2T)
    fd = finite_difference_derivatives(
        torsion_energy_curve(p2, -1.5, modes=28), h=5e-3, richardson_levels=2
    )
    assert fd.d2 == pytest.approx(-PI, rel=1e-6)
    fd2 = finite_difference_derivatives(
        torsion_energy_curve(p2, -2.5, modes=28), h=5e-3, richardson_levels=2
    )
    assert fd2.d2 == pytest.approx(1.2 * PI, rel=1e-6)
    p3 = pfield(2, 1.0, COS3T)
    fd3 = finite_difference_derivatives(
        torsion_energy_curve(p3, -2.5, modes=28), h=5e-3, richardson_levels=2
    )
    assert fd3.d2 == pytest.approx(-3.8 * PI, rel=1e-6)


# ---------------------------------------------------------------------------
# sweep tables
# ---------------------------------------------------------------------------


def test_sweep_rows_torsion():
    p = pfield(2, 1.0, COS2T)
    rows = sweep_rows(p, 1.0, TORSION, [-0.02, 0.0, 0.02], modes=16)
    assert len(rows) == 3
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
