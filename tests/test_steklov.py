import math

import numpy as np
import pytest
from ball_reference import interior_values, mode_profile, quadratic_form_Q_quadrature

from rsv.radial_solutions import (
    TORSION,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.special_functions import SphereQuadrature, synthesize
from rsv.sphere_geometry import coeff_norm_sq
from rsv.steklov import (
    ShapeDerivative,
    SteklovSpectrum,
    shape_derivative_uprime,
)
from rsv.variations import second_variation_eigenvalue_ball, second_variation_energy_ball

COS2T = {(2, 0): math.sqrt(math.pi)}


def test_torsion_spectrum_affine():
    for alpha, R in ((1.0, 1.0), (0.7, 1.4), (-2.5, 1.0)):
        st = SteklovSpectrum(solve_torsion_ball(2, R, alpha))
        for s in range(6):
            assert st.mu(s) == pytest.approx(alpha + s / R)


def test_shape_derivative_rejects_dirichlet_state():
    # u' solves a Robin-trace problem; the Dirichlet state has none
    with pytest.raises(ValueError, match="Robin trace"):
        shape_derivative_uprime(solve_dirichlet_eigen_ball(2, 1.0), COS2T)


def test_eigen_spectrum_reference():
    st = SteklovSpectrum(solve_robin_eigen_ball(2, 1.0, 1.0))
    assert st.mu(0) == pytest.approx(0.0, abs=1e-12)
    assert st.mu(1) == pytest.approx(1.5769927308086, abs=1e-10)
    mus = [st.mu(s) for s in range(8)]
    assert all(a < b for a, b in zip(mus, mus[1:]))  # increasing in degree


@pytest.mark.parametrize("n,R,alpha", [(2, 1.0, 1.0), (3, 1.2, 0.9), (3, 1.0, 4.0)])
def test_eigen_mode_one_identity(n, R, alpha):
    # translation invariance pins mu_1 = alpha - (n-1)/R + lam/alpha exactly
    e = solve_robin_eigen_ball(n, R, alpha)
    st = SteklovSpectrum(e)
    assert st.mu(1) == pytest.approx(
        alpha - (n - 1) / R + e.lam / alpha, abs=1e-11
    )


@pytest.mark.parametrize("n,R,alpha,s", [(2, 1.0, 1.0, 0), (2, 1.0, 1.0, 2), (3, 1.2, 0.9, 1)])
def test_mode_profiles_solve_radial_equation(n, R, alpha, s):
    st = SteklovSpectrum(solve_robin_eigen_ball(n, R, alpha))
    r = np.linspace(0.25 * R, 0.95 * R, 7)
    h = 1e-5
    a = lambda rr: mode_profile(st, s, rr)
    ar = (a(r + h) - a(r - h)) / (2 * h)
    arr = (a(r + h) - 2 * a(r) + a(r - h)) / h**2
    mu_lb = s * (s + n - 2)
    resid = arr + (n - 1) / r * ar - mu_lb / r**2 * a(r) + st.sol.lam * a(r)
    assert np.max(np.abs(resid)) < 1e-4
    assert a(R) == pytest.approx(1.0, abs=1e-13)
    fd = (a(R) - a(R - h)) / h
    assert st.log_derivative(s) == pytest.approx(fd, abs=1e-4)


def test_torsion_mode_profiles_are_powers():
    st = SteklovSpectrum(solve_torsion_ball(3, 2.0, 0.5))
    r = np.linspace(0.0, 2.0, 9)
    assert np.allclose(mode_profile(st, 3, r), (r / 2.0) ** 3)


def test_spectrum_table_shape():
    rows = SteklovSpectrum(solve_torsion_ball(3, 1.0, 1.0)).table(4)
    assert [(s, m) for s, _mu, m in rows] == [(0, 1), (1, 3), (2, 5), (3, 7), (4, 9)]
    assert rows[2][1] == pytest.approx(3.0)  # alpha + s/R = 1 + 2


# ---------------------------------------------------------------------------
# shape derivative u'
# ---------------------------------------------------------------------------


def test_uprime_reference_case():
    # torsion, n=2, R=1, alpha=1, N = cos 2theta: u' = (1/3) r^2 cos 2theta
    t = solve_torsion_ball(2, 1.0, 1.0)
    sd = shape_derivative_uprime(t, COS2T)
    assert sd.boundary_values(np.array([1.0, 0.0])) == pytest.approx(1 / 3)
    pt = np.array([0.0, 0.5])  # theta = pi/2, r = 1/2
    assert interior_values(sd, pt) == pytest.approx(-1 / 12)
    assert second_variation_energy_ball(t, COS2T).Q == pytest.approx(math.pi / 3)
    assert coeff_norm_sq(sd.b) == pytest.approx(math.pi)


@pytest.mark.parametrize(
    "make",
    [
        lambda: solve_torsion_ball(2, 1.0, 1.0),
        lambda: solve_torsion_ball(3, 1.3, 0.6),
        lambda: solve_robin_eigen_ball(2, 1.0, 1.0),
        lambda: solve_robin_eigen_ball(3, 1.2, 0.9),
    ],
)
def test_uprime_robin_trace_matches_data(make):
    sol = make()
    N = {(1, 0): 0.5, (2, 1): -0.8, (3, 0): 0.25}
    sd = shape_derivative_uprime(sol, N)
    quad = SphereQuadrature(sol.n, 32)
    got = sd.robin_trace_values(quad.directions)
    want = sol.k_g() * synthesize(sol.n, N, quad.directions)
    assert np.max(np.abs(got - want)) < 1e-12
    # the two Q paths agree: the series of the report and boundary quadrature
    if sol.kind == TORSION:
        report = second_variation_energy_ball(sol, N)
    else:
        report = second_variation_eigenvalue_ball(sol, N)
    assert report.Q == pytest.approx(quadratic_form_Q_quadrature(sd), rel=1e-12)


def test_uprime_mean_mode_rules():
    # torsion: a constant component is fine (mu_0 = alpha > 0)
    t = solve_torsion_ball(2, 1.0, 1.0)
    sd = shape_derivative_uprime(t, {(0, 0): 1.0, (2, 0): 1.0})
    assert sd.c[(0, 0)] == pytest.approx(t.k_g() / t.alpha)
    # eigen: resonant, must be mean-free
    e = solve_robin_eigen_ball(2, 1.0, 1.0)
    for N in ({(0, 0): 1.0}, {(0, 0): 1e-15, (2, 0): 1.0}):
        with pytest.raises(ArithmeticError, match="mean-free"):
            shape_derivative_uprime(e, N)
    # mean-free data passes and sets c_0 = 0 (normalization int u u' = 0)
    sd2 = shape_derivative_uprime(e, {(0, 0): 0.0, (2, 0): 1.0})
    assert all(s != 0 or c == 0.0 for (s, _i), c in sd2.c.items())


def test_uprime_torsion_resonance_raises():
    # alpha R = -2 makes mu_2 = 0: degree-2 data has no linearized response
    t = solve_torsion_ball(2, 1.0, -2.0)
    with pytest.raises(ArithmeticError, match="resonant"):
        shape_derivative_uprime(t, COS2T)
    # data supported away from the resonant degree is still fine
    sd = shape_derivative_uprime(t, {(3, 0): 1.0})
    assert sd.c[(3, 0)] == pytest.approx(t.k_g() * 1.0 / (-2.0 + 3.0))


def test_uprime_interior_harmonic_torsion():
    # torsion u' is harmonic: check the Laplacian by 5-point stencil, n=2
    t = solve_torsion_ball(2, 1.0, 1.0)
    sd = shape_derivative_uprime(t, {(2, 0): 1.0, (3, 1): 0.4})
    h = 1e-4
    for pt in (np.array([0.3, 0.1]), np.array([-0.2, 0.5])):
        lap = -4 * interior_values(sd, pt)
        for d in (np.array([h, 0]), np.array([-h, 0]), np.array([0, h]), np.array([0, -h])):
            lap += interior_values(sd, pt + d)
        assert abs(lap / h**2) < 1e-5


def test_quadratic_form_helper():
    t = solve_torsion_ball(2, 1.0, 1.0)
    assert second_variation_energy_ball(t, COS2T).Q == pytest.approx(math.pi / 3)


def test_smallest_positive_mu():
    assert SteklovSpectrum(solve_torsion_ball(2, 1.0, 1.0)).smallest_positive_mu() == 2.0
    st = SteklovSpectrum(solve_torsion_ball(2, 1.0, -2.5))
    assert st.smallest_positive_mu() == pytest.approx(0.5)  # s = 3
    assert st.smallest_positive_mu(min_degree=4) == pytest.approx(1.5)
    # eigen state: positive branch starts at s = 1
    st2 = SteklovSpectrum(solve_robin_eigen_ball(2, 1.0, 1.0))
    assert st2.smallest_positive_mu() == pytest.approx(st2.mu(1))
