import math

import numpy as np
import pytest
from geometry_reference import (
    jacobian_fd_error,
    metric_expansions,
    project_zero_mean,
    radial_harmonic_jacobian,
    surface_element_m2_from_map,
)
from hypothesis import given, settings, strategies as st

from rsv.special_functions import SphereQuadrature, harmonic_indices, synthesize
from rsv.sphere_geometry import (
    AmbientField,
    PerturbationField,
    StarDomain,
    boundary_mean,
    constant_coeffs,
    constant_field,
    exact_surface_area,
    exact_volume,
    linear_field,
    normal_trace,
    perturbed_domain,
    radial_harmonic_field,
    rotation_field,
    second_order_volume_correction,
    sphere_measure,
    surface_divergence,
    surface_element_m2,
    surface_second_variation,
    surface_second_variation_general,
    volume_completion_field,
    zero_field,
)

COS2T = {(2, 0): math.sqrt(math.pi)}  # N(theta) = cos(2 theta) in n = 2


def messy_fields(n, seed):
    rng = np.random.default_rng(seed)
    v = radial_harmonic_field(
        n, 1.0, {(1, 0): 0.4, (2, 0): -0.6, (3, 1): 0.3}
    ) + rotation_field(n, 0.5)
    w = radial_harmonic_field(n, 1.0, {(0, 0): 0.8, (2, 1): -0.2}) + linear_field(
        rng.normal(size=(n, n)) * 0.3
    )
    return v, w


# ---------------------------------------------------------------------------
# ambient fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_analytic_jacobians_match_fd(n):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.6, 1.3, size=10)[:, None]
    coeffs = {(0, 0): 0.3, (1, 0): -0.7, (2, 1): 0.5, (3, 0): 0.2}
    assert jacobian_fd_error(radial_harmonic_field(n, 1.0, coeffs), pts) < 1e-8
    combo = rotation_field(n, 0.8) + constant_field(n, np.arange(n) + 1.0)
    assert jacobian_fd_error(combo, pts) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_radial_jacobian_bits_match_per_mode_loop(n):
    # the one-angle-pass Jacobian must reproduce the per-mode loop bit for
    # bit: the reports' boundary-functional values are summed from it
    rng = np.random.default_rng(23)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 6)}
    coeffs[(2, 1)] = 0.0  # zero modes are skipped on both sides
    x = rng.normal(size=(64, n))
    x *= rng.uniform(0.5, 1.5, size=(64, 1)) / np.linalg.norm(x, axis=1)[:, None]
    field = radial_harmonic_field(n, 1.3, coeffs)
    assert np.array_equal(field.jacobian(x), radial_harmonic_jacobian(n, 1.3, coeffs, x))
    assert np.array_equal(field.jacobian(x[0]), radial_harmonic_jacobian(n, 1.3, coeffs, x[0]))


@pytest.mark.parametrize("n", [2, 3])
def test_radial_extension_normal_trace(n):
    # v.nu on the sphere of radius R recovers the boundary function exactly
    coeffs = {(1, 1): 0.9, (2, 0): -0.4}
    R = 1.7
    v = radial_harmonic_field(n, R, coeffs)
    quad = SphereQuadrature(n, 24)
    got = normal_trace(v, R, quad)
    want = synthesize(n, coeffs, quad.directions)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_rotation_is_tangential(n):
    quad = SphereQuadrature(n, 16)
    assert np.max(np.abs(normal_trace(rotation_field(n), 2.0, quad))) < 1e-14


# ---------------------------------------------------------------------------
# Jacobian / surface element expansions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_dilation_expansion(n):
    me = metric_expansions(linear_field(np.eye(n)), zero_field(n), np.eye(n)[0])
    assert me.J0 == 1.0 and me.m0 == 1.0
    assert me.J1 == pytest.approx(n)
    assert me.J2 == pytest.approx(n * (n - 1))
    assert me.m1 == pytest.approx(n - 1)
    # boundary maps to sphere of radius (1+t): m(t) = (1+t)^{n-1}
    assert me.m2 == pytest.approx((n - 1) * (n - 2))
    assert np.allclose(me.A1, (n - 2) * np.eye(n), atol=1e-14)


def test_rotation_surface_element():
    # truncated rotation pushes the unit circle to radius sqrt(1+t^2)
    quad = SphereQuadrature(2, 16)
    v = rotation_field(2)
    m2 = surface_element_m2(v, zero_field(2), 1.0, quad)
    assert np.allclose(m2, 1.0, atol=1e-14)
    # completing with w = -x restores a rigid motion to second order
    w = volume_completion_field(v, 2, 1.0)
    assert np.allclose(w(np.array([1.0, 0.0])), [-1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(surface_element_m2(v, w, 1.0, quad))) < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_m2_two_routes_agree(n):
    # tangential-contraction formula vs direct expansion of det(M)|M^{-T}nu|
    quad = SphereQuadrature(n, 20)
    v, w = messy_fields(n, seed=11)
    a = surface_element_m2(v, w, 1.0, quad)
    b = surface_element_m2_from_map(v, w, 1.0, quad)
    assert np.max(np.abs(a - b)) < 1e-12


def test_metric_expansion_first_order_jacobian():
    # J(t) for the exact map, differentiated numerically
    n, t0 = 2, 1e-4
    v, w = messy_fields(n, seed=4)
    x = np.array([0.8, -0.6])
    me = metric_expansions(v, w, x)

    def jdet(t):
        m = np.eye(n) + t * v.jacobian(x) + 0.5 * t * t * w.jacobian(x)
        return np.linalg.det(m)

    fd1 = (jdet(t0) - jdet(-t0)) / (2 * t0)
    fd2 = (jdet(t0) - 2 * jdet(0.0) + jdet(-t0)) / t0**2
    assert me.J1 == pytest.approx(fd1, abs=1e-7)
    assert me.J2 == pytest.approx(fd2, abs=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_gauss_theorem_on_sphere(n):
    # int div_tan v dS = (n-1)/R int v.nu dS on the sphere of radius R
    R = 1.4
    quad = SphereQuadrature(n, 32)
    x = R * quad.directions
    for seed in (0, 1):
        v, _ = messy_fields(n, seed)
        lhs = quad.integrate(surface_divergence(v, x))
        rhs = (n - 1) / R * quad.integrate(normal_trace(v, R, quad))
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# star domains: volume and surface area
# ---------------------------------------------------------------------------


def test_ball_volume_and_area():
    assert exact_volume(StarDomain(2, 2.0, {}, {}, 0.0)) == pytest.approx(4 * math.pi)
    assert exact_surface_area(StarDomain(2, 2.0, {}, {}, 0.0)) == pytest.approx(
        4 * math.pi
    )
    assert exact_volume(StarDomain(3, 1.5, {}, {}, 0.0)) == pytest.approx(
        4.5 * math.pi, rel=1e-13
    )
    assert exact_surface_area(StarDomain(3, 1.5, {}, {}, 0.0)) == pytest.approx(
        9 * math.pi, rel=1e-13
    )


def test_cos2theta_family_volume_is_quartic():
    # r = 1 + t cos 2theta - t^2/4 has V(t) = pi (1 + t^4 / 16) exactly
    W = second_order_volume_correction(COS2T, 2, 1.0)
    assert boundary_mean(2, W) == pytest.approx(-0.5)
    for t in (0.05, 0.2, 0.35):
        V = exact_volume(StarDomain(2, 1.0, COS2T, W, t))
        assert V == pytest.approx(math.pi * (1 + t**4 / 16), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_volume_preserved_to_second_order(n):
    N = {(2, 1): 0.6, (3, 0): -0.3}
    R = 1.2
    W = second_order_volume_correction(N, n, R)
    h = 1e-3

    def vdd(Wc):
        vals = [exact_volume(StarDomain(n, R, N, Wc, t)) for t in (-h, 0.0, h)]
        return (vals[2] - 2 * vals[1] + vals[0]) / h**2

    assert abs(vdd(W)) < 1e-6  # corrected family: V''(0) = 0 exactly
    assert abs(vdd({})) > 0.1  # without the correction the t^2 term survives


def test_volume_correction_requires_mean_free():
    with pytest.raises(ValueError):
        second_order_volume_correction({(0, 0): 1.0}, 2, 1.0)
    cleaned = project_zero_mean({(0, 0): 1.0, (2, 0): 0.5})
    assert (0, 0) not in cleaned and cleaned[(2, 0)] == 0.5


def test_nonpositive_radius_rejected():
    big = {(2, 0): math.sqrt(math.pi)}
    with pytest.raises(ValueError):
        exact_volume(StarDomain(2, 1.0, big, {}, 1.5))


@pytest.mark.parametrize("n", [2, 3])
def test_star_radius_at_t_zero_is_the_ball(n):
    quad = SphereQuadrature(n, 12)
    d = StarDomain(n, 1.3, {(2, 1): 0.4, (3, 1): -0.1}, {(0, 0): -0.05}, 0.0)
    assert np.array_equal(d.radius(quad.directions), np.full(quad.weights.shape, 1.3))
    for derivative in ("theta", "phi") if n == 3 else ("theta",):
        r_d = d.radius(quad.directions, derivative)
        assert r_d.shape == quad.weights.shape and not np.any(r_d)


def test_perturbation_field_roundtrip():
    p = PerturbationField(n=3, R=1.3, N={(2, 1): 0.9}, W={(0, 0): -0.2})
    q = PerturbationField.from_text(p.to_text())
    assert q == p
    v, w = p.ambient_pair()
    quad = SphereQuadrature(3, 16)
    got = normal_trace(v, 1.3, quad)
    assert np.max(np.abs(got - synthesize(3, p.N, quad.directions))) < 1e-13


# ---------------------------------------------------------------------------
# surface-area second variation
# ---------------------------------------------------------------------------


def test_surface_second_variation_cos2theta():
    assert surface_second_variation(COS2T, 2, 1.0) == pytest.approx(3 * math.pi)


@pytest.mark.parametrize("n", [2, 3])
def test_surface_second_variation_general_matches_closed_form(n):
    N = {(2, 1): 0.9, (3, 1): -0.4}
    R = 1.3
    W = second_order_volume_correction(N, n, R)
    v = radial_harmonic_field(n, R, N)
    w = radial_harmonic_field(n, R, W)
    got = surface_second_variation_general(v, w, n, R)
    want = surface_second_variation(N, n, R)
    assert got == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("n", [2, 3])
def test_surface_second_variation_kernel(n):
    # translations (and their Hadamard data, degree 1) leave the area flat
    tr = constant_field(n, np.eye(n)[0])
    assert abs(surface_second_variation_general(tr, zero_field(n), n, 1.0)) < 1e-12
    assert surface_second_variation({(1, 0): 0.7}, n, 1.0) == 0.0


@given(st.integers(2, 5), st.floats(0.1, 2.0))
@settings(max_examples=20, deadline=None)
def test_surface_second_variation_positive_above_degree_one(s, c):
    # isoperimetric sign: every mean-free non-translation mode stiffens the area
    for n in (2, 3):
        val = surface_second_variation({(s, 0): c}, n, 1.0)
        assert val > 0.0


def test_surface_area_second_difference_matches_variation():
    # S(t) from the exact star-domain area vs the closed form, n = 2 and 3
    for n, N in ((2, COS2T), (3, {(2, 1): 0.8})):
        R = 1.0
        W = second_order_volume_correction(N, n, R)
        S0 = exact_surface_area(StarDomain(n, R, N, W, 0.0))
        h = 1e-3
        Sm = exact_surface_area(StarDomain(n, R, N, W, -h))
        Sp = exact_surface_area(StarDomain(n, R, N, W, h))
        fd = (Sp - 2 * S0 + Sm) / h**2
        assert fd == pytest.approx(surface_second_variation(N, n, R), abs=1e-5)
