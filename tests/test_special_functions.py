import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special
from bessel_reference import bessel_j_derivative, bessel_j_reference
from geometry_reference import (
    pointwise_lpmv_harmonic,
    pointwise_synthesis,
    pointwise_tangential_gradient,
)
from hypothesis import given, settings, strategies as st

import rsv.special_functions as special_functions
from rsv.special_functions import (
    HarmonicBasis,
    SphereQuadrature,
    _tangential_gradient,
    bessel_j,
    bessel_j_zeros,
    gauss_legendre,
    harmonic_indices,
    lb_eigen,
    multiplicity,
    spherical_harmonic,
    synthesize,
)


# ---------------------------------------------------------------------------
# Bessel functions (in-repo implementation; scipy used only as test oracle)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [0.0, 1.0, 2.0, 5.0, 0.5, 1.5, 2.5, 7.5])
def test_bessel_matches_scipy(order):
    z = np.linspace(1e-3, 50.0, 400)
    ours = np.array([bessel_j(order, float(x)) for x in z])
    ref = scipy.special.jv(order, z)
    assert np.max(np.abs(ours - ref)) < 1e-13


def test_bessel_integer_orders_small_argument_relative():
    # the backward recurrence alone covers x < 0.5; scipy's jv flushes to 0
    # below about 1e-290, where only the size of ours is checked
    z = np.logspace(-12, math.log10(0.5), 60)
    for order in range(31):
        ours = np.array([bessel_j(float(order), float(x)) for x in z])
        ref = scipy.special.jv(order, z)
        normal = ref != 0.0
        assert np.all(np.abs(ours - ref)[normal] <= 5e-13 * np.abs(ref[normal]))
        assert np.all(np.abs(ours[~normal]) < 1e-289)


def test_bessel_at_zero():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(2.5, 0.0) == 0.0


def test_one_recurrence_keeps_the_bits_of_the_two_it_replaced():
    # orders 0, 1/2, ..., 39 1/2, and four within the order tolerance of
    # their family, at x = 0, log-spaced x in [1e-9, 1) (the x < 1e-5
    # series and the 1e-250 rescaling of tiny x) and x in (0, 60]; the
    # uint64 view tells signed zeros apart
    xs = np.concatenate(
        [[0.0], np.logspace(-9.0, 0.0, 160, endpoint=False), np.linspace(0.25, 60.0, 240)]
    )
    near = [3.0 - 1e-13, 3.0 + 1e-13, 2.5 - 1e-13, 2.5 + 1e-13]
    for order in [*np.arange(80) / 2.0, *near]:
        ours = np.array([bessel_j(float(order), float(x)) for x in xs])
        ref = np.array([bessel_j_reference(float(order), float(x)) for x in xs])
        assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64)), order


@pytest.mark.parametrize("order", [0.25, 1.3, 2.5 + 1e-9, 4.0 - 1e-9])
def test_orders_off_both_families_rejected(order):
    with pytest.raises(ValueError, match="neither integer nor half-integer"):
        bessel_j(order, 1.0)


@given(
    st.floats(min_value=0.1, max_value=40.0),
    st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, 1.5]),
)
@settings(max_examples=80, deadline=None)
def test_bessel_recurrence(z, nu):
    # three-term recurrence J_{nu} + J_{nu+2} = (2(nu+1)/z) J_{nu+1}
    lhs = bessel_j(nu + 1.0, z) * 2.0 * (nu + 1.0) / z
    rhs = bessel_j(nu, z) + bessel_j(nu + 2.0, z)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("order", [0.0, 1.0, 1.5, 3.0])
def test_bessel_derivative_identity(order):
    # d/dz [z^{-nu} J_nu] = -z^{-nu} J_{nu+1}, checked against central FD
    h = 1e-6
    for z in (0.7, 2.3, 9.1):
        f = lambda x: x ** (-order) * bessel_j(order, x)
        fd = (f(z + h) - f(z - h)) / (2 * h)
        exact = -(z ** (-order)) * bessel_j(order + 1.0, z)
        assert abs(fd - exact) < 1e-8
        # and the direct derivative evaluator
        fd2 = (bessel_j(order, z + h) - bessel_j(order, z - h)) / (2 * h)
        assert abs(bessel_j_derivative(order, z) - fd2) < 1e-8


def test_bessel_zeros():
    z0 = bessel_j_zeros(0.0, 3)
    ref = [2.404825557695773, 5.520078110286311, 8.653727912911013]
    assert np.allclose(z0, ref, atol=1e-11)
    # J_{1/2}(z) ~ sin(z): zeros at multiples of pi
    zh = bessel_j_zeros(0.5, 2)
    assert np.allclose(zh, [math.pi, 2 * math.pi], atol=1e-11)
    # zeros interlace with the next order's
    z1 = bessel_j_zeros(1.0, 3)
    assert z0[0] < z1[0] < z0[1] < z1[1] < z0[2]


# ---------------------------------------------------------------------------
# Laplace-Beltrami spectrum bookkeeping
# ---------------------------------------------------------------------------


def test_lb_eigen_values():
    assert lb_eigen(0, 2) == (0.0, 1)
    assert lb_eigen(1, 2) == (1.0, 2)
    assert lb_eigen(2, 2) == (4.0, 2)
    assert lb_eigen(1, 3) == (2.0, 3)
    assert lb_eigen(2, 3) == (6.0, 5)
    assert lb_eigen(3, 3) == (12.0, 7)
    assert multiplicity(4, 3) == 9


def test_lb_eigen_multiplicity_matches_the_factorial_formula():
    # a plain function, so the benchmark tracer still wraps it by name
    assert inspect.isfunction(lb_eigen)
    for n in (2, 3, 4, 5):
        for s in range(41):
            dim = 1 if s == 0 else (2 * s + n - 2) * math.factorial(s + n - 3) // (
                math.factorial(s) * math.factorial(n - 2)
            )
            assert lb_eigen(s, n) == (float(s * (s + n - 2)), dim)


def test_harmonic_indices_cover_multiplicities():
    for n in (2, 3):
        idx = harmonic_indices(n, 5)
        for s in range(6):
            count = sum(1 for (d, _i) in idx if d == s)
            assert count == multiplicity(s, n)


# ---------------------------------------------------------------------------
# spherical harmonics and quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_quadrature_measures_sphere(n):
    quad = SphereQuadrature(n)
    total = quad.integrate(np.ones_like(quad.weights))
    assert abs(total - (2 * math.pi if n == 2 else 4 * math.pi)) < 1e-12


def fresh_sphere_nodes(n, order):
    """theta, phi, directions and weights of the sphere rule, built anew
    in the operations `SphereQuadrature` has always used."""
    if n == 2:
        theta, weights = special_functions.polar_rule(2, order)
        return theta, None, np.stack([np.cos(theta), np.sin(theta)], axis=-1), weights
    theta_1d, w = special_functions.polar_rule(3, order, azimuths=order)
    theta, phi = np.meshgrid(theta_1d, special_functions.polar_rule(2, order)[0], indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    sin_t = np.sin(theta)
    directions = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)], axis=-1)
    return theta, phi, directions, np.repeat(w, order)


NODE_ARRAYS = ("theta", "phi", "directions", "weights")


@pytest.mark.parametrize("n, order", [(2, 16), (2, 64), (3, 16), (3, 64)])
def test_quadrature_nodes_are_shared_read_only_and_keep_their_bits(n, order):
    quad = SphereQuadrature(n, order)
    for name, want in zip(NODE_ARRAYS, fresh_sphere_nodes(n, order)):
        got = getattr(quad, name)
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and same_bits(got, want), name
        assert getattr(SphereQuadrature(n, order), name) is got
        with pytest.raises(ValueError):
            got[0] = 0.5
    assert quad.n == n and quad.order == order
    maxsize = special_functions._sphere_nodes.cache_info().maxsize
    assert f"the {maxsize} rules used last" in special_functions._sphere_nodes.__doc__


def test_quadrature_nodes_follow_the_order_variable(monkeypatch):
    for n in (2, 3):
        SphereQuadrature(n, 64)
    monkeypatch.setenv("RSV_QUAD_ORDER", "16")
    two, three = SphereQuadrature(2), SphereQuadrature(3)
    assert two.order == three.order == 16
    assert two.directions.shape == (16, 2) and two.weights.shape == (16,)
    assert three.directions.shape == (256, 3) and three.weights.shape == (256,)
    assert three.theta.shape == three.phi.shape == (256,)


@pytest.mark.parametrize("n", [2, 3])
def test_harmonic_basis_keeps_its_bits_on_shared_nodes(n):
    # the table of the pre-sharing nodes, from the uncached evaluator
    _theta, _phi, directions, weights = fresh_sphere_nodes(n, 32)
    ang = special_functions._angles(n, directions)
    indices = harmonic_indices(n, 6)
    want = np.stack([special_functions._harmonic(s, i, ang) for s, i in indices]) * weights
    basis = HarmonicBasis(n, 6, SphereQuadrature(n, 32))
    assert basis.indices == indices and same_bits(basis.weighted, want)
    assert special_functions._projection_table(n, 6, 32)[1] is basis.weighted
    values = np.random.default_rng(6).normal(size=weights.shape)
    assert list(basis.project(values).values()) == [float(c) for c in want @ values]


def harmonic_table(basis):
    """Y_{s,i} at the basis's nodes, one harmonic at a time, in its order."""
    directions = basis.quad.directions
    return np.stack(
        [np.asarray(spherical_harmonic(basis.n, s, i, directions)) for s, i in basis.indices]
    )


@pytest.mark.parametrize("n", [2, 3])
def test_harmonics_orthonormal(n):
    basis = HarmonicBasis(n, max_degree=8)
    gram = basis.weighted @ harmonic_table(basis).T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_unsold_sum(n):
    # sum over an orthonormal degree-s family of Y^2 is constant mult/|S^{n-1}|
    quad = SphereQuadrature(n, 20)
    for s in (1, 2, 4):
        total = np.zeros(quad.weights.shape[0])
        for i in range(multiplicity(s, n)):
            y = np.asarray(spherical_harmonic(n, s, i, quad.directions))
            total += y * y
        expected = multiplicity(s, n) / (2 * math.pi if n == 2 else 4 * math.pi)
        assert np.max(np.abs(total - expected)) < 1e-10


@pytest.mark.parametrize(
    "n, coeffs",
    [
        (2, {(1, 0): 1.0}),
        (2, {(3, 1): 1.0}),
        (3, {(1, 1): 1.0}),
        (3, {(2, 3): 1.0}),
        (3, {(4, 2): 1.0}),
        (2, {(1, 0): 0.5, (3, 1): -1.2, (4, 0): 0.7}),
        (3, {(1, 1): 0.5, (2, 3): -1.2, (4, 2): 0.7, (4, 8): 0.3}),
    ],
)
def test_tangential_gradient_dirichlet_energy(n, coeffs):
    # int |grad_tan sum c Y|^2 = sum c^2 s(s+n-2) on the unit sphere, the
    # harmonics being orthonormal eigenfunctions of the Laplace-Beltrami
    quad = SphereQuadrature(n, 48)
    g = _tangential_gradient(n, coeffs, quad.directions)
    assert g.shape == (quad.weights.size, n)
    energy = quad.integrate(np.einsum("qi,qi->q", g, g))
    want = sum(c * c * lb_eigen(s, n)[0] for (s, _i), c in coeffs.items())
    assert abs(energy - want) < 1e-10
    # gradients are tangential
    radial = np.einsum("qi,qi->q", g, quad.directions)
    assert np.max(np.abs(radial)) < 1e-12


def test_dtheta_matches_finite_differences():
    h = 1e-5
    for n, s, i in [(2, 2, 0), (2, 3, 1), (3, 2, 1), (3, 3, 4)]:
        for theta in (0.4, 1.1, 2.3):
            phi = 0.7
            if n == 2:
                d = lambda t: np.array([math.cos(t), math.sin(t)])
            else:
                d = lambda t: np.array(
                    [math.sin(t) * math.cos(phi), math.sin(t) * math.sin(phi), math.cos(t)]
                )
            fd = (
                spherical_harmonic(n, s, i, d(theta + h))
                - spherical_harmonic(n, s, i, d(theta - h))
            ) / (2 * h)
            val = synthesize(n, {(s, i): 1.0}, d(theta), "theta")
            assert abs(val - fd) < 1e-8


def _polar_directions(n, theta, phi):
    if n == 2:
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    st_ = np.sin(theta)
    return np.stack([st_ * np.cos(phi), st_ * np.sin(phi), np.cos(theta)], axis=-1)


@pytest.mark.parametrize("n", [2, 3])
def test_synthesize_derivatives_match_centred_differences(n):
    # every real harmonic of degree <= 4, so n = 3 data is far from zonal
    rng = np.random.default_rng(11)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 4)}
    theta = rng.uniform(0.3, 2.8, 40)
    phi = rng.uniform(0.0, 2.0 * math.pi, 40)
    h = 1e-5

    def at(th, ph, derivative=None):
        return synthesize(n, coeffs, _polar_directions(n, th, ph), derivative)

    fd_theta = (at(theta + h, phi) - at(theta - h, phi)) / (2 * h)
    assert np.max(np.abs(at(theta, phi, "theta") - fd_theta)) < 1e-8
    if n == 3:
        fd_phi = (at(theta, phi + h) - at(theta, phi - h)) / (2 * h)
        assert np.max(np.abs(at(theta, phi, "phi") - fd_phi)) < 1e-8
    with pytest.raises(ValueError):
        at(theta, phi, "r")


def test_synthesize_takes_coefficient_arrays():
    # array coefficients broadcast against the points, term by term
    quad = SphereQuadrature(3, 8)
    ramp = np.linspace(0.5, 2.0, quad.weights.shape[0])
    coeffs = {(2, 1): 0.7 * ramp, (3, 3): -0.2 * ramp}
    want = ramp * synthesize(3, {(2, 1): 0.7, (3, 3): -0.2}, quad.directions)
    assert np.max(np.abs(synthesize(3, coeffs, quad.directions) - want)) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_projection_roundtrip(n):
    basis = HarmonicBasis(n, max_degree=6)
    rng = np.random.default_rng(7)
    coeffs = {
        (s, i): float(rng.normal())
        for (s, i) in harmonic_indices(n, 4)
    }
    values = synthesize(n, coeffs, basis.quad.directions)
    back = basis.project(values)
    for key, c in coeffs.items():
        assert abs(back[key] - c) < 1e-11


def _random_directions(n, count, seed):
    d = np.random.default_rng(seed).normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1)[:, None]


# (n, degree, index, message): an index beyond the multiplicity, one below
# zero, and a dimension the library does not cover
_BAD_HARMONICS = [
    (2, 3, 4, "index 4 out of range for degree 3, n=2"),
    (2, 0, 1, "index 1 out of range for degree 0, n=2"),
    (3, 2, 5, "index 5 out of range for degree 2, n=3"),
    (3, 1, -1, "index -1 out of range for degree 1, n=3"),
    (4, 2, 0, "n must be 2 or 3"),
]


def _one_harmonic(derivative):
    """Y_{s,i}'s angular derivative through `synthesize`, its one route."""
    return lambda n, s, i, d: synthesize(n, {(s, i): 1.0}, d, derivative)


_EVALUATORS = {
    "value": spherical_harmonic,
    "theta": _one_harmonic("theta"),
    "phi": _one_harmonic("phi"),
    "gradient": lambda n, s, i, d: _tangential_gradient(n, {(s, i): 1.0}, d),
}


@pytest.mark.parametrize("evaluator", list(_EVALUATORS))
@pytest.mark.parametrize("n,s,i,message", _BAD_HARMONICS)
def test_harmonic_index_and_dimension_rejected(evaluator, n, s, i, message):
    d = _random_directions(n, 5, 1)
    with pytest.raises(ValueError, match=message):
        _EVALUATORS[evaluator](n, s, i, d)
    if evaluator != "gradient":
        derivative = None if evaluator == "value" else evaluator
        with pytest.raises(ValueError, match=message):
            synthesize(n, {(s, i): 1.0}, d, derivative)


def test_dphi_rejected_in_two_dimensions():
    d = _random_directions(2, 5, 2)
    with pytest.raises(ValueError, match="dphi is defined for n=3 only"):
        synthesize(2, {(2, 1): 1.0}, d, "phi")


@pytest.mark.parametrize("n", [2, 3])
def test_synthesize_bits_match_term_by_term_sum(n):
    # synthesize takes the angles once; it must still give the bits of
    # adding c * Y (or its derivative) one harmonic at a time
    rng = np.random.default_rng(31 + n)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 6)}
    d = _random_directions(n, 50, 3 + n)
    routes = {None: spherical_harmonic, "theta": _one_harmonic("theta")}
    if n == 3:
        routes["phi"] = _one_harmonic("phi")
    for derivative, harmonic in routes.items():
        want = np.zeros(d.shape[0])
        for (s, i), c in coeffs.items():
            want = want + c * np.asarray(harmonic(n, s, i, d))
        assert np.array_equal(synthesize(n, coeffs, d, derivative), want)


# ---------------------------------------------------------------------------
# projection table cache
# ---------------------------------------------------------------------------


def test_projection_table_is_shared_and_read_only():
    a = HarmonicBasis(3, 24)
    b = HarmonicBasis(3, 24, SphereQuadrature(3))
    assert a.weighted is b.weighted
    with pytest.raises(ValueError):
        a.weighted[0, 0] = 1.0
    fresh = harmonic_table(a) * a.quad.weights
    assert np.array_equal(a.weighted, fresh)
    values = np.random.default_rng(5).normal(size=a.quad.weights.shape)
    coeffs = fresh @ values
    assert list(a.project(values).values()) == [float(c) for c in coeffs]


def test_projection_table_keyed_on_order():
    coarse = HarmonicBasis(3, 24, SphereQuadrature(3, 32))
    fine = HarmonicBasis(3, 24, SphereQuadrature(3, 64))
    assert coarse.weighted is not fine.weighted
    assert coarse.weighted.shape == (625, 32 * 32)
    assert HarmonicBasis(3, 24, SphereQuadrature(3, 32)).weighted is coarse.weighted
    with pytest.raises(ValueError):
        HarmonicBasis(3, 4, SphereQuadrature(2, 32))


def test_default_order_follows_the_variable(monkeypatch):
    monkeypatch.setenv("RSV_QUAD_ORDER", "32")
    assert SphereQuadrature(2).order == 32
    assert HarmonicBasis(2, 4).quad.order == 32
    for text in ("abc", "-4", "0"):
        monkeypatch.setenv("RSV_QUAD_ORDER", text)
        with pytest.raises(ValueError, match="RSV_QUAD_ORDER"):
            SphereQuadrature(2)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def irregular_directions() -> np.ndarray:
    """40 random unit directions with both poles, the equator at z = +0.0
    and z = -0.0, and repeated directions and cos(theta) values."""
    d = np.random.default_rng(11).normal(size=(40, 3))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    d[0] = (0.0, 0.0, 1.0)
    d[1] = (0.0, 0.0, -1.0)
    d[2] = (1.0, 0.0, 0.0)
    d[3] = (0.0, 1.0, -0.0)
    d[4] = d[5] = d[6] = d[9]
    d[7] = (-d[9, 1], d[9, 0], d[9, 2])  # d[9] turned about the axis
    d[8] = d[0]
    return d


def assert_pointwise_lpmv_bits(ang, max_degree: int) -> None:
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, i in harmonic_indices(3, max_degree):
            for part, want in enumerate(pointwise_lpmv_harmonic(s, i, ang)):
                assert same_bits(special_functions._harmonic(s, i, ang, part), want), (s, i)


@pytest.mark.parametrize("shape", [(40, 3), (5, 8, 3), (3,)])
def test_harmonic_on_unique_cos_theta_keeps_the_bits_of_pointwise_lpmv(shape):
    d = irregular_directions()[: math.prod(shape[:-1])].reshape(shape)
    ang = special_functions._angles(3, d)
    assert same_bits(ang.cos_unique[ang.cos_inverse], ang.cos_theta)
    if d.ndim > 1:
        assert ang.cos_unique.size < ang.cos_theta.size
    assert_pointwise_lpmv_bits(ang, 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, i in [(0, 0), (3, 1), (5, 8)]:
            y, want = spherical_harmonic(3, s, i, d), pointwise_lpmv_harmonic(s, i, ang)[0]
            assert same_bits(y, want) and type(y) is type(want)


def test_unique_cos_theta_keeps_signed_zeros_and_nans_apart():
    cos = np.array([0.0, -0.0, 0.5, np.nan, 0.5, -0.0, 1.0, -1.0, -np.nan])
    values, inverse = special_functions._unique_bits(cos)
    assert values.size == 7
    assert same_bits(values[inverse], cos)
    # lpmv gives differently signed zeros at +0.0 and -0.0 for these orders
    assert not same_bits(scipy.special.lpmv(0, 5, 0.0), scipy.special.lpmv(0, 5, -0.0))
    assert not same_bits(scipy.special.lpmv(1, 4, 0.0), scipy.special.lpmv(1, 4, -0.0))
    # the azimuths take the same care: +-0.0, +-pi and NaNs of either sign
    phi = np.array([0.0, -0.0, math.pi, -math.pi, np.nan, math.pi, -0.0, 1.0, -np.nan])
    phi_values, phi_inverse = special_functions._unique_bits(phi)
    assert phi_values.size == 7
    assert same_bits(phi_values[phi_inverse], phi)
    # sin(|m| phi) keeps the sign of a zero azimuth
    assert not same_bits(np.sin(2 * 0.0), np.sin(2 * -0.0))
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    ang = special_functions._Angles(
        3, theta, phi, cos, np.sin(theta), values, inverse, phi_values, phi_inverse
    )
    assert_pointwise_lpmv_bits(ang, 6)


def test_sphere_grid_evaluates_one_legendre_row_per_gauss_node():
    ang = special_functions._angles(3, SphereQuadrature(3, 64).directions)
    assert ang.cos_theta.size == 64 * 64
    assert ang.cos_unique.size == 64


def test_directions_of_the_wrong_dimension_rejected():
    with pytest.raises(ValueError, match=r"shape \(3,\) are not 2-vectors \(n=2\)"):
        spherical_harmonic(2, 2, 0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"shape \(1, 2\) are not 3-vectors \(n=3\)"):
        synthesize(3, {(2, 1): 1.0}, [[1.0, 0.0]])
    with pytest.raises(ValueError, match=r"shape \(\) are not 3-vectors"):
        _tangential_gradient(3, {(2, 1): 1.0}, 1.0)
    # the shape is checked before the grid memo is consulted
    d = _random_directions(3, 6, 4)
    special_functions._angles(3, d)
    info = special_functions._grid_angles.cache_info()
    with pytest.raises(ValueError, match=r"shape \(6, 3\) are not 2-vectors"):
        synthesize(2, {(2, 1): 1.0}, d)
    assert special_functions._grid_angles.cache_info() == info


def test_grid_memo_is_read_only_and_keeps_signed_zeros_apart():
    special_functions._grid_angles.cache_clear()
    d_plus = irregular_directions()
    d_minus = d_plus.copy()
    d_minus[2, 1] = -0.0  # (1, -0.0, 0): azimuth -0.0 in place of +0.0
    coeffs = {si: 1.0 for si in harmonic_indices(3, 4)}
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in (d_plus, d_minus):
            synthesize(3, coeffs, d)
    assert special_functions._grid_angles.cache_info().currsize == 2
    plus, minus = special_functions._angles(3, d_plus), special_functions._angles(3, d_minus)
    assert special_functions._grid_angles.cache_info().hits == 2
    assert same_bits(plus.phi[2], 0.0) and same_bits(minus.phi[2], -0.0)
    assert set(plus.values) == set(minus.values) == {(s, i, 0) for s, i in coeffs}
    for ang in (plus, minus):
        for (s, i, _part), y in ang.values.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                assert same_bits(y, pointwise_lpmv_harmonic(s, i, ang)[0]), (s, i)
            with pytest.raises(ValueError):
                y[0] = 1.0
        for a in ang[1:-1]:
            with pytest.raises(ValueError):
                a[0] = 1.0
    # sin(|m| phi) keeps the sign of the zero azimuth
    assert not same_bits(plus.values[(3, 2, 0)], minus.values[(3, 2, 0)])


def test_projection_table_build_keeps_no_harmonic_values():
    special_functions._projection_table.cache_clear()
    special_functions._grid_angles.cache_clear()
    quad = SphereQuadrature(3, 16)
    HarmonicBasis(3, 8, quad)
    ang = special_functions._angles(3, quad.directions)
    assert special_functions._grid_angles.cache_info().hits == 1
    assert ang.values == {}


class _CountingNumpy:
    """numpy for `special_functions`, counting its cos and sin calls."""

    def __init__(self, counts):
        self.counts = counts

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x):
        self.counts["trig"] += 1
        return np.cos(x)

    def sin(self, x):
        self.counts["trig"] += 1
        return np.sin(x)


def _count_harmonic_calls(monkeypatch) -> dict:
    """Counts of the lpmv and the cos/sin calls `special_functions` makes
    from here on."""
    counts = {"lpmv": 0, "trig": 0}

    def counting_lpmv(*args):
        counts["lpmv"] += 1
        return scipy.special.lpmv(*args)

    monkeypatch.setattr(special_functions, "lpmv", counting_lpmv)
    monkeypatch.setattr(special_functions, "np", _CountingNumpy(counts))
    return counts


@pytest.mark.parametrize("n", [2, 3])
def test_synthesize_evaluates_each_harmonic_once_per_grid(monkeypatch, n):
    quad = SphereQuadrature(n, 64)
    special_functions._grid_angles.cache_clear()
    special_functions._angles(n, quad.directions)
    counts = _count_harmonic_calls(monkeypatch)
    indices = [si for si in harmonic_indices(n, 6) if si[0] >= 2]
    coeffs = {si: 1.0 + k for k, si in enumerate(indices)}
    first = synthesize(n, coeffs, quad.directions)
    # one lpmv per harmonic in n = 3, one cos or sin per non-zonal harmonic
    trig = sum(1 for s, i in indices if (n == 2 or i != s))
    want = {"lpmv": len(indices) if n == 3 else 0, "trig": trig}
    assert counts == want
    for scale in (2.0, -0.5, 1.0):
        again = synthesize(n, {si: scale * c for si, c in coeffs.items()}, quad.directions.copy())
    assert counts == want
    assert same_bits(again, first)
    monkeypatch.undo()
    assert same_bits(first, pointwise_synthesis(n, coeffs, quad.directions))


def _calls_of_one_part(n: int, s: int, i: int, part: int) -> tuple[int, int]:
    """(lpmv, cos/sin) calls of one fresh `_harmonic` part, degree s >= 1:
    dY/dtheta adds P_{s-1}^{|m|} when it exists, and a zonal dY/dphi is
    zero without a call."""
    if n == 2:
        return 0, 1
    m = i - s
    if part == 2 and m == 0:
        return 0, 0
    return 1 + (part == 1 and s - 1 >= abs(m)), int(m != 0)


@pytest.mark.parametrize("n", [2, 3])
def test_derivatives_and_gradients_evaluate_each_part_once_per_grid(monkeypatch, n):
    # the values, the angular derivatives and the tangential gradient of a
    # harmonic sum share the grid's memo: two passes, on equal directions
    # in two arrays, evaluate each (s, i, part) once
    quad = SphereQuadrature(n, 64)
    special_functions._grid_angles.cache_clear()
    grids = [quad.directions, quad.directions.copy()]
    special_functions._angles(n, grids[0])
    counts = _count_harmonic_calls(monkeypatch)
    indices = [si for si in harmonic_indices(n, 6) if si[0] >= 2]
    coeffs = {si: 1.0 + k for k, si in enumerate(indices)}
    derivatives = [None, "theta", "phi"][:n]
    sums, gradients = [], []
    for d in grids:
        sums.append([synthesize(n, coeffs, d, dv) for dv in derivatives])
        gradients.append(_tangential_gradient(n, coeffs, d))
    calls = [_calls_of_one_part(n, s, i, part) for s, i in indices for part in range(n)]
    # the n=3 frame takes one cos and one sin of the distinct phi per call
    frame = 2 * len(grids) if n == 3 else 0
    assert counts == {
        "lpmv": sum(c[0] for c in calls),
        "trig": sum(c[1] for c in calls) + frame,
    }
    monkeypatch.undo()
    assert all(same_bits(a, b) for a, b in zip(*sums))
    assert same_bits(*gradients)
    for part, total in enumerate(sums[0]):
        assert same_bits(total, pointwise_synthesis(n, coeffs, quad.directions, part))
    assert same_bits(gradients[0], pointwise_tangential_gradient(n, coeffs, quad.directions))


def test_kept_derivative_rows_are_read_only_pointwise_bits():
    d = irregular_directions()
    special_functions._grid_angles.cache_clear()
    coeffs = {si: 1.0 for si in harmonic_indices(3, 5)}
    with np.errstate(divide="ignore", invalid="ignore"):
        for derivative in ("theta", "phi"):
            synthesize(3, coeffs, d, derivative)
        ang = special_functions._angles(3, d)
        assert set(ang.values) == {(s, i, part) for s, i in coeffs for part in (1, 2)}
        for (s, i, part), y in ang.values.items():
            assert same_bits(y, pointwise_lpmv_harmonic(s, i, ang)[part]), (s, i, part)
            with pytest.raises(ValueError):
                y[0] = 1.0


def test_gauss_legendre_is_numpys_rule_shared_and_read_only():
    x, w = gauss_legendre(12)
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    again = gauss_legendre(12)
    assert again[0] is x and again[1] is w
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_import_builds_no_gauss_rule():
    code = (
        "import rsv, rsv.oracle_solver, rsv.special_functions as sf; "
        "print(sf.gauss_legendre.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(special_functions.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_import_builds_no_projection_table():
    code = (
        "import rsv, rsv.special_functions as sf; "
        "print(sf._projection_table.cache_info().currsize)"
    )
    src = os.path.dirname(os.path.dirname(special_functions.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"
