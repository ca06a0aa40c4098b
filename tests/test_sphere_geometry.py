import math

import numpy as np
import pytest
from geometry_reference import (
    jacobian_fd_error,
    metric_expansions,
    pointwise_synthesis,
    project_zero_mean,
    radial_harmonic_jacobian,
    radial_harmonic_values,
    surface_divergence,
    surface_element_m2_from_map,
    surface_element_m2_matmul,
    surface_second_variation_general,
)
from hypothesis import given, settings, strategies as st

from rsv import special_functions, sphere_geometry
from rsv.radial_solutions import solve_robin_eigen_ball, solve_torsion_ball
from rsv.special_functions import SphereQuadrature, harmonic_indices, synthesize
from rsv.sphere_geometry import (
    AmbientField,
    PerturbationField,
    StarDomain,
    constant_coeffs,
    exact_surface_area,
    exact_volume,
    linear_field,
    normal_trace,
    perturbed_domain,
    radial_harmonic_field,
    rotation_field,
    second_order_volume_correction,
    sphere_measure,
    surface_element_m2,
    surface_second_variation,
    volume_completion_field,
    zero_field,
)
from rsv.variations import (
    second_variation_eigenvalue_ball,
    second_variation_energy_ball,
    second_variation_general,
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
    combo = rotation_field(n, 0.8) + linear_field(np.zeros((n, n)), np.arange(n) + 1.0)
    assert jacobian_fd_error(combo, pts) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_radial_jacobian_bits_match_the_pointwise_formula(n):
    # the memoised Jacobian must reproduce the pointwise harmonic sums and
    # products bit for bit: the reports' boundary-functional values are
    # summed from it
    rng = np.random.default_rng(23)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 6)}
    coeffs[(2, 1)] = 0.0  # zero modes are skipped on both sides
    x = rng.normal(size=(64, n))
    x *= rng.uniform(0.5, 1.5, size=(64, 1)) / np.linalg.norm(x, axis=1)[:, None]
    field = radial_harmonic_field(n, 1.3, coeffs)
    assert np.array_equal(field.jacobian(x), radial_harmonic_jacobian(n, 1.3, coeffs, x))
    assert np.array_equal(field.jacobian(x[0]), radial_harmonic_jacobian(n, 1.3, coeffs, x[0]))


# ---------------------------------------------------------------------------
# shared radial-harmonic tables: every check compares bits, none a tolerance
# ---------------------------------------------------------------------------


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns (so -0.0 != +0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_points(n, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, n))
    return x * rng.uniform(0.5, 1.5, size=(count, 1)) / np.linalg.norm(x, axis=1)[:, None]


@pytest.mark.parametrize("n", [2, 3])
def test_radial_table_matches_the_pointwise_references(n):
    sphere_geometry._radial_table.cache_clear()
    rng = np.random.default_rng(31)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 6)}
    coeffs[(3, 1)] = 0.0
    x = random_points(n, 64, 32)
    field = radial_harmonic_field(n, 1.3, coeffs)
    values, jac = field(x), field.jacobian(x)
    assert same_bits(values, radial_harmonic_values(n, 1.3, coeffs, x))
    assert same_bits(jac, radial_harmonic_jacobian(n, 1.3, coeffs, x))
    assert same_bits(field(x[5]), radial_harmonic_values(n, 1.3, coeffs, x[5]))
    # values and Jacobian share one entry; equal data in a new field and
    # equal points in a new array hit it again
    again = radial_harmonic_field(n, 1.3, dict(coeffs))
    assert again(x.copy()) is values and again.jacobian(x.copy()) is jac
    assert sphere_geometry._radial_table.cache_info().hits == 3


@pytest.mark.parametrize("n", [2, 3])
def test_signed_zero_points_get_separate_entries(n):
    coeffs = {(1, 0): 0.4, (2, 1): -0.6, (3, 0): 0.3}
    x_plus = random_points(n, 8, 33)
    x_plus[0] = [0.9, 0.0] if n == 2 else [0.9, 0.0, 0.3]
    x_minus = x_plus.copy()
    x_minus[0, 1] = -0.0
    field = radial_harmonic_field(n, 1.0, coeffs)
    sphere_geometry._radial_table.cache_clear()
    got = [(field(x), field.jacobian(x)) for x in (x_plus, x_minus)]
    assert sphere_geometry._radial_table.cache_info().currsize == 2
    for x, (values, jac) in zip((x_plus, x_minus), got):
        assert same_bits(values, radial_harmonic_values(n, 1.0, coeffs, x))
        assert same_bits(jac, radial_harmonic_jacobian(n, 1.0, coeffs, x))
    # the two point sets differ only in the sign of a zero, and so do the
    # values: an entry keyed on x by value would hand one set the other's
    assert not same_bits(got[0][0], got[1][0])


@pytest.mark.parametrize("n", [2, 3])
def test_coefficient_order_sets_the_bits(n):
    rng = np.random.default_rng(34)
    forward = {si: float(rng.normal()) for si in harmonic_indices(n, 6)}
    backward = dict(reversed(forward.items()))
    x = random_points(n, 64, 35)
    orders = (forward, backward)
    want = [
        (radial_harmonic_values(n, 1.3, c, x), radial_harmonic_jacobian(n, 1.3, c, x))
        for c in orders
    ]
    # the two summation orders round differently somewhere on these points
    assert not same_bits(want[0][0], want[1][0])
    assert not same_bits(want[0][1], want[1][1])
    sphere_geometry._radial_table.cache_clear()
    for k in (0, 1, 0):
        field = radial_harmonic_field(n, 1.3, orders[k])
        assert same_bits(field(x), want[k][0])
        assert same_bits(field.jacobian(x), want[k][1])


def test_radial_tables_are_read_only():
    field = radial_harmonic_field(3, 1.0, {(2, 1): 0.5})
    x = random_points(3, 4, 36)
    for table in (field(x), field.jacobian(x)):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_radial_table_memo_stays_bounded():
    info = sphere_geometry._radial_table.cache_info()
    assert info.maxsize is not None and info.maxsize <= 16
    x = random_points(3, 16, 37)
    for k in range(info.maxsize + 3):
        field = radial_harmonic_field(3, 1.0, {(2, 0): 0.1 * (k + 1)})
        field(x)
        field.jacobian(x)
    assert sphere_geometry._radial_table.cache_info().currsize == info.maxsize


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [1.0, 1.3])
def test_sphere_grid_tables_match_the_pointwise_references(n, R):
    # the grid of every library integral: memoised harmonics, separable
    # angle factors and the harmonic-sum Jacobian, with every order m of
    # degrees 0-10, against pointwise point-major evaluation; degrees 9 and
    # 10 are above the memo's and are evaluated afresh on every call
    quad = SphereQuadrature(n, 64)
    rng = np.random.default_rng(38)
    coeffs = {si: float(rng.normal()) for si in harmonic_indices(n, 10)}
    items = tuple((s, i, c) for (s, i), c in coeffs.items())
    x = R * quad.directions
    values, jac = sphere_geometry._radial_fields(n, R, items, x)
    assert same_bits(jac, radial_harmonic_jacobian(n, R, coeffs, x))
    assert jac.flags.c_contiguous
    assert same_bits(values, radial_harmonic_values(n, R, coeffs, x))
    for part, derivative in enumerate([None, "theta", "phi"][:n]):
        want = pointwise_synthesis(n, coeffs, quad.directions, part)
        for _ in range(2):  # the second call reads the grid's memo
            assert same_bits(synthesize(n, coeffs, quad.directions, derivative), want)
    memo = special_functions._angles(n, quad.directions).values
    assert max(s for s, _i, _part in memo) == special_functions._MEMO_DEGREE


@pytest.mark.parametrize(
    "n, N",
    [
        (2, {(2, 0): 0.6, (3, 1): -0.4, (4, 0): 0.2}),
        (3, {(2, 1): 0.7, (3, 2): -0.4, (4, 0): 0.3, (4, 7): 0.2}),
    ],
)
def test_one_deformation_evaluates_its_field_once(monkeypatch, n, N):
    R = 1.1
    torsion, eigen = solve_torsion_ball(n, R, 1.0), solve_robin_eigen_ball(n, R, 1.0)

    def routes():
        v = radial_harmonic_field(n, R, N)
        return (
            second_variation_energy_ball(torsion, N).extras["Eddot0_quadrature"],
            second_variation_eigenvalue_ball(eigen, N).extras["Eddot0_quadrature"],
            second_variation_general(torsion, v, volume_completion_field(v, n, R)),
        )

    items = tuple((s, i, c) for (s, i), c in N.items())
    builds = []
    build = sphere_geometry._radial_fields

    def counting(n_, R_, items_, x):
        builds.append(items_ == items)
        return build(n_, R_, items_, x)

    monkeypatch.setattr(sphere_geometry, "_radial_fields", counting)
    sphere_geometry._radial_table.cache_clear()
    shared = routes()
    assert builds.count(True) == 1
    # every call rebuilding its table gives the same bits: the field of N
    # is sampled 3 times for its values and 4 times for its Jacobian
    monkeypatch.setattr(sphere_geometry, "_radial_table", sphere_geometry._radial_table.__wrapped__)
    assert routes() == shared
    assert builds.count(True) == 1 + 7


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


def m2_fields(n):
    """(v, w, R) pairs for the m''(0) checks: the messy fields of seeds
    0-9, a rotation, and the radial-harmonic fields of a volume-corrected
    Hadamard family at R = 2."""
    for seed in range(10):
        yield (*messy_fields(n, seed), 1.0)
    yield rotation_field(n, 0.7), zero_field(n), 1.0
    N = {(2, 1): 0.3, (3, 0): -0.2, (4, 1): 0.15}
    p = PerturbationField(n, 2.0, N).with_volume_correction()
    yield radial_harmonic_field(n, p.R, p.N), radial_harmonic_field(n, p.R, p.W), p.R


@pytest.mark.parametrize("n", [2, 3])
def test_m2_contractions_match_the_matmul_form(n):
    # the per-point contractions expand the same formula as the batched
    # products with P = I - nu nu^T: they differ by rounding only
    quad = SphereQuadrature(n, 64)
    nu = quad.directions
    for v, w, R in m2_fields(n):
        got = surface_element_m2(v, w, R, quad)
        want = surface_element_m2_matmul(v.jacobian(R * nu), w.jacobian(R * nu), nu)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


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
    assert W[(0, 0)] / math.sqrt(sphere_measure(2)) == pytest.approx(-0.5)  # mean of W
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


# ---------------------------------------------------------------------------
# memoised sums of N and W behind StarDomain.radius: bits, never tolerances
# ---------------------------------------------------------------------------


def unit_directions(n, count, seed):
    x = np.random.default_rng(seed).normal(size=(count, n))
    return x / np.linalg.norm(x, axis=1)[:, None]


def uncached_radius(d: StarDomain, directions, derivative=None):
    """r = R + t N + (t^2/2) W from fresh `synthesize` sums, in the
    operation order of `StarDomain.radius`."""
    r = d.t * synthesize(d.n, d.N, directions, derivative)
    if derivative is None:
        r = d.R + r
    return r + 0.5 * d.t**2 * synthesize(d.n, d.W, directions, derivative)


STAR_DATA = {
    2: ({(1, 1): 0.3, (2, 0): -0.2, (3, 1): 0.15, (5, 0): 0.05}, {(0, 0): -0.1, (4, 1): 0.07}),
    3: ({(1, 0): 0.3, (2, 3): -0.2, (3, 1): 0.15, (4, 8): 0.05}, {(0, 0): -0.1, (2, 4): 0.07}),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("grid", ["hand-built", "quadrature"])
def test_star_radius_keeps_the_bits_of_the_uncached_sums(n, grid):
    sphere_geometry._harmonic_sum.cache_clear()
    directions = unit_directions(n, 40, 41) if grid == "hand-built" else SphereQuadrature(n, 16).directions
    N, W = STAR_DATA[n]
    for derivative in [None, "theta", "phi"][:n]:
        for t in (0.01, -0.01, 0.3):
            d = StarDomain(n, 1.2, N, W, t)
            want = uncached_radius(d, directions, derivative)
            for _ in range(2):  # the second call reads the memo
                assert same_bits(d.radius(directions, derivative), want), (derivative, t)
    # one entry per field and part, shared by every t
    info = sphere_geometry._harmonic_sum.cache_info()
    assert info.currsize == 2 * n and info.misses == 2 * n


@pytest.mark.parametrize(
    "n, signed, N, derivative",
    [
        (2, [-1.0, 0.0], {(1, 0): 0.3, (2, 1): 0.2}, "theta"),
        (3, [-0.6, 0.0, 0.8], {(1, 2): 0.3, (2, 1): 0.2}, "phi"),
    ],
)
def test_star_radius_keeps_signed_zero_directions_apart(n, signed, N, derivative):
    plus = np.vstack([signed, unit_directions(n, 3, 42)])
    minus = plus.copy()
    minus[0, 1] = -0.0
    d = StarDomain(n, 1.0, N, {(0, 0): -0.1}, 0.2)
    sphere_geometry._harmonic_sum.cache_clear()
    got = [d.radius(x, derivative) for x in (plus, minus)]
    assert sphere_geometry._harmonic_sum.cache_info().currsize == 4
    for x, r in zip((plus, minus), got):
        assert same_bits(r, uncached_radius(d, x, derivative))
        assert same_bits(d.radius(x, derivative), r)
    # the azimuth of the signed zero is +pi or -pi, and the derivative
    # follows it: an entry keyed on the directions by value would hand one
    # grid the other's bits
    assert not same_bits(got[0], got[1])


def test_star_radius_returns_a_fresh_writable_array():
    d = StarDomain(3, 1.0, *STAR_DATA[3], 0.1)
    x = unit_directions(3, 8, 43)
    for derivative in (None, "theta", "phi"):
        r = d.radius(x, derivative)
        want = r.copy()
        assert r.flags.writeable
        r[:] = 7.0
        assert same_bits(d.radius(x, derivative), want)


def test_cached_sums_are_read_only_and_bounded():
    x = unit_directions(2, 8, 44)
    d = StarDomain(2, 1.0, *STAR_DATA[2], 0.1)
    d.radius(x)
    total = sphere_geometry._harmonic_sum(2, tuple(d.N.items()), None, x.shape, x.tobytes())
    assert same_bits(total, synthesize(2, d.N, x))
    with pytest.raises(ValueError):
        total[0] = 1.0
    info = sphere_geometry._harmonic_sum.cache_info()
    assert f"the {info.maxsize} entries used last" in sphere_geometry._harmonic_sum.__doc__
    for k in range(info.maxsize + 3):
        StarDomain(2, 1.0, {(2, 0): 0.01 * (k + 1)}, {}, 0.1).radius(x)
    assert sphere_geometry._harmonic_sum.cache_info().currsize == info.maxsize


def test_star_shape_errors_raise_on_memoised_sums():
    x = SphereQuadrature(2, 16).directions
    for d in (
        StarDomain(2, 1.0, {(2, 0): math.nan}, {}, 0.1),
        StarDomain(2, 1.0, COS2T, {}, 1.5),
        StarDomain(2, 1.0, {}, {(0, 0): -8.0}, 1.0),
    ):
        for _ in range(2):  # the second call reads the memo
            with pytest.raises(ValueError, match="not star-shaped"):
                d.radius(x)


def test_perturbation_field_normal_traces():
    p = PerturbationField(n=3, R=1.3, N={(2, 1): 0.9}, W={(0, 0): -0.2})
    quad = SphereQuadrature(3, 16)
    for data in (p.N, p.W):
        got = normal_trace(radial_harmonic_field(p.n, p.R, data), 1.3, quad)
        assert np.max(np.abs(got - synthesize(3, data, quad.directions))) < 1e-13


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


@pytest.mark.parametrize("n,R", [(2, 1.0), (2, 1.7), (3, 1.0), (3, 1.7)])
def test_surface_second_variation_general_dilation(n, R):
    # v = x, w = 0: S(t) = |S^{n-1}| (R (1 + t))^(n-1), S''(0) = 0 (n = 2), 8 pi R^2 (n = 3)
    got = surface_second_variation_general(linear_field(np.eye(n)), zero_field(n), n, R)
    if n == 2:
        assert abs(got) <= 1e-12 * R
    else:
        assert got == pytest.approx(8.0 * math.pi * R**2, rel=1e-12)


@pytest.mark.parametrize("R", [1.0, 1.7])
def test_surface_second_variation_general_skew_field(R):
    # v = rotation generator, w = 0 maps the circle of radius R to one of
    # radius R sqrt(1 + t^2): S(t) = 2 pi R sqrt(1 + t^2), S''(0) = 2 pi R
    got = surface_second_variation_general(rotation_field(2), zero_field(2), 2, R)
    assert got == pytest.approx(2.0 * math.pi * R, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_surface_second_variation_kernel(n):
    # translations (and their Hadamard data, degree 1) leave the area flat
    tr = linear_field(np.zeros((n, n)), np.eye(n)[0])
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
