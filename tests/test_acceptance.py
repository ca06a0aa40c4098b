"""Acceptance suite: eleven end-to-end checks, one per guaranteed behavior.

Each test is a single pass/fail line covering one contract of the library:
kernel directions, closed-form/oracle agreement for surface and energy
second variations, criticality of the ball, the sign classification sweep,
Steklov exactness, the eigenvalue lower bound, the Dirichlet counterpart,
representation invariance, the special-function substrate, and local
minimality on the perturbed family.  Tolerances are part of the contract;
do not loosen them to make a failing case pass.
"""
import math

import numpy as np
import pytest
from bessel_reference import bessel_j_derivative

from rsv.oracle_solver import (
    curve,
    finite_difference_derivatives,
    solve_perturbed_torsion,
    surface_curve,
)
from rsv.radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.special_functions import (
    HarmonicBasis,
    bessel_j,
    spherical_harmonic,
)
from rsv.sphere_geometry import (
    PerturbationField,
    perturbed_domain,
    radial_harmonic_field,
    rotation_field,
    surface_second_variation,
    volume_completion_field,
)
from rsv.steklov import SteklovSpectrum
from rsv.variations import (
    INDEFINITE,
    NEGATIVE,
    classify_torsion_sign,
    dirichlet_variations,
    second_variation_energy_ball,
    second_variation_eigenvalue_ball,
    second_variation_general,
)

PI = math.pi
SQRT_PI = math.sqrt(PI)
COS2T = {(2, 0): SQRT_PI}          # N(theta) = cos 2 theta on the unit circle
COS3T = {(3, 0): SQRT_PI}
ZONAL2 = {(2, 2): 1.0}             # degree-2 zonal harmonic, n = 3

GRID = [
    (n, R, alpha) for n in (2, 3) for R in (1.0, 2.0) for alpha in (0.5, 1.0, 2.0)
]


def degree_one(n: int) -> dict:
    return {(1, 0): 0.7} if n == 2 else {(1, 1): 0.7}


def mixed_mean_free(n: int) -> dict:
    if n == 2:
        return {(2, 0): 0.8, (3, 1): 0.5, (4, 0): 0.3, (5, 1): 0.2, (6, 0): 0.1}
    return {(2, 2): 0.8, (3, 3): 0.4, (4, 4): 0.2, (5, 5): 0.1, (6, 6): 0.05}


def field(n: int, R: float, N: dict) -> PerturbationField:
    return PerturbationField(n, R, N, {}).with_volume_correction()


def test_01_degree_one_perturbations_are_kernel_directions():
    # translations of the ball: every second variation must vanish
    for n in (2, 3):
        N = degree_one(n)
        for R in (1.0, 2.0):
            assert abs(surface_second_variation(N, n, R)) <= 1e-8
            # alpha R = -1 is the genuine degree-1 resonance; stay off it
            for alpha in (1.0, -0.4, 4.0):
                tor = second_variation_energy_ball(solve_torsion_ball(n, R, alpha), N)
                assert abs(tor.Eddot0) <= 1e-8
            eig = second_variation_eigenvalue_ball(solve_robin_eigen_ball(n, R, 1.0), N)
            assert abs(eig.Eddot0) <= 1e-8


def test_02_surface_second_variation_matches_oracle():
    cases = [(2, COS2T), (2, COS3T), (3, ZONAL2)]
    for n, N in cases:
        p = field(n, 1.0, N)
        closed = surface_second_variation(N, n, 1.0)
        fd = finite_difference_derivatives(surface_curve(p), h=1e-3, richardson_levels=2)
        assert fd.d2 == pytest.approx(closed, rel=1e-6)
    assert surface_second_variation(COS2T, 2, 1.0) == pytest.approx(3.0 * PI, rel=1e-12)


def test_03_torsion_second_variation_three_ways():
    # mode series, boundary quadratic functional, and the PDE oracle must
    # all give 13 pi / 12 for the reference configuration
    want = 13.0 * PI / 12.0
    report = second_variation_energy_ball(solve_torsion_ball(2, 1.0, 1.0), COS2T)
    series = report.Eddot0
    functional = report.extras["Eddot0_quadrature"]
    oracle = finite_difference_derivatives(
        curve(field(2, 1.0, COS2T), 1.0, 28, TORSION), h=5e-3, richardson_levels=2
    ).d2
    for value in (series, functional, oracle):
        assert value == pytest.approx(want, rel=1e-3)
    assert report.F_series == pytest.approx(PI / 3.0, rel=1e-10)


def test_04_ball_is_critical_for_volume_preserving_data():
    p = field(2, 1.0, COS2T)
    dE = finite_difference_derivatives(
        curve(p, 1.0, 28, TORSION), h=5e-3, richardson_levels=1
    ).d1
    assert abs(dE) <= 1e-6 * max(1.0, abs(solve_torsion_ball(2, 1.0, 1.0).energy()))
    lam0 = solve_robin_eigen_ball(2, 1.0, 1.0).lam
    dlam = finite_difference_derivatives(
        curve(p, 1.0, 20, ROBIN_EIGEN), h=5e-3, richardson_levels=1
    ).d1
    assert abs(dlam) <= 1e-6 * max(1.0, lam0)


def test_05_torsion_sign_classification_sweep():
    # positive range: every mode degree must contribute positively
    for alpha in (0.25, 1.0, 4.0):
        report = second_variation_energy_ball(
            solve_torsion_ball(2, 1.0, alpha), {(s, 0): 1.0 for s in range(2, 7)}
        )
        assert all(value > 0.0 for _s, value in report.modes), report.modes
    # moderately negative range: every mode contributes negatively
    for alpha in (-0.9, -0.5):
        report = second_variation_energy_ball(
            solve_torsion_ball(2, 1.0, alpha), {(s, 0): 1.0 for s in range(2, 7)}
        )
        assert all(value < 0.0 for _s, value in report.modes), report.modes
    # the regime boundary is the degree-2 Steklov resonance mu_2 = alpha +
    # 2/R = 0, i.e. alpha R = -2.  The resonance mu_1 = 0 at alpha R = -1
    # belongs to degree 1, the translation kernel, which the sweep leaves
    # out, so every degree s >= 2 stays negative on (-2, -1) as well
    report = second_variation_energy_ball(
        solve_torsion_ball(2, 1.0, -1.5), {(s, 0): 1.0 for s in range(2, 7)}
    )
    assert all(value < 0.0 for _s, value in report.modes), report.modes
    result = classify_torsion_sign(2, 1.0, -1.5)
    assert result.classification == NEGATIVE, (
        f"classification at alpha R = -1.5 is {result.classification}; "
        f"witnesses {result.witnesses}"
    )
    # past alpha R = -2: witnesses of both signs, with the boundary pinned
    # in alpha R rather than in alpha alone
    for R, alpha in ((1.0, -2.5), (2.0, -1.25)):
        result = classify_torsion_sign(2, R, alpha)
        assert result.classification == INDEFINITE, (
            f"classification at R = {R}, alpha = {alpha} is "
            f"{result.classification}; witnesses {result.witnesses}"
        )
        (s_pos, e_pos), (s_neg, e_neg) = result.witnesses
        assert (s_pos, s_neg) == (2, 3)
        assert e_pos > 0.0 > e_neg
    # the oracle confirms the per-degree value on both sides of the boundary
    for alpha in (-1.5, -2.5):
        oracle = finite_difference_derivatives(
            curve(field(2, 1.0, COS2T), alpha, 28, TORSION),
            h=5e-3,
            richardson_levels=1,
        ).d2
        series = second_variation_energy_ball(
            solve_torsion_ball(2, 1.0, alpha), COS2T
        ).Eddot0
        assert oracle == pytest.approx(series, rel=1e-6)


def test_06_steklov_spectrum_exact_and_degree_one_identity():
    for n, R, alpha in GRID:
        spec = SteklovSpectrum(solve_torsion_ball(n, R, alpha))
        for s in range(0, 9):
            assert spec.mu(s) == alpha + s / R
        eig = solve_robin_eigen_ball(n, R, alpha)
        espec = SteklovSpectrum(eig)
        assert abs(espec.mu(0)) <= 1e-10
        L = espec.mu(1) - (alpha - (n - 1) / R + eig.lam / alpha)
        assert abs(L) <= 1e-10


def test_07_eigenvalue_second_variation_lower_bound():
    for n, R, alpha in GRID:
        sol = solve_robin_eigen_ball(n, R, alpha)
        report = second_variation_eigenvalue_ball(sol, mixed_mean_free(n))
        floor = report.extras["lower_bound_surface_term"]
        assert report.Eddot0 >= floor - 1e-10 * max(1.0, abs(floor))
    # the oracle confirms the formula value in the reference configuration
    fd = finite_difference_derivatives(
        curve(field(2, 1.0, COS2T), 1.0, 20, ROBIN_EIGEN), h=5e-3, richardson_levels=2
    )
    formula = second_variation_eigenvalue_ball(
        solve_robin_eigen_ball(2, 1.0, 1.0), COS2T
    ).Eddot0
    assert fd.d2 == pytest.approx(formula, rel=1e-3)


def test_08_dirichlet_bound_coefficient_and_concavity():
    for n in (2, 3):
        for R in (1.0, 2.0):
            report = dirichlet_variations(n, R, degree_one(n))
            assert abs(report.extras["gs_coefficient"]) <= 1e-10
    for n, N in ((2, COS2T), (2, COS3T), (3, ZONAL2)):
        fd = finite_difference_derivatives(
            curve(field(n, 1.0, N), None, 20, DIRICHLET_EIGEN),
            h=5e-3,
            richardson_levels=1,
        )
        assert fd.d2 >= -1e-6


def test_09_second_variation_invariant_under_representation():
    # the same boundary motion written with a tangential part and a
    # different admissible acceleration must give the same value
    sol = solve_torsion_ball(2, 1.0, 1.0)
    v = radial_harmonic_field(2, 1.0, COS2T)
    base = second_variation_general(sol, v, volume_completion_field(v, 2, 1.0))
    vr = v + rotation_field(2)
    moved = second_variation_general(sol, vr, volume_completion_field(vr, 2, 1.0))
    assert abs(moved - base) <= 1e-8 * max(1.0, abs(base))


def test_10_bessel_and_harmonic_substrate():
    z = np.linspace(0.1, 40.0, 157)
    for nu in (0.0, 1.0, 2.0, 3.0, 0.5, 2.5, 7.0):
        for x in z:
            lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x) if nu >= 1.0 else None
            if lhs is not None:
                scale = max(1.0, abs(lhs))
                assert abs(lhs - 2.0 * nu * bessel_j(nu, x) / x) <= 1e-12 * scale
            d = bessel_j_derivative(nu, x)
            if nu >= 1.0:
                half = 0.5 * (bessel_j(nu - 1.0, x) - bessel_j(nu + 1.0, x))
                assert abs(d - half) <= 1e-12
    for n in (2, 3):
        basis = HarmonicBasis(n, max_degree=6)
        table = np.stack(
            [spherical_harmonic(n, s, i, basis.quad.directions) for s, i in basis.indices]
        )
        gram = basis.weighted @ table.T
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-12


def test_11_ball_locally_minimizes_torsion_energy():
    cases = [
        (2, COS2T),
        (2, COS3T),
        (2, {(2, 1): SQRT_PI}),
        (3, ZONAL2),
    ]
    for n, N in cases:
        p = field(n, 1.0, N)
        e0 = solve_perturbed_torsion(perturbed_domain(p, 0.0), 1.0).energy
        for t in (-0.05, 0.05):
            et = solve_perturbed_torsion(perturbed_domain(p, t), 1.0).energy
            assert et > e0, f"E({t}) = {et} not above E(0) = {e0} for {N}"
