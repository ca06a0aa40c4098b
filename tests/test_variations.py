import math

import numpy as np
import pytest

from rsv.radial_solutions import (
    DIRICHLET_EIGEN,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.sphere_geometry import (
    constant_field,
    linear_field,
    radial_harmonic_field,
    rotation_field,
    volume_completion_field,
    zero_field,
)
from rsv.variations import (
    INDEFINITE,
    KERNEL,
    NEGATIVE,
    POSITIVE,
    classify_torsion_sign,
    dirichlet_variations,
    first_variation_energy,
    first_variation_eigenvalue,
    second_variation_energy_ball,
    second_variation_eigenvalue_ball,
    second_variation_general,
    theorem_bounds,
)

PI = math.pi
COS2T = {(2, 0): math.sqrt(PI)}  # normalized so that int N^2 dS = pi
UNIT = {(0, 0): math.sqrt(2.0 * PI)}  # N identically 1 on the circle


def reference_torsion():
    return solve_torsion_ball(2, 1.0, 1.0)


# ---------------------------------------------------------------------------
# first variations
# ---------------------------------------------------------------------------


def test_first_variation_energy_dilation():
    # z = |grad u|^2 - 2G - 2 alpha^2 u^2 + alpha(n-1)u^2/R = -1 at the
    # reference state, so E'(0) = -int N dS = -2 pi for N = 1.
    sol = reference_torsion()
    assert first_variation_energy(sol, UNIT) == pytest.approx(-2.0 * PI, abs=1e-12)


def test_first_variation_energy_mean_free_zero():
    sol = reference_torsion()
    assert first_variation_energy(sol, COS2T) == pytest.approx(0.0, abs=1e-14)


def test_first_variation_energy_ambient_field_matches_coeffs():
    sol = reference_torsion()
    by_field = first_variation_energy(sol, constant_field(2, np.array([0.3, -0.4])))
    # v.nu is pure degree 1, hence mean-free
    assert by_field == pytest.approx(0.0, abs=1e-13)
    by_dilation = first_variation_energy(sol, linear_field(np.eye(2)))
    coeff = {(0, 0): math.sqrt(2.0 * PI)}  # v.nu = R = 1
    assert by_dilation == pytest.approx(first_variation_energy(sol, coeff), abs=1e-12)


def test_first_variation_eigenvalue_reference():
    sol = solve_robin_eigen_ball(2, 1.0, 1.0)
    got = first_variation_eigenvalue(sol, UNIT)
    A = sol.eigenvalue_shift_constant()
    assert A < 0
    assert got == pytest.approx(A * sol.boundary_value() ** 2 * 2.0 * PI, abs=1e-12)
    assert got == pytest.approx(-1.9300838867658328, abs=1e-10)


def test_first_variation_kind_checks():
    with pytest.raises(ValueError):
        first_variation_energy(solve_robin_eigen_ball(2, 1.0, 1.0), UNIT)
    with pytest.raises(ValueError):
        first_variation_eigenvalue(reference_torsion(), UNIT)


# ---------------------------------------------------------------------------
# torsion second variation: the reference configuration is fully pinned
# ---------------------------------------------------------------------------


def test_reference_report_values():
    rep = second_variation_energy_ball(reference_torsion(), COS2T)
    assert rep.Eddot0 == pytest.approx(13.0 * PI / 12.0, abs=1e-12)
    assert rep.Sddot0 == pytest.approx(3.0 * PI, abs=1e-12)
    assert rep.Q == pytest.approx(PI / 3.0, abs=1e-12)
    assert rep.F_series == pytest.approx(PI / 3.0, abs=1e-12)
    assert rep.E0 == pytest.approx(-5.0 * PI / 8.0, abs=1e-12)
    assert rep.Edot0 == 0.0
    assert rep.classification == POSITIVE
    assert rep.extras["boundary_norm_sq_N"] == pytest.approx(PI, abs=1e-12)
    # decomposition identity and the quadrature cross-check stored alongside
    alpha, uR = rep.alpha, 0.5
    assert rep.Eddot0 == pytest.approx(alpha * uR**2 * rep.Sddot0 + rep.F_series)
    assert rep.extras["Eddot0_quadrature"] == pytest.approx(rep.Eddot0, abs=1e-9)


def test_reference_report_modes():
    rep = second_variation_energy_ball(reference_torsion(), COS2T)
    assert len(rep.modes) == 1
    s, contrib = rep.modes[0]
    assert s == 2
    assert contrib == pytest.approx(13.0 * PI / 12.0, abs=1e-12)


def test_reference_bounds():
    rep = second_variation_energy_ball(reference_torsion(), COS2T)
    assert rep.bound_i == pytest.approx(0.75 * PI, abs=1e-12)
    # bound_ii is tight for pure degree-2 data
    assert rep.bound_ii == pytest.approx(13.0 * PI / 12.0, abs=1e-9)
    assert rep.bound_i <= rep.Eddot0 + 1e-12
    assert rep.bound_ii <= rep.Eddot0 + 1e-9


def test_degree_one_is_kernel():
    # translations: N = cos(theta) leaves the second variation at zero
    rep = second_variation_energy_ball(reference_torsion(), {(1, 0): 1.0})
    assert rep.Eddot0 == pytest.approx(0.0, abs=1e-12)
    assert rep.classification == KERNEL
    assert rep.bound_i == pytest.approx(0.0, abs=1e-12)
    assert rep.bound_ii is None


def test_bound_ii_requires_barycenter_condition():
    with pytest.raises(ValueError, match="degree-1"):
        theorem_bounds(reference_torsion(), {(1, 0): 0.5, (2, 0): 1.0})


def test_bounds_require_positive_alpha():
    with pytest.raises(ValueError):
        theorem_bounds(solve_torsion_ball(2, 1.0, -0.5), COS2T)


def test_negative_alpha_value():
    # closed form per unit int N^2 dS at degree s:
    # e_s = [(s-1)/n^2] [ (s+n-1)/alpha + 2R(1+alpha R)/(s+alpha R) ]
    rep = second_variation_energy_ball(solve_torsion_ball(2, 1.0, -0.5), COS2T)
    assert rep.Eddot0 == pytest.approx(-4.0 * PI / 3.0, abs=1e-12)
    assert rep.classification == NEGATIVE
    assert rep.bound_i is None and rep.bound_ii is None


def test_mixed_data_additive_over_degrees():
    sol = reference_torsion()
    N = {(2, 0): 0.8, (3, 1): -0.5, (5, 0): 0.3}
    rep = second_variation_energy_ball(sol, N)
    per_degree = dict(rep.modes)
    assert set(per_degree) == {2, 3, 5}
    assert rep.Eddot0 == pytest.approx(sum(per_degree.values()), abs=1e-12)
    # each degree matches the single-mode computation
    for (s, i), c in N.items():
        single = second_variation_energy_ball(sol, {(s, i): c})
        assert per_degree[s] == pytest.approx(single.Eddot0, abs=1e-12)


def test_mean_free_constraint_enforced():
    with pytest.raises(ValueError, match="mean-free"):
        second_variation_energy_ball(reference_torsion(), {(0, 0): 1.0, (2, 0): 1.0})


def test_torsion_kind_enforced():
    with pytest.raises(ValueError):
        second_variation_energy_ball(solve_robin_eigen_ball(2, 1.0, 1.0), COS2T)
    with pytest.raises(ValueError):
        second_variation_eigenvalue_ball(reference_torsion(), COS2T)


def test_scaling_covariance():
    # (R, alpha, N) -> (cR, alpha/c, cN) multiplies E''(0) by c^{n+2}
    c = 1.7
    for n in (2, 3):
        N = {(2, min(1, 2)): 0.9}
        base = second_variation_energy_ball(solve_torsion_ball(n, 1.0, 0.8), N)
        scaled_N = {si: c * v for si, v in N.items()}
        scaled = second_variation_energy_ball(
            solve_torsion_ball(n, c, 0.8 / c), scaled_N
        )
        assert scaled.Eddot0 == pytest.approx(c ** (n + 2) * base.Eddot0, rel=1e-11)


# ---------------------------------------------------------------------------
# eigenvalue second variation
# ---------------------------------------------------------------------------


def test_eigenvalue_reference_value_and_floor():
    sol = solve_robin_eigen_ball(2, 1.0, 1.0)
    rep = second_variation_eigenvalue_ball(sol, COS2T)
    assert rep.Eddot0 == pytest.approx(2.650220997903963, abs=1e-9)
    floor = rep.extras["lower_bound_surface_term"]
    assert floor == pytest.approx(1.8358523622770702, abs=1e-9)
    assert rep.Eddot0 >= floor
    assert rep.classification == POSITIVE
    assert rep.extras["Eddot0_quadrature"] == pytest.approx(rep.Eddot0, abs=1e-9)


def test_eigenvalue_degree_one_equality():
    # translations: lam''(0) = 0 and the bound holds with equality, because
    # the mode-1 identity mu_1 = alpha - (n-1)/R + lam/alpha makes the
    # bracket term vanish exactly
    for n in (2, 3):
        sol = solve_robin_eigen_ball(n, 1.0, 1.0)
        rep = second_variation_eigenvalue_ball(sol, {(1, 0): 1.0})
        assert rep.Eddot0 == pytest.approx(0.0, abs=1e-10)
        assert rep.extras["lower_bound_surface_term"] == pytest.approx(0.0, abs=1e-10)
        assert rep.classification == KERNEL


def test_eigenvalue_floor_all_modes():
    sol = solve_robin_eigen_ball(2, 1.0, 2.3)
    floor_coeff = sol.alpha * sol.boundary_value() ** 2
    for s in (2, 3, 4, 6):
        rep = second_variation_eigenvalue_ball(sol, {(s, 0): 1.0})
        assert rep.Eddot0 >= floor_coeff * rep.Sddot0 - 1e-12


# ---------------------------------------------------------------------------
# sign classification over (alpha, R)
# ---------------------------------------------------------------------------


def test_classify_positive():
    cls = classify_torsion_sign(2, 1.0, 1.0)
    assert cls.classification == POSITIVE
    s, e = cls.witnesses[0]
    assert s == 2 and e > 0


def test_classify_negative_small_negative_alpha():
    cls = classify_torsion_sign(2, 1.0, -0.5)
    assert cls.classification == NEGATIVE
    assert cls.witnesses[0][1] == pytest.approx(-4.0 / 3.0, abs=1e-12)


def test_classify_alpha_between_minus_two_over_R_and_zero():
    # all nonresonant alpha in (-2/R, 0) give a negative form; the closed
    # form e_2 = (1/4)[3/alpha + 2(1+alpha)/(2+alpha)] stays negative there
    cls = classify_torsion_sign(2, 1.0, -1.5)
    assert cls.classification == NEGATIVE
    assert cls.witnesses[0] == (2, pytest.approx(-1.0, abs=1e-12))


def test_classify_indefinite_below_minus_two_over_R():
    cls = classify_torsion_sign(2, 1.0, -2.5)
    assert cls.classification == INDEFINITE
    (sp, ep), (sn, en) = cls.witnesses
    assert (sp, sn) == (2, 3)
    assert ep == pytest.approx(1.2, abs=1e-12)
    assert en == pytest.approx(-3.8, abs=1e-12)


def test_classify_matches_closed_form():
    n, R = 2, 1.0
    for alpha in (0.7, -0.4, -2.7):
        sol = solve_torsion_ball(n, R, alpha)
        for s in (2, 3, 4, 5):
            rep = second_variation_energy_ball(sol, {(s, 0): 1.0})
            e_closed = ((s - 1) / n**2) * (
                (s + n - 1) / alpha + 2.0 * R * (1.0 + alpha * R) / (s + alpha * R)
            )
            norm = rep.extras["boundary_norm_sq_N"]
            assert rep.Eddot0 / norm == pytest.approx(e_closed, rel=1e-11)


def test_classify_resonant_alpha_raises():
    with pytest.raises(ArithmeticError, match="resonant"):
        classify_torsion_sign(2, 1.0, -2.0)


def test_classify_rejects_zero_alpha():
    with pytest.raises(ValueError):
        classify_torsion_sign(2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# general ambient-field evaluator
# ---------------------------------------------------------------------------


def test_general_translation_zero():
    sol = reference_torsion()
    got = second_variation_general(sol, constant_field(2, np.array([1.0, 0.0])), zero_field(2))
    assert got == pytest.approx(0.0, abs=1e-12)


def test_general_dilation_closed_form():
    # v = x, w = 0: E''(0) = -3 pi R^3 / alpha - 3 pi R^4 / 2
    sol = reference_torsion()
    got = second_variation_general(sol, linear_field(np.eye(2)), zero_field(2))
    assert got == pytest.approx(-4.5 * PI, abs=1e-12)


def test_general_matches_hadamard_series():
    for n, N in ((2, {(2, 0): math.sqrt(PI)}), (3, {(2, 1): 0.7, (3, 2): -0.4})):
        sol = solve_torsion_ball(n, 1.0, 1.0)
        v = radial_harmonic_field(n, 1.0, N)
        w = volume_completion_field(v, n, 1.0)
        got = second_variation_general(sol, v, w)
        want = second_variation_energy_ball(sol, N).Eddot0
        assert got == pytest.approx(want, abs=1e-10)


def test_general_tangential_invariance():
    # adding a rigid rotation must not change the value once the volume
    # completion is adjusted
    sol = reference_torsion()
    N = {(2, 0): math.sqrt(PI)}
    v = radial_harmonic_field(2, 1.0, N)
    base = second_variation_general(sol, v, volume_completion_field(v, 2, 1.0))
    vr = v + rotation_field(2)
    got = second_variation_general(sol, vr, volume_completion_field(vr, 2, 1.0))
    assert got == pytest.approx(base, abs=1e-10)


def test_general_pure_rotation_zero():
    # v = Sx with its own completion maps the disk to a disk of equal area
    # through second order, so the value must vanish
    sol = reference_torsion()
    rot = rotation_field(2)
    w = volume_completion_field(rot, 2, 1.0)
    assert second_variation_general(sol, rot, w) == pytest.approx(0.0, abs=1e-12)


def test_general_negative_alpha():
    sol = solve_torsion_ball(2, 1.3, -0.5)
    N = {(2, 1): 0.6, (4, 0): 0.25}
    v = radial_harmonic_field(2, 1.3, N)
    w = volume_completion_field(v, 2, 1.3)
    got = second_variation_general(sol, v, w)
    want = second_variation_energy_ball(sol, N).Eddot0
    assert got == pytest.approx(want, abs=1e-10)


def test_general_rejects_eigen_kind():
    with pytest.raises(ValueError):
        second_variation_general(
            solve_robin_eigen_ball(2, 1.0, 1.0), rotation_field(2), zero_field(2)
        )


# ---------------------------------------------------------------------------
# Dirichlet comparison
# ---------------------------------------------------------------------------


def test_dirichlet_reference_values():
    rep = dirichlet_variations(2, 1.0, COS2T)
    assert rep.kind == DIRICHLET_EIGEN
    assert rep.E0 == pytest.approx(5.783185962946785, abs=1e-10)
    assert rep.Eddot0 == pytest.approx(21.87886795613119, abs=1e-8)
    assert rep.classification == POSITIVE
    # translation coefficient vanishes identically at k = sqrt(lam_D)
    assert rep.extras["gs_coefficient"] == pytest.approx(0.0, abs=1e-10)


def test_dirichlet_degree_one_kernel():
    rep = dirichlet_variations(2, 1.0, {(1, 0): 1.0})
    assert rep.Eddot0 == pytest.approx(0.0, abs=1e-10)
    assert rep.classification == KERNEL


def test_dirichlet_torsion_energy():
    rep = dirichlet_variations(2, 1.0, COS2T)
    assert rep.extras["torsion_energy_Edot0"] == pytest.approx(0.0, abs=1e-13)
    assert rep.extras["torsion_energy_Eddot0"] == pytest.approx(
        11.0 * PI / 8.0, abs=1e-10
    )
    assert rep.Q == pytest.approx(PI / 2.0, abs=1e-12)


def test_dirichlet_requires_mean_free():
    with pytest.raises(ValueError, match="mean-free"):
        dirichlet_variations(2, 1.0, {(0, 0): 1.0})
