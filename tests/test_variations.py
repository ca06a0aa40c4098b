import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

import rsv.variations as variations
from rsv.radial_solutions import (
    DIRICHLET_EIGEN,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from rsv.special_functions import SphereQuadrature, harmonic_indices
from rsv.steklov import SteklovSpectrum
from rsv.sphere_geometry import (
    linear_field,
    radial_harmonic_field,
    rotation_field,
    second_order_volume_correction,
    surface_element_m2,
    surface_second_variation,
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
    first_variation,
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
    assert first_variation(sol, UNIT) == pytest.approx(-2.0 * PI, abs=1e-12)


def test_first_variation_energy_mean_free_zero():
    sol = reference_torsion()
    assert first_variation(sol, COS2T) == pytest.approx(0.0, abs=1e-14)


def test_first_variation_energy_ambient_field_matches_coeffs():
    sol = reference_torsion()
    translation = linear_field(np.zeros((2, 2)), np.array([0.3, -0.4]))
    by_field = first_variation(sol, translation)
    # v.nu is pure degree 1, hence mean-free
    assert by_field == pytest.approx(0.0, abs=1e-13)
    by_dilation = first_variation(sol, linear_field(np.eye(2)))
    coeff = {(0, 0): math.sqrt(2.0 * PI)}  # v.nu = R = 1
    assert by_dilation == pytest.approx(first_variation(sol, coeff), abs=1e-12)


def test_first_variation_eigenvalue_reference():
    sol = solve_robin_eigen_ball(2, 1.0, 1.0)
    got = first_variation(sol, UNIT)
    # the shift constant A = -alpha^2 + (n-1) alpha/R - lam
    A = -sol.alpha**2 + (sol.n - 1) * sol.alpha / sol.R - sol.lam
    assert A < 0
    assert got == pytest.approx(A * sol.boundary_value() ** 2 * 2.0 * PI, abs=1e-12)
    assert got == pytest.approx(-1.9300838867658328, abs=1e-10)


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


@pytest.mark.parametrize(
    "n,R,N", [(2, 1.0, {(2, 0): 1.0}), (3, 1.0, {(2, 2): 1.0}), (3, 2.0, {(2, 2): 1.0})]
)
def test_bounds_hold_through_large_alpha_cancellation(n, R, N):
    # at alpha = 1e7 E''(0) and bound_ii are differences of terms of size
    # ~1e6 times E''(0); their rounding must not read as a failed bound
    rep = second_variation_energy_ball(solve_torsion_ball(n, R, 1e7), N)
    # bound_ii is tight for pure degree-2 data
    assert rep.bound_ii == pytest.approx(rep.Eddot0, rel=1e-8)
    assert rep.bound_i <= rep.Eddot0


def test_sddot0_is_the_closed_form_surface_variation():
    # the n2-R2 reference config: the report's S''(0) and the surface
    # closed form are one computation, equal to the last bit at R != 1
    N = {(2, 0): 0.1, (3, 1): 0.05}
    rep = second_variation_energy_ball(solve_torsion_ball(2, 2.0, 0.75), N)
    assert surface_second_variation(N, 2, 2.0) == rep.Sddot0


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


# the routes that assume volume-preserving data, each fed N with a
# degree-0 mode far below any tolerance: int N is still not zero
NEEDS_MEAN_FREE = {
    "surface": lambda N: surface_second_variation(N, 2, 1.0),
    "bounds": lambda N: theorem_bounds(reference_torsion(), N),
    "torsion": lambda N: second_variation_energy_ball(reference_torsion(), N),
    "eigen": lambda N: second_variation_eigenvalue_ball(
        solve_robin_eigen_ball(2, 1.0, 1.0), N
    ),
    "dirichlet": lambda N: dirichlet_variations(2, 1.0, N),
    "volume-correction": lambda N: second_order_volume_correction(N, 2, 1.0),
}


@pytest.mark.parametrize("route", list(NEEDS_MEAN_FREE))
def test_tiny_degree_zero_mode_is_not_mean_free(route):
    with pytest.raises(ValueError, match="mean-free"):
        NEEDS_MEAN_FREE[route]({(0, 0): 1e-15, (2, 0): 1.0})


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
    translation = linear_field(np.zeros((2, 2)), np.array([1.0, 0.0]))
    got = second_variation_general(sol, translation, zero_field(2))
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


@pytest.mark.parametrize(
    "n, N", [(2, {(2, 0): math.sqrt(PI)}), (3, {(2, 1): 0.7, (3, 2): -0.4, (6, 9): 0.2})]
)
def test_general_evaluates_the_jacobian_of_v_once(monkeypatch, n, N):
    sol = solve_torsion_ball(n, 1.0, 1.0)
    v = radial_harmonic_field(n, 1.0, N)
    w = volume_completion_field(v, n, 1.0)
    jacobian = v.jacobian
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return jacobian(x)

    v.jacobian = counting
    got = second_variation_general(sol, v, w)
    assert len(calls) == 1
    # the former route: surface_element_m2 took the Jacobians of v and w itself
    with monkeypatch.context() as patch:
        patch.setattr(
            variations,
            "_surface_element_m2",
            lambda Dv, Dw, nu: surface_element_m2(v, w, 1.0, SphereQuadrature(n, 64)),
        )
        former = second_variation_general(sol, v, w)
    assert len(calls) == 3
    assert got == former


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
    # 2 c^2 (s - 1)/R with c^2 = (R/n)^2 b^2 = pi/4 at degree 2
    assert rep.extras["torsion_energy_Eddot0"] == pytest.approx(PI / 2.0, abs=1e-12)
    assert rep.Q == pytest.approx(PI / 2.0, abs=1e-12)


TRANSLATIONS = {2: {(1, 0): 0.6, (1, 1): -0.8}, 3: {(1, 1): 0.9}}  # n = 3 zonal


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [1.0, 2.0])
def test_dirichlet_torsion_energy_vanishes_on_translations(n, R):
    rep = dirichlet_variations(n, R, TRANSLATIONS[n])
    assert rep.extras["torsion_energy_Eddot0"] == 0.0


MIXED = {2: {(2, 0): 0.7, (3, 1): 0.4, (1, 0): 0.3}, 3: {(2, 2): 0.7, (3, 3): 0.4}}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [1.0, 2.0])
def test_dirichlet_torsion_energy_is_the_large_alpha_robin_limit(n, R):
    # the Robin bracket term differs from the limit by O(1/(alpha R))
    dirichlet = dirichlet_variations(n, R, MIXED[n]).extras["torsion_energy_Eddot0"]
    robin = second_variation_energy_ball(solve_torsion_ball(n, R, 1e7), MIXED[n]).Eddot0
    assert robin == pytest.approx(dirichlet, rel=1e-5)


def _robin_dirichlet_gaps(n, R, alpha):
    """Relative gaps of lam0, lam'(0) for N = Y_{0,0} and lam''(0) for
    mean-free N between the Robin eigenvalue at alpha and the Dirichlet one."""
    robin, dirichlet = solve_robin_eigen_ball(n, R, alpha), solve_dirichlet_eigen_ball(n, R)
    N = MIXED[n]
    pairs = [
        (robin.lam, dirichlet.lam),
        (first_variation(robin, {(0, 0): 1.0}), first_variation(dirichlet, {(0, 0): 1.0})),
        (second_variation_eigenvalue_ball(robin, N).Eddot0, dirichlet_variations(n, R, N).Eddot0),
    ]
    return np.array([abs(r / d - 1.0) for r, d in pairs])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("R", [1.0, 2.0])
def test_robin_eigenvalue_closed_forms_tend_to_dirichlet(n, R):
    # lam0, lam'(0) and lam''(0) of the Robin eigenvalue approach the
    # Dirichlet values like 1/(alpha R)
    coarse, fine = _robin_dirichlet_gaps(n, R, 1e6), _robin_dirichlet_gaps(n, R, 1e7)
    assert np.all(fine <= 1e-6)
    assert np.all(fine <= coarse / 5.0)


def test_dirichlet_takes_one_bessel_ratio_per_degree(monkeypatch):
    # five terms on degrees 2, 3 and 4, plus the degree-1 ground-state
    # coefficient: four ratios
    real = SteklovSpectrum.log_derivative
    calls = []

    def counted(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(SteklovSpectrum, "log_derivative", counted)
    N = {(2, 0): 0.7, (2, 1): -0.2, (3, 0): 0.4, (3, 1): 0.1, (4, 1): 0.05}
    rep = dirichlet_variations(2, 1.0, N)
    assert sorted(calls) == [1, 2, 3, 4]
    monkeypatch.undo()
    eig = solve_dirichlet_eigen_ball(2, 1.0)
    spec = SteklovSpectrum(eig)
    c2 = {si: (eig.boundary_slope() * b) ** 2 for si, b in N.items()}
    want = 2.0 * sum(c * (spec.log_derivative(s) + 1.0) for (s, _), c in c2.items())
    assert rep.Eddot0 == pytest.approx(want, rel=1e-13)


def test_dirichlet_requires_mean_free():
    with pytest.raises(ValueError, match="mean-free"):
        dirichlet_variations(2, 1.0, {(0, 0): 1.0})


@pytest.mark.parametrize("n", [2, 3])
def test_dirichlet_high_degree_series(n):
    # a_20(R) ~ J_{20+n/2-1}(kR) is below 1e-14 but not zero: the series
    # term 2 c^2 (beta_s + (n-1)/R) still holds, with beta_s from scipy
    rep = dirichlet_variations(n, 1.0, {(20, 0): 0.01})
    eig = solve_dirichlet_eigen_ball(n, 1.0)
    k, nu = math.sqrt(eig.lam), n / 2.0 + 19.0
    beta = 20.0 - k * jv(nu + 1.0, k) / jv(nu, k)
    c = -eig.boundary_slope() * 0.01
    assert rep.Eddot0 == pytest.approx(2.0 * c * c * (beta + n - 1), rel=1e-12)


def test_dirichlet_ground_mode_is_degenerate():
    # the s = 0 profile is the eigenfunction itself, zero on the boundary
    with pytest.raises(ArithmeticError, match="s=0"):
        SteklovSpectrum(solve_dirichlet_eigen_ball(2, 1.0)).mu(0)


# ---------------------------------------------------------------------------
# properties over random band-limited data
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=20, derandomize=True, deadline=None)
# coefficients in [-1, 1] on a 1e-12 grid: their squares stay normal floats,
# so tolerances proportional to |N|^2 do not underflow
COEFFICIENT = st.floats(-1.0, 1.0).map(lambda c: round(c, 12))
ALPHA = st.floats(0.2, 4.0)


def band_data(n: int, degrees):
    keys = [(s, i) for s, i in harmonic_indices(n, max(degrees)) if s in degrees]
    coefficients = st.lists(COEFFICIENT, min_size=len(keys), max_size=len(keys))
    return coefficients.map(lambda cs: (n, dict(zip(keys, cs))))


# mean-free N over every (s, i) of degrees 1-4 (n = 2) or 2-4 (n = 3)
MEAN_FREE = st.one_of(band_data(2, range(1, 5)), band_data(3, range(2, 5)))
DEGREE_ONE = st.one_of(band_data(2, (1,)), band_data(3, (1,)))


@PROPERTY
@given(MEAN_FREE, ALPHA)
def test_property_series_matches_the_boundary_functional_and_its_bounds(data, alpha):
    n, N = data
    tor_sol, eig_sol = solve_torsion_ball(n, 1.0, alpha), solve_robin_eigen_ball(n, 1.0, alpha)
    tor = second_variation_energy_ball(tor_sol, N)
    eig = second_variation_eigenvalue_ball(eig_sol, N)
    for sol, rep in ((tor_sol, tor), (eig_sol, eig)):
        scale = max(1.0, abs(rep.Eddot0))
        assert abs(rep.extras["Eddot0_quadrature"] - rep.Eddot0) <= 1e-8 * scale
        # the per-degree rows sum to E''(0) up to the rounding of the
        # cancelling terms, sized as `_bounds` sizes its slack
        uR, kg = sol.boundary_value(), sol.k_g()
        mu_p = SteklovSpectrum(sol).smallest_positive_mu(min_degree=1)
        norm_sq = rep.extras["boundary_norm_sq_N"]
        terms = abs(alpha * uR**2 * rep.Sddot0)
        terms += 2.0 * (abs(alpha * uR * kg) + kg * kg / mu_p) * norm_sq
        assert abs(sum(e for _s, e in rep.modes) - rep.Eddot0) <= 1e-14 * terms
    scale = max(1.0, abs(tor.Eddot0))
    assert tor.bound_i <= tor.Eddot0 + 1e-10 * scale
    # bound_ii needs data free of degree 1 (the barycenter condition)
    has_degree_one = any(s == 1 and c != 0.0 for (s, _i), c in N.items())
    assert (tor.bound_ii is None) == has_degree_one
    if tor.bound_ii is not None:
        assert tor.bound_ii <= tor.Eddot0 + 1e-10 * scale
    floor = eig.extras["lower_bound_surface_term"]
    assert eig.Eddot0 >= floor - 1e-10 * max(1.0, abs(eig.Eddot0))


@PROPERTY
@given(DEGREE_ONE, ALPHA)
def test_property_translations_are_the_kernel(data, alpha):
    n, N = data
    norm_sq = sum(c * c for c in N.values())
    tor = second_variation_energy_ball(solve_torsion_ball(n, 1.0, alpha), N)
    eig = second_variation_eigenvalue_ball(solve_robin_eigen_ball(n, 1.0, alpha), N)
    for rep in (tor, eig):
        assert abs(rep.Eddot0) <= 1e-12 * norm_sq


@PROPERTY
@given(MEAN_FREE, ALPHA)
def test_property_general_value_ignores_a_rotation(data, alpha):
    # a rigid rotation is tangential on the sphere: with each field's own
    # volume completion, v and v + rotation give one second variation
    n, N = data
    sol = solve_torsion_ball(n, 1.0, alpha)
    v = radial_harmonic_field(n, 1.0, N)
    vr = v + rotation_field(n)
    base = second_variation_general(sol, v, volume_completion_field(v, n, 1.0))
    got = second_variation_general(sol, vr, volume_completion_field(vr, n, 1.0))
    assert abs(got - base) <= 1e-8 * max(1.0, abs(base))
