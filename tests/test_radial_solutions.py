import math

import numpy as np
import pytest
from ball_reference import k_g_from_profile, radial_quadrature, robin_ball_lam_full_bisection, u_rr

import rsv.radial_solutions as radial_solutions
from rsv.radial_solutions import (
    RadialSolution,
    dirichlet_eigenvalue,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)

CASES = [(2, 1.0, 1.0), (3, 1.3, 0.7), (2, 0.8, 2.5), (3, 1.0, 0.3)]


def test_problem_validation():
    with pytest.raises(ValueError):
        RadialSolution("torsion", 2, 1.0, 0.0)  # alpha = 0 has no torsion state
    with pytest.raises(ValueError):
        RadialSolution("torsion", 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        RadialSolution("helmholtz", 2, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [None, 0.0, -1.0])
def test_robin_eigen_needs_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha > 0"):
        RadialSolution("robin-eigen", 2, 1.0, alpha)
    with pytest.raises(ValueError, match="alpha > 0"):
        solve_robin_eigen_ball(2, 1.0, alpha)


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def test_torsion_reference_case():
    # n = 2, R = 1, alpha = 1: u = 1/2 + (1 - r^2)/4
    t = solve_torsion_ball(2, 1.0, 1.0)
    assert t.boundary_value() == pytest.approx(0.5)
    assert t.boundary_slope() == pytest.approx(-0.5)
    assert t.k_g() == pytest.approx(1.0)
    assert t.energy() == pytest.approx(-5 * math.pi / 8)


@pytest.mark.parametrize("n,R,alpha", CASES + [(2, 0.8, -1.5)])
def test_torsion_satisfies_equation_and_bc(n, R, alpha):
    t = solve_torsion_ball(n, R, alpha)
    r = np.linspace(0.05, R, 40)
    resid = u_rr(t, r) + (n - 1) / r * t.u_r(r) + 1.0
    assert np.max(np.abs(resid)) < 1e-13
    assert t.boundary_slope() + alpha * t.boundary_value() == pytest.approx(0.0, abs=1e-13)
    # invariant independent of alpha: alpha u(R) = R/n
    assert alpha * t.boundary_value() == pytest.approx(R / n)


@pytest.mark.parametrize("n,R,alpha", CASES)
def test_torsion_integrals_match_quadrature(n, R, alpha):
    t = solve_torsion_ball(n, R, alpha)
    r, w = radial_quadrature(R)
    om = 2 * math.pi if n == 2 else 4 * math.pi
    vol_u = om * np.sum(w * t.u(r) * r ** (n - 1))
    assert t.volume_integral_u() == pytest.approx(vol_u, rel=1e-12)
    l2 = om * np.sum(w * t.u(r) ** 2 * r ** (n - 1))
    assert t.l2_norm_sq() == pytest.approx(l2, rel=1e-12)


def test_torsion_energy_is_weak_form_value():
    # J(u) = int |grad u|^2 - 2u + alpha bdry int u^2 evaluated by quadrature
    n, R, alpha = 2, 1.0, 1.0
    t = solve_torsion_ball(n, R, alpha)
    r, w = radial_quadrature(R)
    om = 2 * math.pi
    bulk = om * np.sum(w * (t.u_r(r) ** 2 - 2 * t.u(r)) * r ** (n - 1))
    bdry = alpha * om * R ** (n - 1) * t.boundary_value() ** 2
    assert bulk + bdry == pytest.approx(t.energy(), rel=1e-12)


# ---------------------------------------------------------------------------
# Robin eigenvalue
# ---------------------------------------------------------------------------


def test_robin_eigen_reference_case():
    e = solve_robin_eigen_ball(2, 1.0, 1.0)
    assert e.lam == pytest.approx(1.5769927308086, abs=1e-11)


@pytest.mark.parametrize("n,R,alpha", CASES)
def test_robin_eigen_state(n, R, alpha):
    e = solve_robin_eigen_ball(n, R, alpha)
    # below the Dirichlet eigenvalue, above Neumann (= 0)
    assert 0.0 < e.lam < dirichlet_eigenvalue(n, R)
    # Robin boundary condition
    assert e.boundary_slope() + alpha * e.boundary_value() == pytest.approx(
        0.0, abs=1e-12
    )
    # normalized
    r, w = radial_quadrature(R)
    om = 2 * math.pi if n == 2 else 4 * math.pi
    assert om * np.sum(w * e.u(r) ** 2 * r ** (n - 1)) == pytest.approx(1.0, rel=1e-12)
    # eigenvalue equation, with u'' taken by finite differences on u'
    h = 1e-5
    for rr in (0.3 * R, 0.8 * R):
        fd = (e.u_r(rr + h) - e.u_r(rr - h)) / (2 * h)
        resid = fd + (n - 1) / rr * e.u_r(rr) + e.lam * e.u(rr)
        assert abs(resid) < 1e-8
    # first eigenfunction has one sign
    assert np.all(e.u(np.linspace(0, R, 50)) > 0)


@pytest.mark.parametrize("n,R,alpha", CASES)
def test_robin_eigen_rayleigh_quotient(n, R, alpha):
    e = solve_robin_eigen_ball(n, R, alpha)
    r, w = radial_quadrature(R)
    om = 2 * math.pi if n == 2 else 4 * math.pi
    num = om * np.sum(w * e.u_r(r) ** 2 * r ** (n - 1))
    num += alpha * om * R ** (n - 1) * e.boundary_value() ** 2
    den = om * np.sum(w * e.u(r) ** 2 * r ** (n - 1))
    assert num / den == pytest.approx(e.lam, rel=1e-11)


def test_eigenvalue_shift_constant_nonpositive():
    # A = -alpha^2 + (n-1) alpha/R - lam stays negative for the ground state
    for n in (2, 3):
        for alpha in (0.1, 0.5, 1.0, 3.0, 10.0):
            e = solve_robin_eigen_ball(n, 1.0, alpha)
            assert -alpha**2 + (n - 1) * alpha - e.lam < 0.0


def test_robin_eigen_monotone_in_alpha():
    lams = [solve_robin_eigen_ball(2, 1.0, a).lam for a in (0.2, 1.0, 5.0, 25.0)]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < dirichlet_eigenvalue(2, 1.0)


BISECTION_CASES = [
    (n, R, alpha)
    for n in (2, 3)
    for R in (0.5, 1.0, 2.0)
    for alpha in (0.05, 0.25, 1.0, 3.0, 50.0)
]


def _count_bessel_calls(monkeypatch):
    calls = []
    bessel_j = radial_solutions.bessel_j

    def counted_bessel_j(nu, x):
        calls.append(x)
        return bessel_j(nu, x)

    monkeypatch.setattr(radial_solutions, "bessel_j", counted_bessel_j)
    return calls


@pytest.mark.parametrize("n,R,alpha", BISECTION_CASES)
def test_robin_eigen_bisection_stops_on_the_same_bits(n, R, alpha, monkeypatch):
    # the count runs on the uncached bisection, so a warm cache cannot hide it
    lam = solve_robin_eigen_ball(n, R, alpha).lam
    calls = _count_bessel_calls(monkeypatch)
    cold = radial_solutions.robin_eigenvalue.__wrapped__(n, R, alpha)
    assert 0 < len(calls) <= 120
    assert cold == lam == robin_ball_lam_full_bisection(n, R, alpha)


@pytest.mark.parametrize("n,R,alpha", BISECTION_CASES)
def test_robin_eigenvalue_caches_the_bisection(n, R, alpha, monkeypatch):
    # a warm call returns the cold bisection's bits with no Bessel call at all
    lam = radial_solutions.robin_eigenvalue(n, R, alpha)
    calls = _count_bessel_calls(monkeypatch)
    assert radial_solutions.robin_eigenvalue.__wrapped__(n, R, alpha) == lam
    calls.clear()
    assert radial_solutions.robin_eigenvalue(n, R, alpha) == lam
    assert calls == []


def test_cached_robin_ball_states_repeat_and_still_validate_alpha():
    first = solve_robin_eigen_ball(2, 1.0, 1.0)
    assert solve_robin_eigen_ball(2, 1.0, 1.0) == first
    # the problem is checked before the cache is read, on every call
    for _ in range(2):
        for alpha in (None, 0.0, -1.0):
            with pytest.raises(ValueError, match="alpha > 0"):
                solve_robin_eigen_ball(2, 1.0, alpha)


def test_k_g_consistency_both_kinds():
    for n, R, alpha in CASES:
        t = solve_torsion_ball(n, R, alpha)
        assert t.k_g() == pytest.approx(k_g_from_profile(t), abs=1e-12)
        e = solve_robin_eigen_ball(n, R, alpha)
        assert e.k_g() == pytest.approx(k_g_from_profile(e), abs=1e-12)
        # torsion closed form (1 + alpha R)/n
        assert t.k_g() == pytest.approx((1 + alpha * R) / n)


# ---------------------------------------------------------------------------
# Dirichlet eigenvalue
# ---------------------------------------------------------------------------


def test_dirichlet_eigenvalues():
    assert dirichlet_eigenvalue(2, 1.0) == pytest.approx(5.783185962946785, abs=1e-12)
    # n = 3: j_{1/2,1} = pi, so lam = (pi/R)^2
    assert dirichlet_eigenvalue(3, 1.0) == pytest.approx(math.pi**2, abs=1e-12)
    assert dirichlet_eigenvalue(3, 2.0) == pytest.approx(math.pi**2 / 4, abs=1e-12)


def test_dirichlet_eigenvalue_is_cached():
    first = dirichlet_eigenvalue(2, 1.37)
    before = dirichlet_eigenvalue.cache_info()
    assert dirichlet_eigenvalue(2, 1.37) == first
    after = dirichlet_eigenvalue.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize("n", [2, 3])
def test_dirichlet_eigenstate(n):
    d = solve_dirichlet_eigen_ball(n, 1.0)
    assert abs(d.u(1.0)) < 1e-12
    r, w = radial_quadrature(1.0)
    om = 2 * math.pi if n == 2 else 4 * math.pi
    assert om * np.sum(w * d.u(r) ** 2 * r ** (n - 1)) == pytest.approx(1.0, rel=1e-12)
    assert d.boundary_slope() < 0.0  # outward derivative of a positive state
    # profile continuous through the origin
    vals = d.u(np.array([0.0, 1e-9, 1e-4]))
    assert abs(vals[0] - vals[1]) < 1e-10
