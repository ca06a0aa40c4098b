"""First and second domain variations of Robin energies at the ball.

The domain family is Omega_t = (id + t v + (t^2/2) w)(B_R).  For the torsion
energy E and the first Robin eigenvalue lam, this module evaluates

    E'(0), lam'(0)            (Hadamard first variations),
    E''(0), lam''(0)          (volume-preserving Hadamard data N = v.nu),
    E''(0) for arbitrary ambient (v, w)  (full boundary-integral theorem),

together with lower bounds, the sign classification of the torsion second
variation in alpha, and the analogous Dirichlet quantities (where the
classical second-variation formula of the first Dirichlet eigenvalue is
recovered and its lower-bound coefficient vanishes).

Every ball second variation of a Robin state is read off one table,
`_degree_terms`, with one row per trace coefficient b = b_{s,i} of N:

    S_s = b^2 (s(s+n-2) - (n-1)) / R^2,  N_s = b^2,  Q_s = c^2 mu_s,  c = k_g b / mu_s.

The column sums S''(0), int N^2 dS and Q give E''(0) = alpha u(R)^2 S''(0)
+ F with F = -2 Q + 2 alpha u(R) k_g int N^2 dS; the same expression over
the rows of one degree gives its printed contribution and the
sign-classification witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    RadialSolution,
    solve_dirichlet_eigen_ball,
    solve_torsion_ball,
)
from .special_functions import SphereQuadrature
from .sphere_geometry import (
    AmbientField,
    BoundaryFunction,
    _surface_element_m2,
    _surface_term,
    _volume_integrand,
    coeff_norm_sq,
    mean_free,
    normal_trace,
    project_normal_trace,
    radial_harmonic_field,
    second_order_volume_correction,
    sphere_measure,
    surface_element_m2,
    trace_coefficients,
)
from .steklov import ShapeDerivative, SteklovSpectrum, shape_derivative_uprime

POSITIVE = "Positive"
NEGATIVE = "Negative"
INDEFINITE = "Indefinite"
KERNEL = "Kernel"

_SIGN_TOL = 1e-11
_SIGN_SEARCH_DEPTH = 12


@dataclass(frozen=True)
class VariationReport:
    """Scalar outcome of a variation computation plus its decomposition.

    For eigenvalue kinds the E-fields hold lam(0), lam'(0), lam''(0).
    Fields that a given computation does not produce are None.
    """

    kind: str
    n: int
    R: float
    alpha: float
    E0: float
    Edot0: float | None = None
    Eddot0: float | None = None
    Sddot0: float | None = None
    F_series: float | None = None
    Q: float | None = None
    bound_i: float | None = None
    bound_ii: float | None = None
    classification: str | None = None
    modes: tuple[tuple[int, float], ...] = ()
    extras: dict[str, float] = field(default_factory=dict)


def _classify_value(value: float, scale: float = 1.0) -> str:
    if value > _SIGN_TOL * scale:
        return POSITIVE
    if value < -_SIGN_TOL * scale:
        return NEGATIVE
    return KERNEL


def _boundary_integral_N(sol_n: int, R: float, N) -> float:
    """int N dS over the boundary sphere, N given as coeffs or ambient field."""
    if isinstance(N, AmbientField):
        quad = SphereQuadrature(sol_n)
        return R ** (sol_n - 1) * quad.integrate(normal_trace(N, R, quad))
    c0 = N.get((0, 0), 0.0)
    return R ** (sol_n - 1) * c0 * math.sqrt(sphere_measure(sol_n))


# ---------------------------------------------------------------------------
# first variations
# ---------------------------------------------------------------------------


def first_variation(sol: RadialSolution, v) -> float:
    """E'(0) or lam'(0) = int (v.nu) { |grad u|^2 - 2G(u) - 2 alpha^2 u^2
    + alpha (n-1) H u^2 } dS with H = 1/R.  At the ball |grad u|^2 = u_r^2
    = alpha^2 u^2, so the integrand is the constant -u_r(R)^2 - 2G(u(R))
    + alpha (n-1) u(R)^2 / R; for Dirichlet (alpha = 0, u(R) = 0) it is
    Hadamard's -u_r(R)^2."""
    n, R, uR = sol.n, sol.R, sol.boundary_value()
    z = -sol.boundary_slope() ** 2 - 2.0 * sol.source_primitive_at_boundary()
    z += sol.alpha * (n - 1) / R * uR**2
    return z * _boundary_integral_N(n, R, v)


# ---------------------------------------------------------------------------
# Hadamard second variation (volume-preserving N)
# ---------------------------------------------------------------------------


def _degree_terms(sol: RadialSolution, b: BoundaryFunction, mu: dict[int, float]):
    """Rows (s, S_s, N_s, Q_s) of the module docstring, one per trace
    coefficient b_{s,i}, with mu the Steklov value of each degree."""
    n, R, kg = sol.n, sol.R, sol.k_g()
    rows = []
    for (s, _i), bv in b.items():
        c = kg * bv / mu[s]
        rows.append((s, _surface_term(s, bv, n, R), bv * bv, c * c * mu[s]))
    return rows


def _series(sol: RadialSolution, rows):
    """(S''(0), int N^2 dS, Q, F, E''(0), per-degree E''(0)) of `_degree_terms`
    rows: column sums, and (F, E''(0)) of the sums and of each row."""
    alpha, uR, kg = sol.alpha, sol.boundary_value(), sol.k_g()

    def value(sdd: float, norm_sq: float, Q: float) -> tuple[float, float]:
        F = -2.0 * Q + 2.0 * alpha * uR * kg * norm_sq
        return F, alpha * uR**2 * sdd + F

    sums = tuple(sum((row[j] for row in rows), 0.0) for j in (1, 2, 3))
    per_degree: dict[int, float] = {}
    for s, *terms in rows:
        per_degree[s] = per_degree.get(s, 0.0) + value(*terms)[1]
    return (*sums, *value(*sums), tuple(sorted(per_degree.items())))


def second_variation_quadrature(sd: ShapeDerivative, N: BoundaryFunction) -> float:
    """Boundary-functional form of the Hadamard second variation:

        -2 int (du'/dnu + alpha u') u' dS
        + alpha u(R)^2 int m''(0) dS
        + (2 alpha u(R)/k_g) int (du'/dnu + alpha u')^2 dS,

    with m''(0) built from the radial extensions of N and of its
    second-order volume correction W."""
    sol = sd.sol
    n, R, alpha = sol.n, sol.R, sol.alpha
    W = second_order_volume_correction(N, n, R)
    quad = SphereQuadrature(n)
    v = radial_harmonic_field(n, R, N)
    w = radial_harmonic_field(n, R, W)
    m2 = surface_element_m2(v, w, R, quad)
    up = sd.boundary_values(quad.directions)
    trace = sd.robin_trace_values(quad.directions)
    area_w = R ** (n - 1)
    uR, kg = sol.boundary_value(), sol.k_g()
    out = -2.0 * area_w * quad.integrate(trace * up)
    out += alpha * uR**2 * area_w * quad.integrate(m2)
    out += 2.0 * alpha * uR / kg * area_w * quad.integrate(trace * trace)
    return out


def _hadamard_series(sol: RadialSolution, N: BoundaryFunction):
    """(u', *`_series`) for volume-preserving data N."""
    if not mean_free(N):
        raise ValueError("N must be mean-free (first-order volume preservation)")
    sd = shape_derivative_uprime(sol, N)
    return (sd, *_series(sol, _degree_terms(sol, sd.b, sd.mu)))


def _hadamard_second_variation(sol: RadialSolution, N: BoundaryFunction) -> VariationReport:
    sd, sdd, norm_sq, Q, F, value, modes = _hadamard_series(sol, N)
    alpha = sol.alpha

    by_quadrature = second_variation_quadrature(sd, N)
    scale = max(1.0, abs(value))
    if abs(by_quadrature - value) > 1e-8 * scale:
        raise ArithmeticError(
            f"series ({value!r}) and boundary-functional ({by_quadrature!r}) "
            "forms of the second variation disagree beyond 1e-8"
        )

    bound_i = bound_ii = None
    if alpha > 0 and sol.kind == TORSION:
        bound_i, bound_ii = _bounds(sd, sdd, norm_sq, value)

    return VariationReport(
        kind=sol.kind,
        n=sol.n,
        R=sol.R,
        alpha=alpha,
        E0=sol.energy(),
        Edot0=0.0,
        Eddot0=value,
        Sddot0=sdd,
        F_series=F,
        Q=Q,
        bound_i=bound_i,
        bound_ii=bound_ii,
        classification=_classify_value(value, scale=max(1.0, norm_sq)),
        modes=modes,
        extras={"Eddot0_quadrature": by_quadrature, "boundary_norm_sq_N": norm_sq},
    )


def second_variation_energy_ball(sol: RadialSolution, N: BoundaryFunction) -> VariationReport:
    """E''(0) for the torsion energy under volume-preserving Hadamard data."""
    if sol.kind != TORSION:
        raise ValueError("use second_variation_eigenvalue_ball for eigenvalues")
    return _hadamard_second_variation(sol, N)


def second_variation_eigenvalue_ball(
    sol: RadialSolution, N: BoundaryFunction
) -> VariationReport:
    """lam''(0) = -2 Q(u') + 2 alpha u(R) k int N^2 dS + alpha u(R)^2 S''(0),
    for the normalized first Robin eigenfunction; checks the lower bound
    lam''(0) >= alpha u(R)^2 S''(0)."""
    if sol.kind != ROBIN_EIGEN:
        raise ValueError("needs the first Robin eigenstate")
    report = _hadamard_second_variation(sol, N)
    floor = sol.alpha * sol.boundary_value() ** 2 * report.Sddot0
    if report.Eddot0 < floor - 1e-12 * max(1.0, abs(floor)):
        raise ArithmeticError(
            "second variation of the eigenvalue fell below its surface-term "
            f"lower bound: {report.Eddot0!r} < {floor!r}"
        )
    report.extras["lower_bound_surface_term"] = floor
    return report


# ---------------------------------------------------------------------------
# lower bounds and sign classification
# ---------------------------------------------------------------------------


def _bounds(sd: ShapeDerivative, sdd: float, norm_sq: float, value: float):
    """(bound_i, bound_ii) of `theorem_bounds` from the series of
    `_hadamard_series`; bound_ii is None when the data have degree-1
    content.  Raises when a bound exceeds the second variation `value`."""
    sol = sd.sol
    alpha, uR, kg = sol.alpha, sol.boundary_value(), sol.k_g()
    n, R = sol.n, sol.R
    spec = sd.spectrum

    mu_p = spec.smallest_positive_mu(min_degree=1)
    bound_i = alpha * uR**2 * sdd + 2.0 * kg * kg * (
        alpha * uR / kg - 1.0 / mu_p
    ) * norm_sq

    bound_ii = None
    if not any(s == 1 for s, _i in sd.b):  # sd.b holds the coefficients c != 0.0
        mu_pp = spec.smallest_positive_mu(min_degree=2)
        bound_ii = (
            alpha * uR**2 * (n + 1) / R**2
            + 2.0 * kg * alpha * uR
            - 2.0 * kg * kg / mu_pp
        ) * norm_sq

    # value and the bounds are differences of terms of size `terms`, which
    # grows like alpha: the slack covers their rounding as well
    terms = abs(alpha * uR**2 * sdd) + 2.0 * (abs(alpha * uR * kg) + kg * kg / mu_p) * norm_sq
    slack = 1e-10 * max(1.0, abs(value)) + 1e-14 * terms
    if bound_i > value + slack or (bound_ii is not None and bound_ii > value + slack):
        raise ArithmeticError("computed lower bound exceeds the second variation")
    return bound_i, bound_ii


def theorem_bounds(sol: RadialSolution, N: BoundaryFunction) -> tuple[float, float]:
    """Lower bounds for the second variation (alpha > 0):

    bound_i replaces every 1/mu_s by 1/mu_p, mu_p the smallest positive
    spectrum value over degrees >= 1; bound_ii additionally bounds the
    surface term below via the degree-2 gap and needs N free of degree-1
    (barycenter condition), with mu taken over degrees >= 2.
    """
    if sol.alpha <= 0:
        raise ValueError("bounds are stated for alpha > 0")
    sd, sdd, norm_sq, _Q, _F, value, _modes = _hadamard_series(sol, N)
    bound_i, bound_ii = _bounds(sd, sdd, norm_sq, value)
    if bound_ii is None:
        raise ValueError("bound_ii needs the barycenter condition: no degree-1 content")
    return bound_i, bound_ii


@dataclass(frozen=True)
class SignClassification:
    n: int
    R: float
    alpha: float
    classification: str
    witnesses: tuple[tuple[int, float], ...]
    searched_degrees: int


def classify_torsion_sign(n: int, R: float, alpha: float) -> SignClassification:
    """Sign of the torsion second variation over volume-preserving data.

    Scans per-degree values e_s = E''(0) for unit-norm data concentrated at
    degree s >= 2 (degree 1 is the translation kernel), up to degree
    max(_SIGN_SEARCH_DEPTH, ceil(-alpha R) + 2).  Returns the first
    positive and first negative witness when both signs occur.
    """
    sol = solve_torsion_ball(n, R, alpha)
    spec = SteklovSpectrum(sol)
    depth = max(_SIGN_SEARCH_DEPTH, int(math.ceil(-alpha * R)) + 2)
    mu = {s: spec.nonresonant_mu(s) for s in range(2, depth + 1)}
    values = _series(sol, _degree_terms(sol, {(s, 0): 1.0 for s in mu}, mu))[-1]

    scale = max(1.0, max(abs(e) for _s, e in values))
    signs = [_classify_value(e, scale) for _s, e in values]
    found = [sign for sign in (POSITIVE, NEGATIVE) if sign in signs]
    witnesses = tuple(values[signs.index(sign)] for sign in found)
    classification = INDEFINITE if len(found) == 2 else found[0] if found else KERNEL
    return SignClassification(n, R, alpha, classification, witnesses, depth)


# ---------------------------------------------------------------------------
# general ambient-field second variation (torsion energy)
# ---------------------------------------------------------------------------


def second_variation_general(sol: RadialSolution, v: AmbientField, w: AmbientField) -> float:
    """Full boundary-integral second variation of the torsion energy for
    arbitrary ambient fields (v, w); no volume constraint is assumed.

    u' carries the boundary data (du'/dnu + alpha u') = k_g (v.nu), obtained
    by projecting v.nu with `project_normal_trace`.  For fields that are
    volume preserving to second order the result coincides with
    second_variation_energy_ball(v.nu) and is independent of the tangential
    part of v and of w.
    """
    if sol.kind != TORSION:
        raise ValueError("general evaluator covers the torsion energy")
    n, R, alpha = sol.n, sol.R, sol.alpha
    quad = SphereQuadrature(n)
    x = R * quad.directions
    nu = quad.directions
    vx = v(x)
    wx = w(x)
    Dv = v.jacobian(x)

    uR = sol.boundary_value()
    ur = sol.boundary_slope()
    g = sol.source_at_boundary()
    G = sol.source_primitive_at_boundary()

    N = np.einsum("qi,qi->q", vx, nu)
    wnu = np.einsum("qi,qi->q", wx, nu)
    # advective derivative (v.grad)v, contracted against nu
    v_Dv_nu = np.einsum("qi,qi->q", np.einsum("qij,qj->qi", Dv, vx), nu)
    nu_Dv_nu = np.einsum("qi,qij,qj->q", nu, Dv, nu)
    v_sq = np.einsum("qi,qi->q", vx, vx)

    N_coeffs = project_normal_trace(v, n, R)
    sd = shape_derivative_uprime(sol, N_coeffs)
    trace = sd.robin_trace_values(quad.directions)

    area_w = R ** (n - 1)
    integrals = 0.0
    # transported-energy term: (N div v - nu.(D_v v) + w.nu)(|grad u|^2 - 2G)
    integrals += (ur * ur - 2.0 * G) * area_w * quad.integrate(
        _volume_integrand(nu, vx, Dv, wx)
    )
    # first-order interaction of D_v with grad u
    integrals += 4.0 * ur * ur * area_w * quad.integrate(v_Dv_nu - N * nu_Dv_nu)
    # Hessian of u against v twice: only the tangential part of v survives
    integrals += 2.0 * ur * ur / R * area_w * quad.integrate(v_sq - N * N)
    # source coupling
    integrals += 2.0 * g * ur * area_w * quad.integrate(N * N)
    # coupling of v.grad u with the Robin trace of u'
    integrals += -4.0 * ur * area_w * quad.integrate(N * trace)
    integrals += -2.0 * alpha * ur * ur * area_w * quad.integrate(N * N)
    integrals += -2.0 * ur * ur * area_w * quad.integrate(wnu)
    # surface-element acceleration
    m2 = _surface_element_m2(Dv, w.jacobian(x), nu)
    integrals += alpha * uR * uR * area_w * quad.integrate(m2)
    Q = sum((row[3] for row in _degree_terms(sol, sd.b, sd.mu)), 0.0)
    return integrals - 2.0 * Q


# ---------------------------------------------------------------------------
# Dirichlet comparison
# ---------------------------------------------------------------------------


def dirichlet_variations(n: int, R: float, N: BoundaryFunction) -> VariationReport:
    """Dirichlet counterpart quantities on the ball for Hadamard data N:

    - first eigenvalue lam_D and the classical second-variation series
      (1/2) lam_D''(0) = sum c^2 [beta_s + (n-1)/R], c = -u_r(R) b;
    - its lower-bound coefficient beta_1 + (n-1)/R = n/R - k J_{n/2+1}(kR)
      / J_{n/2}(kR), which vanishes identically at k = sqrt(lam_D) (degree-1
      translation kernel);
    - the Dirichlet torsion energy (u = (R^2 - r^2)/(2n)): E'(0) (zero for
      mean-free N) and E''(0) = 2 sum c_s^2 (s - 1)/R, c = -u_r(R) b
      = (R/n) b.

    The torsion E''(0) is the alpha -> infinity limit of a Robin torsion row
    of `_degree_terms`.  There u(R) = R/(n alpha), k_g = (1 + alpha R)/n
    and mu_s = alpha + s/R, so the surface term alpha u(R)^2 S_s vanishes
    like 1/alpha, and the rest -2 Q_s + 2 alpha u(R) k_g N_s
    = 2 b^2 (alpha u(R) k_g - k_g^2/mu_s)
    = 2 b^2 (R/n^2) (s - 1 - (s - 1)^2/(alpha R + s))
    tends to 2 b^2 (R/n^2)(s - 1) = 2 c^2 (s - 1)/R.  Degree-1 data
    (translations) give 0.
    """
    if not mean_free(N):
        raise ValueError("N must be mean-free")
    eig = solve_dirichlet_eigen_ball(n, R)
    spec = SteklovSpectrum(eig)
    lam_D = eig.lam
    gs_coefficient = spec.log_derivative(1) + (n - 1) / R

    b = trace_coefficients(N, n, R)
    norm_sq = coeff_norm_sq(b)

    ur_eig, ur_tor = eig.boundary_slope(), -R / n
    modes: dict[int, float] = {}
    beta: dict[int, float] = {}  # beta_s + (n-1)/R, one Bessel ratio per degree
    lam_ddot_half = Q_tor = eddot_tor = 0.0
    for (s, _i), bv in b.items():
        if s not in beta:
            beta[s] = spec.log_derivative(s) + (n - 1) / R
        c = -ur_eig * bv
        term = c * c * beta[s]
        lam_ddot_half += term
        modes[s] = modes.get(s, 0.0) + 2.0 * term
        cc = (ur_tor * bv) * (ur_tor * bv)
        Q_tor += cc * s / R
        eddot_tor += 2.0 * cc * (s - 1) / R
    lam_ddot = 2.0 * lam_ddot_half
    edot_tor = ur_tor**2 * _boundary_integral_N(n, R, N)  # 0 for mean-free N

    return VariationReport(
        kind=DIRICHLET_EIGEN,
        n=n,
        R=R,
        alpha=float("inf"),
        E0=lam_D,
        Edot0=0.0,
        Eddot0=lam_ddot,
        Sddot0=None,
        F_series=None,
        Q=Q_tor,
        classification=_classify_value(lam_ddot, scale=max(1.0, norm_sq)),
        modes=tuple(sorted(modes.items())),
        extras={
            "lambda_D": lam_D,
            "gs_coefficient": gs_coefficient,
            "torsion_energy_Edot0": edot_tor,
            "torsion_energy_Eddot0": eddot_tor,
            "boundary_norm_sq_N": norm_sq,
        },
    )
