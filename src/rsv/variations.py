"""First and second domain variations of Robin energies at the ball.

The domain family is Omega_t = (id + t v + (t^2/2) w)(B_R).  For the torsion
energy E and the first Robin eigenvalue lam, this module evaluates

    E'(0), lam'(0)            (Hadamard first variations),
    E''(0), lam''(0)          (volume-preserving Hadamard data N = v.nu),
    E''(0) for arbitrary ambient (v, w)  (full boundary-integral theorem),

together with the mode-wise decomposition

    E''(0) = alpha u(R)^2 S''(0) + F,
    F = 2 sum_s b_s^2 [alpha u(R) k_g - k_g^2 / mu_s],

lower bounds, the sign classification of the torsion second variation in
alpha, and the analogous Dirichlet quantities (where the classical
second-variation formula of the first Dirichlet eigenvalue is recovered and
its lower-bound coefficient vanishes).
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
from .special_functions import SphereQuadrature, bessel_j, lb_eigen, synthesize
from .sphere_geometry import (
    AmbientField,
    BoundaryFunction,
    boundary_mean,
    default_quad_order,
    normal_trace,
    project_normal_trace,
    radial_harmonic_field,
    second_order_volume_correction,
    sphere_measure,
    surface_element_m2,
)
from .steklov import RESONANCE_TOL, ShapeDerivative, SteklovSpectrum, shape_derivative_uprime

POSITIVE = "Positive"
NEGATIVE = "Negative"
INDEFINITE = "Indefinite"
KERNEL = "Kernel"

_SIGN_TOL = 1e-11


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


def _boundary_integral_N(sol_n: int, R: float, N, order: int | None = None) -> float:
    """int N dS over the boundary sphere, N given as coeffs or ambient field."""
    if isinstance(N, AmbientField):
        quad = SphereQuadrature(sol_n, order or default_quad_order())
        return R ** (sol_n - 1) * quad.integrate(normal_trace(N, R, quad))
    c0 = N.get((0, 0), 0.0)
    return R ** (sol_n - 1) * c0 * math.sqrt(sphere_measure(sol_n))


# ---------------------------------------------------------------------------
# first variations
# ---------------------------------------------------------------------------


def first_variation_energy(sol: RadialSolution, v) -> float:
    """E'(0) = int (v.nu) { |grad u|^2 - 2G(u) - 2 alpha^2 u^2
    + alpha (n-1) H u^2 } dS with H = 1/R; constant integrand at the ball."""
    if sol.kind != TORSION:
        raise ValueError("energy first variation applies to the torsion kind")
    uR = sol.boundary_value()
    n, R, alpha = sol.n, sol.R, sol.alpha
    z = (
        alpha**2 * uR**2
        - 2.0 * sol.source_primitive_at_boundary()
        - 2.0 * alpha**2 * uR**2
        + alpha * (n - 1) / R * uR**2
    )
    return z * _boundary_integral_N(n, R, v)


def first_variation_eigenvalue(sol: RadialSolution, v) -> float:
    """lam'(0) = A u(R)^2 int (v.nu) dS with the shift constant
    A = -alpha^2 + (n-1) alpha / R - lam."""
    if sol.kind != ROBIN_EIGEN:
        raise ValueError("eigenvalue first variation needs a robin-eigen state")
    A = sol.eigenvalue_shift_constant()
    return A * sol.boundary_value() ** 2 * _boundary_integral_N(sol.n, sol.R, v)


# ---------------------------------------------------------------------------
# Hadamard second variation (volume-preserving N)
# ---------------------------------------------------------------------------


def _surface_second_variation_from_b(sd: ShapeDerivative) -> float:
    """S''(0) = sum b^2 (mu_LB_s - (n-1)) / R^2 for volume-preserving data."""
    n, R = sd.sol.n, sd.sol.R
    total = 0.0
    for (s, _i), bv in sd.b.items():
        mu_lb, _ = lb_eigen(s, n)
        total += bv * bv * (mu_lb - (n - 1)) / R**2
    return total


def _mode_table(sd: ShapeDerivative) -> tuple[tuple[int, float], ...]:
    """Per-degree contribution to E''(0) (surface term plus bracket term)."""
    sol = sd.sol
    n, R = sol.n, sol.R
    alpha, uR, kg = sol.alpha, sol.boundary_value(), sol.k_g()
    per_degree: dict[int, float] = {}
    for (s, _i), bv in sd.b.items():
        mu_lb, _ = lb_eigen(s, n)
        surf = alpha * uR**2 * bv * bv * (mu_lb - (n - 1)) / R**2
        bracket = 2.0 * bv * bv * (alpha * uR * kg - kg * kg / sd.mu[s])
        per_degree[s] = per_degree.get(s, 0.0) + surf + bracket
    return tuple(sorted(per_degree.items()))


def second_variation_quadrature(
    sd: ShapeDerivative,
    N: BoundaryFunction,
    W: BoundaryFunction | None = None,
    order: int | None = None,
) -> float:
    """Boundary-functional form of the Hadamard second variation:

        -2 int (du'/dnu + alpha u') u' dS
        + alpha u(R)^2 int m''(0) dS
        + (2 alpha u(R)/k_g) int (du'/dnu + alpha u')^2 dS,

    with m''(0) built from the radial extensions of (N, W)."""
    sol = sd.sol
    n, R, alpha = sol.n, sol.R, sol.alpha
    if W is None:
        W = second_order_volume_correction(N, n, R)
    quad = SphereQuadrature(n, order or default_quad_order())
    v = radial_harmonic_field(n, R, N)
    w = radial_harmonic_field(n, R, W)
    m2 = surface_element_m2(v, w, R, quad)
    up = sd.boundary_values(quad.directions)
    trace = sd.robin_trace_values(quad.directions)
    area_w = R ** (n - 1)
    out = -2.0 * area_w * quad.integrate(trace * up)
    out += alpha * sol.boundary_value() ** 2 * area_w * quad.integrate(m2)
    out += (
        2.0
        * alpha
        * sol.boundary_value()
        / sol.k_g()
        * area_w
        * quad.integrate(trace * trace)
    )
    return out


def _hadamard_second_variation(
    sol: RadialSolution,
    N: BoundaryFunction,
    order: int | None = None,
) -> VariationReport:
    if abs(boundary_mean(sol.n, N)) > 1e-12:
        raise ValueError("N must be mean-free (first-order volume preservation)")
    sd = shape_derivative_uprime(sol, N)
    alpha, uR, kg = sol.alpha, sol.boundary_value(), sol.k_g()
    sdd = _surface_second_variation_from_b(sd)
    norm_sq = sd.boundary_norm_sq_N()
    Q = sd.quadratic_form()
    F = -2.0 * Q + 2.0 * alpha * uR * kg * norm_sq
    value = alpha * uR**2 * sdd + F

    by_quadrature = second_variation_quadrature(sd, N, order=order)
    scale = max(1.0, abs(value))
    if abs(by_quadrature - value) > 1e-8 * scale:
        raise ArithmeticError(
            f"series ({value!r}) and boundary-functional ({by_quadrature!r}) "
            "forms of the second variation disagree beyond 1e-8"
        )

    bound_i = bound_ii = None
    if alpha > 0 and sol.kind == TORSION:
        has_degree_one = any(s == 1 and c != 0.0 for (s, _i), c in N.items())
        bound_i, bound_ii = theorem_bounds(sol, N, include_second=not has_degree_one)

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
        modes=_mode_table(sd),
        extras={"Eddot0_quadrature": by_quadrature, "boundary_norm_sq_N": norm_sq},
    )


def second_variation_energy_ball(
    sol: RadialSolution, N: BoundaryFunction, order: int | None = None
) -> VariationReport:
    """E''(0) for the torsion energy under volume-preserving Hadamard data."""
    if sol.kind != TORSION:
        raise ValueError("use second_variation_eigenvalue_ball for eigenvalues")
    return _hadamard_second_variation(sol, N, order=order)


def second_variation_eigenvalue_ball(
    sol: RadialSolution, N: BoundaryFunction, order: int | None = None
) -> VariationReport:
    """lam''(0) = -2 Q(u') + 2 alpha u(R) k int N^2 dS + alpha u(R)^2 S''(0),
    for the normalized first Robin eigenfunction; checks the lower bound
    lam''(0) >= alpha u(R)^2 S''(0)."""
    if sol.kind != ROBIN_EIGEN:
        raise ValueError("needs the first Robin eigenstate")
    report = _hadamard_second_variation(sol, N, order=order)
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


def theorem_bounds(
    sol: RadialSolution,
    N: BoundaryFunction,
    include_second: bool = True,
) -> tuple[float, float | None]:
    """Lower bounds for the second variation (alpha > 0):

    bound_i replaces every 1/mu_s by 1/mu_p, mu_p the smallest positive
    spectrum value over degrees >= 1; bound_ii additionally bounds the
    surface term below via the degree-2 gap and needs N free of degree-1
    (barycenter condition), with mu taken over degrees >= 2.
    """
    if sol.alpha <= 0:
        raise ValueError("bounds are stated for alpha > 0")
    if abs(boundary_mean(sol.n, N)) > 1e-12:
        raise ValueError("N must be mean-free")
    sd = shape_derivative_uprime(sol, N)
    alpha, uR, kg = sol.alpha, sol.boundary_value(), sol.k_g()
    n, R = sol.n, sol.R
    norm_sq = sd.boundary_norm_sq_N()
    sdd = _surface_second_variation_from_b(sd)
    spec = sd.spectrum

    mu_p = spec.smallest_positive_mu(min_degree=1)
    bound_i = alpha * uR**2 * sdd + 2.0 * kg * kg * (
        alpha * uR / kg - 1.0 / mu_p
    ) * norm_sq

    bound_ii = None
    if include_second:
        if any(s == 1 and abs(c) > 0 for (s, _i), c in N.items()):
            raise ValueError(
                "bound_ii needs the barycenter condition: no degree-1 content"
            )
        mu_pp = spec.smallest_positive_mu(min_degree=2)
        bound_ii = (
            alpha * uR**2 * (n + 1) / R**2
            + 2.0 * kg * alpha * uR
            - 2.0 * kg * kg / mu_pp
        ) * norm_sq

    value = alpha * uR**2 * sdd - 2.0 * sd.quadratic_form() + 2.0 * alpha * uR * kg * norm_sq
    slack = 1e-10 * max(1.0, abs(value))
    if bound_i > value + slack or (bound_ii is not None and bound_ii > value + slack):
        raise ArithmeticError("computed lower bound exceeds the second variation")
    return bound_i, bound_ii


@dataclass(frozen=True)
class SignClassification:
    n: int
    R: float
    alpha: float
    classification: str
    witnesses: tuple[tuple[int, float], ...]
    searched_degrees: int


def classify_torsion_sign(
    n: int, R: float, alpha: float, search_depth: int = 12
) -> SignClassification:
    """Sign of the torsion second variation over volume-preserving data.

    Scans per-degree values e_s = E''(0) for unit-norm data concentrated at
    degree s >= 2 (degree 1 is the translation kernel).  Returns the first
    positive and first negative witness when both signs occur.
    """
    if alpha == 0.0:
        raise ValueError("alpha = 0 is not a torsion configuration")
    sol = solve_torsion_ball(n, R, alpha)
    spec = SteklovSpectrum(sol)
    uR, kg = sol.boundary_value(), sol.k_g()
    depth = max(search_depth, int(math.ceil(-alpha * R)) + 2)
    values: list[tuple[int, float]] = []
    for s in range(2, depth + 1):
        mu = spec.mu(s)
        if abs(mu) < RESONANCE_TOL * max(1.0, abs(alpha)):
            raise ArithmeticError(
                f"resonant configuration: mu_{s} = 0 at alpha R = {-s}; "
                "the linearized problem is degenerate"
            )
        mu_lb, _ = lb_eigen(s, n)
        e_s = alpha * uR**2 * (mu_lb - (n - 1)) / R**2 + 2.0 * (
            alpha * uR * kg - kg * kg / mu
        )
        values.append((s, e_s))

    tol = _SIGN_TOL * max(1.0, max(abs(e) for _s, e in values))
    positives = [(s, e) for s, e in values if e > tol]
    negatives = [(s, e) for s, e in values if e < -tol]
    if positives and negatives:
        return SignClassification(
            n, R, alpha, INDEFINITE, (positives[0], negatives[0]), depth
        )
    if positives:
        return SignClassification(n, R, alpha, POSITIVE, (positives[0],), depth)
    if negatives:
        return SignClassification(n, R, alpha, NEGATIVE, (negatives[0],), depth)
    return SignClassification(n, R, alpha, KERNEL, (), depth)


# ---------------------------------------------------------------------------
# general ambient-field second variation (torsion energy)
# ---------------------------------------------------------------------------


def second_variation_general(
    sol: RadialSolution,
    v: AmbientField,
    w: AmbientField,
    order: int | None = None,
    max_degree: int = 24,
) -> float:
    """Full boundary-integral second variation of the torsion energy for
    arbitrary ambient fields (v, w); no volume constraint is assumed.

    u' carries the boundary data (du'/dnu + alpha u') = k_g (v.nu), obtained
    by projecting v.nu onto harmonics up to max_degree.  For fields that are
    volume preserving to second order the result coincides with
    second_variation_energy_ball(v.nu) and is independent of the tangential
    part of v and of w.
    """
    if sol.kind != TORSION:
        raise ValueError("general evaluator covers the torsion energy")
    n, R, alpha = sol.n, sol.R, sol.alpha
    quad = SphereQuadrature(n, order or default_quad_order())
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
    div_v = np.trace(Dv, axis1=-2, axis2=-1)
    # advective derivative (v.grad)v; the theorem contracts it against nu
    Dv_v = np.einsum("qij,qj->qi", Dv, vx)
    v_Dv_nu = np.einsum("qi,qi->q", Dv_v, nu)
    nu_Dv_nu = np.einsum("qi,qij,qj->q", nu, Dv, nu)
    v_sq = np.einsum("qi,qi->q", vx, vx)

    N_coeffs = project_normal_trace(v, n, R, max_degree=max_degree, order=quad.order)
    sd = shape_derivative_uprime(sol, N_coeffs)
    trace = sd.robin_trace_values(quad.directions)

    area_w = R ** (n - 1)
    integrals = 0.0
    # transported-energy term: (N div v - v.(D_v nu) + w.nu)(|grad u|^2 - 2G)
    integrals += (ur * ur - 2.0 * G) * area_w * quad.integrate(
        N * div_v - v_Dv_nu + wnu
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
    m2 = surface_element_m2(v, w, R, quad)
    integrals += alpha * uR * uR * area_w * quad.integrate(m2)
    return integrals - 2.0 * sd.quadratic_form()


# ---------------------------------------------------------------------------
# Dirichlet comparison
# ---------------------------------------------------------------------------


def _dirichlet_mode_log_derivative(n: int, R: float, k: float, s: int) -> float:
    """a_s'(R)/a_s(R) for a_s(r) = r^{1-n/2} J_{s+n/2-1}(k r)."""
    nu = n / 2.0 - 1.0 + s
    j = bessel_j(nu, k * R)
    if abs(j) < 1e-14:
        raise ArithmeticError(f"degenerate Dirichlet mode s={s}")
    return s / R - k * bessel_j(nu + 1.0, k * R) / j


def dirichlet_variations(
    n: int, R: float, N: BoundaryFunction, order: int | None = None
) -> VariationReport:
    """Dirichlet counterpart quantities on the ball for Hadamard data N:

    - first eigenvalue lam_D and the classical second-variation series
      (1/2) lam_D''(0) = sum c^2 [beta_s + (n-1)/R], c = -u_r(R) b;
    - its lower-bound coefficient n/R - k J_{n/2+1}(kR)/J_{n/2}(kR), which
      vanishes identically at k = sqrt(lam_D) (degree-1 translation kernel);
    - the Dirichlet torsion energy: E'(0) (zero for mean-free N) and E''(0)
      from the critical-domain second-variation functional
      2 Q(u') + g(0) int u'^2 du/dnu dS + 2(n-1) int u'^2 H dS.
    """
    if abs(boundary_mean(n, N)) > 1e-12:
        raise ValueError("N must be mean-free")
    eig = solve_dirichlet_eigen_ball(n, R)
    lam_D = eig.lam
    k = math.sqrt(lam_D)

    gs_coefficient = n / R - k * bessel_j(n / 2.0 + 1.0, k * R) / bessel_j(
        n / 2.0, k * R
    )

    scale = R ** ((n - 1) / 2.0)
    b = {si: scale * c for si, c in N.items() if c != 0.0}
    norm_sq = sum(bv * bv for bv in b.values())

    # eigenvalue series
    ur_eig = eig.boundary_slope()
    modes: dict[int, float] = {}
    lam_ddot_half = 0.0
    for (s, _i), bv in b.items():
        beta = _dirichlet_mode_log_derivative(n, R, k, s)
        c = -ur_eig * bv
        term = c * c * (beta + (n - 1) / R)
        lam_ddot_half += term
        modes[s] = modes.get(s, 0.0) + 2.0 * term
    lam_ddot = 2.0 * lam_ddot_half

    # torsion energy with Dirichlet boundary: u = (R^2 - r^2)/(2n)
    ur_tor = -R / n
    quad = SphereQuadrature(n, order or default_quad_order())
    c_tor = {si: -ur_tor * bv for si, bv in b.items()}
    # u' is harmonic with trace sum c Y / R^{(n-1)/2}
    Q_tor = sum(cc * cc * s / R for (s, _i), cc in c_tor.items())
    trace_sq = sum(cc * cc for cc in c_tor.values())
    # quadrature route for the u'^2 boundary terms
    up_vals = synthesize(n, c_tor, quad.directions) / R ** ((n - 1) / 2.0)
    area_w = R ** (n - 1)
    int_up_sq = area_w * quad.integrate(up_vals * up_vals)
    if abs(int_up_sq - trace_sq) > 1e-10 * max(1.0, trace_sq):
        raise ArithmeticError("quadrature and series boundary norms disagree")
    g0 = 1.0
    eddot_tor = 2.0 * Q_tor + g0 * ur_tor * int_up_sq + 2.0 * (n - 1) / R * int_up_sq
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
