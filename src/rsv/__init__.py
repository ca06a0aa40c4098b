"""Domain variations of Robin boundary-value and eigenvalue energies on
balls and nearly-spherical domains.

The library computes first and second shape derivatives of the torsion
energy and of the first Robin/Dirichlet eigenvalue at the ball, decomposes
the second variation over Steklov modes, classifies its sign, and checks
every closed form against an independent collocation solver on the
perturbed domains themselves.
"""

from .oracle_solver import (
    Derivatives,
    OracleSolution,
    curve,
    finite_difference_derivatives,
    solve_perturbed_eigen,
    solve_perturbed_family,
    solve_perturbed_torsion,
    surface_curve,
    sweep_rows,
)
from .radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    RadialSolution,
    dirichlet_eigenvalue,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from .special_functions import (
    HarmonicBasis,
    SphereQuadrature,
    bessel_j,
    bessel_j_zeros,
    harmonic_indices,
    lb_eigen,
    multiplicity,
    spherical_harmonic,
)
from .sphere_geometry import (
    AmbientField,
    BoundaryFunction,
    PerturbationField,
    StarDomain,
    exact_surface_area,
    exact_volume,
    linear_field,
    perturbed_domain,
    radial_harmonic_field,
    rotation_field,
    second_order_volume_correction,
    surface_second_variation,
    volume_completion_field,
    zero_field,
)
from .steklov import (
    ShapeDerivative,
    SteklovSpectrum,
    shape_derivative_uprime,
)
from .variations import (
    INDEFINITE,
    KERNEL,
    NEGATIVE,
    POSITIVE,
    SignClassification,
    VariationReport,
    classify_torsion_sign,
    dirichlet_variations,
    first_variation,
    second_variation_eigenvalue_ball,
    second_variation_energy_ball,
    second_variation_general,
    theorem_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientField",
    "BoundaryFunction",
    "Derivatives",
    "DIRICHLET_EIGEN",
    "HarmonicBasis",
    "INDEFINITE",
    "KERNEL",
    "NEGATIVE",
    "OracleSolution",
    "PerturbationField",
    "POSITIVE",
    "RadialSolution",
    "ROBIN_EIGEN",
    "ShapeDerivative",
    "SignClassification",
    "SphereQuadrature",
    "StarDomain",
    "SteklovSpectrum",
    "TORSION",
    "VariationReport",
    "bessel_j",
    "bessel_j_zeros",
    "classify_torsion_sign",
    "curve",
    "dirichlet_eigenvalue",
    "dirichlet_variations",
    "exact_surface_area",
    "exact_volume",
    "finite_difference_derivatives",
    "first_variation",
    "harmonic_indices",
    "lb_eigen",
    "linear_field",
    "multiplicity",
    "perturbed_domain",
    "radial_harmonic_field",
    "rotation_field",
    "second_order_volume_correction",
    "second_variation_eigenvalue_ball",
    "second_variation_energy_ball",
    "second_variation_general",
    "shape_derivative_uprime",
    "solve_dirichlet_eigen_ball",
    "solve_perturbed_eigen",
    "solve_perturbed_family",
    "solve_perturbed_torsion",
    "solve_robin_eigen_ball",
    "solve_torsion_ball",
    "spherical_harmonic",
    "surface_curve",
    "surface_second_variation",
    "sweep_rows",
    "theorem_bounds",
    "volume_completion_field",
    "zero_field",
]
