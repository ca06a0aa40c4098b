"""Configuration-driven report runner.

Reads a YAML experiment description, runs one report subcommand against
the ball problem and perturbation it describes, writes deterministic
report files (no timestamps, no machine state), and exits 0 only when
every consistency assertion embedded in that report holds.

Subcommands: first-variation, second-variation, steklov, surface,
classify, dirichlet, sweep.  Environment overrides: RSV_QUAD_ORDER
(surface quadrature order, read inside the library) and RSV_FD_H
(finite-difference step for the oracle curves).
"""
from __future__ import annotations

import argparse
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

import yaml

from .oracle_solver import (
    eigenvalue_curve,
    finite_difference_derivatives,
    surface_curve,
    sweep_rows,
    torsion_energy_curve,
)
from .radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from .special_functions import multiplicity
from .sphere_geometry import (
    PerturbationField,
    boundary_mean,
    sphere_measure,
    surface_second_variation,
)
from .steklov import SteklovSpectrum
from .variations import (
    INDEFINITE,
    classify_torsion_sign,
    dirichlet_variations,
    first_variation_energy,
    first_variation_eigenvalue,
    second_variation_energy_ball,
    second_variation_eigenvalue_ball,
)

SUBCOMMANDS = (
    "first-variation",
    "second-variation",
    "steklov",
    "surface",
    "classify",
    "dirichlet",
    "sweep",
)
KINDS = (TORSION, ROBIN_EIGEN, DIRICHLET_EIGEN)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    R: float
    alpha: float
    kind: str
    perturbation: PerturbationField
    t: float
    t_values: tuple[float, ...]
    oracle_modes: int
    h: float
    richardson_levels: int
    out_dir: str
    formats: tuple[str, ...]


def _block(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(value).__name__}")
    return value


def _number(block: dict, block_name: str, key: str, default=None) -> float:
    if key not in block:
        if default is None:
            raise ConfigError(f"{block_name}.{key}: required field is missing")
        return float(default)
    return _finite(block[key], f"{block_name}.{key}")


def _finite(value, name: str) -> float:
    """A finite int or float (not a bool) as a float."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    # YAML `true` loads as a bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(block: dict, block_name: str, key: str, default, minimum: int) -> int:
    """An integer field >= minimum; a missing key takes the default."""
    value = block.get(key, default)
    if not _is_int(value) or value < minimum:
        raise ConfigError(
            f"{block_name}.{key}: expected an integer >= {minimum}, got {value!r}"
        )
    return value


def _load_perturbation(block: dict, n: int, R: float) -> PerturbationField:
    modes = block.get("modes")
    path = block.get("coefficients")
    if modes is not None and path is not None:
        raise ConfigError(
            "perturbation: give either `modes` or `coefficients`, not both"
        )
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"perturbation.coefficients: no such file {path!r}")
        p = PerturbationField.from_text(file.read_text())
        if p.n != n or p.R != R:
            raise ConfigError(
                f"perturbation.coefficients: file is for n={p.n}, R={p.R!r}; "
                f"the problem block says n={n}, R={R!r}"
            )
        return p
    N: dict[tuple[int, int], float] = {}
    for row in modes or []:
        if not (isinstance(row, list) and len(row) == 3):
            raise ConfigError(
                "perturbation.modes: each entry must be [degree, index, coefficient]"
            )
        s, i, c = row
        if not _is_int(s) or s < 0:
            raise ConfigError(f"perturbation.modes: bad degree {s!r}")
        if not _is_int(i) or not 0 <= i < multiplicity(s, n):
            raise ConfigError(
                f"perturbation.modes: bad index {i!r} for degree {s} "
                f"(n={n} admits 0..{multiplicity(s, n) - 1})"
            )
        c = _finite(c, f"perturbation.modes: coefficient of ({s}, {i})")
        N[(s, i)] = N.get((s, i), 0.0) + c
    p = PerturbationField(n, R, N, {})
    explicit = block.get("volume_correction")
    if explicit is None:
        # default: complete to second-order volume preservation when possible
        if p.volume_preserving_first_order():
            p = p.with_volume_correction()
    elif explicit:
        if not p.volume_preserving_first_order():
            raise ConfigError(
                "perturbation.volume_correction: needs mean-free modes "
                "(drop the degree-0 entry)"
            )
        p = p.with_volume_correction()
    return p


def load_config(path: str) -> ExperimentConfig:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"no such config file: {path}")
    try:
        doc = yaml.safe_load(file.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        reason = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"config parse error{where}: {reason}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping of blocks")

    problem = _block(doc, "problem")
    n = _integer(problem, "problem", "n", None, 2)
    if n not in (2, 3):
        raise ConfigError(f"problem.n: must be 2 or 3, got {n!r}")
    R = _number(problem, "problem", "R")
    if R <= 0.0:
        raise ConfigError(f"problem.R: must be positive, got {R!r}")
    kind = problem.get("kind", TORSION)
    if kind not in KINDS:
        raise ConfigError(f"problem.kind: must be one of {', '.join(KINDS)}; got {kind!r}")
    alpha = _number(problem, "problem", "alpha", 0.0 if kind == DIRICHLET_EIGEN else None)

    perturbation = _block(doc, "perturbation")
    p = _load_perturbation(perturbation, n, R)
    t = _number(perturbation, "perturbation", "t", 0.05)
    raw_ts = perturbation.get("t_values", [])
    if not isinstance(raw_ts, list):
        raise ConfigError("perturbation.t_values: expected a list of numbers")
    t_values = tuple(
        _finite(v, f"perturbation.t_values[{j}]") for j, v in enumerate(raw_ts)
    )

    oracle = _block(doc, "oracle")
    # 0 selects the subcommand's default
    oracle_modes = _integer(oracle, "oracle", "modes", 0, 0)
    h_field, h = "oracle.h", _number(oracle, "oracle", "h", 5e-3)
    if "RSV_FD_H" in os.environ:
        h_field, h = "RSV_FD_H", os.environ["RSV_FD_H"]
        try:
            h = float(h)
        except ValueError:
            pass  # _finite rejects the text and names the variable
        h = _finite(h, h_field)
    if h <= 0.0:
        raise ConfigError(f"{h_field}: step must be positive, got {h!r}")
    levels = _integer(oracle, "oracle", "richardson_levels", 1, 0)
    if oracle.get("quadrature_order") is not None:
        quad = _integer(oracle, "oracle", "quadrature_order", None, 1)
        # the library reads its quadrature order from this variable
        os.environ["RSV_QUAD_ORDER"] = str(quad)

    output = _block(doc, "output")
    out_dir = str(output.get("directory", "reports"))
    formats = output.get("formats", ["kv", "table"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("output.formats: expected a non-empty list")
    for fmt in formats:
        if fmt not in ("kv", "table"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    return ExperimentConfig(
        n=n,
        R=R,
        alpha=alpha,
        kind=kind,
        perturbation=p,
        t=t,
        t_values=t_values,
        oracle_modes=oracle_modes,
        h=h,
        richardson_levels=levels,
        out_dir=out_dir,
        formats=tuple(formats),
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """One subcommand's output: kv pairs, a table, and its assertions."""

    name: str
    pairs: list[tuple[str, object]] = dc_field(default_factory=list)
    table_header: tuple[str, ...] = ()
    table_rows: list[tuple[object, ...]] = dc_field(default_factory=list)
    checks: list[tuple[str, bool, str]] = dc_field(default_factory=list)

    def add(self, name: str, value: object) -> None:
        self.pairs.append((name, value))

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def check_close(
        self, name: str, got: float, want: float, tol: float, scale: float = 1.0
    ) -> None:
        got, want = float(got), float(want)
        dev = abs(got - want)
        limit = tol * max(1.0, abs(scale))
        self.check(
            name,
            dev <= limit,
            f"|{got!r} - {want!r}| = {dev:.3e} (limit {limit:.3e})",
        )


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr also for numpy scalar subclasses
        return repr(float(value))
    return str(value)


def _pi_symbolic(value: object) -> str | None:
    """`p*pi/q` when the value is an exact small rational multiple of pi."""
    if not isinstance(value, float) or value == 0.0 or not math.isfinite(value):
        return None
    frac = Fraction(value / math.pi).limit_denominator(64)
    p, q = frac.numerator, frac.denominator
    if p == 0 or abs(p) > 10**6:
        return None
    if abs(value - math.pi * p / q) > 1e-12 * max(1.0, abs(value)):
        return None
    head = {1: "pi", -1: "-pi"}.get(p, f"{p}*pi")
    return head if q == 1 else f"{head}/{q}"


def render_kv(report: Report) -> str:
    lines = []
    for name, value in report.pairs:
        lines.append(f"{name} = {_fmt(value)}")
        symbolic = _pi_symbolic(value)
        if symbolic is not None:
            lines.append(f"{name}_symbolic = {symbolic}")
    for name, ok, _detail in report.checks:
        lines.append(f"check_{name} = {_fmt(ok)}")
    return "\n".join(lines) + "\n"


def render_table(report: Report, sep: str = "\t") -> str:
    lines = [sep.join(report.table_header)]
    for row in report.table_rows:
        lines.append(sep.join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _require_modes(cfg: ExperimentConfig, sub: str) -> None:
    if not cfg.perturbation.N:
        raise ConfigError(f"perturbation.modes: `{sub}` needs at least one mode")


def _ball_state(cfg: ExperimentConfig):
    if cfg.kind == TORSION:
        if cfg.alpha == 0.0:
            raise ConfigError("problem.alpha: the torsion kind needs alpha != 0")
        return solve_torsion_ball(cfg.n, cfg.R, cfg.alpha)
    if cfg.kind == ROBIN_EIGEN:
        if cfg.alpha <= 0.0:
            raise ConfigError("problem.alpha: the robin-eigen kind needs alpha > 0")
        return solve_robin_eigen_ball(cfg.n, cfg.R, cfg.alpha)
    return solve_dirichlet_eigen_ball(cfg.n, cfg.R)


def _energy_curve(cfg: ExperimentConfig):
    if cfg.kind == TORSION:
        modes = cfg.oracle_modes or 28
        return torsion_energy_curve(cfg.perturbation, cfg.alpha, modes)
    modes = cfg.oracle_modes or 20
    return eigenvalue_curve(cfg.perturbation, cfg.alpha, modes, cfg.kind)


def _derivatives(cfg: ExperimentConfig, curve):
    return finite_difference_derivatives(
        curve, h=cfg.h, richardson_levels=cfg.richardson_levels
    )


def _boundary_integral(cfg: ExperimentConfig) -> float:
    """int N dS over the boundary sphere of radius R."""
    return (
        boundary_mean(cfg.n, cfg.perturbation.N)
        * sphere_measure(cfg.n)
        * cfg.R ** (cfg.n - 1)
    )


def _problem_header(report: Report, cfg: ExperimentConfig) -> None:
    report.add("kind", cfg.kind)
    report.add("n", cfg.n)
    report.add("R", cfg.R)
    report.add("alpha", cfg.alpha)


def run_first_variation(cfg: ExperimentConfig, seed: int) -> Report:
    _require_modes(cfg, "first-variation")
    report = Report("first-variation")
    sol = _ball_state(cfg)
    if cfg.kind == TORSION:
        base = sol.energy()
        series = first_variation_energy(sol, cfg.perturbation.N)
    elif cfg.kind == ROBIN_EIGEN:
        base = sol.lam
        series = first_variation_eigenvalue(sol, cfg.perturbation.N)
    else:
        base = sol.lam
        # Hadamard formula for a simple Dirichlet eigenvalue
        series = -sol.boundary_slope() ** 2 * _boundary_integral(cfg)
    der = _derivatives(cfg, _energy_curve(cfg))
    d1, d1_err = der.d1, der.d1_error

    _problem_header(report, cfg)
    report.add("value_at_ball", base)
    report.add("first_variation_series", series)
    report.add("oracle_d1", d1)
    report.add("oracle_d1_error_estimate", d1_err)
    scale = max(1.0, abs(base))
    report.check_close("series_vs_oracle", series, d1, 1e-6, scale)
    if cfg.perturbation.volume_preserving_first_order():
        report.check(
            "critical_at_ball",
            abs(series) <= 1e-10 * scale and abs(d1) <= 1e-6 * scale,
            f"series {series!r}, oracle {d1!r} (volume-preserving data)",
        )
    report.table_header = ("quantity", "value")
    report.table_rows = [(name, value) for name, value in report.pairs]
    return report


def run_second_variation(cfg: ExperimentConfig, seed: int) -> Report:
    _require_modes(cfg, "second-variation")
    report = Report("second-variation")
    sol = _ball_state(cfg)
    _problem_header(report, cfg)
    try:
        if cfg.kind == TORSION:
            var = second_variation_energy_ball(sol, cfg.perturbation.N)
        elif cfg.kind == ROBIN_EIGEN:
            var = second_variation_eigenvalue_ball(sol, cfg.perturbation.N)
        else:
            var = dirichlet_variations(cfg.n, cfg.R, cfg.perturbation.N)
    except ValueError as exc:
        raise ConfigError(f"perturbation.modes: {exc}")
    der = _derivatives(cfg, _energy_curve(cfg))
    d2, d2_err = der.d2, der.d2_error

    for name, value in zip(
        ("value_at_ball", "first_variation", "second_variation"),
        (var.E0, var.Edot0, var.Eddot0),
    ):
        report.add(name, value)
    if var.Sddot0 is not None:
        report.add("surface_second_variation", var.Sddot0)
    if var.F_series is not None:
        report.add("F_series", var.F_series)
    if var.Q is not None:
        report.add("Q_form", var.Q)
    if var.bound_i is not None:
        report.add("lower_bound_uniform", var.bound_i)
    if var.bound_ii is not None:
        report.add("lower_bound_refined", var.bound_ii)
    if var.classification is not None:
        report.add("classification", var.classification)
    for name in sorted(var.extras):
        report.add(name, var.extras[name])
    report.add("oracle_d2", d2)
    report.add("oracle_d2_error_estimate", d2_err)

    scale = max(1.0, abs(var.Eddot0))
    match = abs(var.Eddot0 - d2) <= 1e-3 * scale
    report.add("oracle_match", match)
    report.check_close("series_vs_oracle", var.Eddot0, d2, 1e-3, scale)
    quadrature = var.extras.get("Eddot0_quadrature")
    if quadrature is not None:
        report.check_close(
            "series_vs_boundary_functional", var.Eddot0, quadrature, 1e-8, scale
        )
    floor = var.extras.get("lower_bound_surface_term")
    if floor is not None:
        report.check(
            "surface_term_floor",
            var.Eddot0 >= floor - 1e-10 * scale,
            f"second variation {var.Eddot0!r} >= floor {floor!r}",
        )

    report.table_header = ("degree", "contribution")
    report.table_rows = list(var.modes)
    return report


def run_steklov(cfg: ExperimentConfig, seed: int) -> Report:
    if cfg.kind == DIRICHLET_EIGEN:
        raise ConfigError(
            "problem.kind: the Steklov decomposition needs torsion or robin-eigen"
        )
    report = Report("steklov")
    sol = _ball_state(cfg)
    spectrum = SteklovSpectrum(sol)
    depth = cfg.oracle_modes or 12
    table = spectrum.table(depth)

    _problem_header(report, cfg)
    report.add("max_degree", depth)
    report.table_header = ("degree", "mu", "multiplicity")
    report.table_rows = list(table)
    for s, mu, _mult in table:
        report.add(f"mu_{s}", mu)

    if cfg.kind == TORSION:
        worst = max(
            abs(mu - (cfg.alpha + s / cfg.R)) for s, mu, _m in table
        )
        report.check(
            "torsion_spectrum_exact",
            worst <= 1e-14 * max(1.0, abs(cfg.alpha) + depth / cfg.R),
            f"max |mu_s - (alpha + s/R)| = {worst:.3e}",
        )
    else:
        mu0 = spectrum.mu(0)
        report.check(
            "ground_mode_resonance",
            abs(mu0) <= 1e-10,
            f"mu_0 = {mu0!r}",
        )
        # translation invariance pins the degree-1 eigenvalue
        L = spectrum.mu(1) - (cfg.alpha - (cfg.n - 1) / cfg.R + sol.lam / cfg.alpha)
        report.add("degree_one_defect_L", L)
        report.check("degree_one_identity", abs(L) <= 1e-10, f"L = {L!r}")
    return report


def run_surface(cfg: ExperimentConfig, seed: int) -> Report:
    _require_modes(cfg, "surface")
    report = Report("surface")
    if not cfg.perturbation.volume_preserving_first_order():
        raise ConfigError(
            "perturbation.modes: the surface report needs mean-free data "
            "(drop the degree-0 mode)"
        )
    closed = surface_second_variation(cfg.perturbation.N, cfg.n, cfg.R)
    der = _derivatives(cfg, surface_curve(cfg.perturbation))
    d1, d2, d2_err = der.d1, der.d2, der.d2_error

    _problem_header(report, cfg)
    report.add("surface_second_variation", closed)
    report.add("oracle_d1", d1)
    report.add("oracle_d2", d2)
    report.add("oracle_d2_error_estimate", d2_err)
    scale = max(1.0, abs(closed))
    report.check_close("closed_form_vs_oracle", closed, d2, 1e-6, scale)
    report.check(
        "area_stationary", abs(d1) <= 1e-8 * scale, f"dS/dt at the ball = {d1!r}"
    )
    report.table_header = ("quantity", "value")
    report.table_rows = [(name, value) for name, value in report.pairs]
    return report


def _witness_rows(
    witnesses, seed: int
) -> list[tuple[str, int, float]]:
    """Rows (role, degree, value); the seed only breaks exact value ties."""
    rng = random.Random(seed)
    keyed = [
        (value, rng.random(), s, "positive" if value > 0.0 else "negative")
        for s, value in witnesses
    ]
    keyed.sort(key=lambda item: (-item[0], item[1]))
    return [(role, s, value) for value, _jitter, s, role in keyed]


def run_classify(cfg: ExperimentConfig, seed: int) -> Report:
    if cfg.kind != TORSION:
        raise ConfigError("problem.kind: classification applies to the torsion kind")
    report = Report("classify")
    try:
        result = classify_torsion_sign(cfg.n, cfg.R, cfg.alpha)
    except ValueError as exc:
        raise ConfigError(f"problem.alpha: {exc}")

    _problem_header(report, cfg)
    report.add("classification", result.classification)
    report.add("searched_degrees", result.searched_degrees)
    rows = _witness_rows(result.witnesses, seed)
    report.table_header = ("role", "degree", "value")
    report.table_rows = list(rows)
    for role, s, value in rows:
        report.add(f"witness_{role}_degree", s)
        report.add(f"witness_{role}_value", value)
    consistent = all(
        (value > 0.0) == (role == "positive") for role, _s, value in rows
    )
    report.check(
        "witness_signs",
        consistent and (result.classification != INDEFINITE or len(rows) == 2),
        f"{result.classification} with witnesses {rows!r}",
    )
    return report


def run_dirichlet(cfg: ExperimentConfig, seed: int) -> Report:
    _require_modes(cfg, "dirichlet")
    if cfg.kind != DIRICHLET_EIGEN:
        raise ConfigError("problem.kind: the dirichlet report needs kind dirichlet-eigen")
    report = Report("dirichlet")
    try:
        var = dirichlet_variations(cfg.n, cfg.R, cfg.perturbation.N)
    except ValueError as exc:
        raise ConfigError(f"perturbation.modes: {exc}")
    der = _derivatives(cfg, _energy_curve(cfg))
    d2, d2_err = der.d2, der.d2_error

    _problem_header(report, cfg)
    report.add("eigenvalue_at_ball", var.E0)
    report.add("eigenvalue_second_variation", var.Eddot0)
    report.add("classification", var.classification)
    for name in sorted(var.extras):
        report.add(name, var.extras[name])
    report.add("oracle_d2", d2)
    report.add("oracle_d2_error_estimate", d2_err)

    scale = max(1.0, abs(var.Eddot0))
    report.check_close("series_vs_oracle", var.Eddot0, d2, 1e-3, scale)
    gs = var.extras["gs_coefficient"]
    report.check(
        "degree_one_bound_coefficient", abs(gs) <= 1e-10, f"coefficient = {gs!r}"
    )
    report.check(
        "second_variation_nonnegative",
        var.Eddot0 >= -1e-10 * scale,
        f"lam''(0) = {var.Eddot0!r}",
    )
    report.table_header = ("degree", "contribution")
    report.table_rows = list(var.modes)
    return report


def run_sweep(cfg: ExperimentConfig, seed: int) -> Report:
    _require_modes(cfg, "sweep")
    if not cfg.t_values:
        raise ConfigError("perturbation.t_values: the sweep needs a list of t values")
    report = Report("sweep")
    modes = cfg.oracle_modes or 20

    def one(t: float):
        return sweep_rows(
            cfg.perturbation, cfg.alpha, cfg.kind, [t], modes=modes
        )[0]

    workers = max(1, min(len(cfg.t_values), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(one, cfg.t_values))

    _problem_header(report, cfg)
    report.add("t_count", len(rows))
    report.table_header = ("t", "E", "lam", "S", "V")
    report.table_rows = [tuple(row) for row in rows]

    finite = all(
        all(math.isfinite(v) for j, v in enumerate(row) if not (j == 2 and cfg.kind == TORSION))
        for row in rows
    )
    report.check("rows_finite", finite, f"{len(rows)} rows")
    if cfg.perturbation.volume_preserving_first_order():
        v0 = sphere_measure(cfg.n) / cfg.n * cfg.R**cfg.n
        drift = max(abs(row[4] - v0) for row in rows)
        t_max = max(abs(t) for t in cfg.t_values)
        # the quadratic completion leaves an O(t^4) volume remainder
        limit = max(1e-9 * v0, 4.0 * v0 * t_max**4)
        report.check(
            "volume_preserved",
            drift <= limit,
            f"max |V - V0| = {drift:.3e} (limit {limit:.3e})",
        )
    return report


RUNNERS = {
    "first-variation": run_first_variation,
    "second-variation": run_second_variation,
    "steklov": run_steklov,
    "surface": run_surface,
    "classify": run_classify,
    "dirichlet": run_dirichlet,
    "sweep": run_sweep,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _write_reports(report: Report, out_dir: Path, formats: tuple[str, ...]) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if "kv" in formats:
        path = out_dir / f"{report.name}.kv"
        path.write_text(render_kv(report))
        written.append(path)
    if "table" in formats:
        path = out_dir / f"{report.name}.tsv"
        path.write_text(render_table(report))
        written.append(path)
    return written


def _write_failures(report: Report, out_dir: Path) -> Path:
    lines = [
        f"{report.name}.{name} = {detail}"
        for name, ok, detail in report.checks
        if not ok
    ]
    path = out_dir / "failures.kv"
    path.write_text("\n".join(lines) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsv",
        description=(
            "Domain-variation reports for Robin problems on balls and "
            "nearly-spherical domains"
        ),
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument("--out", default=None, help="report directory (overrides config)")
    parser.add_argument(
        "--format",
        choices=("table", "kv"),
        default=None,
        help="write only this format (default: the config's list)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="tie-ordering seed for the classification witness list",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        report = RUNNERS[args.subcommand](cfg, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    formats = (args.format,) if args.format else cfg.formats
    written = _write_reports(report, out_dir, formats)

    failed = [c for c in report.checks if not c[1]]
    for name, ok, detail in report.checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {report.name}.{name}: {detail}")
    for path in written:
        print(f"wrote {path}")
    if failed:
        print(f"wrote {_write_failures(report, out_dir)}")
        return EXIT_ASSERTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
