"""Configuration-driven report runner.

Reads a YAML experiment description, runs one report subcommand against
the ball problem and perturbation it describes, writes deterministic
report files (no timestamps, no machine state), and exits 0 only when
every consistency assertion embedded in that report holds.

Subcommands: first-variation, second-variation, steklov, surface,
classify, dirichlet, sweep.  `run` builds every report: the problem
header, the empty-perturbation check of NEEDS_MODES, the problem-kind
check of ONLY_KINDS, the one ball state (`_ball_state`), then the runner.

Input rules have one owner each, and the loader or `run` names the config
field when one fails: `FIELDS` (the known blocks and keys), `_mode_rows`
(mode rows, inline or in a coefficient file), `RadialSolution` (the ball
problem), `mean_free` (volume preservation).

The one environment override is RSV_QUAD_ORDER (sphere quadrature order,
read by `special_functions.default_quad_order`), checked by the loader
before any computation; `main` sets no process state.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

import yaml

from .oracle_solver import (
    curve,
    finite_difference_derivatives,
    surface_curve,
    sweep_rows,
)
from .radial_solutions import (
    DIRICHLET_EIGEN,
    ROBIN_EIGEN,
    TORSION,
    RadialSolution,
    solve_dirichlet_eigen_ball,
    solve_robin_eigen_ball,
    solve_torsion_ball,
)
from .special_functions import default_quad_order, multiplicity
from .sphere_geometry import (
    BoundaryFunction,
    PerturbationField,
    mean_free,
    sphere_measure,
    surface_second_variation,
)
from .steklov import SteklovSpectrum
from .variations import (
    INDEFINITE,
    classify_torsion_sign,
    dirichlet_variations,
    first_variation,
    second_variation_energy_ball,
    second_variation_eigenvalue_ball,
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
    t_values: tuple[float, ...]
    oracle_modes: int
    h: float
    richardson_levels: int
    out_dir: str
    formats: tuple[str, ...]


# the config's blocks and the keys each one knows
FIELDS = {
    "problem": ("n", "R", "alpha", "kind"),
    "perturbation": ("modes", "coefficients", "volume_correction", "t_values"),
    "oracle": ("modes", "h", "richardson_levels"),
    "output": ("directory", "formats"),
}


def _block(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in FIELDS[name]:
            raise ConfigError(f"{name}.{key}: unknown field")
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


def _mode_rows(rows, field: str, n: int) -> BoundaryFunction:
    """[degree, index, coefficient] rows as a boundary function; repeats add up."""
    if not isinstance(rows, (list, type(None))):
        raise ConfigError(f"{field}: expected a list of modes, got {rows!r}")
    N: BoundaryFunction = {}
    for row in rows or []:
        if not (isinstance(row, list) and len(row) == 3):
            raise ConfigError(f"{field}: each entry must be [degree, index, coefficient]")
        s, i, c = row
        if not _is_int(s) or s < 0:
            raise ConfigError(f"{field}: bad degree {s!r}")
        if not _is_int(i) or not 0 <= i < multiplicity(s, n):
            raise ConfigError(
                f"{field}: bad index {i!r} for degree {s} "
                f"(n={n} admits 0..{multiplicity(s, n) - 1})"
            )
        c = _finite(c, f"{field}: coefficient of ({s}, {i})")
        N[(s, i)] = N.get((s, i), 0.0) + c
    return N


def _load_coefficients(path, n: int, R: float) -> PerturbationField:
    """A coefficient file: a JSON object with n, R and the N and W rows,
    and no other key."""
    field = "perturbation.coefficients"
    if not isinstance(path, str) or not Path(path).is_file():
        raise ConfigError(f"{field}: no such file {path!r}")
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{field}: unreadable {path!r}: {exc!r}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{field}: expected a JSON object with n, R, N and W")
    for key in doc:
        if key not in ("n", "R", "N", "W"):
            raise ConfigError(f"{field}: {key}: unknown field")
    file_n = doc.get("n")
    if not _is_int(file_n):
        raise ConfigError(f"{field}: n: expected an integer, got {file_n!r}")
    file_R = _finite(doc.get("R"), f"{field}: R")
    if file_n != n or file_R != R:
        raise ConfigError(
            f"{field}: file is for n={file_n}, R={file_R!r}; "
            f"the problem block says n={n}, R={R!r}"
        )
    N, W = (_mode_rows(doc.get(key), f"{field}: {key}", n) for key in ("N", "W"))
    return PerturbationField(n, R, N, W)


def _load_perturbation(block: dict, n: int, R: float) -> PerturbationField:
    path = block.get("coefficients")
    if path is not None:
        for key in ("modes", "volume_correction"):
            if block.get(key) is not None:
                raise ConfigError(f"perturbation.{key}: not with `coefficients` (the file holds N and W)")
        return _load_coefficients(path, n, R)
    p = PerturbationField(n, R, _mode_rows(block.get("modes"), "perturbation.modes", n), {})
    explicit = block.get("volume_correction")
    if not isinstance(explicit, (bool, type(None))):
        raise ConfigError(
            f"perturbation.volume_correction: expected true or false, got {explicit!r}"
        )
    if explicit is None:
        # default: complete to second-order volume preservation when possible
        if mean_free(p.N):
            p = p.with_volume_correction()
    elif explicit:
        if not mean_free(p.N):
            raise ConfigError(
                "perturbation.volume_correction: needs mean-free modes "
                "(drop the degree-0 entry)"
            )
        p = p.with_volume_correction()
    return p


# libyaml's parser when PyYAML was built with it: about ten times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text: str):
    """The document in `text`.  A text that libyaml rejects is parsed again
    by the pure-Python parser, whose error (and its line and column) is the
    one reported: libyaml words some errors differently and places others
    elsewhere, for example at the end of the stream."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        return yaml.load(text, Loader=yaml.SafeLoader)


def load_config(path: str) -> ExperimentConfig:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"no such config file: {path}")
    try:
        doc = _parse_yaml(file.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        reason = getattr(exc, "problem", None) or str(exc)
        raise ConfigError(f"config parse error{where}: {reason}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping of blocks")
    for name in doc:
        if name not in FIELDS:
            raise ConfigError(f"{name}: unknown block")

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
    raw_ts = perturbation.get("t_values", [])
    if not isinstance(raw_ts, list):
        raise ConfigError("perturbation.t_values: expected a list of numbers")
    t_values = tuple(
        _finite(v, f"perturbation.t_values[{j}]") for j, v in enumerate(raw_ts)
    )

    oracle = _block(doc, "oracle")
    # 0 selects the subcommand's default
    oracle_modes = _integer(oracle, "oracle", "modes", 0, 0)
    h = _number(oracle, "oracle", "h", 5e-3)
    if h <= 0.0:
        raise ConfigError(f"oracle.h: step must be positive, got {h!r}")
    levels = _integer(oracle, "oracle", "richardson_levels", 1, 0)
    try:
        default_quad_order()  # the order this run will use
    except ValueError as exc:
        raise ConfigError(str(exc))

    output = _block(doc, "output")
    out_dir = output.get("directory", "reports")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.directory: expected a path, got {out_dir!r}")
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
        self, name: str, got: float, want: float, tol: float, scale: float
    ) -> bool:
        # every caller floors its own scale: max(1, |reference value|)
        got, want = float(got), float(want)
        dev = abs(got - want)
        limit = tol * scale
        self.check(
            name,
            dev <= limit,
            f"|{got!r} - {want!r}| = {dev:.3e} (limit {limit:.3e})",
        )
        return dev <= limit


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


def render_table(report: Report) -> str:
    lines = ["\t".join(report.table_header)]
    for row in report.table_rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _ball_state(cfg: ExperimentConfig) -> RadialSolution:
    # the loader has checked n and R, so the state can only reject alpha
    try:
        if cfg.kind == TORSION:
            return solve_torsion_ball(cfg.n, cfg.R, cfg.alpha)
        if cfg.kind == ROBIN_EIGEN:
            return solve_robin_eigen_ball(cfg.n, cfg.R, cfg.alpha)
        return solve_dirichlet_eigen_ball(cfg.n, cfg.R)
    except ValueError as exc:
        raise ConfigError(f"problem.alpha: {exc}")


def _oracle(cfg: ExperimentConfig, f=None):
    """Oracle derivatives at t = 0 of the curve `f`; by default the torsion
    energy or first eigenvalue along the config's family."""
    if f is None:
        modes = cfg.oracle_modes or (28 if cfg.kind == TORSION else 20)
        f = curve(cfg.perturbation, cfg.alpha, modes, cfg.kind)
    return finite_difference_derivatives(f, h=cfg.h, richardson_levels=cfg.richardson_levels)


def _second_variation(cfg: ExperimentConfig, sol: RadialSolution):
    """The closed-form second variation at the ball for the config's kind."""
    try:
        if cfg.kind == TORSION:
            return second_variation_energy_ball(sol, cfg.perturbation.N)
        if cfg.kind == ROBIN_EIGEN:
            return second_variation_eigenvalue_ball(sol, cfg.perturbation.N)
        return dirichlet_variations(cfg.n, cfg.R, cfg.perturbation.N)
    except ValueError as exc:
        raise ConfigError(f"perturbation.modes: {exc}")


def run_first_variation(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    base = sol.energy()
    series = first_variation(sol, cfg.perturbation.N)
    der = _oracle(cfg)

    report.add("value_at_ball", base)
    report.add("first_variation_series", series)
    report.add("oracle_d1", der.d1)
    report.add("oracle_d1_error_estimate", der.d1_error)
    scale = max(1.0, abs(base))
    report.check_close("series_vs_oracle", series, der.d1, 1e-6, scale)
    if mean_free(cfg.perturbation.N):
        report.check(
            "critical_at_ball",
            abs(series) <= 1e-10 * scale and abs(der.d1) <= 1e-6 * scale,
            f"series {series!r}, oracle {der.d1!r} (volume-preserving data)",
        )
    report.table_header = ("quantity", "value")
    report.table_rows = list(report.pairs)


def run_second_variation(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    var = _second_variation(cfg, sol)
    der = _oracle(cfg)

    for name, value in [
        ("value_at_ball", var.E0),
        ("first_variation", var.Edot0),
        ("second_variation", var.Eddot0),
        ("surface_second_variation", var.Sddot0),
        ("F_series", var.F_series),
        ("Q_form", var.Q),
        ("lower_bound_uniform", var.bound_i),
        ("lower_bound_refined", var.bound_ii),
        ("classification", var.classification),
        *sorted(var.extras.items()),
        ("oracle_d2", der.d2),
        ("oracle_d2_error_estimate", der.d2_error),
    ]:
        if value is not None:
            report.add(name, value)

    scale = max(1.0, abs(var.Eddot0))
    report.add(
        "oracle_match", report.check_close("series_vs_oracle", var.Eddot0, der.d2, 1e-3, scale)
    )
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


def run_steklov(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    spectrum = SteklovSpectrum(sol)
    depth = cfg.oracle_modes or 12
    table = spectrum.table(depth)

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


def run_surface(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    if not mean_free(cfg.perturbation.N):
        raise ConfigError(
            "perturbation.modes: the surface report needs mean-free data "
            "(drop the degree-0 mode)"
        )
    closed = surface_second_variation(cfg.perturbation.N, cfg.n, cfg.R)
    der = _oracle(cfg, surface_curve(cfg.perturbation))

    report.add("surface_second_variation", closed)
    report.add("oracle_d1", der.d1)
    report.add("oracle_d2", der.d2)
    report.add("oracle_d2_error_estimate", der.d2_error)
    scale = max(1.0, abs(closed))
    report.check_close("closed_form_vs_oracle", closed, der.d2, 1e-6, scale)
    report.check(
        "area_stationary", abs(der.d1) <= 1e-8 * scale, f"dS/dt at the ball = {der.d1!r}"
    )
    report.table_header = ("quantity", "value")
    report.table_rows = list(report.pairs)


def run_classify(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    result = classify_torsion_sign(sol.n, sol.R, sol.alpha)

    report.add("classification", result.classification)
    report.add("searched_degrees", result.searched_degrees)
    # at most one witness of each sign, so sorting by value puts the
    # positive one first and no two values tie
    rows = [
        ("positive" if value > 0.0 else "negative", s, value)
        for s, value in sorted(result.witnesses, key=lambda w: -w[1])
    ]
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


def run_dirichlet(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    var = _second_variation(cfg, sol)
    der = _oracle(cfg)

    report.add("eigenvalue_at_ball", var.E0)
    report.add("eigenvalue_second_variation", var.Eddot0)
    report.add("classification", var.classification)
    for name in sorted(var.extras):
        report.add(name, var.extras[name])
    report.add("oracle_d2", der.d2)
    report.add("oracle_d2_error_estimate", der.d2_error)

    scale = max(1.0, abs(var.Eddot0))
    report.check_close("series_vs_oracle", var.Eddot0, der.d2, 1e-3, scale)
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


def run_sweep(cfg: ExperimentConfig, sol: RadialSolution, report: Report) -> None:
    if not cfg.t_values:
        raise ConfigError("perturbation.t_values: the sweep needs a list of t values")
    modes = cfg.oracle_modes or (24 if cfg.kind == TORSION else 20)
    rows = sweep_rows(cfg.perturbation, cfg.alpha, cfg.kind, cfg.t_values, modes=modes)

    report.add("t_count", len(rows))
    report.table_header = ("t", "E", "lam", "S", "V")
    report.table_rows = [tuple(row) for row in rows]

    finite = all(
        all(math.isfinite(v) for j, v in enumerate(row) if not (j == 2 and cfg.kind == TORSION))
        for row in rows
    )
    report.check("rows_finite", finite, f"{len(rows)} rows")
    if mean_free(cfg.perturbation.N):
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


RUNNERS = {
    "first-variation": run_first_variation,
    "second-variation": run_second_variation,
    "steklov": run_steklov,
    "surface": run_surface,
    "classify": run_classify,
    "dirichlet": run_dirichlet,
    "sweep": run_sweep,
}
# the reports that perturb the ball and so need at least one mode
NEEDS_MODES = ("first-variation", "second-variation", "surface", "dirichlet", "sweep")
# the reports that apply to some problem kinds only
ONLY_KINDS = {
    "steklov": (TORSION, ROBIN_EIGEN),
    "classify": (TORSION,),
    "dirichlet": (DIRICHLET_EIGEN,),
}


def run(sub: str, cfg: ExperimentConfig) -> Report:
    """The `sub` report for `cfg`: the problem header, then the runner's
    values, table and checks, computed from one ball state."""
    report = Report(sub)
    for name in ("kind", "n", "R", "alpha"):
        report.add(name, getattr(cfg, name))
    if sub in NEEDS_MODES and not cfg.perturbation.N:
        raise ConfigError(f"perturbation.modes: `{sub}` needs at least one mode")
    kinds = ONLY_KINDS.get(sub, KINDS)
    if cfg.kind not in kinds:
        raise ConfigError(f"problem.kind: `{sub}` needs kind {' or '.join(kinds)}")
    RUNNERS[sub](cfg, _ball_state(cfg), report)
    return report


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
    parser.add_argument("subcommand", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument("--out", default=None, help="report directory (overrides config)")
    parser.add_argument(
        "--format",
        choices=("table", "kv"),
        default=None,
        help="write only this format (default: the config's list)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        report = run(args.subcommand, cfg)
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
