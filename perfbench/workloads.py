"""Seeded cases for the three benchmark workloads and their correctness gates.

A workload is a fixed cyclic sequence of case types (one "round"); only the
numbers inside each case (coefficients, alpha) come from the seed, so every
seed exercises the same mix of layers and runs cost about the same.  Case j
of round r draws from `numpy.random.default_rng((seed, r, j))`.

Each case has three steps: `prepare()` (outside the clock), `work()` (the
timed call into rsv) and `check(result)` (outside the clock), which returns
a `Verdict`.  CLI cases call `rsv.cli.main` in-process on generated YAML and
gate on the exit code, the report's embedded checks and, where they exist,
the frozen README values; library cases gate on the identities the paper
states (series = boundary functional, bounds below the value, tangential
invariance).

Known defects are named, not hidden: `surface` cases in n = 3 draw
coefficients over all `harmonic_indices`, and the config loader's index
check (0 <= i <= 2s-1) rejects the valid index i = 2s with exit code 2.
Such a case fails, with its defect name, and counts against `pass_frac`.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rsv
import rsv.cli

R = 1.0
COEFF = 0.1  # coefficients are uniform in [-COEFF, COEFF]
SWEEP_T = [float(t) for t in np.linspace(-0.05, 0.05, 9)]
MAX_DIGITS = 16.0

# Frozen reference values from the README (n = 2, R = 1, alpha = 1, N = cos 2 theta)
README_MODES = [[2, 0, 1.7724538509055159]]
FROZEN = {
    "torsion": {"second_variation": 13.0 * math.pi / 12.0},
    "robin-eigen": {
        "value_at_ball": 1.576992730808607,
        "second_variation": 2.650220997903963,
    },
    "dirichlet-eigen": {
        "value_at_ball": 5.783185962946785,
        "second_variation": 21.87886795613119,
    },
}
FROZEN_REL_TOL = 1e-13

KNOWN_DEFECTS = {
    "config-index-check": (
        "config loader checks 0 <= i <= 2s-1 instead of the multiplicity, "
        "so n = 3 index i = 2s exits 2 with 'bad index'"
    ),
}


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    digits: float | None = None  # -log10 relative closed-form/oracle gap
    defect: str | None = None  # name from KNOWN_DEFECTS when a known defect failed


def match_digits(closed: float, other: float, scale: float) -> float:
    gap = abs(closed - other) / max(1.0, abs(scale))
    return MAX_DIGITS if gap == 0.0 else min(MAX_DIGITS, -math.log10(gap))


def uniform(rng) -> float:
    return float(rng.uniform(-COEFF, COEFF))


def alpha_positive(rng) -> float:
    return float(rng.uniform(0.25, 3.0))


def alpha_signed(rng, negative: bool = False) -> float:
    """alpha in [-3.5, 3.5] (or [-3.5, 0)), at least 0.2 away from 0 and from
    every resonance alpha R = -s of the linearized torsion problem."""
    while True:
        a = float(rng.uniform(-3.5, 0.0 if negative else 3.5))
        if abs(a) >= 0.2 and all(abs(a * R + s) >= 0.2 for s in range(1, 6)):
            return a


def band_modes(rng, n: int, degrees, zonal: bool) -> list[list]:
    """[degree, index, coefficient] rows: every real harmonic of the given
    degrees (or only the zonal one, index == degree, in n = 3)."""
    rows = []
    for s in degrees:
        indices = [s] if zonal else range(rsv.multiplicity(s, n))
        for i in indices:
            rows.append([s, i, uniform(rng)])
    return rows


# ---------------------------------------------------------------------------
# CLI cases
# ---------------------------------------------------------------------------


def config_yaml(n, alpha, kind, modes, t_values, oracle_modes, levels) -> str:
    rows = "\n".join(f"    - [{s}, {i}, {c!r}]" for s, i, c in modes)
    ts = ", ".join(repr(t) for t in t_values)
    return (
        "problem:\n"
        f"  n: {n}\n"
        f"  R: {R!r}\n"
        f"  alpha: {alpha!r}\n"
        f"  kind: {kind}\n"
        "perturbation:\n"
        "  modes:\n"
        f"{rows}\n"
        f"  t_values: [{ts}]\n"
        "oracle:\n"
        f"  modes: {oracle_modes}\n"
        "  h: 5.0e-3\n"
        f"  richardson_levels: {levels}\n"
        "output:\n"
        "  directory: reports\n"
        "  formats: [kv, table]\n"
    )


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_rows(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()[1:]
    return [[float(v) for v in line.split("\t")] for line in lines]


class CliCase:
    """One `rsv <subcommand>` report run in-process on a generated config."""

    def __init__(self, name, work_dir: Path, subcommand, n, alpha, kind, modes,
                 oracle_modes=0, levels=1, t_values=(), readme=False, ball_value=None):
        self.name = name
        self.subcommand = subcommand
        self.kind = kind
        self.readme = readme
        self.ball_value = ball_value  # closed-form value at t = 0, for sweeps
        self.expect_index_defect = n == 3 and any(i != s for s, i, _c in modes)
        self.config = work_dir / f"{name}.yaml"
        self.out = work_dir / f"{name}.out"
        self.config.write_text(
            config_yaml(n, alpha, kind, modes, list(t_values), oracle_modes, levels)
        )

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def work(self):
        argv = [self.subcommand, "--config", str(self.config), "--out", str(self.out)]
        saved = dict(os.environ)  # load_config writes RSV_QUAD_ORDER
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = rsv.cli.main(argv)
        finally:
            os.environ.clear()
            os.environ.update(saved)
        return code, stderr.getvalue()

    def check(self, result) -> Verdict:
        code, stderr = result
        if self.expect_index_defect and code == 2 and "bad index" in stderr:
            return Verdict(False, stderr.strip(), defect="config-index-check")
        if code != 0:
            return Verdict(False, f"exit {code}: {stderr.strip()}")
        kv = read_kv(self.out / f"{self.subcommand}.kv")
        failed = [k for k, v in kv.items() if k.startswith("check_") and v != "true"]
        if failed:
            return Verdict(False, f"report checks failed: {failed}")
        digits = None
        if self.subcommand == "sweep":
            column = 1 if self.kind == "torsion" else 2
            row = next(r for r in read_rows(self.out / "sweep.tsv") if r[0] == 0.0)
            digits = match_digits(self.ball_value, row[column], self.ball_value)
            if abs(row[column] - self.ball_value) > 1e-10 * max(1.0, abs(self.ball_value)):
                return Verdict(False, f"sweep value at t=0 {row[column]!r} != {self.ball_value!r}", digits)
        else:
            pair = {
                "second-variation": ("second_variation", "oracle_d2", "second_variation"),
                "first-variation": ("first_variation_series", "oracle_d1", "value_at_ball"),
                "dirichlet": ("eigenvalue_second_variation", "oracle_d2", "eigenvalue_second_variation"),
                "surface": ("surface_second_variation", "oracle_d2", "surface_second_variation"),
            }.get(self.subcommand)
            if pair is not None:
                closed, oracle, scale = (float(kv[key]) for key in pair)
                digits = match_digits(closed, oracle, scale)
        if self.readme:
            for key, want in FROZEN[self.kind].items():
                got = float(kv[key])
                if abs(got - want) > FROZEN_REL_TOL * abs(want):
                    return Verdict(False, f"frozen {key}: {got!r} != {want!r}", digits)
            if self.kind == "torsion" and kv.get("second_variation_symbolic") != "13*pi/12":
                return Verdict(False, "second_variation_symbolic is not 13*pi/12", digits)
        return Verdict(True, digits=digits)


def ball_value(kind: str, n: int, alpha: float) -> float:
    if kind == "torsion":
        return rsv.solve_torsion_ball(n, R, alpha).energy()
    if kind == "robin-eigen":
        return rsv.solve_robin_eigen_ball(n, R, alpha).lam
    return rsv.solve_dirichlet_eigen_ball(n, R).lam


# Oracle sizes for generated eigen cases.  Difference quotients reach
# |t| = 2h = 0.01, where 8 modes keep the boundary residual below 2e-8;
# sweeps reach |t| = 0.05 and need 12 (residual below 5e-8 over many
# draws; the oracle's limit is 1e-6).
EIGEN_FD_MODES = 8
EIGEN_SWEEP_MODES = 12

EIGEN_ROUND = [
    ("readme", "robin-eigen", "second-variation"),
    (2, "robin-eigen", "second-variation"),
    (3, "dirichlet-eigen", "sweep"),
    (2, "dirichlet-eigen", "dirichlet"),
    (3, "robin-eigen", "first-variation"),
    (2, "robin-eigen", "sweep"),
    (3, "dirichlet-eigen", "second-variation"),
    (2, "dirichlet-eigen", "first-variation"),
    ("readme", "dirichlet-eigen", "second-variation"),
    (3, "robin-eigen", "second-variation"),
    (2, "dirichlet-eigen", "sweep"),
    (3, "dirichlet-eigen", "dirichlet"),
    (2, "robin-eigen", "first-variation"),
    (3, "robin-eigen", "sweep"),
    (2, "dirichlet-eigen", "second-variation"),
    (3, "dirichlet-eigen", "first-variation"),
]

# (dimension, subcommand, sign of alpha).  Negative alpha puts the oracle in
# the mixed-sign regime; it also makes the oracle-backed cases a clear
# majority, so the median case sits inside that cluster, not at its edge.
TORSION_ROUND = [
    ("readme", "second-variation", "+"),
    (2, "second-variation", "+"),
    (3, "surface", "+"),
    (2, "second-variation", "-"),
    (3, "sweep", "+"),
    (2, "steklov", "±"),
    (3, "first-variation", "-"),
    (2, "sweep", "-"),
    (2, "classify", "±"),
    (3, "second-variation", "+"),
    (2, "surface", "+"),
    (3, "second-variation", "-"),
    (2, "first-variation", "+"),
    (3, "steklov", "±"),
    (3, "sweep", "-"),
    (2, "first-variation", "-"),
    (3, "classify", "±"),
    (3, "first-variation", "+"),
    (2, "sweep", "+"),
]


def readme_case(name, work_dir, kind) -> CliCase:
    # the README's experiment.yaml with only `kind` changed
    return CliCase(name, work_dir, "second-variation", 2, 1.0, kind, README_MODES,
                   oracle_modes=0, levels=2, t_values=[-0.02, 0.0, 0.02], readme=True)


def eigen_case(rng, work_dir, r, j):
    dim, kind, sub = EIGEN_ROUND[j]
    name = f"r{r}-{j:02d}-{'readme' if dim == 'readme' else f'n{dim}'}-{kind}-{sub}"
    if dim == "readme":
        return readme_case(name, work_dir, kind)
    alpha = alpha_positive(rng) if kind == "robin-eigen" else 0.0
    modes = band_modes(rng, dim, range(2, 5), zonal=dim == 3)
    if sub == "sweep":
        return CliCase(name, work_dir, sub, dim, alpha, kind, modes,
                       oracle_modes=EIGEN_SWEEP_MODES, t_values=SWEEP_T,
                       ball_value=ball_value(kind, dim, alpha))
    return CliCase(name, work_dir, sub, dim, alpha, kind, modes, oracle_modes=EIGEN_FD_MODES)


def torsion_case(rng, work_dir, r, j):
    dim, sub, sign = TORSION_ROUND[j]
    name = f"r{r}-{j:02d}-{'readme' if dim == 'readme' else f'n{dim}'}-torsion-{sub}"
    if dim == "readme":
        return readme_case(name, work_dir, "torsion")
    alpha = alpha_positive(rng) if sign == "+" else alpha_signed(rng, negative=sign == "-")
    # surface draws the full index set in n = 3 (no oracle behind it);
    # the oracle-backed n = 3 cases stay zonal, the oracle's documented limit
    zonal = dim == 3 and sub != "surface"
    modes = band_modes(rng, dim, range(2, 5), zonal=zonal)
    if sub == "sweep":
        return CliCase(name, work_dir, sub, dim, alpha, "torsion", modes,
                       t_values=SWEEP_T, ball_value=ball_value("torsion", dim, alpha))
    return CliCase(name, work_dir, sub, dim, alpha, "torsion", modes)


# ---------------------------------------------------------------------------
# library cases
# ---------------------------------------------------------------------------


class SeriesCase:
    """One draw through the closed-form layers, no oracle."""

    def __init__(self, name, n, N, alpha, alpha_classify):
        self.name = name
        self.n, self.N = n, N
        self.alpha, self.alpha_classify = alpha, alpha_classify

    def prepare(self) -> None:
        pass

    def work(self):
        n, N, a = self.n, self.N, self.alpha
        out = {}
        sol = rsv.solve_torsion_ball(n, R, a)
        out["torsion"] = rsv.second_variation_energy_ball(sol, N)
        out["eigen"] = rsv.second_variation_eigenvalue_ball(rsv.solve_robin_eigen_ball(n, R, a), N)
        out["bounds"] = rsv.theorem_bounds(sol, N)
        out["dirichlet"] = rsv.dirichlet_variations(n, R, N)
        out["classify"] = rsv.classify_torsion_sign(n, R, self.alpha_classify)
        v = rsv.radial_harmonic_field(n, R, N)
        out["general"] = rsv.second_variation_general(sol, v, rsv.volume_completion_field(v, n, R))
        if n == 2:
            vr = v + rsv.rotation_field(2)
            out["rotated"] = rsv.second_variation_general(sol, vr, rsv.volume_completion_field(vr, n, R))
        return out

    def check(self, out) -> Verdict:
        value = out["torsion"].Eddot0
        scale = max(1.0, abs(value))
        routes = {
            "general form": out["general"],
            "torsion boundary functional": out["torsion"].extras["Eddot0_quadrature"],
        }
        if "rotated" in out:
            routes["general form with a rotation added"] = out["rotated"]
        eig = out["eigen"]
        eig_scale = max(1.0, abs(eig.Eddot0))
        digits = min(
            [match_digits(value, other, scale) for other in routes.values()]
            + [match_digits(eig.Eddot0, eig.extras["Eddot0_quadrature"], eig_scale)]
        )
        for label, other in routes.items():
            if abs(other - value) > 1e-8 * scale:
                return Verdict(False, f"{label} {other!r} != series {value!r}", digits)
        if abs(eig.extras["Eddot0_quadrature"] - eig.Eddot0) > 1e-8 * eig_scale:
            return Verdict(False, "eigenvalue series != boundary functional", digits)
        if any(b is not None and b > value + 1e-10 * scale for b in out["bounds"]):
            return Verdict(False, f"bounds {out['bounds']!r} exceed {value!r}", digits)
        dirichlet = out["dirichlet"]
        if abs(dirichlet.extras["gs_coefficient"]) > 1e-10 or dirichlet.Eddot0 < 0.0:
            return Verdict(False, "Dirichlet bound coefficient or sign", digits)
        cls = out["classify"]
        signs = [(e > 0.0) for _s, e in cls.witnesses]
        if cls.classification == rsv.INDEFINITE and sorted(signs) != [False, True]:
            return Verdict(False, f"indefinite without two witnesses: {cls.witnesses!r}", digits)
        return Verdict(True, digits=digits)


# Every draw has a coefficient on each real harmonic of degrees 2-6, so all
# draws of one dimension cost the same; two n = 3 draws per n = 2 draw put
# the median case inside the n = 3 cluster, where the time goes.
SERIES_DEGREES = range(2, 7)
SERIES_ROUND = (3, 2, 3) * 3


def series_case(rng, work_dir, r, j):
    n = SERIES_ROUND[j]
    N = {(s, i): uniform(rng) for s in SERIES_DEGREES for i in range(rsv.multiplicity(s, n))}
    return SeriesCase(f"r{r}-{j:02d}-n{n}", n, N, alpha_positive(rng), alpha_signed(rng))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round_length: int
    make_case: object  # (rng, work_dir, round, position) -> case

    def round(self, seed: int, r: int, work_dir: Path) -> list:
        work_dir.mkdir(parents=True, exist_ok=True)
        return [
            self.make_case(np.random.default_rng((seed, r, j)), work_dir, r, j)
            for j in range(self.round_length)
        ]


WORKLOADS = {
    "eigen-reports": Workload("eigen-reports", len(EIGEN_ROUND), eigen_case),
    "torsion-reports": Workload("torsion-reports", len(TORSION_ROUND), torsion_case),
    "series-scan": Workload("series-scan", len(SERIES_ROUND), series_case),
}


def warm_up(workload: str, work_dir: Path) -> None:
    """First calls that load lazily initialised code (scipy.special, LAPACK,
    the YAML parser) for the layers the workload uses, on tiny inputs."""
    p = rsv.PerturbationField(2, R, {(2, 0): 0.1}, {}).with_volume_correction()
    if workload == "series-scan":
        SeriesCase("warm-up", 2, {(2, 0): 0.1, (2, 1): 0.1}, 1.0, 1.0).work()
        rsv.SphereQuadrature(3)
        return
    kind = "robin-eigen" if workload == "eigen-reports" else "torsion"
    case = CliCase("warm-up", work_dir, "steklov", 2, 1.0, kind, [[2, 0, 0.1]])
    case.prepare()
    case.work()
    if workload == "eigen-reports":
        rsv.solve_perturbed_eigen(rsv.perturbed_domain(p, 0.0), 1.0, modes=4)
    else:
        rsv.solve_perturbed_torsion(rsv.perturbed_domain(p, 0.0), 1.0, modes=4)
