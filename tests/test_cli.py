"""End-to-end checks of the report runner: exit codes, report files,
byte-level determinism, and the embedded assertions."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import rsv.cli as cli
import rsv.oracle_solver as oracle_solver
from rsv.cli import main
from rsv.oracle_solver import solve_perturbed_torsion
from rsv.radial_solutions import solve_torsion_ball
from rsv.sphere_geometry import PerturbationField, perturbed_domain
from rsv.variations import classify_torsion_sign, second_variation_energy_ball

SQRT_PI = math.sqrt(math.pi)


def config_text(out_dir, kind="torsion", alpha="1.0", extra=""):
    return (
        "problem:\n"
        "  n: 2\n"
        "  R: 1.0\n"
        f"  alpha: {alpha}\n"
        f"  kind: {kind}\n"
        "perturbation:\n"
        f"  modes: [[2, 0, {SQRT_PI!r}]]\n"
        "oracle:\n"
        "  h: 5.0e-3\n"
        "  richardson_levels: 2\n"
        "output:\n"
        f"  directory: {out_dir}\n"
        f"{extra}"
    )


def write_config(tmp_path, name="cfg.yaml", **kwargs):
    path = tmp_path / name
    path.write_text(config_text(tmp_path / "reports", **kwargs))
    return path


def test_second_variation_reference_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["second-variation", "--config", str(cfg)]) == 0
    kv = (tmp_path / "reports" / "second-variation.kv").read_text()
    assert "second_variation_symbolic = 13*pi/12" in kv
    assert "oracle_match = true" in kv
    assert "check_series_vs_oracle = true" in kv
    assert "PASS second-variation.series_vs_oracle" in capsys.readouterr().out
    tsv = (tmp_path / "reports" / "second-variation.tsv").read_text()
    assert tsv.splitlines()[0] == "degree\tcontribution"


def test_kv_second_variation_parses_back_to_the_series(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["second-variation", "--config", str(cfg), "--format", "kv"]) == 0
    text = (tmp_path / "reports" / "second-variation.kv").read_text()
    kv = dict(line.split(" = ", 1) for line in text.splitlines())
    var = second_variation_energy_ball(solve_torsion_ball(2, 1.0, 1.0), {(2, 0): SQRT_PI})
    assert float(kv["second_variation"]) == var.Eddot0
    assert kv["classification"] == var.classification


def test_tsv_rows_are_the_mode_contributions(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports").replace(
            f"[[2, 0, {SQRT_PI!r}]]", "[[2, 0, 0.8], [3, 1, -0.5]]"
        )
    )
    assert main(["second-variation", "--config", str(path), "--format", "table"]) == 0
    lines = (tmp_path / "reports" / "second-variation.tsv").read_text().splitlines()
    assert lines[0] == "degree\tcontribution"
    rows = [(int(s), float(v)) for s, v in (line.split("\t") for line in lines[1:])]
    var = second_variation_energy_ball(
        solve_torsion_ball(2, 1.0, 1.0), {(2, 0): 0.8, (3, 1): -0.5}
    )
    assert rows == list(var.modes) and len(rows) == 2


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["second-variation", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("second-variation.kv", "second-variation.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_steklov_torsion_table_exact(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["steklov", "--config", str(cfg)]) == 0
    lines = (tmp_path / "reports" / "steklov.tsv").read_text().splitlines()
    assert lines[0] == "degree\tmu\tmultiplicity"
    assert lines[1] == "0\t1.0\t1"
    assert lines[4] == "3\t4.0\t2"
    kv = (tmp_path / "reports" / "steklov.kv").read_text()
    assert "check_torsion_spectrum_exact = true" in kv


def test_steklov_eigen_degree_one_identity(tmp_path):
    cfg = write_config(tmp_path, kind="robin-eigen")
    assert main(["steklov", "--config", str(cfg)]) == 0
    kv = (tmp_path / "reports" / "steklov.kv").read_text()
    assert "check_ground_mode_resonance = true" in kv
    assert "check_degree_one_identity = true" in kv


def test_classify_indefinite_two_witnesses(tmp_path):
    cfg = write_config(tmp_path, alpha="-2.5")
    assert main(["classify", "--config", str(cfg)]) == 0
    kv = (tmp_path / "reports" / "classify.kv").read_text()
    assert "classification = Indefinite" in kv
    assert "witness_positive_degree = 2" in kv
    assert "witness_negative_degree = 3" in kv


def test_classify_indefinite_row_order(tmp_path):
    # the positive witness comes first in both files
    cfg = write_config(tmp_path, alpha="-2.5")
    assert main(["classify", "--config", str(cfg)]) == 0
    (pos, pos_value), (neg, neg_value) = classify_torsion_sign(2, 1.0, -2.5).witnesses
    assert (pos, neg) == (2, 3) and pos_value > 0.0 > neg_value
    kv = (tmp_path / "reports" / "classify.kv").read_text().splitlines()
    assert kv[4:10] == [
        "classification = Indefinite",
        "searched_degrees = 12",
        "witness_positive_degree = 2",
        f"witness_positive_value = {pos_value!r}",
        "witness_negative_degree = 3",
        f"witness_negative_value = {neg_value!r}",
    ]
    tsv = (tmp_path / "reports" / "classify.tsv").read_text()
    assert tsv.splitlines() == [
        "role\tdegree\tvalue",
        f"positive\t2\t{pos_value!r}",
        f"negative\t3\t{neg_value!r}",
    ]


def test_format_flag_selects_single_file(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "only_kv"
    assert main(["steklov", "--config", str(cfg), "--out", str(out), "--format", "kv"]) == 0
    assert (out / "steklov.kv").is_file()
    assert not (out / "steklov.tsv").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["steklov", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_yaml_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("problem: {n: 2, R: 1.0\n  alpha: oops\n")
    assert main(["steklov", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config parse error" in err and "line" in err


YAML_ERRORS = [
    "problem: {n: 2, R: 1.0\n  alpha: oops\n",
    'problem:\n  kind: "torsion\n',
    "problem:\n  n: 2\n R: 1.0\n",
    "problem:\n\tn: 2\n",
    "problem: [1, 2\n",
    "a: b: c\n",
    "- x\ny: 1\n",
    "problem: *missing\n",
    "a: 1\na: [\n",
    "%YAML 9.9\n---\na: 1\n",
    "problem: !!binary 5\n",
]


def yaml_error(text, loader):
    """(line, column, problem) of the error `loader` raises on `text`."""
    with pytest.raises(yaml.YAMLError) as info:
        yaml.load(text, Loader=loader)
    mark = info.value.problem_mark
    return mark.line + 1, mark.column + 1, info.value.problem


@pytest.mark.parametrize("text", YAML_ERRORS)
def test_yaml_parse_errors_keep_the_pure_python_wording(text, tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["steklov", "--config", str(path)]) == 2
    line, column, problem = yaml_error(text, yaml.SafeLoader)
    expected = f"config parse error at line {line}, column {column}: {problem}\n"
    assert capsys.readouterr().err.endswith(expected)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_configs_parse_with_libyaml_to_the_same_documents(tmp_path, monkeypatch):
    assert cli._YAML_LOADER is yaml.CSafeLoader
    # libyaml words most of these errors otherwise, so the message must
    # come from a second, pure-Python parse
    differ = [
        text for text in YAML_ERRORS
        if yaml_error(text, yaml.CSafeLoader) != yaml_error(text, yaml.SafeLoader)
    ]
    assert len(differ) >= 8
    base = config_text(tmp_path / "reports")
    texts = [base] + [base.replace(old, new) for old, new, _env, _name in MALFORMED.values()]
    texts += [
        config_text(tmp_path, kind, alpha)
        for kind in ("robin-eigen", "dirichlet-eigen") for alpha in ("2", "-0.5e-1")
    ]
    for text in texts:
        # repr, so that a NaN compares equal to itself
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))

    # a valid config never reaches the pure-Python parser
    def pure_python(*args, **kwargs):
        raise AssertionError("a valid config went through yaml.SafeLoader")

    monkeypatch.setattr(yaml.SafeLoader, "__init__", pure_python)
    assert cli.load_config(str(write_config(tmp_path))).n == 2


def test_invalid_dimension_names_field(tmp_path, capsys):
    path = tmp_path / "bad_n.yaml"
    path.write_text("problem: {n: 4, R: 1.0, alpha: 1.0, kind: torsion}\n")
    assert main(["steklov", "--config", str(path)]) == 2
    assert "problem.n" in capsys.readouterr().err


MALFORMED = {
    "n-float": ("  n: 2\n", "  n: 2.0\n", {}, "problem.n"),
    "R-nan": ("  R: 1.0\n", "  R: .nan\n", {}, "problem.R"),
    "alpha-inf": ("  alpha: 1.0\n", "  alpha: .inf\n", {}, "problem.alpha"),
    "modes-negative": ("oracle:\n", "oracle:\n  modes: -3\n", {}, "oracle.modes"),
    "modes-fraction": ("oracle:\n", "oracle:\n  modes: 2.7\n", {}, "oracle.modes"),
    "levels-fraction": (
        "richardson_levels: 2", "richardson_levels: 1.5", {}, "oracle.richardson_levels"
    ),
    # RSV_QUAD_ORDER is the one order channel
    "quadrature-order-field": (
        "oracle:\n", "oracle:\n  quadrature_order: 96\n", {},
        "oracle.quadrature_order: unknown field",
    ),
    "t-text": (
        "perturbation:\n", "perturbation:\n  t_values: [0.0, abc]\n", {},
        "perturbation.t_values",
    ),
    "t-bool": (
        "perturbation:\n", "perturbation:\n  t_values: [true, 0.01]\n", {},
        "perturbation.t_values",
    ),
    "degree-bool": (f"[[2, 0, {SQRT_PI!r}]]", "[[true, 0, 1.0]]", {}, "perturbation.modes"),
    "coefficient-text": (
        f"[[2, 0, {SQRT_PI!r}]]", "[[2, 0, x]]", {}, "perturbation.modes"
    ),
    "modes-number": (f"[[2, 0, {SQRT_PI!r}]]", "5", {}, "perturbation.modes"),
    "coefficients-number": (
        f"modes: [[2, 0, {SQRT_PI!r}]]", "coefficients: 5", {}, "perturbation.coefficients"
    ),
    "volume-correction-text": (
        "perturbation:\n", 'perturbation:\n  volume_correction: "no"\n', {},
        "perturbation.volume_correction",
    ),
    # `!!null` makes the field null whatever path follows it
    "directory-null": ("  directory: ", "  directory: !!null ", {}, "output.directory"),
    "oracle-unknown-key": (
        "oracle:\n", "oracle:\n  richardson_level: 7\n", {}, "oracle.richardson_level: unknown field"
    ),
    "problem-unknown-key": ("  n: 2\n", "  n: 2\n  radius: 1.0\n", {}, "problem.radius: unknown field"),
    "unknown-block": ("output:\n", "solver:\n  modes: 4\noutput:\n", {}, "solver: unknown block"),
    "quad-order-text": ("", "", {"RSV_QUAD_ORDER": "abc"}, "RSV_QUAD_ORDER"),
    "quad-order-negative": ("", "", {"RSV_QUAD_ORDER": "-4"}, "RSV_QUAD_ORDER"),
    "quad-order-zero": ("", "", {"RSV_QUAD_ORDER": "0"}, "RSV_QUAD_ORDER"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_naming_it(case, tmp_path, monkeypatch, capsys):
    old, new, env, name = MALFORMED[case]
    # a valid order, so that only the case's own variables can fail
    monkeypatch.setenv("RSV_QUAD_ORDER", "64")
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    path = tmp_path / "cfg.yaml"
    path.write_text(config_text(tmp_path / "reports").replace(old, new))
    assert main(["steklov", "--config", str(path)]) == 2
    assert f"config error: {name}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub, code",
    [
        ("first-variation", 2),
        ("second-variation", 2),
        ("surface", 2),
        ("dirichlet", 2),
        ("sweep", 2),
        ("steklov", 0),
        ("classify", 0),
    ],
)
def test_empty_modes(sub, code, tmp_path, capsys):
    path = tmp_path / "cfg.yaml"
    path.write_text(config_text(tmp_path / "reports").replace(f"[[2, 0, {SQRT_PI!r}]]", "[]"))
    assert main([sub, "--config", str(path)]) == code
    named = f"config error: perturbation.modes: `{sub}` needs at least one mode"
    assert (named in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize(
    "sub, code", [("second-variation", 2), ("surface", 2), ("first-variation", 0)]
)
def test_tiny_degree_zero_mode_is_not_mean_free(sub, code, tmp_path, capsys):
    # any nonzero (0, 0) coefficient makes int N != 0: the reports that
    # assume volume-preserving data reject it, the first variation takes it
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports").replace(
            f"[[2, 0, {SQRT_PI!r}]]", "[[0, 0, 1.0e-15], [2, 0, 1.0]]"
        )
    )
    assert main([sub, "--config", str(path)]) == code
    assert ("config error: perturbation.modes" in capsys.readouterr().err) == (code == 2)
    if code == 0:
        kv = (tmp_path / "reports" / f"{sub}.kv").read_text()
        assert "check_critical_at_ball" not in kv


@pytest.mark.parametrize(
    "sub, kind",
    [("steklov", "dirichlet-eigen"), ("classify", "robin-eigen"), ("dirichlet", "torsion")],
)
def test_report_rejects_problem_kind(sub, kind, tmp_path, capsys):
    assert main([sub, "--config", str(write_config(tmp_path, kind=kind))]) == 2
    assert f"config error: problem.kind: `{sub}` needs kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub, kind, alpha",
    [("steklov", "robin-eigen", "-1.0"), ("second-variation", "torsion", "0.0"),
     ("classify", "torsion", "0.0"), ("sweep", "robin-eigen", "-1.0"),
     ("surface", "robin-eigen", "-1.0")],
)
def test_ball_problem_alpha_names_field(sub, kind, alpha, tmp_path, capsys):
    assert main([sub, "--config", str(write_config(tmp_path, kind=kind, alpha=alpha))]) == 2
    assert "config error: problem.alpha" in capsys.readouterr().err


def test_coarse_step_writes_failure_list(tmp_path, capsys):
    # a half-unit step cannot resolve the quartic area term: the oracle
    # comparison must fail honestly and leave a machine-readable record
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports")
        .replace("h: 5.0e-3", "h: 0.5")
        .replace("richardson_levels: 2", "richardson_levels: 0")
    )
    assert main(["surface", "--config", str(path)]) == 1
    failures = (tmp_path / "reports" / "failures.kv").read_text()
    assert "surface.closed_form_vs_oracle" in failures
    assert "FAIL surface.closed_form_vs_oracle" in capsys.readouterr().out


def test_surface_report_reference(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["surface", "--config", str(cfg)]) == 0
    kv = (tmp_path / "reports" / "surface.kv").read_text()
    assert "surface_second_variation_symbolic = 3*pi" in kv


def test_sweep_writes_rows(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        config_text(tmp_path / "reports").replace(
            f"  modes: [[2, 0, {SQRT_PI!r}]]\n",
            f"  modes: [[2, 0, {SQRT_PI!r}]]\n  t_values: [-0.02, 0.0, 0.02]\n",
        )
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = (tmp_path / "reports" / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "t\tE\tlam\tS\tV"
    assert len(lines) == 4
    assert lines[2].startswith("0.0\t")
    kv = (tmp_path / "reports" / "sweep.kv").read_text()
    assert "check_volume_preserved = true" in kv


def test_torsion_sweep_honours_oracle_modes(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports").replace(
            "oracle:\n", "  t_values: [0.02]\noracle:\n  modes: 12\n"
        )
    )
    assert main(["sweep", "--config", str(path), "--format", "table"]) == 0
    row = (tmp_path / "reports" / "sweep.tsv").read_text().splitlines()[1]
    field = PerturbationField(2, 1.0, {(2, 0): SQRT_PI}, {}).with_volume_correction()
    want = solve_perturbed_torsion(perturbed_domain(field, 0.02), 1.0, 12).energy
    assert row.split("\t")[1] == repr(float(want))


def test_first_variation_dilation_matches_oracle(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports").replace(
            f"modes: [[2, 0, {SQRT_PI!r}]]", "modes: [[0, 0, 1.0]]"
        )
    )
    assert main(["first-variation", "--config", str(path)]) == 0
    kv = (tmp_path / "reports" / "first-variation.kv").read_text()
    assert "check_series_vs_oracle = true" in kv
    # dilation data is not volume preserving, so no criticality claim
    assert "check_critical_at_ball" not in kv


@pytest.mark.parametrize(
    "kind, alpha, dilation", [("robin-eigen", "1.0", 6.0), ("dirichlet-eigen", "0.0", 4.0)]
)
def test_first_variation_walks_downhill_on_strong_dilation(
    kind, alpha, dilation, tmp_path, monkeypatch
):
    # the dilation moves lam(t) at t = +-2h more than 0.025 lam0 away from
    # the ball's lam0, past the search's first pair lam0 (1 -+ 0.02): the
    # secant walks downhill beyond it, and the report must still pass
    real = oracle_solver._slope_root
    found = []

    def recorded(lam0):
        lam, evals = yield from real(lam0)
        found.append(abs(lam - lam0) / lam0)
        return lam, evals

    monkeypatch.setattr(oracle_solver, "_slope_root", recorded)
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports", kind=kind, alpha=alpha)
        .replace(f"modes: [[2, 0, {SQRT_PI!r}]]", f"modes: [[0, 0, {dilation!r}]]")
        .replace("oracle:\n", "oracle:\n  modes: 20\n")
        .replace("richardson_levels: 2", "richardson_levels: 1")
    )
    assert main(["first-variation", "--config", str(path)]) == 0
    kv = (tmp_path / "reports" / "first-variation.kv").read_text()
    assert "check_series_vs_oracle = true" in kv
    assert max(found) > 0.025, found


def test_eigen_second_variation_report(tmp_path):
    cfg = write_config(tmp_path, kind="robin-eigen")
    assert main(["second-variation", "--config", str(cfg)]) == 0
    kv = (tmp_path / "reports" / "second-variation.kv").read_text()
    assert "lower_bound_surface_term" in kv
    assert "check_surface_term_floor = true" in kv


def test_dirichlet_report(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports", kind="dirichlet-eigen", alpha="0.0").replace(
            "richardson_levels: 2", "richardson_levels: 1"
        )
    )
    assert main(["dirichlet", "--config", str(path)]) == 0
    kv = (tmp_path / "reports" / "dirichlet.kv").read_text()
    assert "check_degree_one_bound_coefficient = true" in kv
    assert "check_second_variation_nonnegative = true" in kv


def coefficient_text(field: PerturbationField) -> str:
    """`field` as a coefficient file: JSON with n, R and the N and W rows."""
    rows = {name: [[s, i, c] for (s, i), c in data.items()]
            for name, data in (("N", field.N), ("W", field.W))}
    return json.dumps({"n": field.n, "R": field.R, **rows})


def test_perturbation_from_coefficient_file(tmp_path):
    field = PerturbationField(2, 1.0, {(2, 0): SQRT_PI}, {}).with_volume_correction()
    coeff_path = tmp_path / "field.json"
    coeff_path.write_text(coefficient_text(field))
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "problem: {n: 2, R: 1.0, alpha: 1.0, kind: torsion}\n"
        f"perturbation: {{coefficients: {coeff_path}}}\n"
        f"output: {{directory: {tmp_path / 'reports'}}}\n"
    )
    assert main(["surface", "--config", str(path)]) == 0
    kv = (tmp_path / "reports" / "surface.kv").read_text()
    assert "surface_second_variation_symbolic = 3*pi" in kv


def index_config(tmp_path, n, mode):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        f"problem: {{n: {n}, R: 1.0, alpha: 1.0, kind: torsion}}\n"
        f"perturbation: {{modes: [{mode}]}}\n"
        f"output: {{directory: {tmp_path / 'reports'}}}\n"
    )
    return path


def test_n3_top_index_accepted(tmp_path):
    # n = 3, degree 2 has indices 0..4; i = 4 is the m = +2 harmonic
    path = index_config(tmp_path, 3, "[2, 4, 0.3]")
    assert main(["surface", "--config", str(path)]) == 0
    kv = (tmp_path / "reports" / "surface.kv").read_text()
    checks = [line for line in kv.splitlines() if line.startswith("check_")]
    assert checks and all(line.endswith(" = true") for line in checks)


def test_n2_index_beyond_multiplicity_rejected(tmp_path, capsys):
    # n = 2 has two harmonics per degree: index 4 does not exist
    path = index_config(tmp_path, 2, "[3, 4, 0.3]")
    assert main(["steklov", "--config", str(path)]) == 2
    assert "perturbation.modes" in capsys.readouterr().err


def test_coefficient_file_dimension_mismatch(tmp_path, capsys):
    field = PerturbationField(3, 1.0, {(2, 2): 1.0}, {})
    coeff_path = tmp_path / "field.json"
    coeff_path.write_text(coefficient_text(field))
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "problem: {n: 2, R: 1.0, alpha: 1.0, kind: torsion}\n"
        f"perturbation: {{coefficients: {coeff_path}}}\n"
    )
    assert main(["surface", "--config", str(path)]) == 2
    assert "perturbation.coefficients" in capsys.readouterr().err


# file text -> the field the error names; the rows of a file pass the
# checks of inline `perturbation.modes` rows
MALFORMED_FILES = {
    '{"R": 1.0, "N": [[2, 0, 1.0]]}': "perturbation.coefficients: n",
    "not json": "perturbation.coefficients",
    '{"n": 2, "R": 1.0, "N": [[2, 0, NaN]]}': "perturbation.coefficients: N",
    '{"n": 2, "R": 1.0, "N": [[3, 4, 0.3]]}': "perturbation.coefficients: N",
    '{"n": 2, "R": 1.0, "N": [[true, 0, 1.0]]}': "perturbation.coefficients: N",
    '{"n": 2, "R": 1.0, "N": [[2, 0, 1.0]], "W": [[0, 0]]}': "perturbation.coefficients: W",
    # a misspelt W row would drop the volume correction
    '{"n": 2, "R": 1.0, "N": [[2, 0, 1.7724538509055159]], "w": [[0, 0, -1.0]]}':
        "perturbation.coefficients: w: unknown field",
}


@pytest.mark.parametrize(
    "key, value", [("modes", "[[2, 0, 1.0]]"), ("volume_correction", "false")]
)
def test_coefficient_file_excludes_field(key, value, tmp_path, capsys):
    # the file holds N and its W row is the correction, so neither the modes
    # nor a volume correction can be given next to it
    coeff_path = tmp_path / "field.json"
    coeff_path.write_text('{"n": 2, "R": 1.0, "N": [[2, 0, 1.0]]}')
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "problem: {n: 2, R: 1.0, alpha: 1.0, kind: torsion}\n"
        f"perturbation: {{coefficients: {coeff_path}, {key}: {value}}}\n"
    )
    assert main(["surface", "--config", str(path)]) == 2
    assert f"config error: perturbation.{key}: not with" in capsys.readouterr().err


@pytest.mark.parametrize("text", list(MALFORMED_FILES))
def test_coefficient_file_malformed(text, tmp_path, capsys):
    coeff_path = tmp_path / "field.json"
    coeff_path.write_text(text)
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "problem: {n: 2, R: 1.0, alpha: 1.0, kind: torsion}\n"
        f"perturbation: {{coefficients: {coeff_path}}}\n"
    )
    assert main(["surface", "--config", str(path)]) == 2
    assert f"config error: {MALFORMED_FILES[text]}" in capsys.readouterr().err


def surface_kv(config, out) -> bytes:
    before = dict(os.environ)
    assert main(["surface", "--config", str(config), "--out", str(out)]) == 0
    assert dict(os.environ) == before
    return (out / "surface.kv").read_bytes()


def test_quadrature_order_override(tmp_path, monkeypatch):
    # RSV_QUAD_ORDER, set by the caller, is the one order channel: it moves
    # the README surface report's oracle off its order-64 bits (the exact
    # area of each perturbed domain is a sphere quadrature)
    config = write_config(tmp_path)
    monkeypatch.delenv("RSV_QUAD_ORDER", raising=False)
    order64 = surface_kv(config, tmp_path / "a")
    monkeypatch.setenv("RSV_QUAD_ORDER", "96")
    order96 = surface_kv(config, tmp_path / "b")
    assert b"\noracle_d2 = 9.424777960773135\n" in order64
    assert b"\noracle_d2 = 9.424777960722508\n" in order96


def test_module_runs_as_script(tmp_path):
    cfg = write_config(tmp_path)
    # the child imports rsv from this checkout's src, as the test process does
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "rsv.cli", "steklov", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "PASS steklov.torsion_spectrum_exact" in proc.stdout
