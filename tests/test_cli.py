"""End-to-end checks of the report runner: exit codes, report files,
byte-level determinism, and the embedded assertions."""
import math
import subprocess
import sys

import pytest

from rsv.cli import main
from rsv.radial_solutions import solve_torsion_ball
from rsv.sphere_geometry import PerturbationField
from rsv.variations import second_variation_energy_ball

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


def test_seed_changes_nothing_without_ties(tmp_path):
    cfg = write_config(tmp_path, alpha="-2.5")
    outs = []
    for seed in ("7", "8"):
        out = tmp_path / f"seed{seed}"
        assert main(
            ["classify", "--config", str(cfg), "--out", str(out), "--seed", seed]
        ) == 0
        outs.append((out / "classify.kv").read_bytes())
    assert outs[0] == outs[1]


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


def test_invalid_dimension_names_field(tmp_path, capsys):
    path = tmp_path / "bad_n.yaml"
    path.write_text("problem: {n: 4, R: 1.0, alpha: 1.0, kind: torsion}\n")
    assert main(["steklov", "--config", str(path)]) == 2
    assert "problem.n" in capsys.readouterr().err


MALFORMED = {
    "n-float": ("  n: 2\n", "  n: 2.0\n", None, "problem.n"),
    "R-nan": ("  R: 1.0\n", "  R: .nan\n", None, "problem.R"),
    "alpha-inf": ("  alpha: 1.0\n", "  alpha: .inf\n", None, "problem.alpha"),
    "modes-negative": ("oracle:\n", "oracle:\n  modes: -3\n", None, "oracle.modes"),
    "modes-fraction": ("oracle:\n", "oracle:\n  modes: 2.7\n", None, "oracle.modes"),
    "levels-fraction": (
        "richardson_levels: 2", "richardson_levels: 1.5", None, "oracle.richardson_levels"
    ),
    "quadrature-negative": (
        "oracle:\n", "oracle:\n  quadrature_order: -8\n", None, "oracle.quadrature_order"
    ),
    "t-text": (
        "perturbation:\n", "perturbation:\n  t_values: [0.0, abc]\n", None,
        "perturbation.t_values",
    ),
    "t-bool": (
        "perturbation:\n", "perturbation:\n  t_values: [true, 0.01]\n", None,
        "perturbation.t_values",
    ),
    "degree-bool": (f"[[2, 0, {SQRT_PI!r}]]", "[[true, 0, 1.0]]", None, "perturbation.modes"),
    "coefficient-text": (
        f"[[2, 0, {SQRT_PI!r}]]", "[[2, 0, x]]", None, "perturbation.modes"
    ),
    "fd-step-text": ("", "", "abc", "RSV_FD_H"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_2_naming_it(case, tmp_path, monkeypatch, capsys):
    old, new, fd_step, name = MALFORMED[case]
    # pre-touch the variable so a config-driven write would be undone
    monkeypatch.setenv("RSV_QUAD_ORDER", "64")
    if fd_step is not None:
        monkeypatch.setenv("RSV_FD_H", fd_step)
    path = tmp_path / "cfg.yaml"
    path.write_text(config_text(tmp_path / "reports").replace(old, new))
    assert main(["steklov", "--config", str(path)]) == 2
    assert f"config error: {name}" in capsys.readouterr().err


def test_fd_env_override_writes_failure_list(tmp_path, monkeypatch, capsys):
    # a half-unit step cannot resolve the quartic area term: the oracle
    # comparison must fail honestly and leave a machine-readable record
    monkeypatch.setenv("RSV_FD_H", "0.5")
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports").replace("richardson_levels: 2",
                                                  "richardson_levels: 0")
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


def test_perturbation_from_coefficient_file(tmp_path):
    field = PerturbationField(2, 1.0, {(2, 0): SQRT_PI}, {}).with_volume_correction()
    coeff_path = tmp_path / "field.json"
    coeff_path.write_text(field.to_text())
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
    coeff_path.write_text(field.to_text())
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "problem: {n: 2, R: 1.0, alpha: 1.0, kind: torsion}\n"
        f"perturbation: {{coefficients: {coeff_path}}}\n"
    )
    assert main(["surface", "--config", str(path)]) == 2
    assert "perturbation.coefficients" in capsys.readouterr().err


def test_quadrature_order_override(tmp_path, monkeypatch):
    # pre-touch the variable so the config-driven write is restored after
    monkeypatch.setenv("RSV_QUAD_ORDER", "64")
    path = tmp_path / "cfg.yaml"
    path.write_text(
        config_text(tmp_path / "reports", extra="").replace(
            "oracle:\n", "oracle:\n  quadrature_order: 96\n"
        )
    )
    import os

    assert main(["second-variation", "--config", str(path)]) == 0
    assert os.environ["RSV_QUAD_ORDER"] == "96"


def test_module_runs_as_script(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "rsv.cli", "steklov", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS steklov.torsion_spectrum_exact" in proc.stdout
