"""`tools/reference_reports.py --against` on two small synthetic report
directories; nothing here runs `rsv`."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_reports.py"

BASE = {
    "status.tsv": "config\tsubcommand\texit\nreadme-torsion\tsecond-variation\t0\n",
    "configs/readme-torsion.yaml": "problem:\n  kind: torsion\n",
    "readme-torsion/second-variation/second-variation.kv": (
        "second_variation = 3.4033920413889422\n"
        "oracle_d2 = 3.4033920413740635\n"
        "oracle_d2_error_estimate = 8.010639085398452e-08\n"
        "oracle_match = true\n"
    ),
    "readme-torsion/sweep/sweep.tsv": (
        "t\tE\tlam\n-0.02\t-1.9628149785561253\tnan\n0.0\t-1.9634954084936207\tnan\n"
    ),
    "readme-robin-eigen/second-variation/second-variation.kv": (
        "second_variation = 0.6203522093405486\n"
        "oracle_d2 = 0.6203522096211916\n"
        "oracle_d2_error_estimate = 1.7e-09\n"
    ),
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("reference_reports_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def compare_with(tool, tmp_path, edits: dict[str, tuple[str, str]]) -> int:
    """Exit code of `compare` for BASE with each file's `old` text replaced by `new`."""
    changed = dict(BASE)
    for rel, (old, new) in edits.items():
        assert changed[rel].count(old) == 1
        changed[rel] = changed[rel].replace(old, new)
    base = write(tmp_path / "base", BASE)
    return tool.compare(write(tmp_path / "out", changed), base)


def test_identical_directories_pass(tool, tmp_path, capsys):
    assert compare_with(tool, tmp_path, {}) == 0
    assert "0 failure(s)" in capsys.readouterr().out


def test_torsion_oracle_values_may_move(tool, tmp_path, capsys):
    edits = {
        "readme-torsion/second-variation/second-variation.kv": (
            "oracle_d2 = 3.4033920413740635", "oracle_d2 = 3.4033920416111334"
        ),
        "readme-torsion/sweep/sweep.tsv": ("-1.9634954084936207", "-1.9634954084936167"),
    }
    assert compare_with(tool, tmp_path, edits) == 0
    out = capsys.readouterr().out
    assert "oracle_d2" in out and "sweep:E" in out
    assert "0 failure(s)" in out


@pytest.mark.parametrize(
    "rel, old, new",
    [
        ("readme-torsion/second-variation/second-variation.kv",
         "second_variation = 3.4033920413889422", "second_variation = 3.403392041388943"),
        ("readme-torsion/second-variation/second-variation.kv",
         "oracle_match = true", "oracle_match = false"),
        ("readme-robin-eigen/second-variation/second-variation.kv",
         "second_variation = 0.6203522093405486", "second_variation = 0.6203522093405487"),
        # a torsion sweep has no eigenvalue: its lam column keeps its bytes
        ("readme-torsion/sweep/sweep.tsv", "0.0\t-1.9634954084936207\tnan",
         "0.0\t-1.9634954084936207\t1.5"),
        # an oracle value that stops being finite is not a move
        ("readme-torsion/second-variation/second-variation.kv",
         "oracle_d2 = 3.4033920413740635", "oracle_d2 = nan"),
    ],
)
def test_other_keys_and_cells_keep_their_bytes(tool, tmp_path, capsys, rel, old, new):
    assert compare_with(tool, tmp_path, {rel: (old, new)}) == 1
    assert f"FAIL {Path(rel)}" in capsys.readouterr().out


def test_an_exit_code_change_fails(tool, tmp_path, capsys):
    edits = {"status.tsv": ("second-variation\t0", "second-variation\t2")}
    assert compare_with(tool, tmp_path, edits) == 1
    assert "FAIL status.tsv: differs" in capsys.readouterr().out


def test_subcommands_follow_the_cli_runners_and_their_kinds(tool):
    # derived from rsv.cli, and in the order that keeps status.tsv's bytes
    assert tool.SUBCOMMANDS == {
        "torsion": (
            "first-variation", "second-variation", "steklov", "surface", "classify", "sweep",
        ),
        "robin-eigen": ("first-variation", "second-variation", "steklov", "surface", "sweep"),
        "dirichlet-eigen": (
            "first-variation", "second-variation", "surface", "dirichlet", "sweep",
        ),
    }
