"""Write the CLI reports of the reference configs into one directory.

    python tools/reference_reports.py OUT_DIR

Runs every subcommand that applies to each reference config and writes

    OUT_DIR/configs/<config>.yaml          the config that was run
    OUT_DIR/<config>/<subcommand>/*.kv     the reports, as `rsv` writes them
    OUT_DIR/<config>/<subcommand>/*.tsv
    OUT_DIR/status.tsv                     config, subcommand, exit code

The reference configs are the README experiment for all three kinds, n = 2
band-limited data, n = 3 zonal data (all three kinds each), one torsion
config with R != 1, and, last, the README torsion and dirichlet-eigen
configs with `oracle.quadrature_order: 96`.  rsv is imported from the `src/` next to this script,
and RSV_QUAD_ORDER is cleared first, so the files depend only on the
code.  Nothing in them names a path or a time.

This is the byte-identity gate for changes that should not move any number:
run the script in a checkout of the base commit (copy it there if it is
missing) and in the changed tree, then `diff -r` the two directories.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rsv.cli import main  # noqa: E402

SUBCOMMANDS = {
    "torsion": (
        "first-variation", "second-variation", "steklov", "surface", "classify", "sweep",
    ),
    "robin-eigen": ("first-variation", "second-variation", "steklov", "surface", "sweep"),
    "dirichlet-eigen": (
        "first-variation", "second-variation", "surface", "dirichlet", "sweep",
    ),
}

README_MODES = [[2, 0, 1.7724538509055159]]  # cos 2 theta, unit boundary norm
BAND_MODES = [[2, 0, 0.08], [2, 1, -0.05], [3, 0, 0.06], [3, 1, 0.04], [4, 1, -0.03]]
ZONAL_MODES = [[2, 2, 0.1], [3, 3, -0.06], [4, 4, 0.04]]


def config_yaml(n, R, alpha, kind, modes, oracle_modes, levels, quad_order=None) -> str:
    rows = "\n".join(f"    - [{s}, {i}, {c!r}]" for s, i, c in modes)
    order = "" if quad_order is None else f"  quadrature_order: {quad_order}\n"
    return (
        "problem:\n"
        f"  n: {n}\n"
        f"  R: {R!r}\n"
        f"  alpha: {alpha!r}\n"
        f"  kind: {kind}\n"
        "perturbation:\n"
        "  modes:\n"
        f"{rows}\n"
        "  t_values: [-0.02, 0.0, 0.02]\n"
        "oracle:\n"
        f"  modes: {oracle_modes}\n"
        "  h: 5.0e-3\n"
        f"  richardson_levels: {levels}\n"
        f"{order}"
        "output:\n"
        "  formats: [kv, table]\n"
    )


def reference_configs() -> dict[str, tuple[str, str]]:
    """name -> (kind, YAML text)."""
    configs = {}
    for kind in SUBCOMMANDS:
        configs[f"readme-{kind}"] = (kind, config_yaml(2, 1.0, 1.0, kind, README_MODES, 0, 2))
        # eigen oracles at 12 modes keep the residual small at |t| <= 0.02
        modes = 0 if kind == "torsion" else 12
        configs[f"n2-band-{kind}"] = (kind, config_yaml(2, 1.0, 1.0, kind, BAND_MODES, modes, 1))
        configs[f"n3-zonal-{kind}"] = (kind, config_yaml(3, 1.0, 1.0, kind, ZONAL_MODES, modes, 1))
    configs["n2-R2-torsion"] = (
        "torsion", config_yaml(2, 2.0, 0.75, "torsion", [[2, 0, 0.1], [3, 1, 0.05]], 0, 1)
    )
    # last, so that an order that outlived its run could reach no other config
    for kind in ("torsion", "dirichlet-eigen"):
        configs[f"readme-{kind}-order96"] = (
            kind, config_yaml(2, 1.0, 1.0, kind, README_MODES, 0, 2, quad_order=96)
        )
    return configs


def run(out_dir: Path) -> int:
    os.environ.pop("RSV_QUAD_ORDER", None)
    (out_dir / "configs").mkdir(parents=True, exist_ok=True)
    status = ["config\tsubcommand\texit"]
    for name, (kind, text) in reference_configs().items():
        config = out_dir / "configs" / f"{name}.yaml"
        config.write_text(text)
        for sub in SUBCOMMANDS[kind]:
            argv = [sub, "--config", str(config), "--out", str(out_dir / name / sub)]
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = main(argv)
            status.append(f"{name}\t{sub}\t{code}")
            print(f"exit {code}  {name} {sub}", flush=True)
            if code != 0:
                print(log.getvalue(), end="", flush=True)
    (out_dir / "status.tsv").write_text("\n".join(status) + "\n")
    return 0 if all(line.endswith("\t0") for line in status[1:]) else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(run(Path(sys.argv[1])))
