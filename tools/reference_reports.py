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
configs run with RSV_QUAD_ORDER=96 (the `*-order96` configs; the variable
is set for their runs and removed afterwards).  rsv is imported from the
`src/` next to this script, and RSV_QUAD_ORDER is cleared first, so the
files depend only on the code.  Nothing in them names a path or a time.

This is the byte-identity gate for changes that should not move any number:
run the script in a checkout of the base commit (copy it there if it is
missing) and in the changed tree, then `diff -r` the two directories.

    python tools/reference_reports.py OUT_DIR --against BASE_DIR

is the gate for changes that may move oracle digits only.  After writing
OUT_DIR it compares it with BASE_DIR (written by the base commit) and exits
1 when a file is missing or extra, a `status.tsv` line or a config
differs, or a report differs outside its oracle values.  Oracle values are
the finite numeric `oracle_*` keys of the key-value reports, the `E`
column of the sweep tables and, for the eigen kinds, their `lam` column;
every other key and cell must keep its bytes, the torsion sweep's `nan`
`lam` column too.
For each oracle key it prints how many values moved, the largest move
|new - base| / max(1, |base|), and the largest move in units of the base
report's own `<key>_error_estimate`, each with the report it came from.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rsv.cli import KINDS, ONLY_KINDS, RUNNERS, main  # noqa: E402

# kind -> the subcommands that apply to it, in the CLI's order
SUBCOMMANDS = {
    kind: tuple(sub for sub in RUNNERS if kind in ONLY_KINDS.get(sub, KINDS)) for kind in KINDS
}

README_MODES = [[2, 0, 1.7724538509055159]]  # cos 2 theta, unit boundary norm
BAND_MODES = [[2, 0, 0.08], [2, 1, -0.05], [3, 0, 0.06], [3, 1, 0.04], [4, 1, -0.03]]
ZONAL_MODES = [[2, 2, 0.1], [3, 3, -0.06], [4, 4, 0.04]]


def config_yaml(n, R, alpha, kind, modes, oracle_modes, levels) -> str:
    rows = "\n".join(f"    - [{s}, {i}, {c!r}]" for s, i, c in modes)
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
        "output:\n"
        "  formats: [kv, table]\n"
    )


def reference_configs() -> dict[str, tuple[str, str, str | None]]:
    """name -> (kind, YAML text, RSV_QUAD_ORDER for its runs or None)."""
    configs = {}
    for kind in SUBCOMMANDS:
        configs[f"readme-{kind}"] = (kind, config_yaml(2, 1.0, 1.0, kind, README_MODES, 0, 2), None)
        # eigen oracles at 12 modes keep the residual small at |t| <= 0.02
        modes = 0 if kind == "torsion" else 12
        configs[f"n2-band-{kind}"] = (
            kind, config_yaml(2, 1.0, 1.0, kind, BAND_MODES, modes, 1), None
        )
        configs[f"n3-zonal-{kind}"] = (
            kind, config_yaml(3, 1.0, 1.0, kind, ZONAL_MODES, modes, 1), None
        )
    configs["n2-R2-torsion"] = (
        "torsion", config_yaml(2, 2.0, 0.75, "torsion", [[2, 0, 0.1], [3, 1, 0.05]], 0, 1), None
    )
    # last, so that an order that outlived its run could reach no other config
    for kind in ("torsion", "dirichlet-eigen"):
        configs[f"readme-{kind}-order96"] = (
            kind, config_yaml(2, 1.0, 1.0, kind, README_MODES, 0, 2), "96"
        )
    return configs


def run(out_dir: Path) -> int:
    os.environ.pop("RSV_QUAD_ORDER", None)
    (out_dir / "configs").mkdir(parents=True, exist_ok=True)
    status = ["config\tsubcommand\texit"]
    for name, (kind, text, order) in reference_configs().items():
        config = out_dir / "configs" / f"{name}.yaml"
        config.write_text(text)
        if order is not None:
            os.environ["RSV_QUAD_ORDER"] = order
        try:
            for sub in SUBCOMMANDS[kind]:
                argv = [sub, "--config", str(config), "--out", str(out_dir / name / sub)]
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = main(argv)
                status.append(f"{name}\t{sub}\t{code}")
                print(f"exit {code}  {name} {sub}", flush=True)
                if code != 0:
                    print(log.getvalue(), end="", flush=True)
        finally:
            os.environ.pop("RSV_QUAD_ORDER", None)
    (out_dir / "status.tsv").write_text("\n".join(status) + "\n")
    return 0 if all(line.endswith("\t0") for line in status[1:]) else 1


# config kind -> report file name -> table columns that hold oracle values
ORACLE_COLUMNS = {
    "torsion": {"sweep.tsv": ("E",)},
    "robin-eigen": {"sweep.tsv": ("E", "lam")},
    "dirichlet-eigen": {"sweep.tsv": ("E", "lam")},
}


def report_items(path: Path, kind: str) -> list[tuple[str, str, bool]]:
    """(key, value, is_oracle) for every entry of a report of a `kind`
    config, in file order."""
    lines = path.read_text().splitlines()
    if path.suffix == ".kv":
        pairs = [line.split(" = ", 1) for line in lines]
        return [(key, value, key.startswith("oracle_")) for key, value in pairs]
    header = lines[0].split("\t")
    if header == ["quantity", "value"]:
        pairs = [line.split("\t", 1) for line in lines[1:]]
        return [(key, value, key.startswith("oracle_")) for key, value in pairs]
    oracle = ORACLE_COLUMNS[kind].get(path.name, ())
    items = [("header", lines[0], False)]
    for row, line in enumerate(lines[1:]):
        for column, cell in zip(header, line.split("\t"), strict=True):
            items.append((f"{path.stem}:{column}[{row}]", cell, column in oracle))
    return items


def _number(text: str) -> float | None:
    """The finite value of `text`, else None (compared byte for byte)."""
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def compare(out_dir: Path, base_dir: Path) -> int:
    """Print oracle moves and failures of OUT_DIR against BASE_DIR; 0 iff
    nothing but numeric oracle values moved."""
    kinds = {name: kind for name, (kind, *_) in reference_configs().items()}
    failures = []
    moves: dict[str, dict] = {}

    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    def largest(record: dict, field: str, size: float, where: Path) -> None:
        if size > record[field][0]:
            record[field] = (size, str(where))

    out_files, base_files = files(out_dir), files(base_dir)
    failures += [f"{rel}: missing" for rel in sorted(base_files - out_files)]
    failures += [f"{rel}: not in the base" for rel in sorted(out_files - base_files)]
    for rel in sorted(out_files & base_files):
        new_path, base_path = out_dir / rel, base_dir / rel
        kind = kinds.get(rel.parts[0])
        if len(rel.parts) < 3 or kind is None:
            if new_path.read_bytes() != base_path.read_bytes():
                failures.append(f"{rel}: differs")
            continue
        try:
            new, base = report_items(new_path, kind), report_items(base_path, kind)
        except (ValueError, IndexError):
            failures.append(f"{rel}: differs and does not parse as a report")
            continue
        if [item[0] for item in new] != [item[0] for item in base]:
            failures.append(f"{rel}: keys differ")
            continue
        estimates = {key: _number(value) for key, value, _ in base}
        for (key, value, oracle), (_, was, _) in zip(new, base):
            x, x0 = _number(value), _number(was)
            if not oracle or x is None or x0 is None:
                if value != was:
                    failures.append(f"{rel}: {key} = {value} (base {was})")
                continue
            record = moves.setdefault(
                key.split("[")[0],
                {"values": 0, "moved": 0, "scaled": (0.0, "-"), "ratio": (0.0, "-"),
                 "unestimated": (0.0, "-"), "estimated": False},
            )
            record["values"] += 1
            estimate = estimates.get(f"{key}_error_estimate")
            record["estimated"] |= estimate is not None
            if value == was:
                continue
            record["moved"] += 1
            change = abs(x - x0)
            largest(record, "scaled", change / max(1.0, abs(x0)), rel)
            if estimate is not None and estimate > 0.0:
                largest(record, "ratio", change / estimate, rel)
            elif estimate is not None:
                largest(record, "unestimated", change, rel)
    print(f"{'oracle key':<26} {'moved':>9} {'max |dx|/max(1,|x|)':>20} "
          f"{'max |dx|/estimate':>18}  where")
    for name, record in sorted(moves.items()):
        (scaled, where), (ratio, where_ratio) = record["scaled"], record["ratio"]
        ratio_text = f"{ratio:.3e}" if record["estimated"] else "-"
        places = dict.fromkeys(w for w in (where, where_ratio) if w != "-")
        print(f"{name:<26} {record['moved']:>4}/{record['values']:<4} {scaled:>20.3e} "
              f"{ratio_text:>18}  {'; '.join(places)}")
        change, where = record["unestimated"]
        if where != "-":
            print(f"{'':<26} largest move where the estimate is 0: {change:.3e}  {where}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--against", type=Path, metavar="BASE_DIR")
    args = parser.parse_args()
    code = run(args.out_dir)
    # with a base, the exit codes are compared line by line in status.tsv
    sys.exit(code if args.against is None else compare(args.out_dir, args.against))
