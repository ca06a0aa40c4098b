"""Run the perfbench workloads and write one BENCH_<tag>.json record.

    python tools/bench.py TAG [--workloads W ...] [--seeds S ...] [--seconds T]
                              [--base DIR --base-tag TAG]

For each workload and seed it runs `perfbench/run.py --trace 0` of the
checkout holding this script as a subprocess, and once per workload, at
the first seed, `--trace 1`.  The last line each run prints is one JSON
object; its metrics, the end-to-end
ones and the traced per-layer counters (sigma evaluations per solve,
solves per derivative, Bessel calls, quadrature builds, ...) go into
`BENCH_<TAG>.json` at the root of this checkout, with the median of every
metric over the seeds, the commit, the host, the BLAS threads the runs
pinned, and the Python, numpy and scipy versions.

With --base, a second git checkout (the base of a change) is run on the
same workloads and seeds, alternating per seed which side goes first; a
directory that is not the root of a checkout with a commit is refused
before any run, exit code 2.  The base's record is written as
`BENCH_<BASE_TAG>.json`: a before/after pair from one session on one
machine.  It then prints, for each workload and each end-to-end metric of
`BENCHMARK.json` (whose `better` field gives the direction), how many seed
pairs the change won, lost and tied, the median of each side, and the
base's quartiles.

Each perfbench run also writes its full result file under the checkout's
`perfbench/results/`; the BLAS threads are read from there.  With --base,
the per-case records of those files (`<workload>-seed<N>-trace0.json`) are
compared too, and the change's record gets a `case_comparison` per
workload: over the cases both sides ran (same seed and case id), how many
kept their match digits, rose or fell, the largest fall and each side's
minimum digits per seed; and each side's median raw `cpu_s` per case name
(the case id without its `r<round>-<index>-` prefix) with the names the
change won, lost and tied: a name counts as won or lost only when the two
medians differ by more than the larger interquartile range of the two
sides' per-seed medians, the seed-to-seed noise of that case.  Unlike the end-to-end metrics, these compare like
with like: a faster side runs more rounds, so its minimum over all cases
covers more cases, and `case_ref_s` carries the speed gauge's spread.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("eigen-reports", "torsion-reports", "series-scan")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a perfbench run's
    stdout, with its metrics reduced to {name: value}; raises ValueError
    when that line is not a JSON object with metrics."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"last line is not JSON: {lines[-1][:80]!r}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise ValueError(f"last line has no metrics: {lines[-1][:80]!r}")
    out = {k: doc[k] for k in ("correct", "attempted", "failed") if k in doc}
    out["metrics"] = {name: m["value"] for name, m in doc["metrics"].items()}
    return out


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = parse_result(proc.stdout)
    result.update(workload=workload, seed=seed, trace=trace)
    return result


def result_file(root: Path, workload: str, seed: int) -> dict:
    """The perfbench result file of a `--trace 0` run, {} when unreadable."""
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def blas_threads(root: Path, workload: str, seed: int) -> dict | None:
    """The thread variables pinned by a run, from its perfbench result file."""
    env = result_file(root, workload, seed).get("environment", {}).get("pinned_env")
    if env is None:
        return None
    return {k: v for k, v in env.items() if k.endswith("_THREADS")}


def case_records(root: Path, runs: list[dict]) -> dict:
    """(workload, seed) -> the per-case records of that run's result file."""
    return {
        (r["workload"], r["seed"]): result_file(root, r["workload"], r["seed"]).get("cases", [])
        for r in runs
    }


def case_name(case_id: str) -> str:
    """A case id without its `r<round>-<index>-` prefix."""
    return re.sub(r"^r\d+-\d+-", "", case_id)


def seed_spread(per_seed: dict) -> float:
    """The interquartile range of the per-seed medians of {seed: [cpu_s]}."""
    q1, q3 = quartiles([statistics.median(ts) for ts in per_seed.values()])
    return q3 - q1


def compare_cases(cases: dict, base_cases: dict) -> dict:
    """Per workload, over the cases both sides ran (equal workload, seed and
    case id): `common`, how many kept their digits (`same`, a missing value
    on both sides included), `rose` and `fell` (a value lost counts as a
    fall), the `largest_fall` in digits, `min_digits` per seed as [change,
    base], and `cpu_s`, the median raw CPU seconds per case name as
    [change, base].  `cpu_s_noise` holds, per name, the larger interquartile
    range of the two sides' per-seed medians; the change won or lost a name
    only when its median is lower or higher by more than that, and tied it
    otherwise."""
    out: dict = {}
    for (workload, seed), records in cases.items():
        base = {c["case"]: c for c in base_cases.get((workload, seed), [])}
        common = [(c, base[c["case"]]) for c in records if c["case"] in base]
        if not common:
            continue
        w = out.setdefault(workload, {
            "common": 0, "same": 0, "rose": 0, "fell": 0, "largest_fall": 0.0,
            "min_digits": {}, "cpu_s": {},
        })
        w["common"] += len(common)
        for new, old in common:
            a, b = new["digits"], old["digits"]
            if a == b:
                w["same"] += 1
            elif a is not None and b is not None and a > b:
                w["rose"] += 1
            else:
                w["fell"] += 1
                if a is not None and b is not None:
                    w["largest_fall"] = max(w["largest_fall"], b - a)
            times = w["cpu_s"].setdefault(case_name(new["case"]), ({}, {}))
            times[0].setdefault(seed, []).append(new["cpu_s"])
            times[1].setdefault(seed, []).append(old["cpu_s"])
        w["min_digits"][str(seed)] = [
            min((c["digits"] for c in side if c["digits"] is not None), default=None)
            for side in zip(*common)
        ]
    for w in out.values():
        per_seed = w["cpu_s"]
        w["cpu_s"] = {
            name: [statistics.median(t for ts in side.values() for t in ts) for side in sides]
            for name, sides in per_seed.items()
        }
        w["cpu_s_noise"] = {
            name: max(seed_spread(side) for side in sides) for name, sides in per_seed.items()
        }
        won = lost = 0
        for name, (new, old) in w["cpu_s"].items():
            won += old - new > w["cpu_s_noise"][name]
            lost += new - old > w["cpu_s_noise"][name]
        w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"] = won, lost, len(w["cpu_s"]) - won - lost
    return out


def format_case_comparison(cases: dict) -> str:
    lines = [f"{'workload':16s} common same rose fell largest_fall cpu_s won/lost/tied  "
             "min digits per seed (change/base)"]
    for workload, w in cases.items():
        minima = " ".join(
            f"{seed}:{'/'.join('-' if m is None else f'{m:.2f}' for m in pair)}"
            for seed, pair in w["min_digits"].items()
        )
        lines.append(f"{workload:16s} {w['common']:6d} {w['same']:4d} {w['rose']:4d} "
                     f"{w['fell']:4d} {w['largest_fall']:12.3g} "
                     f"{w['cpu_s_won']:5d}/{w['cpu_s_lost']}/{w['cpu_s_tied']:<4d}  {minima}")
    return "\n".join(lines)


def git(root: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def is_checkout(root: Path) -> bool:
    """Whether root is the top of a git work tree whose HEAD is a commit,
    so that its record can name the commit it ran."""
    top = git(root, "rev-parse", "--show-toplevel")
    return bool(top) and Path(top).resolve() == root and bool(git(root, "rev-parse", "HEAD"))


def medians(runs: list[dict]) -> dict:
    """Median of every metric over the runs of each workload."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        values: dict = {}
        for r in runs:
            if r["workload"] == workload:
                for name, v in r["metrics"].items():
                    values.setdefault(name, []).append(v)
        out[workload] = {name: statistics.median(vs) for name, vs in values.items()}
    return out


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of `BENCHMARK.json`: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (inclusive method; one value is both)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(runs: list[dict], base_runs: list[dict], metrics: list[dict]) -> list[dict]:
    """Per workload and metric: the seed pairs (equal workload and seed) that
    the change won, lost and tied in the metric's `better` direction, the
    median of each side over those pairs, and the base's quartiles."""
    base = {(r["workload"], r["seed"]): r["metrics"] for r in base_runs}
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            pairs = []
            for r in runs:
                partner = base.get((r["workload"], r["seed"]), {})
                if r["workload"] == workload and name in r["metrics"] and name in partner:
                    pairs.append((r["metrics"][name], partner[name]))
            if not pairs:
                continue
            change, before = [p[0] for p in pairs], [p[1] for p in pairs]
            gains = [sign * (a - b) for a, b in pairs]
            rows.append({
                "workload": workload, "metric": name,
                "won": sum(g > 0 for g in gains), "lost": sum(g < 0 for g in gains),
                "tied": sum(g == 0 for g in gains),
                "median": statistics.median(change), "base_median": statistics.median(before),
                "base_quartiles": quartiles(before),
            })
    return rows


def format_comparison(rows: list[dict]) -> str:
    lines = [f"{'workload':16s} {'metric':18s} won lost tied {'median':>12s} "
             f"{'base median':>12s}  base quartiles"]
    for r in rows:
        q1, q3 = r["base_quartiles"]
        lines.append(f"{r['workload']:16s} {r['metric']:18s} {r['won']:3d} {r['lost']:4d} "
                     f"{r['tied']:4d} {r['median']:12.6g} {r['base_median']:12.6g}  "
                     f"{q1:.6g} .. {q3:.6g}")
    return "\n".join(lines)


def record(tag: str, root: Path, args, runs: list[dict], traced: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "tag": tag,
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--", "src", "perfbench")),
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "system": platform.platform(), "cpus": os.cpu_count()},
        "blas_threads": blas_threads(root, runs[0]["workload"], runs[0]["seed"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "medians": medians(runs),
        "traced": traced,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tag")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--base", type=Path)
    parser.add_argument("--base-tag")
    args = parser.parse_args(argv)
    if (args.base is None) != (args.base_tag is None):
        parser.error("--base and --base-tag go together")

    sides = [(args.tag, ROOT)]
    if args.base is not None:
        base = args.base.resolve()
        if not is_checkout(base):
            parser.error(f"--base {args.base}: not the root of a git checkout with a commit")
        sides.append((args.base_tag, base))
    runs = {tag: [] for tag, _ in sides}
    traced = {tag: [] for tag, _ in sides}
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            for tag, root in sides if k % 2 else sides[::-1]:
                result = run_perfbench(root, workload, seed, args.seconds, 0)
                runs[tag].append(result)
                print(f"{tag:>16s} {workload:16s} seed {seed:6d} "
                      f"cases_per_ref_s {result['metrics'].get('cases_per_ref_s')}", flush=True)
        for tag, root in sides:
            traced[tag].append(run_perfbench(root, workload, args.seeds[0], args.seconds, 1))
    records = {tag: record(tag, root, args, runs[tag], traced[tag]) for tag, root in sides}
    if args.base is not None:
        cases = compare_cases(
            case_records(ROOT, runs[args.tag]), case_records(sides[1][1], runs[args.base_tag])
        )
        records[args.tag]["case_comparison"] = cases
    for tag, doc in records.items():
        path = ROOT / f"BENCH_{tag}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    if args.base is not None:
        rows = compare(runs[args.tag], runs[args.base_tag], end_to_end_metrics())
        print(format_comparison(rows))
        print(format_case_comparison(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
