"""rsv benchmark: seeded report and series workloads, one case at a time.

    python3 perfbench/run.py --workload eigen-reports --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; rsv is imported from its `src/`.  One
client runs the workload's cases back to back (a closed loop) for about
`--seconds`, in whole rounds of the workload's case sequence, checks every
output, and prints the end-to-end metrics as the last line of stdout, one
JSON object.  With `--trace 1` it instead runs one round with every public
rsv function wrapped by the span recorder in `tracer.py` and prints the
per-layer metrics; the counts in that round depend only on the seed.

Timings are "reference seconds": CPU seconds of the benchmark process (all
its threads), scaled by the machine speed that `speed.py` measures between
cases.  On a shared virtual machine both the wall clock (time given to other
guests) and raw CPU time (cores shared with them) drifted by 25-60% within
a minute; the wall-clock and raw CPU figures are printed and kept in the
result file beside the scaled ones.

Each run writes `perfbench/results/<workload>-seed<n>-trace<t>.json` (all
metrics, every case, the environment) and, traced, the spans next to it.
Workload reasoning and the layer -> metric predictions are in
`perfbench/predictions.json`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
WORK = HERE / "work"

# One BLAS thread: a second one only added scheduler noise to the eigen
# solves on a 2-core machine.  The CLI sweep pool is the only other source
# of threads, bounded by the CPU count.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# environment overrides rsv reads; unset so the configs alone decide
RSV_VARS = ("RSV_FD_H", "RSV_QUAD_ORDER")
# Read by the interpreter and by glibc malloc at process start only.  The
# hash seed fixes set order, and with it the order of large allocations; a
# fixed mmap threshold stops malloc from raising it after the first big free
# and then keeping freed 20 MB harmonic tables resident.  Without both, the
# peak RSS of one input jumped between 100 and 119 MB from run to run.
START_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(4 << 20)}

SETUP_PROBES = 5
# Tail percentile per workload: the highest of 60/70/75/80/90/95/99 with at
# least ten cases beyond it in every run at the commit that defined the
# benchmark (torsion-reports, about 100 cases).  eigen-reports and
# series-scan run fewer than 20 cases, so no percentile above the median
# has ten beyond it; they report p90, whose run-to-run spread was a third
# of the maximum's.  The result file records the cases beyond it.
TAIL_PERCENTILE = {"eigen-reports": 90, "torsion-reports": 80, "series-scan": 90}
# share of --seconds that a traced run spends re-running cases untraced
OVERHEAD_SHARE = 0.25


def pin_environment() -> None:
    """Fix BLAS threads, START_ENV and rsv overrides; re-executes this
    script once when START_ENV differs, because only a fresh process reads
    it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in RSV_VARS:
        os.environ.pop(var, None)
    if any(os.environ.get(var) != value for var, value in START_ENV.items()):
        os.environ.update(START_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def environment_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "pinned_env": {var: os.environ.get(var) for var in (*THREAD_VARS, *START_ENV)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_case(case, gauge, tracer=None) -> dict:
    """Record of one case; only work() is on the clocks."""
    from workloads import Verdict

    case.prepare()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            result = case.work()
        else:
            result = tracer.case(f"case.{case.name}", case.work)
        failure = None
    except Exception as exc:  # a failed case is recorded, the loop goes on
        failure = Verdict(False, f"{type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    verdict = failure or case.check(result)
    return {
        "case": case.name,
        "ref_s": gauge.scale(cpu),
        "cpu_s": cpu,
        "wall_s": wall,
        "ok": verdict.ok,
        "defect": verdict.defect,
        "digits": verdict.digits,
        "detail": verdict.detail,
    }


def setup_probe(args) -> int:
    """Imports, input generation and warm-up, as a fresh process does them."""
    import workloads

    work = WORK / args.workload / "probe"
    workloads.WORKLOADS[args.workload].round(args.seed, 0, work)
    workloads.warm_up(args.workload, work)
    return 0


def measure_setup(args, gauge) -> list[dict]:
    """Set-up of SETUP_PROBES fresh processes: CPU (user + sys), scaled to
    reference seconds, and wall."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - wall
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        samples.append({"ref_s": gauge.scale(cpu), "cpu_s": cpu, "wall_s": wall})
    return samples


def untraced_loop(workload, seed, seconds, first_round, work, gauge):
    """Whole rounds, as many as bring the measured time closest to `seconds`
    (at least one), so that every run has the same mix of case types."""
    records = []
    start = time.perf_counter()
    cases, r = first_round, 0
    while True:
        records.extend(run_case(case, gauge) for case in cases)
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= seconds:
            return records
        cases = workload.round(seed, r, work)


def traced_round(cases: list, budget: float, package, gauge):
    """One traced round.  While `budget` seconds of untraced time remain,
    the cases at odd positions also run untraced, alternating which copy goes
    first, to set the traced throughput against the untraced one.  (Odd
    positions skip the first case, which is the costliest in the report
    workloads, so the budget buys several pairs.)"""
    from tracer import Tracer

    tracer = Tracer()
    records, pairs = [], []
    untraced_total = 0.0
    for j, case in enumerate(cases):
        paired = j % 2 == 1 and untraced_total < budget
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        seconds = {}
        for traced in order if paired else (True,):
            if traced:
                tracer.install(package)
                try:
                    record = run_case(case, gauge, tracer)
                finally:
                    tracer.uninstall()
                records.append(record)
            else:
                record = run_case(case, gauge)
                untraced_total += record["ref_s"]
                if not record["ok"] and record["defect"] is None:
                    record["case"] += " (untraced copy)"
                    records.append(record)
            seconds[traced] = record["ref_s"]
        if paired:
            pairs.append((seconds[False], seconds[True]))
    return tracer, records, pairs


def verdict_summary(records) -> dict:
    failed = [r for r in records if not r["ok"]]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "correct": all(r["defect"] is not None for r in failed),
        "failures": [
            {"case": r["case"], "defect": r["defect"], "detail": r["detail"]} for r in failed
        ],
    }


def timing_metrics(records, key: str, p: float, suffix: str) -> dict:
    times = [r[key] for r in records]
    return {
        f"case_{suffix}.p50": (statistics.median(times), "s"),
        f"case_{suffix}.tail": (percentile(times, p), "s"),
        f"cases_per_{suffix}": (len(times) / sum(times), "1/s"),
    }


def end_to_end_metrics(workload: str, records, setup) -> tuple[dict, dict]:
    """(metrics printed as the result, wall-clock and raw CPU companions)."""
    p = TAIL_PERCENTILE[workload]
    digits = [r["digits"] for r in records if r["digits"] is not None]
    metrics = {"setup_s": (statistics.median(s["ref_s"] for s in setup), "s")}
    metrics.update(timing_metrics(records, "ref_s", p, "ref_s"))
    metrics.update({
        "pass_frac": (sum(r["ok"] for r in records) / len(records), "frac"),
        "min_match_digits": (min(digits), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    more = {"setup_wall_s": (statistics.median(s["wall_s"] for s in setup), "s")}
    more.update(timing_metrics(records, "wall_s", p, "s"))
    more.update(timing_metrics(records, "cpu_s", p, "cpu_s"))
    tail = percentile([r["ref_s"] for r in records], p)
    more["tail_cases_beyond"] = (sum(1 for r in records if r["ref_s"] > tail), "count")
    more["tail_percentile"] = (p, "%")
    return metrics, more


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rsv" / "__init__.py").is_file():
        print(f"no rsv sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import rsv

    if Path(rsv.__file__).resolve().parent != ROOT / "src" / "rsv":
        print(f"imported rsv from {rsv.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import speed

    gauge = speed.SpeedGauge()
    setup = measure_setup(args, gauge)
    workload = workloads.WORKLOADS[args.workload]
    work = WORK / args.workload / "main"
    first_round = workload.round(args.seed, 0, work)
    workloads.warm_up(args.workload, work)

    doc = {"environment": environment_record(args), "setup_samples": setup,
           "known_defects": workloads.KNOWN_DEFECTS}
    if args.trace:
        import layers

        tracer, records, pairs = traced_round(
            first_round, OVERHEAD_SHARE * args.seconds, rsv, gauge)
        metrics, extra = layers.per_layer_metrics(tracer, pairs)
        doc["overhead_pairs_ref_s"] = [{"untraced": u, "traced": t} for u, t in pairs]
    else:
        records = untraced_loop(workload, args.seed, args.seconds, first_round, work, gauge)
        metrics, extra = end_to_end_metrics(args.workload, records, setup)

    summary = verdict_summary(records)
    doc.update(summary)
    doc["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    doc["more_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
    doc["cases"] = records
    doc["reference_cpu_s"] = gauge.samples
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if args.trace:
        tracer.write(RESULTS / f"{stem}.spans.json")

    for name, (value, unit) in [*metrics.items(), *extra.items()]:
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    for failure in summary["failures"]:
        label = failure["defect"] or "UNEXPECTED"
        print(f"failed case {failure['case']} [{label}]: {failure['detail']}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
