"""`tools/bench.py` reads perfbench's final JSON line and its result files;
nothing here runs the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CANNED = """\
series-scan      setup_s                                            0.6812 s
series-scan      cases_per_ref_s                                     21.3 1/s
failed case r0-03-n3 [UNEXPECTED]: general form 1.0 != series 2.0
{"correct": 80, "attempted": 81, "failed": 1, "metrics": {"setup_s": {"value": 0.6812, "unit": "s"}, "cases_per_ref_s": {"value": 21.3, "unit": "1/s"}, "pass_frac": {"value": 0.9876543209876543, "unit": "frac"}}}

"""


def test_parse_result_reads_the_last_json_line(bench):
    got = bench.parse_result(CANNED)
    assert got == {
        "correct": 80,
        "attempted": 81,
        "failed": 1,
        "metrics": {"setup_s": 0.6812, "cases_per_ref_s": 21.3, "pass_frac": 0.9876543209876543},
    }


@pytest.mark.parametrize(
    "stdout, message",
    [
        ("", "printed nothing"),
        ("series-scan setup_s 0.68 s\n", "not JSON"),
        ('{"correct": 3}\n', "no metrics"),
        ("[1, 2]\n", "no metrics"),
    ],
)
def test_parse_result_rejects_a_run_without_a_result_line(bench, stdout, message):
    with pytest.raises(ValueError, match=message):
        bench.parse_result(stdout)


def test_medians_per_workload(bench):
    runs = [
        {"workload": "series-scan", "metrics": {"cases_per_ref_s": v, "setup_s": 0.7}}
        for v in (20.0, 22.0, 21.0)
    ] + [{"workload": "eigen-reports", "metrics": {"cases_per_ref_s": 8.0}}]
    assert bench.medians(runs) == {
        "series-scan": {"cases_per_ref_s": 21.0, "setup_s": 0.7},
        "eigen-reports": {"cases_per_ref_s": 8.0},
    }


METRICS = [
    {"name": "cases_per_ref_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def synthetic_runs(workload, values):
    """One run per seed 1, 2, ... with the given (cases_per_ref_s, peak_rss_mb)."""
    return [
        {"workload": workload, "seed": seed, "metrics": {"cases_per_ref_s": c, "peak_rss_mb": m}}
        for seed, (c, m) in enumerate(values, 1)
    ]


def test_compare_counts_pairs_in_the_better_direction(bench):
    base = synthetic_runs(
        "series-scan", [(20.0, 90.0), (22.0, 91.0), (21.0, 92.0), (23.0, 93.0), (24.0, 94.0)]
    )
    change = synthetic_runs(
        "series-scan", [(25.0, 90.0), (21.0, 92.0), (21.0, 91.0), (26.0, 95.0), (27.0, 93.0)]
    )
    # alternated sides: pairs are matched by seed, not by position
    rows = bench.compare(change[::-1], base, METRICS)
    assert rows == [
        {
            "workload": "series-scan", "metric": "cases_per_ref_s",
            "won": 3, "lost": 1, "tied": 1,
            "median": 25.0, "base_median": 22.0, "base_quartiles": (21.0, 23.0),
        },
        {
            "workload": "series-scan", "metric": "peak_rss_mb",
            "won": 2, "lost": 2, "tied": 1,
            "median": 92.0, "base_median": 92.0, "base_quartiles": (91.0, 93.0),
        },
    ]
    text = bench.format_comparison(rows)
    assert text.splitlines()[1].split() == [
        "series-scan", "cases_per_ref_s", "3", "1", "1", "25", "22", "21", "..", "23",
    ]


def test_compare_keeps_workloads_apart_and_skips_unpaired_runs(bench):
    base = synthetic_runs("eigen-reports", [(8.0, 66.0)]) + synthetic_runs(
        "torsion-reports", [(60.0, 70.0), (62.0, 70.0)]
    )
    change = synthetic_runs("torsion-reports", [(61.0, 69.0), (61.0, 71.0), (99.0, 1.0)])
    change += synthetic_runs("eigen-reports", [(7.0, 66.0)])
    del change[-1]["metrics"]["peak_rss_mb"]
    rows = {(r["workload"], r["metric"]): r for r in bench.compare(change, base, METRICS)}
    # the third torsion run has no base partner; eigen has no peak_rss_mb pair
    assert set(rows) == {
        ("torsion-reports", "cases_per_ref_s"), ("torsion-reports", "peak_rss_mb"),
        ("eigen-reports", "cases_per_ref_s"),
    }
    torsion = rows["torsion-reports", "cases_per_ref_s"]
    assert (torsion["won"], torsion["lost"], torsion["tied"]) == (1, 1, 0)
    eigen = rows["eigen-reports", "cases_per_ref_s"]
    assert (eigen["lost"], eigen["base_quartiles"]) == (1, (8.0, 8.0))


def test_end_to_end_metrics_come_from_the_benchmark_file(bench):
    names = {m["name"]: m["better"] for m in bench.end_to_end_metrics()}
    assert names["cases_per_ref_s"] == "higher" and names["peak_rss_mb"] == "lower"


def write_result(root, workload, seed, cases):
    """A perfbench result file under `root` holding `cases`, each given as
    (case id, digits, cpu_s)."""
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [{"case": c, "digits": d, "cpu_s": s, "ok": True} for c, d, s in cases]
    env = {"pinned_env": {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}}
    path.write_text(json.dumps({"environment": env, "cases": records}))


def test_compare_cases_pairs_case_ids_both_sides_ran(bench, tmp_path):
    change, base = tmp_path / "change", tmp_path / "base"
    # the change ran one round more on seed 1; seed 2 has no base file
    write_result(change, "eigen-reports", 1, [
        ("r0-00-n2-sweep", 9.5, 0.10), ("r0-01-n3-sweep", 10.0, 0.20),
        ("r1-00-n2-sweep", 12.0, 0.30), ("r1-01-n3-steklov", None, 0.01),
        ("r2-00-n2-sweep", 1.0, 0.50),
    ])
    write_result(base, "eigen-reports", 1, [
        ("r0-00-n2-sweep", 9.0, 0.12), ("r0-01-n3-sweep", 10.0, 0.18),
        ("r1-00-n2-sweep", 12.5, 0.34), ("r1-01-n3-steklov", None, 0.02),
    ])
    write_result(change, "eigen-reports", 2, [("r0-00-n2-sweep", 9.0, 0.1)])
    runs = [{"workload": "eigen-reports", "seed": seed} for seed in (1, 2)]
    got = bench.compare_cases(bench.case_records(change, runs), bench.case_records(base, runs))
    w = got["eigen-reports"]
    assert (w["common"], w["same"], w["rose"], w["fell"]) == (4, 2, 1, 1)
    assert w["largest_fall"] == 0.5
    # minima over the common cases only: the change's 1.0 of round 2 is not one
    assert w["min_digits"] == {"1": [9.5, 9.0]}
    assert w["cpu_s"] == {
        "n2-sweep": [pytest.approx(0.2), pytest.approx(0.23)],
        "n3-sweep": [0.2, 0.18],
        "n3-steklov": [0.01, 0.02],
    }
    # one seed has no seed-to-seed spread, so every difference counts
    assert w["cpu_s_noise"] == {"n2-sweep": 0.0, "n3-sweep": 0.0, "n3-steklov": 0.0}
    assert (w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"]) == (2, 1, 0)
    text = bench.format_case_comparison(got).splitlines()[1].split()
    assert text[:6] == ["eigen-reports", "4", "2", "1", "1", "0.5"]
    assert text[-1] == "1:9.50/9.00"
    assert bench.blas_threads(change, "eigen-reports", 1) == {"OPENBLAS_NUM_THREADS": "1"}
    assert bench.blas_threads(base, "eigen-reports", 2) is None


def test_a_value_lost_is_a_fall(bench, tmp_path):
    change, base = tmp_path / "change", tmp_path / "base"
    write_result(change, "torsion-reports", 3, [("r0-00-n2-surface", None, 0.1)])
    write_result(base, "torsion-reports", 3, [("r0-00-n2-surface", 11.0, 0.1)])
    runs = [{"workload": "torsion-reports", "seed": 3}]
    w = bench.compare_cases(bench.case_records(change, runs), bench.case_records(base, runs))
    w = w["torsion-reports"]
    assert (w["same"], w["rose"], w["fell"], w["largest_fall"]) == (0, 0, 1, 0.0)
    assert w["min_digits"] == {"3": [None, 11.0]}
    assert (w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"]) == (0, 0, 1)


# per-seed cpu_s of one case name, spread about +-8% from seed to seed
SEED_CPU = [0.100, 0.104, 0.097, 0.110, 0.093, 0.101, 0.106, 0.095, 0.099, 0.103]


def compared_case(bench, tmp_path, change_cpu):
    """compare_cases on one case name over ten seeds, base `SEED_CPU`."""
    change, base = tmp_path / "change", tmp_path / "base"
    for seed, (new, old) in enumerate(zip(change_cpu, SEED_CPU), 1):
        write_result(change, "eigen-reports", seed, [("r0-00-n2-sweep", 9.0, new)])
        write_result(base, "eigen-reports", seed, [("r0-00-n2-sweep", 9.0, old)])
    runs = [{"workload": "eigen-reports", "seed": seed} for seed in range(1, 11)]
    got = bench.compare_cases(bench.case_records(change, runs), bench.case_records(base, runs))
    return got


def test_a_case_name_inside_the_seed_noise_reads_tied(bench, tmp_path):
    # the same spread in another seed order, 2% slower: not a move
    got = compared_case(bench, tmp_path, [1.02 * t for t in SEED_CPU[::-1]])
    w = got["eigen-reports"]
    assert w["cpu_s_noise"] == {"n2-sweep": pytest.approx(1.02 * (0.10375 - 0.0975))}
    assert (w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"]) == (0, 0, 1)
    assert bench.format_case_comparison(got).splitlines()[1].split()[6] == "0/0/1"


def test_a_case_name_20_percent_faster_reads_won(bench, tmp_path):
    w = compared_case(bench, tmp_path, [0.8 * t for t in SEED_CPU])["eigen-reports"]
    assert (w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"]) == (1, 0, 0)
    w = compared_case(bench, tmp_path, [1.2 * t for t in SEED_CPU])["eigen-reports"]
    assert (w["cpu_s_won"], w["cpu_s_lost"], w["cpu_s_tied"]) == (0, 1, 0)


@pytest.mark.parametrize("where", ["plain directory", "inside a checkout"])
def test_a_base_that_is_not_a_checkout_is_refused_before_any_run(bench, tmp_path, monkeypatch, capsys, where):
    def no_run(*args, **kwargs):
        raise AssertionError("a perfbench run started")

    monkeypatch.setattr(bench, "run_perfbench", no_run)
    monkeypatch.setattr(bench, "ROOT", tmp_path)  # any BENCH file would land here
    base = tmp_path / "base" if where == "plain directory" else BENCH.parent
    base.mkdir(exist_ok=True)
    with pytest.raises(SystemExit) as exc:
        bench.main(["change", "--base", str(base), "--base-tag", "parent"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--base {base}" in err and "not the root of a git checkout" in err
    assert not list(tmp_path.glob("BENCH_*.json"))
