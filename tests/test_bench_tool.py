"""`tools/bench.py` reads perfbench's final JSON line; nothing here runs
the benchmark."""

import importlib.util
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
