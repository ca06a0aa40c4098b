"""The benchmark's own check: two traced runs with one seed count the same.

    python3 -m pytest perfbench/test_counters.py

Every metric with unit `count` (solves, sigma evaluations, Bessel calls,
spherical-harmonic calls, quadrature builds, ...) comes from one full traced
round whose inputs depend only on the seed, so it must repeat exactly.
The eigen-reports round takes about a minute per run.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["torsion-reports", "series-scan", "eigen-reports"])
def test_counters_repeat_for_a_seed(workload):
    first = traced_counts(workload, 7)
    assert first and any(first.values())
    assert traced_counts(workload, 7) == first
