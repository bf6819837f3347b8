"""The benchmark's own tests: exact repeats, and refusal without a program.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at ``--size tiny`` twice with one seed; the outcome
metrics and the per-status counts must be identical.  A third run with
another seed must change them, which shows they are computed rather
than constant.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT = ("stored_bytes_ratio", "distribute_latency_s", "restore_error_digits", "ok_frac")


def run(workload: str, seed: int, *, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def outcome(workload: str, seed: int) -> tuple:
    proc = run(workload, seed)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    report = json.loads(
        (ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    exact = {k: result["metrics"][k]["value"] for k in EXACT}
    counts = report["outcomes"].get("outcome_counts", {})
    return exact, counts, result["attempted"], result["failed"]


@pytest.mark.parametrize("workload", ["archive-8m", "archive-32m", "service-mixed"])
def test_outcomes_repeat_exactly(workload):
    first = outcome(workload, 1)
    assert outcome(workload, 1)[:2] == first[:2]
    other = outcome(workload, 2)
    assert other[0] != first[0], "outcome metrics do not depend on the seed"


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run("archive-8m", 1, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
