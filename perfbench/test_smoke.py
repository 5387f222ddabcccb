"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced twice and traced once with one seed.  The
runs must pass their checks, produce identical estimates (only timings
may differ), and emit exactly the metrics BENCHMARK.json names, each
with its unit.  Not part of the tier-1 suite: it times nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(SEED),
            "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / "perfbench" / "out" / f"BENCH_{workload}_seed{SEED}_trace{trace}.json").read_text())
    return result, record


def _assert_metrics(result: dict, declared: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_seeded_checked_and_complete(workload):
    first, first_record = _run(workload, 0)
    second, second_record = _run(workload, 0)
    traced, traced_record = _run(workload, 1)
    for result in (first, second):
        _assert_metrics(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values())
    _assert_metrics(traced, SPEC["per_layer"])
    assert first_record["estimates"], "a workload must report its estimates"
    assert first_record["estimates"] == second_record["estimates"] == traced_record["estimates"]
    assert first_record["stamp"]["seed"] == SEED
