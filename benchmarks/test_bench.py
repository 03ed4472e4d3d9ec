"""Self-test of the benchmark: every workload at a tiny size.

Run from the root of a checkout:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_printed(out: str, result: dict, metrics: list[dict]) -> None:
    assert result["correct"], out
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        line = next(ln for ln in out.splitlines() if ln.strip().startswith(f"{name} = "))
        assert line.endswith(f" {unit}"), line


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    out, result = _run(workload, 0)
    _assert_printed(out, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "  cer = " in out and "  fail_rate = 0 ratio" in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counters(workload):
    out, first = _run(workload, 1)
    again, second = _run(workload, 1)
    _assert_printed(out, first, SPEC["per_layer"])
    values = {k: v["value"] for k, v in first["metrics"].items()}
    self_time = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert 0 < self_time <= values["trace.wall_s"]

    def counters(result):
        return {
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_frac"
        }

    assert counters(first) == counters(second)
    assert out.splitlines()[0].split("hyp_digest=")[1] == again.splitlines()[0].split("hyp_digest=")[1]
