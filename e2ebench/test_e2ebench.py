"""Self-test of the benchmark, at the smallest sizes that still exercise
every workload.  Run from the repository root::

    python3 -m pytest e2ebench/test_e2ebench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = run.Scale(
    long_benchmarks=("gobmk",),
    short_benchmarks=("gobmk", "cam4_s"),
    schemes=("unsafe", "dom+ap"),
    fuzz_programs=5,
)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def printed(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_printed_and_traced_outputs_identical(workload, capsys):
    plain = run.run_workload(workload, 3, 0, trace=False, scale=TINY)
    run.emit(workload, plain)
    result = printed(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run_workload(workload, 3, 0, trace=True, scale=TINY)
    run.emit(workload, traced)
    result = printed(capsys)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units

    reference = plain.untraced[0].outputs
    assert reference
    assert traced.untraced[0].outputs == reference
    assert traced.traced[0].outputs == reference


@pytest.mark.parametrize("workload", ["grid-short", "grid-warm"])
def test_one_altered_recorded_counter_is_a_failed_op(workload, capsys):
    altered = copy.deepcopy(run.load_expected())
    altered["short"]["gobmk/dom+ap"]["l1_hits"] += 1
    outcome = run.run_workload(workload, 3, 0, trace=False, scale=TINY, expected=altered)
    run.emit(workload, outcome)
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert "failed_ratio" in out and "1 failed of 4 attempted" in out
