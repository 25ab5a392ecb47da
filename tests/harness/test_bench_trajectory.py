"""The schema of ``BENCH_e2ebench.json``, the benchmark trajectory.

Each entry records one change that claimed a performance gain, measured
with the benchmark that ``BENCHMARK.json`` declares:

* ``pr`` (its pull-request number), ``commit``, ``parent`` and ``claim``
  (``metric``, ``workload``);
* ``runs``: per workload, the seeds (one per alternating parent/change
  pair), the pair count, the failed ops, the wins per end-to-end metric
  where they were counted, and the parent and change ``median``, ``q1``
  and ``q3`` of all four end-to-end metrics (null where not recorded);
* ``traced``: per traced workload and seed, the layer figures quoted,
  each as ``metric`` divided by ``base`` in ``unit`` (``base`` null: the
  metric's total over the traced run, in its own unit), with the base's
  value on each side where it was quoted.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = json.loads((ROOT / "BENCH_e2ebench.json").read_text())
ENTRIES = TRAJECTORY["entries"]

WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
METRICS = {
    metric["name"]: metric
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
UNITS = {metric["unit"] for metric in METRICS.values()}
SIDES = ("parent", "change")


RUNS = [
    pytest.param(run, id=f"pr{entry['pr']}-{run['workload']}")
    for entry in ENTRIES
    for run in entry["runs"]
]
FIGURES = [
    pytest.param(traced, figure, id=f"pr{entry['pr']}-{figure['metric']}/{figure['base']}")
    for entry in ENTRIES
    for traced in entry["traced"]
    for figure in traced["figures"]
]


def test_pr_numbers_strictly_increase():
    numbers = [entry["pr"] for entry in ENTRIES]
    assert numbers and all(a < b for a, b in zip(numbers, numbers[1:]))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: f"pr{entry['pr']}")
def test_claim_is_met_on_its_workload(entry):
    metric, workload = entry["claim"]["metric"], entry["claim"]["workload"]
    assert metric in END_TO_END and workload in WORKLOADS
    (run,) = [run for run in entry["runs"] if run["workload"] == workload]
    parent, change = (run["metrics"][metric][side]["median"] for side in SIDES)
    assert parent is not None and change is not None
    if END_TO_END[metric]["better"] == "higher":
        assert change > parent
    else:
        assert change < parent


@pytest.mark.parametrize("run", RUNS)
def test_run_names_its_workload_and_metrics(run):
    assert run["workload"] in WORKLOADS
    assert len(run["seeds"]) == run["pairs"] >= 1
    assert run["failed"] >= 0
    assert set(run["metrics"]) == set(END_TO_END)
    assert set(run["wins"]) <= set(END_TO_END)
    assert all(0 <= wins <= run["pairs"] for wins in run["wins"].values())


@pytest.mark.parametrize("run", RUNS)
def test_quartiles_bracket_the_median(run):
    for sides in run["metrics"].values():
        for side in SIDES:
            stats = sides[side]
            assert set(stats) == {"median", "q1", "q3"}
            if stats["q1"] is not None or stats["q3"] is not None:
                assert stats["q1"] <= stats["median"] <= stats["q3"]


@pytest.mark.parametrize("traced,figure", FIGURES)
def test_traced_figure_names_its_metric_base_and_unit(traced, figure):
    assert traced["workload"] in WORKLOADS
    assert figure["metric"] in METRICS
    assert figure["unit"] in UNITS
    if figure["base"] is None:
        assert figure["unit"] == METRICS[figure["metric"]]["unit"]
        assert "parent_base" not in figure and "change_base" not in figure
    else:
        assert figure["base"] in METRICS
    assert figure["parent"] is not None or figure["change"] is not None
