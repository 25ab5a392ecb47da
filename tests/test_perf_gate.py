"""The CI performance gate's decision rule (``.github/perf_gate.py``).

The gate is a script outside the package, so it is loaded by its path.
Every case feeds it synthetic e2ebench result lines; nothing here runs
the benchmark.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / ".github" / "perf_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT = {"ops_per_s": 10.0, "sim_ips": 50_000.0, "setup_s": 0.15,
          "peak_rss_mb": 250.0}


def line(failed=0, correct=None, **changes):
    """One e2ebench result line: the parent's figures with ``changes``."""
    values = {**PARENT, **changes}
    return json.dumps({
        "correct": failed == 0 if correct is None else correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "u"}
                    for name, value in values.items()},
    })


def runs(*lines):
    return [gate.result_of(f"e2ebench report\n{text}\n", "run") for text in lines]


def judge(change, parent=None):
    parent = runs(*[line()] * 5) if parent is None else parent
    return gate.judge("grid-long", METRICS, parent, change)


def test_a_change_within_its_bound_passes():
    rows, failures = judge(runs(*[line(ops_per_s=8.0, peak_rss_mb=270.0)] * 5))
    assert failures == []
    assert len(rows) == len(METRICS)
    assert all(row.endswith("ok") for row in rows)


@pytest.mark.parametrize("metric, value", [
    ("ops_per_s", 7.0),      # higher is better: 30% down, bound 25%
    ("peak_rss_mb", 280.0),  # lower is better: 12% up, bound 10%
])
def test_a_change_beyond_its_bound_fails(metric, value):
    rows, failures = judge(runs(*[line(**{metric: value})] * 5))
    assert len(failures) == 1
    assert failures[0].startswith(f"grid-long {metric}:")
    assert [row.split()[1] for row in rows if row.endswith("FAIL")] == [metric]


def test_an_improvement_never_fails():
    better = line(ops_per_s=30.0, sim_ips=150_000.0, setup_s=0.01,
                  peak_rss_mb=100.0)
    assert judge(runs(*[better] * 5))[1] == []


@pytest.mark.parametrize("bad", [line(failed=2), line(correct=False)])
def test_a_change_run_with_failed_ops_fails(bad):
    failures = judge(runs(line(), line(), bad, line(), line()))[1]
    assert failures == ["grid-long: change run 3 reported "
                        f"{json.loads(bad)['failed']} failed of 100 ops"]


def test_a_failing_parent_stops_the_gate_and_is_blamed():
    parent = runs(line(), line(failed=1), line(), line(), line())
    with pytest.raises(gate.GateError, match="the parent tree's grid-long run 2"):
        judge(runs(*[line()] * 5), parent=parent)


def test_one_outlier_pair_does_not_fail_the_gate():
    change = runs(line(), line(), line(ops_per_s=2.0, peak_rss_mb=900.0),
                  line(), line())
    assert judge(change)[1] == []


def test_a_run_without_a_result_line_stops_the_gate():
    with pytest.raises(gate.GateError, match="the change tree's run printed no result"):
        gate.result_of("Traceback (most recent call last):\n", "the change tree's run")


FAKE_E2EBENCH = """\
import glob, json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
compiled = sorted(Path(path).parts[-4]
                  for path in glob.glob("../*/src/__pycache__/module.*.pyc"))
with open({log!r}, "a") as log:
    log.write(f"{side} {{args['--workload']}} {{args['--seed']}} "
              f"{{args['--seconds']}} {{','.join(compiled) or '-'}}\\n")
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{
    name: {{"value": {scale} * value, "unit": "u"}}
    for name, value in {figures!r}.items()}}}}))
"""


def fake_tree(path, side, log, scale, run_seconds=1, bound=None):
    """A tree whose benchmark command prints a fixed result, its
    higher-is-better figures times ``scale``, and logs each call with
    the sibling trees whose ``src/module.py`` is byte-compiled by then;
    its ``BENCHMARK.json`` gives ``run_seconds`` and, if set, ``bound``
    as every metric's bound."""
    path.mkdir()
    (path / "src").mkdir()
    (path / "src" / "module.py").write_text("VALUE = 1\n")
    figures = {"ops_per_s": 10.0, "sim_ips": 50_000.0}
    (path / "fake.py").write_text(
        FAKE_E2EBENCH.format(log=str(log), side=side, scale=scale, figures=figures)
    )
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "fake.py"],
        "run_seconds": run_seconds,
        "end_to_end": [{**m, "bound": m["bound"] if bound is None else bound}
                       for m in METRICS if m["name"] in figures],
    }))
    return path


def test_pairs_share_a_seed_alternate_their_order_and_fail_a_halved_change(
        tmp_path, capsys):
    log = tmp_path / "calls.log"
    parent = fake_tree(tmp_path / "parent", "parent", log, 1.0)
    change = fake_tree(tmp_path / "change", "change", log, 0.5)
    assert gate.main([str(parent), str(change)]) == 1
    calls = [entry.split() for entry in log.read_text().splitlines()]
    expected = []
    for workload in gate.WORKLOADS:
        for pair in range(gate.PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            expected += [[side, workload, str(pair + 1), "1", "change,parent"]
                         for side in order]
    assert calls == expected
    out = capsys.readouterr().out
    failing = [row.split()[:2] for row in out.splitlines() if row.endswith("FAIL")]
    assert failing == [[workload, metric] for workload in gate.WORKLOADS
                       for metric in ("ops_per_s", "sim_ips")]
    assert "perf gate: FAIL" in out


def test_a_tree_that_does_not_compile_stops_the_gate_before_any_run(
        tmp_path, capsys):
    log = tmp_path / "calls.log"
    parent = fake_tree(tmp_path / "parent", "parent", log, 1.0)
    change = fake_tree(tmp_path / "change", "change", log, 1.0)
    (change / "src" / "broken.py").write_text("VALUE = (\n")
    assert gate.main([str(parent), str(change)]) == 1
    assert ("perf gate: compiling the change tree's src exited 1"
            in capsys.readouterr().err)
    assert not log.exists()


def test_the_parent_tree_sets_the_bounds_and_run_seconds(tmp_path, capsys):
    """A change cannot loosen the bar it is held to."""
    log = tmp_path / "calls.log"
    parent = fake_tree(tmp_path / "parent", "parent", log, 1.0)
    change = fake_tree(tmp_path / "change", "change", log, 0.5,
                       run_seconds=99, bound=0.9)
    assert gate.main([str(parent), str(change)]) == 1
    seconds = {entry.split()[3] for entry in log.read_text().splitlines()}
    assert seconds == {"1"}
    assert "perf gate: FAIL" in capsys.readouterr().out


def test_a_run_that_exits_nonzero_stops_the_gate_and_names_its_tree(
        tmp_path, capsys):
    parent = fake_tree(tmp_path / "parent", "parent", tmp_path / "calls.log", 1.0)
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", "import sys; sys.exit(3)"],
    }))
    assert gate.main([str(parent), str(change)]) == 1
    assert ("perf gate: the change tree's grid-long run (seed 1) exited 3"
            in capsys.readouterr().err)


@pytest.mark.parametrize("count", [1, 3])
def test_the_gate_takes_exactly_two_tree_paths(tmp_path, count, capsys):
    with pytest.raises(SystemExit) as exit_info:
        gate.main([str(tmp_path)] * count)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
