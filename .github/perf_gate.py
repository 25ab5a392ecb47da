#!/usr/bin/env python3
"""Performance gate: a change tree against its parent tree, on e2ebench.

    python3 .github/perf_gate.py PARENT_TREE CHANGE_TREE

Each argument is the root of a checkout of the repository.  For each
gated workload the gate runs each tree's own ``BENCHMARK.json``
``command`` from that tree's root, with ``--workload W --seed S
--seconds <run_seconds> --trace 0``, in ``PAIRS`` pairs.  Both runs of a
pair use the same seed, and the side that runs first alternates from
pair to pair, so a drift in host speed falls on both sides alike;
e2ebench itself scales its rates by the host speed it sampled while it
ran.

It prints one row per (workload, metric) cell with each side's median
and quartiles, and exits 1 when

* a change run reports failed ops (``failed > 0`` or ``"correct":
  false``), or
* the change median of an ``end_to_end`` metric is worse than the parent
  median by more than that metric's ``bound``.

Before the first pair, each tree's ``src/`` is byte-compiled once with
the interpreter its command names.  Where ``PYTHONDONTWRITEBYTECODE`` is
set, a module with no current ``__pycache__`` entry is otherwise
compiled again by every fresh interpreter, and e2ebench's ``setup_s``
times one, so a tree whose edited modules were never compiled would
read slower for that alone.  A failed compile stops the gate and names
the tree.

Comparing medians means one outlying pair cannot fail the gate.  The
``run_seconds`` and the metrics with their bounds come from the parent's
``BENCHMARK.json``, so a change cannot loosen the bar it is held to.  A
parent run that reports failed ops, or a run of either tree that prints
no result, stops the gate with exit 1 and a message naming the tree.

``grid-warm`` is not gated: runs of one unchanged tree spread by about
±45%, wider than any of its bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("grid-long", "grid-short", "fuzz-matrix")
PAIRS = 5


class GateError(Exception):
    """The gate cannot judge the change: a run printed no result, or the
    parent itself failed."""


def load_spec(tree: Path) -> Dict:
    return json.loads((tree / "BENCHMARK.json").read_text())


def result_of(stdout: str, what: str) -> Dict:
    """The one-line JSON result that ends an e2ebench run's output;
    ``what`` names the run in the error when there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise GateError(f"{what} printed no result") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise GateError(f"{what} printed no result")
    return result


def run_once(tree: Path, command: Sequence[str], workload: str, seed: int,
             seconds: float, what: str) -> Dict:
    """One e2ebench run of ``tree``; its output goes to this process's
    stderr and its result is returned."""
    process = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    sys.stderr.write(process.stdout)
    if process.returncode != 0:
        raise GateError(f"{what} exited {process.returncode}")
    return result_of(process.stdout, what)


def compile_tree(tree: Path, python: str, side: str) -> None:
    """Byte-compile ``tree``'s ``src/`` with ``python``; its output goes
    to this process's stderr."""
    process = subprocess.run(
        [python, "-m", "compileall", "-q", "src"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    sys.stderr.write(process.stdout)
    if process.returncode != 0:
        raise GateError(f"compiling the {side} tree's src exited {process.returncode}")


def failed(result: Dict) -> bool:
    return result["failed"] > 0 or not result["correct"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge(workload: str, metrics: Sequence[Dict], parent: Sequence[Dict],
          change: Sequence[Dict]) -> Tuple[List[str], List[str]]:
    """Table rows and failure messages for one workload's runs; a parent
    run with failed ops raises :class:`GateError`."""
    for index, result in enumerate(parent, 1):
        if failed(result):
            raise GateError(
                f"the parent tree's {workload} run {index} reported "
                f"{result['failed']} failed of {result['attempted']} ops; "
                f"the parent is broken, so the change cannot be judged against it"
            )
    failures = [
        f"{workload}: change run {index} reported {result['failed']} failed "
        f"of {result['attempted']} ops"
        for index, result in enumerate(change, 1) if failed(result)
    ]
    rows = []
    for metric in metrics:
        name = metric["name"]
        before = quartiles([result["metrics"][name]["value"] for result in parent])
        after = quartiles([result["metrics"][name]["value"] for result in change])
        delta = (after[1] - before[1]) / before[1]
        worse = -delta if metric["better"] == "higher" else delta
        verdict = "FAIL" if worse > metric["bound"] else "ok"
        rows.append(
            f"{workload:<12} {name:<12} {_cell(before):>33} {_cell(after):>33} "
            f"{delta:>+8.1%} {metric['bound']:>6.0%}  {verdict}"
        )
        if verdict == "FAIL":
            failures.append(
                f"{workload} {name}: change median {after[1]:.4g} is "
                f"{abs(delta):.1%} worse than the parent's {before[1]:.4g} "
                f"(bound {metric['bound']:.0%})"
            )
    return rows, failures


def _cell(quartile: Tuple[float, float, float]) -> str:
    q1, median, q3 = quartile
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


HEADER = (
    f"{'workload':<12} {'metric':<12} {'parent median [q1, q3]':>33} "
    f"{'change median [q1, q3]':>33} {'change':>8} {'bound':>6}  verdict"
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the change tree")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = load_spec(trees["parent"])
    commands = {side: load_spec(tree)["command"] for side, tree in trees.items()}
    started = time.monotonic()
    rows: List[str] = []
    failures: List[str] = []
    try:
        for side, tree in trees.items():
            compile_tree(tree, commands[side][0], side)
        for workload in WORKLOADS:
            results: Dict[str, List[Dict]] = {"parent": [], "change": []}
            for pair in range(PAIRS):
                seed = pair + 1
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    what = f"the {side} tree's {workload} run (seed {seed})"
                    result = run_once(trees[side], commands[side], workload, seed,
                                      spec["run_seconds"], what)
                    results[side].append(result)
                    print(f"{workload} pair {pair + 1}/{PAIRS} {side:<6}: "
                          f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}, "
                          f"{result['failed']} failed "
                          f"({time.monotonic() - started:.0f} s)", flush=True)
            workload_rows, workload_failures = judge(
                workload, spec["end_to_end"], results["parent"], results["change"]
            )
            rows += workload_rows
            failures += workload_failures
    except GateError as error:
        print(f"perf gate: {error}", file=sys.stderr)
        return 1
    print("\n".join(["", HEADER, *rows, ""]))
    for failure in failures:
        print(f"FAIL {failure}")
    verdict = "FAIL" if failures else "pass"
    print(f"perf gate: {verdict} after {time.monotonic() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
