"""Export figure results to CSV and Markdown, plus drill-down reports.

The figure objects (:mod:`repro.harness.experiments`) render fixed-width
text for terminals; downstream users usually want the series as data.
These helpers emit:

* CSV — one row per benchmark, one column per scheme/metric;
* Markdown — GitHub-renderable tables (used to refresh EXPERIMENTS.md);
* a per-benchmark report explaining a single benchmark's behaviour in
  terms of the scheme-internal counters.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Mapping, Optional, Sequence

from repro.common.stats import RunResult
from repro.harness.experiments import (
    Figure6Result,
    Figure7Result,
    Figure8Result,
    SummaryResult,
)
from repro.harness.parallel import ParallelSession


# ----------------------------------------------------------------------
# RunResult serialization (worker processes, the on-disk cache, tooling)
# ----------------------------------------------------------------------
def run_result_to_json(result: RunResult) -> str:
    """Serialize one run to a canonical (sorted-key) JSON document."""
    return json.dumps(result.to_dict(), sort_keys=True)


def run_result_from_json(text: str) -> RunResult:
    """Inverse of :func:`run_result_to_json`; exact round trip."""
    return RunResult.from_dict(json.loads(text))


def sweep_to_csv(results: Sequence[RunResult]) -> str:
    """A sweep as CSV: labels, windows, then every raw counter."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if not results:
        return ""
    counter_names = sorted(results[0].stats.as_dict())
    writer.writerow(["benchmark", "scheme", "warmup", "measure", *counter_names])
    for result in results:
        stats = result.stats.as_dict()
        writer.writerow(
            [
                result.benchmark,
                result.scheme,
                result.metadata.get("warmup", ""),
                result.metadata.get("measure", ""),
                *(stats[name] for name in counter_names),
            ]
        )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def figure6_to_csv(result: Figure6Result) -> str:
    """Figure 6 as CSV: benchmark, then one normalized-IPC column per
    scheme, with a final GMEAN row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["benchmark", *result.schemes])
    for benchmark, row in result.rows.items():
        writer.writerow([benchmark, *(f"{row[s]:.4f}" for s in result.schemes)])
    writer.writerow(["GMEAN", *(f"{result.gmean[s]:.4f}" for s in result.schemes)])
    return buffer.getvalue()


def figure7_to_csv(result: Figure7Result) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["benchmark", "coverage", "accuracy"])
    for benchmark in result.coverage:
        writer.writerow(
            [
                benchmark,
                f"{result.coverage[benchmark]:.4f}",
                f"{result.accuracy[benchmark]:.4f}",
            ]
        )
    writer.writerow(
        ["GMEAN", f"{result.gmean_coverage:.4f}", f"{result.gmean_accuracy:.4f}"]
    )
    return buffer.getvalue()


def figure8_to_csv(result: Figure8Result) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    header = ["benchmark"]
    for scheme in result.schemes:
        header.extend([f"l1:{scheme}", f"l2:{scheme}"])
    writer.writerow(header)
    for benchmark in result.l1:
        row = [benchmark]
        for scheme in result.schemes:
            row.append(f"{result.l1[benchmark][scheme]:.4f}")
            row.append(f"{result.l2[benchmark][scheme]:.4f}")
        writer.writerow(row)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def figure6_to_markdown(result: Figure6Result) -> str:
    rows = [
        [benchmark, *(f"{row[s]:.3f}" for s in result.schemes)]
        for benchmark, row in result.rows.items()
    ]
    rows.append(["**GMEAN**", *(f"{result.gmean[s]:.3f}" for s in result.schemes)])
    return _markdown_table(["benchmark", *result.schemes], rows)


def summary_to_markdown(result: SummaryResult) -> str:
    rows = [
        [scheme, f"{result.paper_gmean[scheme]:.3f}", f"{result.gmean[scheme]:.3f}"]
        for scheme in ("nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap")
    ]
    table = _markdown_table(["scheme", "paper", "measured"], rows)
    reductions = _markdown_table(
        ["scheme", "paper reduction", "measured reduction"],
        [
            [
                scheme,
                f"{result.paper_reduction[scheme]:.1%}",
                f"{result.slowdown_reduction[scheme]:.1%}",
            ]
            for scheme in ("nda", "stt", "dom")
        ],
    )
    return table + "\n\n" + reductions


# ----------------------------------------------------------------------
# Per-benchmark drill-down
# ----------------------------------------------------------------------
def benchmark_report(
    session: ParallelSession,
    benchmark: str,
    schemes: Sequence[str] = ("nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap"),
) -> str:
    """Explain one benchmark: normalized IPC next to the scheme-internal
    counters that cause it."""
    baseline = session.run(benchmark, "unsafe")
    lines = [
        f"# {benchmark}",
        f"baseline IPC {baseline.ipc:.3f}; "
        f"{baseline.stats.l1_misses} L1 misses / "
        f"{baseline.stats.committed_loads} loads; "
        f"{baseline.stats.branch_mispredictions} mispredicts",
        "",
        f"{'scheme':<9}{'normIPC':>8}{'cov':>6}{'acc':>6}"
        f"{'domDelay':>9}{'ndaLock':>9}{'sttDelay':>9}{'dlIssued':>9}",
    ]
    for scheme in schemes:
        result = session.run(benchmark, scheme)
        stats = result.stats
        lines.append(
            f"{scheme:<9}"
            f"{session.normalized_ipc(benchmark, scheme):>8.3f}"
            f"{stats.coverage:>5.0%}{stats.accuracy:>6.0%}"
            f"{stats.dom_delayed_misses:>9}"
            f"{stats.delayed_propagations:>9}"
            f"{stats.delayed_transmitters:>9}"
            f"{stats.dl_issued:>9}"
        )
    return "\n".join(lines)
