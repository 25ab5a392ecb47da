"""Experiment definitions: one function per paper table/figure.

Each function takes a :class:`~repro.harness.parallel.ParallelSession`
(so figures sharing runs reuse them) and returns a plain-data result
object with a ``format_table()`` renderer that prints the same rows /
series the paper reports.  The benchmark list defaults to every profile
in the suite registry, mirroring Figure 6's SPEC2006 + SPEC2017 split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import EmptyMeasurementError
from repro.common.stats import geomean
from repro.harness.parallel import ParallelSession
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
from repro.workloads.profiles import benchmark_names

#: The paper's §7 headline numbers (geomean fraction of baseline IPC).
PAPER_HEADLINE = {
    "nda": 0.887,
    "nda+ap": 0.935,
    "stt": 0.905,
    "stt+ap": 0.951,
    "dom": 0.818,
    "dom+ap": 0.873,
}
#: The paper's geomean slowdown reductions (§7 / abstract).
PAPER_SLOWDOWN_REDUCTION = {"nda": 0.420, "stt": 0.482, "dom": 0.303}


def _benchmarks(benchmarks: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if benchmarks is None:
        return benchmark_names("all")
    return tuple(benchmarks)


def _format_skipped(skipped: Dict[str, str]) -> List[str]:
    """Footer lines naming benchmarks a figure dropped (and why)."""
    return [f"skipped {name}: {reason}" for name, reason in skipped.items()]


# ----------------------------------------------------------------------
# Figure 6: normalized IPC per benchmark
# ----------------------------------------------------------------------
@dataclass
class Figure6Result:
    """Normalized IPC (to the unsafe baseline) per benchmark per scheme."""

    schemes: Tuple[str, ...]
    rows: Dict[str, Dict[str, float]]  # benchmark -> scheme -> norm. IPC
    gmean: Dict[str, float]
    skipped: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        header = f"{'benchmark':<14}" + "".join(f"{s:>10}" for s in self.schemes)
        lines = [header, "-" * len(header)]
        for benchmark, row in self.rows.items():
            lines.append(
                f"{benchmark:<14}"
                + "".join(f"{row[s]:>10.3f}" for s in self.schemes)
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'GMEAN':<14}" + "".join(f"{self.gmean[s]:>10.3f}" for s in self.schemes)
        )
        lines.extend(_format_skipped(self.skipped))
        return "\n".join(lines)


def figure6_normalized_ipc(
    session: ParallelSession,
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = FIGURE_SCHEMES,
) -> Figure6Result:
    """Regenerate Figure 6: normalized IPC of NDA-P/STT/DoM ± AP.

    A benchmark whose run raises
    :class:`~repro.common.errors.EmptyMeasurementError` (program shorter
    than the warmup window, zero-IPC baseline) is dropped from the rows
    and reported in ``result.skipped`` instead of aborting the sweep.
    """
    names = _benchmarks(benchmarks)
    rows: Dict[str, Dict[str, float]] = {}
    skipped: Dict[str, str] = {}
    for benchmark in names:
        try:
            rows[benchmark] = {
                scheme: session.normalized_ipc(benchmark, scheme)
                for scheme in schemes
            }
        except EmptyMeasurementError as error:
            skipped[benchmark] = str(error)
    gmean = {
        scheme: geomean(rows[b][scheme] for b in rows) if rows else 0.0
        for scheme in schemes
    }
    return Figure6Result(
        schemes=tuple(schemes), rows=rows, gmean=gmean, skipped=skipped
    )


# ----------------------------------------------------------------------
# Figure 1 / §7 headline: geomean summary and slowdown reduction
# ----------------------------------------------------------------------
@dataclass
class SummaryResult:
    """Figure 1 / §7: geomean performance and AP's slowdown reduction."""

    gmean: Dict[str, float]
    slowdown_reduction: Dict[str, float]
    paper_gmean: Dict[str, float] = field(default_factory=lambda: dict(PAPER_HEADLINE))
    paper_reduction: Dict[str, float] = field(
        default_factory=lambda: dict(PAPER_SLOWDOWN_REDUCTION)
    )

    def format_table(self) -> str:
        lines = [
            f"{'scheme':<10}{'measured':>10}{'paper':>10}",
            "-" * 30,
        ]
        for scheme in ("nda", "nda+ap", "stt", "stt+ap", "dom", "dom+ap"):
            lines.append(
                f"{scheme:<10}{self.gmean[scheme]:>10.3f}"
                f"{self.paper_gmean[scheme]:>10.3f}"
            )
        lines.append("")
        lines.append(f"{'scheme':<10}{'slowdown reduction':>20}{'paper':>10}")
        lines.append("-" * 40)
        for scheme in ("nda", "stt", "dom"):
            lines.append(
                f"{scheme:<10}{self.slowdown_reduction[scheme]:>19.1%}"
                f"{self.paper_reduction[scheme]:>9.1%}"
            )
        return "\n".join(lines)


def figure1_summary(
    session: ParallelSession,
    benchmarks: Optional[Sequence[str]] = None,
) -> SummaryResult:
    """Regenerate Figure 1's red/green arrows and the §7 headline numbers."""
    figure6 = figure6_normalized_ipc(session, benchmarks)
    gmean = figure6.gmean
    reduction = {}
    for scheme in ("nda", "stt", "dom"):
        slowdown = 1.0 - gmean[scheme]
        slowdown_ap = 1.0 - gmean[f"{scheme}+ap"]
        reduction[scheme] = 0.0 if slowdown <= 0 else (slowdown - slowdown_ap) / slowdown
    return SummaryResult(gmean=gmean, slowdown_reduction=reduction)


headline_numbers = figure1_summary
"""Alias: the §7 headline numbers are Figure 1's summary."""


# ----------------------------------------------------------------------
# Figure 7: coverage and accuracy of the address predictor
# ----------------------------------------------------------------------
@dataclass
class Figure7Result:
    """Coverage/accuracy of address prediction per benchmark (DoM+AP)."""

    scheme: str
    coverage: Dict[str, float]
    accuracy: Dict[str, float]
    gmean_coverage: float
    gmean_accuracy: float
    skipped: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        header = f"{'benchmark':<14}{'coverage':>10}{'accuracy':>10}"
        lines = [header, "-" * len(header)]
        for benchmark in self.coverage:
            lines.append(
                f"{benchmark:<14}{self.coverage[benchmark]:>9.1%}"
                f"{self.accuracy[benchmark]:>9.1%}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'GMEAN':<14}{self.gmean_coverage:>9.1%}{self.gmean_accuracy:>9.1%}"
        )
        lines.extend(_format_skipped(self.skipped))
        return "\n".join(lines)


def figure7_coverage_accuracy(
    session: ParallelSession,
    benchmarks: Optional[Sequence[str]] = None,
    scheme: str = "dom+ap",
) -> Figure7Result:
    """Regenerate Figure 7 (DoM+AP is the paper's representative; the
    other schemes are within 1%, which ``tests/harness`` asserts)."""
    names = _benchmarks(benchmarks)
    coverage: Dict[str, float] = {}
    accuracy: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    for benchmark in names:
        try:
            stats = session.run(benchmark, scheme).stats
        except EmptyMeasurementError as error:
            skipped[benchmark] = str(error)
            continue
        coverage[benchmark] = stats.coverage
        accuracy[benchmark] = stats.accuracy
    # Geomean over nonzero entries only (a zero would zero the product;
    # the paper's GMEAN bars likewise summarize the plotted values).
    nonzero_cov = [value for value in coverage.values() if value > 0]
    nonzero_acc = [value for value in accuracy.values() if value > 0]
    return Figure7Result(
        scheme=scheme,
        coverage=coverage,
        accuracy=accuracy,
        gmean_coverage=geomean(nonzero_cov) if nonzero_cov else 0.0,
        gmean_accuracy=geomean(nonzero_acc) if nonzero_acc else 0.0,
        skipped=skipped,
    )


# ----------------------------------------------------------------------
# Figure 8: normalized L1 and L2 accesses
# ----------------------------------------------------------------------
@dataclass
class Figure8Result:
    """L1/L2 access counts normalized to the unsafe baseline."""

    schemes: Tuple[str, ...]
    l1: Dict[str, Dict[str, float]]
    l2: Dict[str, Dict[str, float]]
    skipped: Dict[str, str] = field(default_factory=dict)

    def _format_one(self, title: str, table: Dict[str, Dict[str, float]]) -> List[str]:
        header = f"{title:<14}" + "".join(f"{s:>10}" for s in self.schemes)
        lines = [header, "-" * len(header)]
        for benchmark, row in table.items():
            lines.append(
                f"{benchmark:<14}" + "".join(f"{row[s]:>10.2f}" for s in self.schemes)
            )
        return lines

    def format_table(self) -> str:
        lines = self._format_one("L1 accesses", self.l1)
        lines.append("")
        lines.extend(self._format_one("L2 accesses", self.l2))
        lines.extend(_format_skipped(self.skipped))
        return "\n".join(lines)


def figure8_cache_traffic(
    session: ParallelSession,
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = FIGURE_SCHEMES,
) -> Figure8Result:
    """Regenerate Figure 8: normalized L1 (upper) and L2 (lower) accesses."""
    names = _benchmarks(benchmarks)
    l1: Dict[str, Dict[str, float]] = {}
    l2: Dict[str, Dict[str, float]] = {}
    skipped: Dict[str, str] = {}
    for benchmark in names:
        try:
            base = session.run(benchmark, BASELINE_SCHEME).stats
            rows = {scheme: session.run(benchmark, scheme).stats for scheme in schemes}
        except EmptyMeasurementError as error:
            skipped[benchmark] = str(error)
            continue
        l1[benchmark] = {}
        l2[benchmark] = {}
        for scheme, stats in rows.items():
            l1[benchmark][scheme] = (
                stats.l1_accesses / base.l1_accesses if base.l1_accesses else 0.0
            )
            l2[benchmark][scheme] = (
                stats.l2_accesses / base.l2_accesses if base.l2_accesses else 0.0
            )
    return Figure8Result(schemes=tuple(schemes), l1=l1, l2=l2, skipped=skipped)


# ----------------------------------------------------------------------
# §7 "Unsafe Baseline + AP"
# ----------------------------------------------------------------------
@dataclass
class UnsafeAPResult:
    """Geomean gain of address prediction on the unsafe baseline."""

    per_benchmark: Dict[str, float]
    gmean_gain: float
    skipped: Dict[str, str] = field(default_factory=dict)

    def format_table(self) -> str:
        lines = [f"{'benchmark':<14}{'unsafe+ap / unsafe':>20}"]
        lines.append("-" * 34)
        for benchmark, value in self.per_benchmark.items():
            lines.append(f"{benchmark:<14}{value:>20.3f}")
        lines.append("-" * 34)
        lines.append(f"{'GMEAN gain':<14}{self.gmean_gain:>19.1%}")
        lines.extend(_format_skipped(self.skipped))
        return "\n".join(lines)


def unsafe_ap_delta(
    session: ParallelSession,
    benchmarks: Optional[Sequence[str]] = None,
) -> UnsafeAPResult:
    """Regenerate the §7 claim that AP gains only ~0.5% on the baseline."""
    names = _benchmarks(benchmarks)
    per_benchmark: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    for name in names:
        try:
            per_benchmark[name] = session.normalized_ipc(name, "unsafe+ap")
        except EmptyMeasurementError as error:
            skipped[name] = str(error)
    return UnsafeAPResult(
        per_benchmark=per_benchmark,
        gmean_gain=(geomean(per_benchmark.values()) - 1.0) if per_benchmark else 0.0,
        skipped=skipped,
    )
