"""Cycle-level pipeline tracing.

Attach a :class:`PipelineTracer` to a core (``core.observer = tracer``)
and it records every micro-op's lifecycle — dispatch, issue, completion,
commit or squash — into a bounded ring buffer, then renders Konata-style
per-instruction timelines or a flat event log.  Used for debugging the
simulator, for teaching (watching NDA hold a value back, or a
doppelganger release early), and by the ``trace`` CLI subcommand.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.common.errors import ConfigError
from repro.pipeline.hooks import CoreObserver
from repro.pipeline.uop import MicroOp


@dataclass
class TraceRecord:
    """Lifecycle timestamps of one dynamic instruction."""

    seq: int
    pc: int
    text: str
    is_load: bool
    dispatch_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    commit_cycle: int = -1
    squash_cycle: int = -1
    dl_predicted: bool = False
    dl_correct: bool = False

    @property
    def fate(self) -> str:
        if self.commit_cycle >= 0:
            return "committed"
        if self.squash_cycle >= 0:
            return "squashed"
        return "in-flight"

    def lifetime(self) -> Optional[int]:
        """Dispatch-to-retire duration, when the instruction retired."""
        end = self.commit_cycle if self.commit_cycle >= 0 else self.squash_cycle
        if end < 0 or self.dispatch_cycle < 0:
            return None
        return end - self.dispatch_cycle


class PipelineTracer(CoreObserver):
    """Bounded-capacity recorder of micro-op lifecycles."""

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self._records: "OrderedDict[int, TraceRecord]" = OrderedDict()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Hooks called by the core
    # ------------------------------------------------------------------
    def on_dispatch(self, uop: MicroOp, cycle: int) -> None:
        record = TraceRecord(
            seq=uop.seq,
            pc=uop.pc,
            text=uop.inst.disassemble(),
            is_load=uop.inst.is_load,
            dispatch_cycle=cycle,
        )
        self._records[uop.seq] = record
        if len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.dropped += 1

    def _get(self, uop: MicroOp) -> Optional[TraceRecord]:
        return self._records.get(uop.seq)

    def on_issue(self, uop: MicroOp, cycle: int) -> None:
        record = self._get(uop)
        if record is not None:
            record.issue_cycle = cycle

    def on_complete(self, uop: MicroOp, cycle: int) -> None:
        record = self._get(uop)
        if record is not None:
            record.complete_cycle = cycle
            if uop.inst.is_load:
                record.dl_predicted = uop.dl_issued
                record.dl_correct = uop.dl_correct

    def on_commit(self, uop: MicroOp, cycle: int) -> None:
        record = self._get(uop)
        if record is not None:
            record.commit_cycle = cycle

    def on_squash(self, uop: MicroOp, cycle: int) -> None:
        record = self._get(uop)
        if record is not None:
            record.squash_cycle = cycle

    # ------------------------------------------------------------------
    # Queries and rendering
    # ------------------------------------------------------------------
    def records(self) -> List[TraceRecord]:
        """All retained records in dispatch order."""
        return list(self._records.values())

    def committed(self) -> List[TraceRecord]:
        return [r for r in self._records.values() if r.fate == "committed"]

    def squashed(self) -> List[TraceRecord]:
        return [r for r in self._records.values() if r.fate == "squashed"]

    def loads(self) -> List[TraceRecord]:
        return [r for r in self._records.values() if r.is_load]

    def render_timeline(
        self, first: int = 0, count: int = 40, width: int = 64
    ) -> str:
        """A per-instruction timeline chart.

        ``D`` dispatch, ``I`` issue, ``C`` complete, ``R`` retire (commit),
        ``X`` squash; dashes span the in-flight interval.
        """
        rows = self.records()[first : first + count]
        if not rows:
            return "(no trace records)"
        start = min(r.dispatch_cycle for r in rows)
        lines = [f"cycles from {start}; D=dispatch I=issue C=complete R=commit X=squash"]
        for record in rows:
            marks = {}

            def put(cycle: int, char: str) -> None:
                if cycle >= 0:
                    column = cycle - start
                    if 0 <= column < width:
                        marks[column] = char

            put(record.dispatch_cycle, "D")
            put(record.issue_cycle, "I")
            put(record.complete_cycle, "C")
            put(record.commit_cycle, "R")
            put(record.squash_cycle, "X")
            end_cycle = max(
                record.commit_cycle, record.squash_cycle, record.complete_cycle,
                record.issue_cycle, record.dispatch_cycle,
            )
            span_end = min(end_cycle - start, width - 1)
            chars = []
            for column in range(width):
                if column in marks:
                    chars.append(marks[column])
                elif record.dispatch_cycle - start < column <= span_end:
                    chars.append("-")
                else:
                    chars.append(" ")
            tag = "*" if record.dl_predicted else " "
            lines.append(
                f"{record.seq:>6} {record.text[:26]:<26}{tag}|{''.join(chars)}|"
            )
        if self.dropped:
            lines.append(f"({self.dropped} older records dropped)")
        return "\n".join(lines)

    def render_summary(self) -> str:
        """Aggregate digest of the retained window."""
        records = self.records()
        committed = self.committed()
        squashed = self.squashed()
        lines = [
            f"traced: {len(records)} uops "
            f"({len(committed)} committed, {len(squashed)} squashed, "
            f"{self.dropped} dropped)",
        ]
        lifetimes = [r.lifetime() for r in committed if r.lifetime() is not None]
        if lifetimes:
            lines.append(
                f"commit latency: min={min(lifetimes)} "
                f"avg={sum(lifetimes) / len(lifetimes):.1f} max={max(lifetimes)}"
            )
        predicted = [r for r in self.loads() if r.dl_predicted]
        if predicted:
            correct = sum(1 for r in predicted if r.dl_correct)
            lines.append(
                f"doppelganger loads in window: {len(predicted)} "
                f"({correct} verified correct)"
            )
        return "\n".join(lines)
