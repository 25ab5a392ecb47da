"""The commit-progress watchdog: deadlock and livelock detection.

The core's only unconditional liveness obligation is that the ROB head
eventually commits.  The watchdog monitors exactly that, and when the
no-commit window is exceeded it *classifies* the wedge before raising:

* **deadlock** — nothing is in flight that could ever unblock the ROB
  head: no timed events, nothing ready to issue, no memory requests
  queued, and fetch cannot make progress.  The machine is provably stuck.
* **livelock** — the machine is busy (events firing, loads replaying,
  squash/reissue cycling) but nothing retires.  Typical causes: a replay
  loop that re-delays itself, a frontier waiter parked on a key the
  frontier can never reach.

The window counts *steps* (loop iterations), not raw cycle deltas.  With
idle skipping a single step can legitimately jump the clock by an entire
DRAM latency — or by an arbitrarily long known-latency stretch — so a
cycle-delta test would misread a healthy long miss as starvation the
moment the miss outlasted the window.  A wedged machine makes no jumps
(every step advances the clock by one), so in the failure mode the two
countings agree and the trip point is unchanged.  The constructor still
clamps the window to a large multiple of the worst-case memory latency:
even a non-skipping tick loop then cannot misread one slow access chain
as a wedge.

On trigger the watchdog emits a human-readable crash dump (pipeline
occupancy, oldest instruction, shadow state, per-scheme delay reasons,
cache/MSHR state) to ``guardrails.dump_dir`` when configured, and raises
:class:`~repro.common.errors.DeadlockError` carrying the same snapshot.
The watchdog is always armed — unlike the invariant checker it costs one
integer compare per iteration, and a wedged pipeline must fail loudly at
every guardrail level.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import DeadlockError
from repro.guardrails.dump import format_crash_dump, machine_snapshot, write_crash_dump
from repro.pipeline.uop import UopState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import Core

#: The window is clamped to at least this many worst-case memory
#: latencies so a single slow access can never be misread as a wedge.
MIN_WINDOW_LATENCIES = 16


class Watchdog:
    """Commit-starvation and livelock monitor for one core."""

    def __init__(self, core: "Core"):
        gcfg = core.config.guardrails
        self.dump_dir = gcfg.dump_dir
        self.window = max(
            gcfg.watchdog_window,
            MIN_WINDOW_LATENCIES * core.hierarchy.max_latency,
        )

    def trip(self, core: "Core") -> None:
        """Classify the wedge, dump, and raise :class:`DeadlockError`."""
        idle_steps = core._step_count - core._last_commit_step
        idle_cycles = core.cycle - core._last_commit_cycle
        busy = bool(
            core._events
            or core._ready
            or core._mem_queue
            or core._mem_retry
            or core._forward_retry
            or core._prefetch_queue
            or (core.engine is not None and core.engine.has_candidates())
        )
        stats = core.stats
        if busy:
            kind = "livelock"
            activity = (
                f"{sum(len(b) for b in core._events.values())} timed events pending, "
                f"{stats.squashed_instructions} squashes, "
                f"{stats.dom_reissued_loads} load replays, "
                f"{stats.vp_squashes} VP squashes so far"
            )
            detail = (
                f"issue/replay activity continues ({activity}) but nothing "
                f"has retired"
            )
        else:
            kind = "deadlock"
            detail = (
                "no timed events, nothing ready to issue, and no memory "
                "requests in flight — the ROB head can never unblock"
            )
        head = core.rob[0] if core.rob else None
        head_text = (
            f"oldest instruction seq={head.seq} pc={head.pc} "
            f"{head.inst.disassemble()!r} in state {UopState(head.state).name}"
            if head is not None
            else "ROB is empty"
        )
        message = (
            f"{core.program.name} under {core.scheme.describe()}: no commit "
            f"for {idle_steps} steps ({idle_cycles} cycles) at cycle "
            f"{core.cycle} ({kind}: {detail}); {head_text}"
        )
        snapshot = machine_snapshot(core)
        snapshot["watchdog"] = {"kind": kind, "window": self.window}
        text = format_crash_dump(snapshot, message)
        dump_path = None
        if self.dump_dir is not None:
            dump_path = write_crash_dump(self.dump_dir, snapshot, text)
            message += f" [crash dump: {dump_path}]"
        raise DeadlockError(
            message, kind=kind, snapshot=snapshot, dump_path=dump_path, dump=text
        )
