"""The Doppelganger Load engine (paper §4 and §5).

A doppelganger is the address-predicted stand-in of a load:

1. **Predict** — at dispatch, every load's PC queries the stride table in
   address-prediction mode.  Because the table is trained only at commit,
   several in-flight instances of the same PC would all receive the same
   prediction; the engine therefore ages the prediction by one stride per
   outstanding older instance of the PC, which is still a pure function of
   committed history plus (secret-independent) fetch counts.
2. **Issue** — doppelgangers fill memory-port slots left over by real
   loads (non-predicted accesses are always prioritized, §5 item D).  The
   access is an ordinary memory access: *no memory hierarchy changes*.
3. **Preload** — the returned value is parked in the load's destination
   register but never propagated.
4. **Verify** — when the real address resolves, it is compared against the
   prediction.  Match: the preloaded value is released per the underlying
   scheme's rule.  Mismatch: the preload is discarded (no squash — nothing
   consumed it) and the real load issues under the scheme's normal rules.
5. **Forwarding / invalidations** — an older store whose resolved address
   matches overrides the preloaded value transparently (§4.4);
   LQ-snooping invalidations are noted and applied at release (§4.5).

Release rules per scheme (enforced here + by ``value_readable``):

* NDA-P: value completes at verification, but NDA's lock keeps it
  unreadable until the load is non-speculative.
* STT: value completes at verification and propagates immediately,
  tainted exactly as a normal STT load output would be.
* DoM: a doppelganger that hit in the L1 completes at verification (same
  visibility as a DoM speculative hit); one that missed completes only
  when the load is non-speculative (same instant the plain DoM load would
  have returned) — ``dl_miss_release_at_nonspec``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict

from repro.isa.instructions import KIND_LOAD
from repro.pipeline.uop import STATE_COMMITTED, STATE_COMPLETED, MicroOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import Core


class DoppelgangerEngine:
    """Per-core doppelganger state machine."""

    def __init__(self, core: "Core"):
        self.core = core
        self.stats = core.stats
        # Hoisted collaborators: neither is ever rebound on a live core,
        # so the per-dispatch/per-issue paths skip the core indirection.
        self.stride = core.stride
        self.hierarchy = core.hierarchy
        # In-flight predicted instances per PC, used to age predictions
        # across overlapping loop iterations.
        self._outstanding: Dict[int, int] = {}
        # Predicted loads awaiting a spare port, oldest first.
        self._candidates: deque = deque()

    # ------------------------------------------------------------------
    # Dispatch: predict the current instance's address
    # ------------------------------------------------------------------
    def on_dispatch(self, load: MicroOp) -> None:
        table = self.stride
        entry = table.entry_for(load.pc)
        if entry is None or entry.confidence < table.config.confidence_threshold:
            return
        pending = self._outstanding.get(load.pc, 0)
        if table.config.multi_instance_aging:
            # Extension (see PredictorConfig.multi_instance_aging): age
            # the prediction by one stride per older in-flight instance.
            steps = pending + 1
        else:
            # Paper-baseline predictor: the current instance is predicted
            # as last committed address + stride.  With several instances
            # of the PC in flight, the younger ones receive stale
            # predictions and verify as wrong — part of why the paper's
            # simple predictor has modest coverage/accuracy.
            steps = 1
        predicted = (entry.last_address + entry.stride * steps) & ((1 << 64) - 1)
        table.predictions_made += 1
        load.dl_predicted_address = predicted
        self._outstanding[load.pc] = pending + 1
        self.stats.dl_predictions += 1
        self._candidates.append(load)

    def _retire_instance(self, load: MicroOp) -> None:
        """Drop the outstanding-instance count when an instance leaves."""
        if load.dl_predicted_address is None:
            return
        pending = self._outstanding.get(load.pc, 0)
        if pending > 1:
            self._outstanding[load.pc] = pending - 1
        else:
            self._outstanding.pop(load.pc, None)

    # ------------------------------------------------------------------
    # Spare-port issue
    # ------------------------------------------------------------------
    def has_candidates(self) -> bool:
        return bool(self._candidates)

    def issue_spare(self, ports: int, now: int) -> int:
        """Issue doppelganger accesses into leftover load ports.

        Candidates are processed oldest-first and leave the queue once
        issued, verified, or squashed.  Returns the number of ports still
        unused (for the prefetcher).
        """
        candidates = self._candidates
        if ports <= 0 or not candidates:
            return ports
        hierarchy = self.hierarchy
        while ports > 0 and candidates:
            load = candidates[0]
            if (
                load.squashed
                or load.executed
                or load.dl_issued
                or load.dl_verified
                or load.address_ready
                or not load.has_doppelganger
            ):
                candidates.popleft()
                continue
            result = hierarchy.access(load.dl_predicted_address, now)
            ports -= 1
            if result.retry:
                break  # MSHRs exhausted; retry the same load next cycle
            candidates.popleft()
            load.dl_issued = True
            load.dl_completion_cycle = now + result.latency
            load.dl_l1_hit = result.l1_hit
            self.stats.dl_issued += 1
        return ports

    # ------------------------------------------------------------------
    # Verification (the real address just resolved)
    # ------------------------------------------------------------------
    def on_address_resolved(self, load: MicroOp, now: int) -> None:
        if load.dl_predicted_address is None or load.dl_verified:
            return
        load.dl_verified = True
        if not load.dl_issued:
            # Never got a spare port: the prediction lapses; the load
            # proceeds as a plain load under the scheme.
            load.dl_cancelled = True
            return
        if load.dl_predicted_address == load.address:
            load.dl_correct = True
            self.stats.dl_correct += 1
            self._schedule_release(load, now)
        else:
            load.dl_correct = False
            self.stats.dl_wrong += 1
            # The preloaded value is discarded before the load re-issues;
            # the shared physical register is reused (paper §5.1).  The
            # real access is issued by the core's LQ scheduler under the
            # scheme's rules (DoM: only when non-speculative).

    def _schedule_release(self, load: MicroOp, now: int) -> None:
        scheme = self.core.scheme
        if scheme.dl_miss_release_at_nonspec and not load.dl_l1_hit:
            # DoM: a doppelganger miss behaves like a DoM miss — the value
            # becomes visible only at the load's visibility point.
            self.core.defer_until_nonspec(load)
        else:
            self.core.schedule_dl_release(load, max(load.dl_completion_cycle, now + 1))

    # ------------------------------------------------------------------
    # Retirement bookkeeping
    # ------------------------------------------------------------------
    def on_commit(self, load: MicroOp) -> None:
        self._retire_instance(load)
        if not load.dl_issued:
            return
        self.stats.dl_covered_commits += 1
        if load.dl_correct:
            self.stats.dl_correct_commits += 1

    def on_squash(self, load: MicroOp) -> None:
        self._retire_instance(load)
        if load.dl_issued and not load.committed:
            # The access happened; only the (secret-independent) predicted
            # address became visible — safe per §4.2.
            self.stats.dl_squashed += 1

    # ------------------------------------------------------------------
    # Guardrails / diagnostics
    # ------------------------------------------------------------------
    def outstanding_instances(self) -> int:
        """Total in-flight predicted instances across every load PC.

        Invariant (checked by the guardrails): this equals the number of
        ROB-resident loads carrying a prediction — :meth:`on_dispatch`
        increments per prediction, :meth:`on_commit`/:meth:`on_squash`
        decrement exactly once per predicted instance leaving the window.
        An imbalance means an instance leaked (its PC would receive
        ever-aging predictions) or was double-retired.
        """
        return sum(self._outstanding.values())

    def pending_candidates(self) -> int:
        """Predicted loads still queued for a spare port (lazy-cleaned)."""
        return len(self._candidates)

    def validate(self, rob) -> list:
        """Verify-or-replay accounting sweep; returns violation strings.

        A guardrails-full core sweeps every cycle, so this reads the
        ``kind`` and ``state`` slots, not the ``MicroOp`` properties.
        """
        problems = []
        predicted_in_rob = 0
        for uop in rob:
            if uop.kind != KIND_LOAD or uop.dl_predicted_address is None:
                continue
            predicted_in_rob += 1
            if uop.dl_used and not uop.dl_correct:
                problems.append(
                    f"load seq={uop.seq} pc={uop.pc} consumed its preload "
                    f"without a verified-correct prediction"
                )
            if (
                STATE_COMPLETED <= uop.state <= STATE_COMMITTED
                and uop.dl_verified
                and not uop.dl_correct
                and not uop.dl_cancelled
                and not uop.executed
                and not uop.vp_active
            ):
                problems.append(
                    f"load seq={uop.seq} pc={uop.pc} completed after a "
                    f"mispredicted doppelganger without replaying the real "
                    f"access (dropped replay)"
                )
        tracked = self.outstanding_instances()
        if tracked != predicted_in_rob:
            problems.append(
                f"doppelganger instance accounting imbalance: engine tracks "
                f"{tracked} in-flight predicted instances, ROB holds "
                f"{predicted_in_rob}"
            )
        return problems

    # ------------------------------------------------------------------
    # Invalidations (memory consistency, §4.5)
    # ------------------------------------------------------------------
    def on_invalidation(self, load: MicroOp, line: int) -> bool:
        """Note an invalidation matching the predicted address in the LQ.

        The doppelganger itself is never squashed; the note takes effect
        when the preloaded value would propagate.  Returns True when the
        LQ entry matched.
        """
        if (
            load.dl_predicted_address is None
            or load.dl_cancelled
            or not load.dl_issued
            or load.dl_used
        ):
            return False
        if self.hierarchy.line_address(load.dl_predicted_address) != line:
            return False
        load.dl_invalidated = True
        return True
