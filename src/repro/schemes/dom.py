"""Delay-on-Miss (DoM), Sakalis et al. [40].

DoM hides speculation in the memory hierarchy instead of blocking value
flow: speculative loads issue to the L1 as non-mutating probes.  A probe
that hits completes normally (its replacement update is applied
retroactively at commit); a probe that misses is *delayed* — no L2/L3/DRAM
traffic, no fill — and the load re-issues a full access once it is
non-speculative.  Values propagate freely, which also protects secrets
already in registers (DoM's threat model is the memory hierarchy only).

With address prediction (paper §4.6/§5.3) two additional rules close the
implicit channels that doppelganger misses would otherwise open:

* branches resolve in order (only once non-speculative), and
* the real load of a *mispredicted* doppelganger issues only once the load
  is non-speculative.

Both are expressed here as block keys; the doppelganger release rule
(hit → release at verification, miss → release at non-speculative) is
selected by ``dl_miss_release_at_nonspec`` and enforced by the engine.
"""

from __future__ import annotations

from repro.schemes.base import (
    READY,
    STATE_COMMITTED,
    STATE_COMPLETED,
    STATE_SQUASHED,
    MicroOp,
    SecureScheme,
)


class DelayOnMiss(SecureScheme):
    """Figure 1(d): speculative L1 hits proceed, speculative misses wait."""

    name = "dom"
    dl_miss_release_at_nonspec = True
    invisible_speculation = True  # load_is_probe, load_block_seq
    inorder_branches = True  # branch_block_seq, under address prediction

    def __init__(self, address_prediction: bool = False):
        super().__init__(address_prediction=address_prediction)
        # branch_block_seq gates only under the in-order-resolution rule,
        # which exists solely to close the doppelganger implicit channel.
        self.gates_branches = address_prediction

    # Each hook reads the frontier directly (``frontier() < seq`` is
    # ``is_speculative(seq)``): they run once per load or branch.
    def load_is_probe(self, load: MicroOp) -> bool:
        return self.shadows.frontier() < load.seq

    def load_block_seq(self, load: MicroOp) -> int:
        # A delayed (probe-missed) load waits for its visibility point.
        if load.dom_delayed and self.shadows.frontier() < load.seq:
            return load.seq
        # The real load of a mispredicted doppelganger is delayed until
        # non-speculative (paper §5.3) — issuing it earlier would let the
        # doppelganger implicit channel leak through the miss timing.
        if (
            self.address_prediction
            and load.dl_verified
            and not load.dl_correct
            and not load.dl_cancelled
            and self.shadows.frontier() < load.seq
        ):
            return load.seq
        return READY

    def branch_block_seq(self, branch: MicroOp, operand_taint: int) -> int:
        if not self.address_prediction:
            return READY
        # In-order branch resolution: only once the branch itself is no
        # longer covered by an older shadow (paper §4.6).
        if self.shadows.frontier() < branch.seq:
            return branch.seq
        return READY

    def check_invariants(self, core) -> list:
        """Delayed-miss discipline: a delayed load leaves no trace and
        completes only through a real (replayed) access.

        * no replacement-state update is ever queued for a load that is
          still delayed (the retroactive ``touch`` belongs to probe hits
          alone — updating it for a delayed miss is exactly the side
          channel DoM exists to close);
        * a delayed load that has not performed its access holds no value;
        * a completed load must have executed an access, forwarded, or be
          a validated value prediction — anything else is a dropped
          replay, which silently commits stale data.
        """
        problems = []
        for load in core.lq:
            state = load.state
            if state == STATE_SQUASHED:
                continue
            if load.dom_delayed and not load.executed:
                if load.dom_touch_pending:
                    problems.append(
                        f"delayed load seq={load.seq} pc={load.pc} has a "
                        f"pending L1 replacement update (DoM must not touch "
                        f"replacement state for delayed loads)"
                    )
                if load.result is not None and not load.vp_active:
                    problems.append(
                        f"delayed load seq={load.seq} pc={load.pc} bound a "
                        f"value without performing its access"
                    )
            if (
                (state == STATE_COMPLETED or state == STATE_COMMITTED)
                and not load.executed
                and not load.vp_active
            ):
                problems.append(
                    f"load seq={load.seq} pc={load.pc} completed without a "
                    f"memory access, forward, or doppelganger release "
                    f"(dropped replay)"
                )
        return problems
