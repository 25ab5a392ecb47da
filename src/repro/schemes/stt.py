"""Speculative Taint Tracking (STT), Yu et al. [54].

STT taints the output of every speculatively issued load and propagates
taints through dependent instructions.  Tainted values *do* propagate —
dependent arithmetic executes normally (ILP is preserved) — but
*transmitters* are delayed while any operand is tainted:

* explicit channels: loads whose address operand is tainted may not issue;
* resolution-based implicit channels: branches whose predicate is tainted
  may not resolve; store-to-load forwarding is blocked by delaying the
  resolution of tainted store addresses;
* prediction-based implicit channels: predictors are trained only at
  commit (enforced core-wide, see ``repro.predictors``).

A value untaints when its root load reaches the *visibility point* —
becomes non-speculative.  We represent a taint as the maximum sequence
number over the speculative root loads a value is derived from; this is
exact (not conservative) because the shadow frontier is monotone in
sequence numbers: if the youngest root is non-speculative, so is every
older root.  A blocked transmitter therefore simply waits for the frontier
to reach its taint root, which is exactly the block-key contract of
:class:`~repro.schemes.base.SecureScheme`.
"""

from __future__ import annotations

from repro.schemes.base import (
    INFINITE_SEQ,
    KIND_CBRANCH,
    KIND_JMP,
    KIND_LOAD,
    KIND_STORE,
    READY,
    STATE_COMMITTED,
    STATE_SQUASHED,
    UNTAINTED,
    MicroOp,
    SecureScheme,
)

#: Kinds the taint cross-check skips (see :meth:`STT.check_invariants`).
_UNCHECKED_KINDS = frozenset((KIND_LOAD, KIND_STORE, KIND_CBRANCH, KIND_JMP))


class STT(SecureScheme):
    """Figure 1(c): propagates tainted data to non-transmitters, delays
    transmitters until their operands untaint."""

    name = "stt"
    blocks_spec_taint = True  # the transmitter gates below

    def is_tainted(self, taint: int) -> bool:
        """A taint root is cleared once it is non-speculative."""
        return taint != UNTAINTED and self.shadows.frontier() < taint

    # The gates below spell ``is_tainted`` out, since each runs once per
    # transmitter: an untainted operand costs no call, a tainted one the
    # frontier read.
    def load_block_seq(self, load: MicroOp) -> int:
        # load.taint holds the address-operand taint until the access
        # issues (the core then replaces it with the output taint).
        taint = load.taint
        if taint != UNTAINTED and self.shadows.frontier() < taint:
            self.core.stats.delayed_transmitters += 1
            return taint
        return READY

    def branch_block_seq(self, branch: MicroOp, operand_taint: int) -> int:
        if operand_taint != UNTAINTED and self.shadows.frontier() < operand_taint:
            self.core.stats.delayed_transmitters += 1
            return operand_taint
        return READY

    def store_block_seq(self, store: MicroOp, operand_taint: int) -> int:
        if operand_taint != UNTAINTED and self.shadows.frontier() < operand_taint:
            self.core.stats.delayed_transmitters += 1
            return operand_taint
        return READY

    def load_result_taint(self, load: MicroOp) -> int:
        """Speculatively issued loads produce tainted outputs rooted at
        themselves; non-speculative loads produce clean outputs."""
        seq = load.seq
        if self.shadows.frontier() < seq:
            return seq
        return UNTAINTED

    def check_invariants(self, core) -> list:
        """Taint soundness: a value's taint is never cleared (or lowered)
        while any source it derives from is still speculative.

        Producer taints are final by the time a consumer issues (set at
        execute/value-bind, before the completion event), and ALU taints
        are the max over producer taints, so an issued ALU op whose
        in-flight producer carries a live speculative taint root must
        itself carry a taint at least that young.  Loads and branches are
        excluded: a load's field is reused (address taint at issue, output
        taint at bind) and branches never record their operand taint, so a
        cross-check against producers is not meaningful for either.
        """
        problems = []
        # The sweep never moves the frontier: read it once.  A taint root
        # is live iff frontier < root; state < COMMITTED is "in flight".
        # With no caster live (INFINITE_SEQ) no root is, so the producer
        # cross-check cannot fire and is skipped; the range check can.
        frontier = self.shadows.frontier()
        roots_live = frontier != INFINITE_SEQ
        for uop in core.rob:
            if uop.state == STATE_SQUASHED:
                continue
            taint = uop.taint
            if taint != UNTAINTED and not 0 <= taint <= uop.seq:
                problems.append(
                    f"uop seq={uop.seq} pc={uop.pc} carries impossible "
                    f"taint root {taint} (must lie in [0, seq])"
                )
            if (
                not roots_live
                or uop.kind in _UNCHECKED_KINDS
                or uop.issue_cycle < 0
            ):
                continue
            for producer in (uop.src1_uop, uop.src2_uop):
                if producer is None or producer.state >= STATE_COMMITTED:
                    continue
                ptaint = producer.taint
                if ptaint == UNTAINTED or not frontier < ptaint:
                    continue
                if taint == UNTAINTED or taint < ptaint:
                    problems.append(
                        f"uop seq={uop.seq} pc={uop.pc} taint="
                        f"{'clean' if taint == UNTAINTED else taint} dropped "
                        f"the live speculative taint root {ptaint} of "
                        f"producer seq={producer.seq} (taint cleared while "
                        f"source speculative)"
                    )
        return problems
