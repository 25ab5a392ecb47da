"""NDA with permissive propagation (NDA-P), Weisse et al. [49].

Speculative loads are allowed to *issue* and *complete* as normal — the
memory hierarchy sees them — but their results are locked: no dependent
instruction may consume a speculatively loaded value until the load is
non-speculative (bound to become architecturally visible).  This blocks
every transmitter of a speculatively acquired secret at the source, at the
cost of delaying all dependents (no dependent ILP, no dependent MLP).

The lock is :meth:`value_block_seq`: a completed load's result stays
unreadable until the shadow frontier reaches the load itself.
"""

from __future__ import annotations

from repro.schemes.base import (
    INFINITE_SEQ,
    KIND_LOAD,
    KIND_STORE,
    READY,
    STATE_COMMITTED,
    STATE_SQUASHED,
    MicroOp,
    SecureScheme,
)


class NDAPermissive(SecureScheme):
    """Figure 1(b): performs speculative loads, never forwards their data
    while speculative."""

    name = "nda"
    blocks_spec_taint = True  # the value lock below

    # repro: hot
    def value_block_seq(self, producer: MicroOp) -> int:
        # Asked once per consumer of every completed in-flight producer:
        # the kind slot and the frontier, no property or predicate call.
        if producer.kind != KIND_LOAD:
            return READY
        seq = producer.seq
        if self.shadows.frontier() >= seq:  # non-speculative
            return READY
        self.core.stats.delayed_propagations += 1
        return seq

    def check_invariants(self, core) -> list:
        """The lock must hold: nothing consumes a speculative load's value.

        Sound without issue-time state because the shadow frontier is
        monotone — a load that was non-speculative when its dependent
        issued can never become speculative again.  So any *issued*
        dependent whose in-flight load producer is speculative *now* must
        have bypassed the lock.
        """
        # The sweep never moves the frontier: read it once.  A producer
        # is speculative iff frontier < its seq; state < COMMITTED is
        # "in flight", which already excludes squashed.  With no caster
        # live the frontier is INFINITE_SEQ and nothing is speculative.
        frontier = self.shadows.frontier()
        if frontier == INFINITE_SEQ:
            return []
        problems = []
        for uop in core.rob:
            if uop.state == STATE_SQUASHED:
                continue
            kind = uop.kind
            if uop.issue_cycle >= 0:
                # Issue gates on src1 always, src2 only for ALU/branch ops;
                # store data binds separately and is checked below.
                if kind == KIND_LOAD or kind == KIND_STORE:
                    producers = (uop.src1_uop,)
                else:
                    producers = (uop.src1_uop, uop.src2_uop)
                for producer in producers:
                    if (
                        producer is not None
                        and producer.kind == KIND_LOAD
                        and producer.state < STATE_COMMITTED
                        and frontier < producer.seq
                    ):
                        problems.append(
                            f"uop seq={uop.seq} pc={uop.pc} issued while its "
                            f"load producer seq={producer.seq} is still "
                            f"speculative (NDA value lock bypassed)"
                        )
            if kind == KIND_STORE and uop.store_data_ready:
                producer = uop.src2_uop
                if (
                    producer is not None
                    and producer.kind == KIND_LOAD
                    and producer.state < STATE_COMMITTED
                    and frontier < producer.seq
                ):
                    problems.append(
                        f"store seq={uop.seq} pc={uop.pc} bound data from "
                        f"speculative load seq={producer.seq} (NDA value "
                        f"lock bypassed)"
                    )
        return problems
