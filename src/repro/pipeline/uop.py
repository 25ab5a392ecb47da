"""Dynamic instruction state (micro-ops).

A :class:`MicroOp` wraps one dynamic instance of a static instruction with
everything the out-of-order core, the secure-speculation scheme, and the
doppelganger engine need to track: renamed operands, execution state,
taint, shadow status, and doppelganger bookkeeping.

A simulation creates one MicroOp per fetched (including wrong-path)
instruction, so construction cost is a first-order term in simulator
throughput.  The layout is a hybrid:

* fields every uop touches (identity, rename, scoreboard, execution
  state) live in ``__slots__`` and are initialized eagerly — slot access
  is the fastest attribute path and these are read millions of times;
* kind-specific fields (branch prediction state, store data, DoM and
  doppelganger/value-prediction bookkeeping) are *class-level defaults*:
  an instance materializes one in its ``__dict__`` (allocated lazily,
  only for uops that write such a field) the first time a stage writes
  it.  Reads of never-written fields fall back to the class default,
  which is semantically identical to eager initialization because every
  default is immutable (ints, bools, None).

Dispatch builds each uop once, with its final fields: the constructor
takes the decoded entry (:mod:`repro.pipeline.decode`), the branch
history and the renamed sources, so dispatch writes no field a second
time: it only records what happens next (entering the issue queue, a
wakeup wait, a branch prediction).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.pipeline.decode import DecodedEntry

UNTAINTED = -1
"""Taint value meaning "not derived from any speculative load"."""

NO_FORWARD = -1
"""forward_source_seq value when the load's data came from memory."""


class UopState(enum.IntEnum):
    """Lifecycle of a micro-op.

    Loads add orthogonal sub-state (address_ready, executed, completed)
    because address generation and the memory access are separate events.

    ``MicroOp.state`` stores these as **plain ints** (the module-level
    ``STATE_*`` constants) — hot paths compare against int literals; an
    IntEnum compares equal to its int value, so both spellings work.
    """

    DISPATCHED = 0
    ISSUED = 1
    COMPLETED = 2
    COMMITTED = 3
    SQUASHED = 4


# Plain-int mirrors of UopState used on hot paths (enum attribute access
# and enum __eq__ cost real time at MicroOp volumes).
STATE_DISPATCHED = 0
STATE_ISSUED = 1
STATE_COMPLETED = 2
STATE_COMMITTED = 3
STATE_SQUASHED = 4


class MicroOp:
    """One dynamic instruction in flight.

    Slotted fields are the every-uop hot set (initialized eagerly);
    class attributes below are lazy per-field defaults for kind-specific
    state (see module docstring).  All defaults are immutable, so
    sharing them is safe — the one mutable field (``waiters``) defaults
    to None and is lazily replaced with a fresh list by the first
    waiter registration.
    """

    __slots__ = (
        "seq",
        "pc",
        "inst",
        "kind",
        "dec",
        "state",
        "dispatch_cycle",
        "issue_cycle",
        # Renamed sources: producing MicroOp or a snapshotted value.
        "src1_uop",
        "src1_value",
        "src2_uop",
        "src2_value",
        "prev_producer",
        # Results
        "result",
        # Taint (STT): max sequence number of any speculative root load.
        "taint",
        # Scoreboard wakeup state
        "waiters",
        "wait_count",
        "in_iq",
        "in_ready",
        # Load/store hot state
        "address",
        "address_ready",
        "executed",
        "forward_source_seq",
        "bp_history",
        # Lazy kind-specific fields land here (allocated on first write).
        "__dict__",
    )

    # Branch state
    predicted_taken = False
    actual_taken = False
    predicted_target = -1
    branch_resolved = False
    # Store / DoM state
    store_data_ready = False
    dom_delayed = False
    dom_touch_pending = False
    access_level = 0
    waiting_for_nonspec = False
    # Doppelganger state
    dl_predicted_address: Optional[int] = None
    dl_issued = False
    dl_completion_cycle = -1
    dl_l1_hit = False
    dl_verified = False
    dl_correct = False
    dl_cancelled = False
    dl_invalidated = False
    dl_forwarded = False
    dl_used = False
    # Value prediction (DoM+VP extension)
    vp_active = False
    vp_real_value = 0

    # repro: hot
    def __init__(
        self,
        seq: int,
        pc: int,
        dec: "DecodedEntry",
        cycle: int,
        bp_history: int = 0,
        src1_uop: Optional["MicroOp"] = None,
        src1_value: int = 0,
        src2_uop: Optional["MicroOp"] = None,
        src2_value: int = 0,
        prev_producer: Optional["MicroOp"] = None,
    ):
        """One dynamic instance of the decoded instruction ``dec``.

        ``srcN_uop`` is the in-flight producer rename found for source N;
        without one, ``srcN_value`` is the value read at rename.
        ``prev_producer`` is the producer the destination's rename
        shadowed (restored on a squash), ``bp_history`` the branch
        history at fetch.
        """
        self.seq = seq
        self.pc = pc
        self.dec = dec
        self.inst = dec[0]
        self.kind = dec[1]
        self.state = STATE_DISPATCHED
        self.dispatch_cycle = cycle
        self.issue_cycle = -1
        self.src1_uop = src1_uop
        self.src1_value = src1_value
        self.src2_uop = src2_uop
        self.src2_value = src2_value
        self.prev_producer = prev_producer
        self.result: Optional[int] = None
        self.taint = UNTAINTED
        self.waiters: Optional[list] = None
        self.wait_count = 0
        self.in_iq = False
        self.in_ready = False
        self.address = -1
        self.address_ready = False
        self.executed = False
        self.forward_source_seq = NO_FORWARD
        self.bp_history = bp_history

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    @property
    def squashed(self) -> bool:
        return self.state == STATE_SQUASHED

    @property
    def committed(self) -> bool:
        return self.state == STATE_COMMITTED

    @property
    def completed(self) -> bool:
        state = self.state
        return state == STATE_COMPLETED or state == STATE_COMMITTED

    @property
    def in_flight(self) -> bool:
        return self.state < STATE_COMMITTED

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def is_store(self) -> bool:
        return self.inst.is_store

    @property
    def is_branch(self) -> bool:
        return self.inst.is_branch

    @property
    def has_doppelganger(self) -> bool:
        """An address prediction exists and has not been cancelled."""
        return self.dl_predicted_address is not None and not self.dl_cancelled

    @property
    def word_address(self) -> int:
        """The 8-byte-aligned address (forwarding/violation granularity)."""
        return self.address & ~7

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MicroOp(seq={self.seq}, pc={self.pc}, "
            f"{self.inst.disassemble()!r}, state={UopState(self.state).name})"
        )
