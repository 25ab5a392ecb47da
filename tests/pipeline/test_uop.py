"""Unit tests for the MicroOp record."""

import pytest

from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.uop import NO_FORWARD, UNTAINTED, MicroOp, UopState


def make(op=Opcode.ADD, **kwargs):
    defaults = dict(rd=1, rs1=2, rs2=3)
    if op in (Opcode.LOAD,):
        defaults = dict(rd=1, rs1=2)
    if op in (Opcode.STORE,):
        defaults = dict(rs2=1, rs1=2)
    if op in (Opcode.NOP, Opcode.HALT):
        defaults = {}
    defaults.update(kwargs)
    return MicroOp(7, 3, Instruction(op, **defaults), cycle=11)


class TestLifecyclePredicates:
    def test_initial_state(self):
        uop = make()
        assert uop.state == UopState.DISPATCHED
        assert uop.in_flight
        assert not uop.completed
        assert not uop.committed
        assert not uop.squashed

    def test_completed_states(self):
        uop = make()
        uop.state = UopState.COMPLETED
        assert uop.completed and uop.in_flight
        uop.state = UopState.COMMITTED
        assert uop.completed and uop.committed and not uop.in_flight

    def test_squashed_not_completed(self):
        uop = make()
        uop.state = UopState.SQUASHED
        assert uop.squashed
        assert not uop.completed

    def test_defaults(self):
        uop = make(Opcode.LOAD)
        assert uop.taint == UNTAINTED
        assert uop.forward_source_seq == NO_FORWARD
        assert uop.result is None
        assert not uop.dl_issued and not uop.vp_active
        assert uop.dispatch_cycle == 11


class TestIdentity:
    def test_equality_and_hash_are_object_identity(self):
        """The invariant checker tests ROB residency against ``set(rob)``,
        so two uops may be the same entry only by being the same object."""
        assert MicroOp.__eq__ is object.__eq__
        assert MicroOp.__hash__ is object.__hash__
        first, second = make(), make()
        assert first != second and len({first, second, first}) == 2


class TestClassification:
    def test_kind_passthrough(self):
        assert make(Opcode.LOAD).is_load
        assert make(Opcode.STORE).is_store
        assert make(Opcode.BEQ, rd=None, rs1=1, rs2=2, imm=0).is_branch

    def test_word_address(self):
        uop = make(Opcode.LOAD)
        uop.address = 0x1007
        assert uop.word_address == 0x1000


class TestDoppelgangerPredicates:
    def test_has_doppelganger(self):
        uop = make(Opcode.LOAD)
        assert not uop.has_doppelganger
        uop.dl_predicted_address = 0x2000
        assert uop.has_doppelganger
        uop.dl_cancelled = True
        assert not uop.has_doppelganger

    def test_hybrid_layout_contract(self):
        """Hot fields are slotted; cold fields are lazy class defaults.

        The hybrid layout (see the module docstring of ``uop``) keeps the
        every-uop hot set in ``__slots__`` for access speed, and stores
        kind-specific fields as immutable class-level defaults that an
        instance only materializes in its ``__dict__`` on first write.
        """
        uop = make(Opcode.LOAD)
        # Hot fields live in slots, not the instance dict.
        for hot in ("seq", "state", "taint", "address", "wait_count"):
            assert hot in MicroOp.__slots__
            assert hot not in uop.__dict__
        # Cold fields read through to the class default without
        # allocating per-instance storage...
        assert uop.dl_issued is False
        assert "dl_issued" not in uop.__dict__
        # ...and a write materializes only the written field.
        uop.dl_issued = True
        assert uop.__dict__ == {"dl_issued": True}
        assert MicroOp.dl_issued is False  # class default untouched

    def test_lazy_defaults_are_immutable(self):
        """Shared class-level defaults must be immutable (ints, bools,
        None) — a mutable default would alias state across every uop."""
        slotted = set(MicroOp.__slots__)
        for name, value in vars(MicroOp).items():
            if name.startswith("_") or callable(value) or name in slotted:
                continue
            if isinstance(value, property):
                continue
            assert isinstance(value, (int, bool, type(None))), (
                f"class default {name!r} is mutable: {value!r}"
            )
