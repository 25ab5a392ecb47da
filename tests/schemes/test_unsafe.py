"""Baseline sanity: the unsafe scheme imposes no restriction anywhere."""

import pytest

from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.core import Core
from repro.pipeline.decode import decode_instruction
from repro.pipeline.uop import MicroOp, UNTAINTED
from repro.schemes import make_scheme
from repro.schemes.base import READY

from tests.conftest import counting_loop


@pytest.fixture
def attached():
    scheme = make_scheme("unsafe")
    core = Core(counting_loop(5), scheme)
    return core, scheme


class TestNoRestrictions:
    def test_all_hooks_ready(self, attached):
        core, scheme = attached
        core.shadows.branch_dispatched(1)  # speculation everywhere
        load = MicroOp(
            10, 0, decode_instruction(Instruction(Opcode.LOAD, rd=1, rs1=2)), 0
        )
        branch = MicroOp(
            11, 0,
            decode_instruction(Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=0)), 0,
        )
        store = MicroOp(
            12, 0, decode_instruction(Instruction(Opcode.STORE, rs2=1, rs1=2)), 0
        )
        assert scheme.value_block_seq(load) == READY
        assert scheme.load_block_seq(load) == READY
        assert scheme.branch_block_seq(branch, UNTAINTED) == READY
        assert scheme.store_block_seq(store, UNTAINTED) == READY
        assert not scheme.load_is_probe(load)
        assert not scheme.is_tainted(5)
        assert scheme.load_result_taint(load) == UNTAINTED

    def test_no_taint_no_vp_no_engine(self, attached):
        core, scheme = attached
        assert not scheme.uses_taint
        assert not scheme.uses_value_prediction
        assert core.engine is None
        assert core.value_pred is None

    def test_fastest_or_tied_on_every_kernel(self):
        """The unsafe baseline must never lose to a secure scheme on the
        suite kernels (modulo tiny timing noise and the known scatter
        violation-storm corner, which the suite avoids)."""
        from repro.harness.runner import run_benchmark

        for name in ("libquantum", "hmmer", "omnetpp"):
            base = run_benchmark(name, "unsafe", warmup=800, measure=2500)
            for scheme in ("nda", "stt", "dom"):
                secure = run_benchmark(name, scheme, warmup=800, measure=2500)
                assert secure.ipc <= base.ipc * 1.03, (name, scheme)
