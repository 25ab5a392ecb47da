"""Doppelganger engine behaviour: prediction, issue, verification,
release rules, and the commit-only training invariant."""

import pytest

from repro.common.config import PredictorConfig, SystemConfig
from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.schemes import SCHEME_LABELS, make_scheme


def strided_loop(n=400, base=0x20000, stride=8, miss_stride=False):
    """A simple strided load loop; every load is stride-predictable."""
    b = CodeBuilder()
    step = 64 if miss_stride else stride
    for i in range(n + 8):
        b.set_memory(base + step * i, i)
    b.li(1, n)
    b.li(2, 0)
    b.li(3, 0)
    b.li(10, base)
    b.label("loop")
    b.muli(4, 2, step)
    b.add(5, 10, 4)
    b.load(6, 5)
    b.add(3, 3, 6)
    b.addi(2, 2, 1)
    b.blt(2, 1, "loop")
    b.store(3, 0, disp=8)
    b.halt()
    return b.build(name="strided_loop")


class TestPredictionAndIssue:
    def test_predictions_made_for_strided_loads(self):
        core = Core(strided_loop(), make_scheme("dom+ap"))
        core.run()
        assert core.stats.dl_predictions > 100
        assert core.stats.dl_issued > 100

    def test_high_coverage_and_accuracy_on_strided_code(self):
        core = Core(strided_loop(), make_scheme("dom+ap"))
        stats = core.run()
        assert stats.coverage > 0.8
        assert stats.accuracy > 0.9

    def test_no_engine_without_ap(self):
        core = Core(strided_loop(), make_scheme("dom"))
        core.run()
        assert core.engine is None
        assert core.stats.dl_predictions == 0

    def test_architectural_result_unchanged_by_ap(self):
        program = strided_loop()
        reference = program.interpret().state.read_mem(8)
        for scheme in SCHEME_LABELS:
            core = Core(program, make_scheme(scheme))
            core.run()
            assert core.arch.read_mem(8) == reference, scheme

    def test_verified_correct_loads_counted_at_commit(self):
        core = Core(strided_loop(), make_scheme("stt+ap"))
        stats = core.run()
        assert stats.dl_correct_commits > 0
        assert stats.dl_correct_commits <= stats.dl_covered_commits
        assert stats.dl_covered_commits <= stats.committed_loads


class TestMispredictionHandling:
    def _pointer_chase(self, shuffled=True):
        from repro.workloads.kernels import pointer_chase_kernel

        return pointer_chase_kernel(
            iterations=600,
            nodes=1 << 10,
            sequential_fraction=0.0 if shuffled else 1.0,
            seed=3,
        )

    def test_unpredictable_loads_produce_wrong_predictions(self):
        core = Core(self._pointer_chase(shuffled=True), make_scheme("stt+ap"))
        stats = core.run()
        # Pointer chase over a shuffled list: predictions mostly wrong or
        # absent, never crashing and never corrupting state.
        assert stats.dl_wrong >= 0
        assert stats.accuracy < 0.5

    def test_mispredicted_load_still_correct(self):
        program = self._pointer_chase(shuffled=True)
        reference = program.interpret().state.read_mem(8)
        for scheme in ("nda+ap", "stt+ap", "dom+ap"):
            core = Core(program, make_scheme(scheme))
            core.run()
            assert core.arch.read_mem(8) == reference, scheme

    def test_no_squash_on_misprediction(self):
        """§5.1: a wrong doppelganger discards the preload — it never
        squashes instructions (unlike value misprediction)."""
        program = self._pointer_chase(shuffled=True)
        plain = Core(program, make_scheme("stt"))
        plain.run()
        with_ap = Core(program, make_scheme("stt+ap"))
        with_ap.run()
        # Squashes come only from branch/memory mispredictions, which are
        # identical with and without AP (same committed path).
        assert abs(
            with_ap.stats.branch_mispredictions - plain.stats.branch_mispredictions
        ) <= plain.stats.branch_mispredictions * 0.2 + 8


class TestCommitOnlyTraining:
    def test_squashed_loads_never_train_the_table(self):
        """The security-critical invariant: wrong-path loads must not
        reach the stride table.  Train on a program whose wrong paths
        load from a poison address repeatedly; the poison PC must have no
        table entry afterwards."""
        b = CodeBuilder()
        b.set_memory(0x30000, 1)
        b.li(1, 200)
        b.li(2, 0)
        b.li(10, 0x7000)
        b.label("loop")
        b.addi(2, 2, 1)
        # Taken branch; the fall-through (wrong path when predicted
        # not-taken early on) contains the poison load.
        b.beq(2, 2, "over")
        poison_pc = b.here
        b.load(9, 10)               # only ever on the wrong path
        b.label("over")
        b.blt(2, 1, "loop")
        b.halt()
        program = b.build()
        core = Core(program, make_scheme("dom+ap"))
        core.run()
        assert core.stats.squashed_instructions > 0
        assert core.stride.entry_for(poison_pc) is None

    def test_trainings_match_committed_loads(self):
        core = Core(strided_loop(), make_scheme("unsafe+ap"))
        stats = core.run()
        assert core.stride.trainings == stats.committed_loads


class TestReleaseRules:
    def test_dom_ap_miss_released_at_nonspec(self):
        """DoM+AP: a correct doppelganger that missed in the L1 must not
        complete before the load's visibility point."""
        core = Core(strided_loop(miss_stride=True), make_scheme("dom+ap"))
        stats = core.run()
        assert stats.dl_released_early > 0
        # Architectural equivalence is covered elsewhere; here we check
        # the release machinery actually ran through the nonspec path.
        assert stats.dl_correct > 0

    def test_multi_instance_aging_improves_accuracy(self):
        base_cfg = SystemConfig()
        naive_cfg = SystemConfig(
            predictor=PredictorConfig(multi_instance_aging=False)
        )
        program = strided_loop(miss_stride=True)
        aged = Core(program, make_scheme("stt+ap"), config=base_cfg)
        aged_stats = aged.run()
        naive = Core(program, make_scheme("stt+ap"), config=naive_cfg)
        naive_stats = naive.run()
        assert aged_stats.accuracy >= naive_stats.accuracy
