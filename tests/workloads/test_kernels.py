"""Tests for the workload kernel generators."""

import random

import pytest

from repro.common.errors import ConfigError
from repro.isa.builder import CodeBuilder
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads import kernels
from repro.workloads.kernels import (
    KERNELS,
    LIST_BASE,
    branchy_kernel,
    build_kernel,
    gather_kernel,
    hash_probe_kernel,
    pointer_chase_kernel,
    stencil_kernel,
    stream_kernel,
)


def run_briefly(program, scheme="unsafe", instructions=3000):
    core = Core(program, make_scheme(scheme))
    stats = core.run(max_instructions=instructions)
    return core, stats


class TestKernelExecution:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_kernel_runs_and_commits(self, kind):
        program = build_kernel(kind, iterations=1 << 20, seed=1)
        _, stats = run_briefly(program)
        assert stats.committed_instructions >= 3000
        assert stats.committed_loads > 0

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_kernel_halts_when_iterations_finite(self, kind):
        program = build_kernel(kind, iterations=40, seed=1)
        core = Core(program, make_scheme("unsafe"))
        core.run()
        assert core.halted

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_kernel_matches_interpreter(self, kind):
        program = build_kernel(kind, iterations=60, seed=2)
        reference = program.interpret()
        core = Core(program, make_scheme("dom+ap"))
        core.run()
        assert core.arch.read_mem(8) == reference.state.read_mem(8)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            build_kernel("fft")


class TestKernelCharacteristics:
    def test_stream_is_highly_predictable(self):
        program = stream_kernel(iterations=1 << 20, footprint_words=1 << 12, seed=3)
        core, stats = run_briefly(program, "dom+ap", 6000)
        assert stats.coverage > 0.9
        assert stats.accuracy > 0.9

    def test_shuffled_pointer_chase_defeats_predictor(self):
        program = pointer_chase_kernel(
            iterations=1 << 20, nodes=1 << 12, sequential_fraction=0.0, seed=3
        )
        core, stats = run_briefly(program, "dom+ap", 5000)
        assert stats.coverage < 0.35

    def test_sequential_pointer_chase_predictable(self):
        program = pointer_chase_kernel(
            iterations=1 << 20, nodes=1 << 12, sequential_fraction=1.0, seed=3
        )
        core, stats = run_briefly(program, "dom+ap", 5000)
        assert stats.accuracy > 0.6

    def test_gather_regularity_controls_accuracy(self):
        regular = gather_kernel(
            iterations=1 << 20, index_words=1 << 10, data_words=1 << 12,
            index_regularity=1.0, seed=4,
        )
        irregular = gather_kernel(
            iterations=1 << 20, index_words=1 << 10, data_words=1 << 12,
            index_regularity=0.0, seed=4,
        )
        _, stats_reg = run_briefly(regular, "stt+ap", 5000)
        _, stats_irr = run_briefly(irregular, "stt+ap", 5000)
        assert stats_reg.accuracy > stats_irr.accuracy

    def test_branchy_odd_fraction_controls_mispredicts(self):
        tame = branchy_kernel(iterations=1 << 20, odd_fraction=0.02, seed=5)
        wild = branchy_kernel(iterations=1 << 20, odd_fraction=0.5, seed=5)
        _, stats_tame = run_briefly(tame, "unsafe", 5000)
        _, stats_wild = run_briefly(wild, "unsafe", 5000)
        assert stats_wild.branch_mispredictions > stats_tame.branch_mispredictions * 2

    def test_hash_probe_broken_stride_lowers_accuracy(self):
        stable = hash_probe_kernel(
            iterations=1 << 20, table_words=1 << 12, key_words=1 << 10,
            broken_stride_period=0, seed=6,
        )
        breaking = hash_probe_kernel(
            iterations=1 << 20, table_words=1 << 12, key_words=1 << 10,
            broken_stride_period=4, seed=6,
        )
        _, stats_stable = run_briefly(stable, "dom+ap", 5000)
        _, stats_breaking = run_briefly(breaking, "dom+ap", 5000)
        # Random probes yield few confident (wrong) predictions; the
        # breaking-stride pattern yields confident-but-often-wrong ones.
        assert stats_breaking.dl_wrong > stats_stable.dl_wrong

    def test_stencil_emits_stores(self):
        program = stencil_kernel(iterations=1 << 20, seed=7)
        _, stats = run_briefly(program, "unsafe", 4000)
        assert stats.committed_stores > 0

    def test_dependent_check_keeps_shadows_open(self):
        """The load-dependent branch should visibly hurt DoM on a
        missing stream — that's its entire purpose."""
        checked = stream_kernel(
            iterations=1 << 20, footprint_words=1 << 18,
            dependent_check=True, odd_fraction=0.02, seed=8,
        )
        unchecked = stream_kernel(
            iterations=1 << 20, footprint_words=1 << 18,
            dependent_check=False, seed=8,
        )
        _, dom_checked = run_briefly(checked, "dom", 5000)
        _, dom_unchecked = run_briefly(unchecked, "dom", 5000)
        assert dom_checked.dom_delayed_misses > dom_unchecked.dom_delayed_misses

    def test_check_period_must_be_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            stream_kernel(dependent_check=True, check_period=3)

    def test_footprint_must_be_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            stream_kernel(footprint_words=1000)

    def test_seeds_are_reproducible(self):
        a = gather_kernel(iterations=100, seed=42)
        b = gather_kernel(iterations=100, seed=42)
        assert a.instructions == b.instructions
        assert a.initial_memory == b.initial_memory


class TestScatterKernel:
    def test_scatter_matches_interpreter(self):
        from repro.workloads.kernels import scatter_kernel

        program = scatter_kernel(iterations=80, seed=3)
        reference = program.interpret().state.read_mem(8)
        core, _ = run_briefly(program, "stt+ap", instructions=10**9)
        assert core.halted
        assert core.arch.read_mem(8) == reference

    def test_scatter_casts_store_shadows(self):
        """The scatter store's late-resolving address must actually keep
        the M-shadow machinery busy."""
        from repro.pipeline.core import Core
        from repro.schemes import make_scheme
        from repro.workloads.kernels import scatter_kernel

        core = Core(scatter_kernel(iterations=1 << 20, seed=3), make_scheme("dom"))
        saw_store_shadow = False
        for _ in range(600):
            core.step()
            if core.shadows.unresolved_stores() > 0:
                saw_store_shadow = True
                break
        assert saw_store_shadow

    def test_readback_generates_forwarding_or_violations(self):
        from repro.workloads.kernels import scatter_kernel

        program = scatter_kernel(iterations=1 << 20, readback=True, seed=3)
        _, stats = run_briefly(program, "unsafe", 6000)
        assert stats.store_to_load_forwards + stats.squashed_instructions > 0

    def test_readback_off_removes_violation_storms(self):
        from repro.workloads.kernels import scatter_kernel

        noisy = scatter_kernel(iterations=1 << 20, readback=True, seed=3)
        quiet = scatter_kernel(iterations=1 << 20, readback=False, seed=3)
        _, noisy_stats = run_briefly(noisy, "unsafe", 5000)
        _, quiet_stats = run_briefly(quiet, "unsafe", 5000)
        assert quiet_stats.squashed_instructions <= noisy_stats.squashed_instructions


# ----------------------------------------------------------------------
# The fills against the per-word loops they replaced
# ----------------------------------------------------------------------
# Each reference below is the earlier kernel code: one library
# ``randrange`` and ``random`` call per word.  The fills must draw the
# same values and leave the generator in the same state, or a stand-in
# would change and every later draw from its generator with it.


def reference_words(rng, count, odd_fraction):
    words = []
    for _ in range(count):
        value = rng.randrange(1 << 16) << 1
        if rng.random() < odd_fraction:
            value |= 1
        words.append(value)
    return words


def reference_offsets(rng, count, words, regularity):
    offsets = []
    regular_step = 0
    for _ in range(count):
        if rng.random() < regularity:
            offsets.append((regular_step * 8) % (words * 8))
            regular_step += 1
        else:
            offsets.append(rng.randrange(words) * 8)
    return offsets


def reference_keys(rng, count, table_words, period):
    keys = []
    probe = 0
    for i in range(count):
        if period:
            if i % period == period - 1:
                probe = rng.randrange(table_words)
            else:
                probe = (probe + 1) % table_words
            keys.append(probe * 8)
        else:
            keys.append(rng.randrange(table_words) * 8)
    return keys


SEEDS = (0, 7, 103)
COUNTS = (0, 1, 999)


def assert_same_draws(fill, reference, *args):
    for seed in SEEDS:
        for count in COUNTS:
            rng, reference_rng = random.Random(seed), random.Random(seed)
            assert fill(rng, count, *args) == reference(reference_rng, count, *args)
            assert rng.getstate() == reference_rng.getstate()


class TestFillsMatchTheLibraryLoops:
    @pytest.mark.parametrize("odd_fraction", [0.0, 0.05, 0.5, 1.0])
    def test_random_words(self, odd_fraction):
        """``random()`` is drawn for every word, even at fraction 0.0."""
        assert_same_draws(
            kernels._random_words, reference_words, odd_fraction
        )

    @pytest.mark.parametrize("bits", range(21))
    @pytest.mark.parametrize("regularity", [0.0, 0.7])
    def test_index_offsets(self, bits, regularity):
        assert_same_draws(
            kernels._index_offsets, reference_offsets, 1 << bits, regularity
        )

    @pytest.mark.parametrize("bits", range(21))
    @pytest.mark.parametrize("period", [0, 1, 3, 8])
    def test_probe_keys(self, bits, period):
        assert_same_draws(kernels._probe_keys, reference_keys, 1 << bits, period)

    @pytest.mark.parametrize("sequential_fraction", [0.0, 0.25, 1.0])
    def test_pointer_chase_writes_nodes_in_traversal_order(self, sequential_fraction):
        """Next pointer then payload, node by node along the cycle."""
        nodes, seed = 1 << 7, 11
        rng = random.Random(seed)
        sequence = list(range(nodes))
        shuffled_count = round((1.0 - sequential_fraction) * nodes)
        if shuffled_count > 1:
            positions = rng.sample(range(nodes), shuffled_count)
            values = [sequence[p] for p in positions]
            rng.shuffle(values)
            for position, value in zip(positions, values):
                sequence[position] = value
        reference = CodeBuilder()
        for position, current in enumerate(sequence):
            successor = sequence[(position + 1) % nodes]
            address = LIST_BASE + 16 * current
            reference.set_memory(address, LIST_BASE + 16 * successor)
            value = rng.randrange(1 << 16) << 1
            if rng.random() < 0.1:
                value |= 1
            reference.set_memory(address + 8, value)
        reference.halt()
        program = pointer_chase_kernel(
            nodes=nodes, sequential_fraction=sequential_fraction,
            odd_fraction=0.1, seed=seed,
        )
        assert list(program.initial_memory.items()) == list(
            reference.build().initial_memory.items()
        )


def test_dependent_check_labels_are_unique_within_a_builder():
    """Labels are tagged by position, not by a process-wide count, and
    two checks in one builder still branch to their own targets."""
    builder = CodeBuilder()
    kernels._emit_dependent_check(builder, value_reg=18, check_period=4)
    kernels._emit_dependent_check(builder, value_reg=18, check_period=4)
    builder.halt()
    branches = [inst.imm for inst in builder.build().instructions if inst.is_branch]
    assert branches == [5, 5, 10, 10]
