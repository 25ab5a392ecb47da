"""``diff_snapshots`` against the union-sort implementation it replaced.

``union_sort_diff`` below is the earlier implementation, kept here only
as a reference: it sorted the union of both key sets on every call.  The
oracle now finds the differing keys with one symmetric difference of the
two item views.  Both are driven with random snapshot pairs in the
shapes the oracle builds, and must return identical lists in both
argument orders.  The fixed cases pin the reference's quirks, which the
rewrite keeps on purpose.

The symmetric difference needs every snapshot value to hash, so
``TestSnapshotContract`` checks that the three snapshot kinds hold only
int, bool or None values.

``TestRawStateJudgement`` holds ``arch_state_matches``, which judges the
raw state without building a snapshot, to its definition: true exactly
when the keyed diff of the two snapshots is empty.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.corpus import corpus_entry
from repro.common.config import small_config
from repro.fuzz.generator import generate_program
from repro.fuzz.profiles import PROFILES
from repro.isa.instructions import NUM_REGISTERS
from repro.isa.program import ArchState, InterpreterResult
from repro.oracle import (
    _render_key,
    arch_snapshot,
    arch_state_matches,
    diff_snapshots,
    interpret_reference,
    noninterference_check,
    reference_snapshot,
)
from repro.pipeline.core import Core
from repro.schemes import make_scheme

TRUNCATED = "... (further differences truncated)"


def union_sort_diff(reference, candidate, limit=8, ignore=()):
    """The union-sort ``diff_snapshots``: every key of both sides, sorted."""
    skipped = set(ignore)
    problems = []
    keys = sorted(
        set(reference) | set(candidate),
        key=lambda key: (str(type(key)), str(key)),
    )
    for key in keys:
        if key in skipped:
            continue
        expected = reference.get(key, "<absent>")
        actual = candidate.get(key, "<absent>")
        if expected != actual:
            problems.append(
                f"{_render_key(key)}: expected {expected!r}, got {actual!r}"
            )
            if len(problems) >= limit:
                problems.append(TRUNCATED)
                break
    return problems


#: Addresses and counts of one to seven decimal digits, so the string
#: order of keys differs from their numeric order.
ADDRESSES = st.one_of(st.integers(0, 99), st.integers(0, 1 << 22))
#: Every key shape a snapshot uses: arch and reference snapshots (halt,
#: committed count, registers, memory words) and observable snapshots
#: (bare probe addresses, watched access counts).
KEYS = st.one_of(
    st.sampled_from(["halted", "committed"]),
    st.tuples(st.just("reg"), st.integers(0, 31)),
    st.tuples(st.just("mem"), ADDRESSES),
    st.tuples(st.just("accesses"), ADDRESSES),
    ADDRESSES,
)
VALUES = st.sampled_from([0, 1, True, False, None, -1, 2**64 - 1, "<absent>"])


@st.composite
def snapshot_pairs(draw):
    """Two snapshots sharing most entries, each with its own extra or
    changed entries and its own missing keys."""
    shared = draw(st.dictionaries(KEYS, VALUES, max_size=40))
    reference = dict(shared)
    candidate = dict(shared)
    reference.update(draw(st.dictionaries(KEYS, VALUES, max_size=12)))
    candidate.update(draw(st.dictionaries(KEYS, VALUES, max_size=12)))
    if shared:
        keys = st.sampled_from(sorted(shared, key=repr))
        for key in draw(st.sets(keys, max_size=4)):
            reference.pop(key, None)
        for key in draw(st.sets(keys, max_size=4)):
            candidate.pop(key, None)
    return reference, candidate


class TestMatchesUnionSort:
    @settings(max_examples=300, deadline=None)
    @given(
        pair=snapshot_pairs(),
        limit=st.sampled_from([1, 2, 8, 1000]),
        ignored=st.sampled_from(["none", "committed", "one-sided"]),
        data=st.data(),
    )
    def test_same_list_both_ways(self, pair, limit, ignored, data):
        reference, candidate = pair
        one_sided = sorted(set(reference) ^ set(candidate), key=repr)
        if ignored == "committed":
            ignore = ("committed",)
        elif ignored == "one-sided" and one_sided:
            ignore = (data.draw(st.sampled_from(one_sided)),)
        else:
            ignore = ()
        for a, b in ((reference, candidate), (candidate, reference)):
            assert diff_snapshots(
                a, b, limit=limit, ignore=ignore
            ) == union_sort_diff(a, b, limit=limit, ignore=ignore)


class TestPinnedQuirks:
    def test_true_equals_one(self):
        assert diff_snapshots({"halted": True}, {"halted": 1}) == []
        assert diff_snapshots({("reg", 4): 1}, {("reg", 4): True}) == []

    def test_literal_absent_matches_a_missing_key(self):
        assert diff_snapshots({("mem", 8): "<absent>"}, {}) == []
        assert diff_snapshots({}, {("mem", 8): "<absent>"}) == []

    def test_exactly_limit_differences_still_truncate(self):
        reference = {("reg", index): 0 for index in range(3)}
        candidate = {("reg", index): 1 for index in range(3)}
        problems = diff_snapshots(reference, candidate, limit=3)
        assert len(problems) == 4
        assert problems[-1] == TRUNCATED
        assert diff_snapshots(reference, candidate, limit=4)[-1] != TRUNCATED

    def test_keys_sort_by_their_string(self):
        reference = {("reg", 3): 0, ("reg", 29): 0, ("mem", 16): 0, ("mem", 8): 0}
        candidate = {key: 1 for key in reference}
        assert [
            entry.split(":")[0] for entry in diff_snapshots(reference, candidate)
        ] == ["[0x10]", "[0x8]", "r29", "r3"]


def assert_values_hash(snapshot):
    for key, value in snapshot.items():
        assert value is None or type(value) in (int, bool), (key, value)
    hash(frozenset(snapshot.items()))


class TestSnapshotContract:
    def test_arch_and_reference_snapshots(self):
        for profile in PROFILES.values():
            program = generate_program(0, profile)
            assert_values_hash(reference_snapshot(interpret_reference(program)))
            core = Core(program, make_scheme("dom+ap"), config=small_config())
            core.run()
            assert_values_hash(arch_snapshot(core))

    def test_observable_snapshots(self):
        entry = corpus_entry("spectre_v1")
        snapshots = noninterference_check(
            entry.build, "unsafe", secrets=entry.secrets
        )
        assert len(snapshots) == 2
        for snapshot in snapshots.values():
            assert snapshot
            assert_values_hash(snapshot)


WORDS = st.sampled_from([0, 1, 2, 2**64 - 1])
#: Few addresses, so the two memories often share words and differ in a
#: value, in a zero-valued word one side never wrote, or not at all.
MEMORY = st.dictionaries(st.sampled_from([0, 8, 16, 0x1000]), WORDS, max_size=4)


@st.composite
def state_pairs(draw):
    """A reference state and a candidate that mostly copies it, with a
    few registers (r0 included), memory words or the halt flag changed."""
    registers = draw(st.lists(WORDS, min_size=NUM_REGISTERS, max_size=NUM_REGISTERS))
    memory = draw(MEMORY)
    halted = draw(st.booleans())
    candidate_registers = list(registers)
    changed = draw(st.dictionaries(st.integers(0, NUM_REGISTERS - 1), WORDS, max_size=3))
    for index, value in changed.items():
        candidate_registers[index] = value
    candidate_memory = dict(memory)
    for address in draw(st.sets(st.sampled_from(sorted(memory) or [0]), max_size=2)):
        candidate_memory.pop(address, None)
    candidate_memory.update(draw(MEMORY if draw(st.booleans()) else st.just({})))
    reference = InterpreterResult(
        state=ArchState(registers, memory), instructions_executed=1, halted=halted
    )
    core = SimpleNamespace(
        halted=draw(st.booleans()) if draw(st.booleans()) else halted,
        arch=ArchState(candidate_registers, candidate_memory),
        stats=SimpleNamespace(committed_instructions=draw(st.integers(0, 3))),
    )
    return core, reference


def keyed_diff(core, reference):
    return diff_snapshots(
        reference_snapshot(reference), arch_snapshot(core), ignore=("committed",)
    )


class TestRawStateJudgement:
    @settings(max_examples=500, deadline=None)
    @given(pair=state_pairs())
    def test_matches_exactly_when_the_keyed_diff_is_empty(self, pair):
        core, reference = pair
        assert arch_state_matches(core, reference) == (keyed_diff(core, reference) == [])

    def test_r0_is_left_out(self):
        core, reference = self.identical()
        core.arch.registers[0] = 5
        assert arch_state_matches(core, reference)
        assert keyed_diff(core, reference) == []

    def test_a_zero_word_differs_from_an_unwritten_one(self):
        core, reference = self.identical()
        core.arch.memory[0x40] = 0
        assert not arch_state_matches(core, reference)
        assert keyed_diff(core, reference) == ["[0x40]: expected '<absent>', got 0"]

    def test_the_committed_count_is_not_judged(self):
        core, reference = self.identical()
        core.stats.committed_instructions += 1
        assert arch_state_matches(core, reference)

    def test_halt_flag_and_registers_are(self):
        for change in (
            lambda core: setattr(core, "halted", False),
            lambda core: core.arch.registers.__setitem__(NUM_REGISTERS - 1, 1),
        ):
            core, reference = self.identical()
            change(core)
            assert not arch_state_matches(core, reference)
            assert keyed_diff(core, reference)

    @staticmethod
    def identical():
        reference = InterpreterResult(
            state=ArchState(memory={8: 3}), instructions_executed=1, halted=True
        )
        core = SimpleNamespace(
            halted=True,
            arch=reference.state.copy(),
            stats=SimpleNamespace(committed_instructions=1),
        )
        return core, reference
