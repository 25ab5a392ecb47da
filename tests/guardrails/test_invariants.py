"""Seeded fault-injection tests for the invariant checker.

Each test runs a healthy core partway through the doctor smoke program,
deliberately corrupts one microarchitectural structure the way a real
wrong-path bug would, and asserts that the matching invariant class —
and only a typed :class:`InvariantViolationError` — reports it, carrying
a usable machine-state snapshot.

``TestEveryViolationTemplate`` then pins the exact text of every
violation template the checker and the scheme hooks can emit, each from
one corruption of a window built uop by uop.
"""

import json

import pytest

from repro.common.config import GuardrailConfig, small_config
from repro.common.errors import InvariantViolationError
from repro.guardrails import InvariantChecker, smoke_program
from repro.isa.instructions import Instruction, Opcode
from repro.pipeline.core import Core
from repro.pipeline.decode import decode_instruction
from repro.pipeline.shadows import INFINITE_SEQ
from repro.pipeline.uop import STATE_COMMITTED, STATE_COMPLETED, MicroOp, UopState
from repro.schemes import SCHEME_LABELS, make_scheme


def make_core(scheme="unsafe", level="full", dump_dir=None, instructions=600):
    """A healthy mid-flight core: warm pipeline, nothing committed fully."""
    config = small_config().with_overrides(
        guardrails=GuardrailConfig(
            level=level, dump_dir=str(dump_dir) if dump_dir else None
        )
    )
    core = Core(smoke_program(), make_scheme(scheme), config=config)
    core.run(max_instructions=instructions)
    assert not core.halted, "smoke program must still be mid-flight"
    return core


def check_raises(core, invariant):
    with pytest.raises(InvariantViolationError) as excinfo:
        InvariantChecker(core).check()
    error = excinfo.value
    assert error.invariant == invariant
    assert error.violations and all(
        violation.startswith(f"[{invariant}]") for violation in error.violations
    )
    # The snapshot must be there, structured, and name the failure site.
    assert error.snapshot["cycle"] == core.cycle
    assert error.snapshot["scheme"] == core.scheme.describe()
    assert "occupancy" in error.snapshot
    assert "memory" in error.snapshot
    return error


class TestHealthyBaseline:
    def test_mid_flight_core_is_clean(self):
        core = make_core()
        assert all(not v for v in InvariantChecker(core).audit().values())


class TestRenameLeak:
    def test_leaked_squashed_producer_is_caught(self):
        core = make_core()
        # A wrong-path bug that forgets to unwind the map: detach a
        # non-memory producer from the ROB and mark it squashed while its
        # rename-map entry survives.
        reg, victim = next(
            (reg, uop)
            for reg, uop in core.rename.items()
            if not uop.is_load and not uop.is_store
        )
        core.rob.remove(victim)
        if victim.in_iq:
            victim.in_iq = False
            core.iq_count -= 1
        victim.state = UopState.SQUASHED
        error = check_raises(core, "rename")
        assert "leaked across squash" in str(error)
        assert f"r{reg}" in str(error)

    def test_guardrails_off_has_no_checker(self):
        core = make_core(level="off")
        assert core.invariant_checker is None


class TestStepCadence:
    def test_corruption_is_caught_by_the_running_core(self):
        """The checker plugged into Core.step() trips on the next sweep.

        Uses an MSHR orphan because it cannot self-heal: a leaked rename
        entry is often re-mapped by the next dispatched writer, but a
        bogus in-flight line pinned past the memory horizon stays pinned.
        """
        core = make_core(level="full")
        core.hierarchy.mshrs._outstanding[0xDEAD] = core.cycle + 10**9
        with pytest.raises(InvariantViolationError) as excinfo:
            core.run(max_instructions=10_000)
        assert excinfo.value.invariant == "mshr"

    def test_off_level_runs_through_corruption(self):
        """--guardrails off: same corruption, no checker, no raise."""
        core = make_core(level="off")
        core.hierarchy.mshrs._outstanding[0xDEAD] = core.cycle + 10**9
        core.run(max_instructions=700)  # must not raise


class TestRobInvariants:
    def test_age_order_violation(self):
        core = make_core()
        assert len(core.rob) >= 2
        core.rob[0], core.rob[1] = core.rob[1], core.rob[0]
        error = check_raises(core, "rob")
        assert "not age-ordered" in str(error)

    def test_iq_accounting_imbalance(self):
        core = make_core()
        core.iq_count += 3
        error = check_raises(core, "rob")
        assert "IQ" in str(error)


class TestLsqInvariants:
    def test_non_load_in_load_queue(self):
        core = make_core()
        intruder = next(uop for uop in core.rob if not uop.is_load)
        core.lq.append(intruder)
        error = check_raises(core, "lsq")
        assert "is not a load" in str(error) or "not age-ordered" in str(error)


class TestMshrInvariants:
    def test_orphaned_miss_is_caught(self):
        core = make_core()
        # An entry pinned absurdly far past the worst-case latency can
        # never have come from a real allocation.
        core.hierarchy.mshrs._outstanding[0xDEAD] = core.cycle + 10**9
        error = check_raises(core, "mshr")
        assert "orphan" in str(error)

    def test_overfilled_mshr_file_is_caught(self):
        core = make_core()
        mshrs = core.hierarchy.mshrs
        horizon = core.cycle + core.hierarchy.max_latency
        for line in range(mshrs.entries + 1):
            mshrs._outstanding[0x5000 + line] = horizon
        error = check_raises(core, "mshr")
        assert "capacity" in str(error) or "entries" in str(error)


class TestShadowInvariants:
    def test_caster_outliving_instruction_is_caught(self):
        core = make_core()
        core.shadows.branch_dispatched(core.rob[-1].seq + 50)
        error = check_raises(core, "shadows")
        assert "outlived" in str(error)

    def test_untracked_unresolved_branch_is_caught(self):
        core = make_core()
        victim_seq = None
        for uop in core.rob:
            if uop.inst.is_conditional_branch and not uop.branch_resolved:
                victim_seq = uop.seq
                break
        if victim_seq is None:
            pytest.skip("no unresolved branch in flight at the stop point")
        core.shadows.branch_resolved(victim_seq)
        error = check_raises(core, "shadows")
        assert "casts no shadow" in str(error)


class TestDoppelgangerInvariants:
    def test_dropped_replay_is_caught(self):
        core = make_core(scheme="dom+ap", instructions=900)
        victim = next((uop for uop in core.lq if uop.in_flight), None)
        if victim is None:
            pytest.skip("no in-flight load at the stop point")
        # A mispredicted preload must replay the real access before the
        # load may complete; forge the "completed without replay" state.
        victim.dl_predicted_address = victim.dl_predicted_address or 0x40
        victim.dl_verified = True
        victim.dl_correct = False
        victim.dl_cancelled = False
        victim.executed = False
        victim.vp_active = False
        victim.state = UopState.COMPLETED
        error = check_raises(core, "doppelganger")
        joined = " ".join(error.violations)
        assert "dropped replay" in joined or "imbalance" in joined

    def test_unverified_preload_consumption_is_caught(self):
        core = make_core(scheme="dom+ap", instructions=900)
        victim = next((uop for uop in core.lq if uop.in_flight), None)
        if victim is None:
            pytest.skip("no in-flight load at the stop point")
        victim.dl_predicted_address = victim.dl_predicted_address or 0x40
        victim.dl_used = True
        victim.dl_correct = False
        error = check_raises(core, "doppelganger")
        assert "without a verified-correct prediction" in str(error) or (
            "imbalance" in str(error)
        )


class TestSchemeInvariants:
    def test_stt_taint_sanity(self):
        core = make_core(scheme="stt")
        victim = core.rob[-1]
        victim.taint = victim.seq + 100  # tainted by the future
        error = check_raises(core, "scheme")
        assert "taint" in str(error)

    def test_dom_delayed_load_touching_replacement_state(self):
        core = make_core(scheme="dom", instructions=900)
        victim = next((uop for uop in core.lq if uop.in_flight), None)
        if victim is None:
            pytest.skip("no in-flight load at the stop point")
        victim.dom_delayed = True
        victim.executed = False
        victim.dom_touch_pending = True
        error = check_raises(core, "scheme")
        assert "replacement" in str(error) or "delayed" in str(error)


class TestCrashDumps:
    def test_violation_writes_dump_file(self, tmp_path):
        core = make_core(dump_dir=tmp_path)
        core.hierarchy.mshrs._outstanding[0xDEAD] = core.cycle + 10**9
        error = check_raises(core, "mshr")
        assert error.dump_path is not None
        dump = tmp_path / error.dump_path.split("/")[-1]
        assert dump.exists()
        text = dump.read_text()
        assert "pipeline occupancy" in text
        assert "[mshr]" in text  # the violations section names the class
        # The dump ends with the raw machine-readable snapshot.
        json_part = text.split("raw snapshot (json)", 1)[1]
        payload = json.loads(json_part[json_part.index("{") :])
        assert payload["cycle"] == core.cycle
        assert payload["program"] == "guardrail_smoke"

    def test_no_dump_dir_means_no_path(self):
        core = make_core()
        core.iq_count += 1
        error = check_raises(core, "rob")
        assert error.dump_path is None


# ----------------------------------------------------------------------
# Every violation template, one targeted corruption each
# ----------------------------------------------------------------------
#
# Each case builds a small, healthy window on a fresh core uop by uop,
# applies one corruption, and pins the exact violation text it must
# produce: the strings below are the checker's public output (crash
# dumps, fuzz findings), so any change to one shows up here.  Building
# the window by hand means no case depends on what happens to be in
# flight at some stop point, so none can skip.

_INSTRUCTIONS = {
    "alu": Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3),
    "load": Instruction(Opcode.LOAD, rd=4, rs1=5, imm=8),
    "store": Instruction(Opcode.STORE, rs1=5, rs2=6, imm=16),
    "branch": Instruction(Opcode.BEQ, rs1=1, rs2=2, imm=0),
}


class Window:
    """A fresh (never run) core whose in-flight window is built by hand.

    :meth:`add` dispatches one uop at the young end the way the core
    would: ROB, then LQ or SQ, then a shadow caster for an unresolved
    branch or store address.  Everything else stays empty, so the window
    is clean until a case corrupts it.
    """

    def __init__(self, scheme):
        config = small_config().with_overrides(
            guardrails=GuardrailConfig(level="full")
        )
        self.core = Core(smoke_program(), make_scheme(scheme), config=config)

    def add(self, kind, **fields):
        core = self.core
        seq = core.next_seq
        core.next_seq += 1
        dec = decode_instruction(_INSTRUCTIONS[kind], core.config)
        uop = MicroOp(seq, 40 + 3 * seq, dec, core.cycle)
        for name, value in fields.items():
            setattr(uop, name, value)
        core.rob.append(uop)
        if kind == "load":
            core.lq.append(uop)
        elif kind == "store":
            core.sq.append(uop)
            if not uop.address_ready:
                core.shadows.store_dispatched(seq)
        elif kind == "branch" and not uop.branch_resolved:
            core.shadows.branch_dispatched(seq)
        return uop

    def predicted(self, **fields):
        """A load carrying an address prediction the engine accounts for."""
        load = self.add("load", dl_predicted_address=0x40, **fields)
        engine = self.core.engine
        engine._outstanding[load.pc] = engine._outstanding.get(load.pc, 0) + 1
        return load


#: name -> (scheme, class the violation belongs to, class check() raises,
#: builder).  A builder corrupts a fresh window and returns the exact
#: violation list its class must report.
TEMPLATE_CASES = {}


def template(cls, scheme="unsafe", raises=None):
    def register(build):
        TEMPLATE_CASES[build.__name__] = (scheme, cls, raises or cls, build)
        return build

    return register


# --- rob ---------------------------------------------------------------
@template("rob")
def rob_over_capacity(w):
    capacity = w.core.config.core.rob_entries
    for _ in range(capacity + 1):
        w.add("alu")
    return [f"ROB holds {capacity + 1} entries, capacity is {capacity}"]


@template("rob")
def rob_out_of_age_order(w):
    older, younger = w.add("alu"), w.add("alu")
    w.core.rob.reverse()
    return [f"ROB not age-ordered: seq={older.seq} follows seq={younger.seq}"]


@template("rob")
def rob_holds_dead_entry(w):
    w.add("alu")
    dead = w.add("alu")
    w.add("alu")
    dead.state = UopState.SQUASHED
    return [f"ROB contains a SQUASHED entry seq={dead.seq} (must have been removed)"]


@template("rob")
def rob_iq_accounting_imbalance(w):
    w.add("alu", in_iq=True)
    w.add("alu", in_iq=True)
    w.core.iq_count = 1
    return ["IQ accounting imbalance: counter says 1, ROB holds 2 entries flagged in_iq"]


@template("rob")
def rob_iq_over_capacity(w):
    capacity = w.core.config.core.iq_entries
    for _ in range(capacity + 1):
        w.add("alu", in_iq=True)
    w.core.iq_count = capacity + 1
    return [f"IQ occupancy {capacity + 1} outside [0, {capacity}]"]


# --- rename ------------------------------------------------------------
def _unmapped_producer(w, state=None):
    """A register writer whose map entry survives its leaving the ROB."""
    w.add("alu")
    producer = w.add("alu")
    w.core.rename[7] = producer
    w.core.rob.remove(producer)
    if state is not None:
        producer.state = state
    return producer


@template("rename")
def rename_points_at_squashed(w):
    producer = _unmapped_producer(w, UopState.SQUASHED)
    return [
        f"rename map r7 points at squashed seq={producer.seq} "
        f"(physical register leaked across squash)"
    ]


@template("rename")
def rename_points_at_committed(w):
    producer = _unmapped_producer(w, UopState.COMMITTED)
    return [
        f"rename map r7 points at committed seq={producer.seq} "
        f"(stale mapping survived commit)"
    ]


@template("rename")
def rename_points_at_non_resident(w):
    producer = _unmapped_producer(w)
    return [f"rename map r7 points at seq={producer.seq} which is not ROB-resident"]


# --- lsq ---------------------------------------------------------------
@template("lsq")
def lsq_over_capacity(w):
    capacity = w.core.config.core.lq_entries
    for _ in range(capacity + 1):
        w.add("load")
    return [f"LQ holds {capacity + 1} entries, capacity {capacity}"]


@template("lsq")
def lsq_out_of_age_order(w):
    w.add("alu")
    older, younger = w.add("load"), w.add("load")
    w.core.lq.reverse()
    return [f"LQ not age-ordered: seq={older.seq} follows seq={younger.seq}"]


@template("lsq")
def lsq_non_load_in_lq(w):
    intruder = w.add("alu")
    w.core.lq.append(intruder)
    return [f"LQ entry seq={intruder.seq} is not a load"]


@template("lsq")
def lsq_non_store_in_sq(w):
    intruder = w.add("alu")
    w.core.sq.append(intruder)
    return [f"SQ entry seq={intruder.seq} is not a store"]


@template("lsq")
def lsq_squashed_entry(w):
    load = w.add("load")
    w.core.rob.remove(load)
    load.state = UopState.SQUASHED
    return [f"LQ entry seq={load.seq} is squashed but was never pruned"]


@template("lsq")
def lsq_non_resident_entry(w):
    w.add("load")
    store = w.add("store", address_ready=True)
    w.core.rob.remove(store)
    return [f"SQ entry seq={store.seq} does not map to a live ROB entry"]


# --- mshr --------------------------------------------------------------
@template("mshr")
def mshr_over_capacity(w):
    mshrs = w.core.hierarchy.mshrs
    ready = w.core.cycle + w.core.hierarchy.max_latency
    for line in range(mshrs.entries + 1):
        mshrs._outstanding[0x5000 + line] = ready
    return [f"MSHR occupancy {mshrs.entries + 1} exceeds capacity {mshrs.entries}"]


@template("mshr")
def mshr_orphaned_miss(w):
    cycle = w.core.cycle
    latency = w.core.hierarchy.max_latency
    w.core.hierarchy.mshrs._outstanding[0xDEAD] = cycle + 10**9
    return [
        f"orphaned MSHR for line 0xdead: completion {cycle + 10**9} is beyond "
        f"the worst-case horizon {cycle + latency} (cycle {cycle} + max "
        f"latency {latency})"
    ]


# --- shadows -----------------------------------------------------------
@template("shadows")
def shadows_branch_caster_outlived(w):
    w.add("branch")
    seq = w.core.next_seq + 50
    w.core.shadows.branch_dispatched(seq)
    return [
        f"branch shadow caster seq={seq} outlived its casting instruction "
        f"(not in ROB)"
    ]


@template("shadows")
def shadows_branch_caster_not_a_branch(w):
    impostor = w.add("alu")
    w.core.shadows.branch_dispatched(impostor.seq)
    return [f"branch shadow caster seq={impostor.seq} is not a conditional branch"]


@template("shadows")
def shadows_branch_caster_resolved(w):
    branch = w.add("branch")
    branch.branch_resolved = True
    return [
        f"branch shadow caster seq={branch.seq} is already resolved but still "
        f"casts a shadow"
    ]


@template("shadows")
def shadows_store_caster_outlived(w):
    w.add("store")
    seq = w.core.next_seq + 50
    w.core.shadows.store_dispatched(seq)
    return [
        f"store shadow caster seq={seq} outlived its casting instruction "
        f"(not in ROB)"
    ]


@template("shadows")
def shadows_store_caster_not_a_store(w):
    impostor = w.add("load")
    w.core.shadows.store_dispatched(impostor.seq)
    return [f"store shadow caster seq={impostor.seq} is not a store"]


@template("shadows")
def shadows_store_caster_resolved(w):
    store = w.add("store")
    store.address_ready = True
    return [
        f"store shadow caster seq={store.seq} has a resolved address but "
        f"still casts a shadow"
    ]


@template("shadows")
def shadows_untracked_branch(w):
    w.add("branch")
    branch = w.add("branch")
    w.core.shadows.branch_resolved(branch.seq)
    return [
        f"unresolved branch seq={branch.seq} casts no shadow (speculation "
        f"window under-approximated)"
    ]


@template("shadows")
def shadows_untracked_store(w):
    store = w.add("store")
    w.add("store")
    w.core.shadows.store_address_resolved(store.seq)
    return [
        f"unresolved store seq={store.seq} casts no shadow (speculation "
        f"window under-approximated)"
    ]


# --- doppelganger ------------------------------------------------------
@template("doppelganger", scheme="dom+ap")
def doppelganger_unverified_preload_used(w):
    w.predicted()
    load = w.predicted(dl_used=True, dl_correct=False)
    return [
        f"load seq={load.seq} pc={load.pc} consumed its preload without a "
        f"verified-correct prediction"
    ]


@template("doppelganger", scheme="dom+ap")
def doppelganger_dropped_replay(w):
    load = w.predicted(dl_issued=True, dl_verified=True, dl_correct=False)
    load.state = STATE_COMPLETED
    return [
        f"load seq={load.seq} pc={load.pc} completed after a mispredicted "
        f"doppelganger without replaying the real access (dropped replay)"
    ]


@template("doppelganger", scheme="dom+ap")
def doppelganger_instance_imbalance(w):
    w.predicted()
    w.add("load", dl_predicted_address=0x80)
    return [
        "doppelganger instance accounting imbalance: engine tracks 1 in-flight "
        "predicted instances, ROB holds 2"
    ]


# --- scheme: NDA -------------------------------------------------------
@template("scheme", scheme="nda")
def nda_consumer_issued_under_lock(w):
    w.add("branch")
    load = w.add("load")
    consumer = w.add("alu", src1_uop=load, issue_cycle=3)
    return [
        f"uop seq={consumer.seq} pc={consumer.pc} issued while its load "
        f"producer seq={load.seq} is still speculative (NDA value lock "
        f"bypassed)"
    ]


@template("scheme", scheme="nda")
def nda_store_bound_locked_data(w):
    w.add("branch")
    load = w.add("load")
    store = w.add("store", src2_uop=load, store_data_ready=True)
    return [
        f"store seq={store.seq} pc={store.pc} bound data from speculative "
        f"load seq={load.seq} (NDA value lock bypassed)"
    ]


# --- scheme: STT -------------------------------------------------------
@template("scheme", scheme="stt")
def stt_impossible_taint_root(w):
    w.add("alu")
    victim = w.add("alu")
    victim.taint = victim.seq + 100
    return [
        f"uop seq={victim.seq} pc={victim.pc} carries impossible taint root "
        f"{victim.seq + 100} (must lie in [0, seq])"
    ]


@template("scheme", scheme="stt")
def stt_dropped_taint(w):
    w.add("branch")
    load = w.add("load")
    load.taint = load.seq
    consumer = w.add("alu", src1_uop=load, issue_cycle=3)
    return [
        f"uop seq={consumer.seq} pc={consumer.pc} taint=clean dropped the "
        f"live speculative taint root {load.seq} of producer seq={load.seq} "
        f"(taint cleared while source speculative)"
    ]


# --- scheme: DoM -------------------------------------------------------
@template("scheme", scheme="dom")
def dom_delayed_load_touches_replacement(w):
    load = w.add("load", dom_delayed=True, dom_touch_pending=True)
    return [
        f"delayed load seq={load.seq} pc={load.pc} has a pending L1 "
        f"replacement update (DoM must not touch replacement state for "
        f"delayed loads)"
    ]


@template("scheme", scheme="dom")
def dom_delayed_load_bound_value(w):
    load = w.add("load", dom_delayed=True, result=7)
    return [
        f"delayed load seq={load.seq} pc={load.pc} bound a value without "
        f"performing its access"
    ]


@template("scheme", scheme="dom")
def dom_completed_without_access(w):
    load = w.add("load")
    load.state = STATE_COMPLETED
    return [
        f"load seq={load.seq} pc={load.pc} completed without a memory "
        f"access, forward, or doppelganger release (dropped replay)"
    ]


# --- scheme: DoM+VP ----------------------------------------------------
@template("scheme", scheme="dom+vp")
def dom_vp_prediction_without_delay(w):
    load = w.add("load", vp_active=True)
    return [
        f"load seq={load.seq} pc={load.pc} is value-predicted but was never "
        f"a delayed miss"
    ]


@template("scheme", scheme="dom+vp", raises="lsq")
def dom_vp_committed_unvalidated(w):
    # Commit removes a load from the ROB; one that stays in the LQ is
    # already an lsq fault, so check() stops there and audit() shows the
    # scheme's own view of the same state.
    load = w.add("load", vp_active=True, dom_delayed=True)
    w.core.rob.remove(load)
    load.state = STATE_COMMITTED
    return [
        f"load seq={load.seq} pc={load.pc} committed with an unvalidated "
        f"value prediction"
    ]


#: Violation templates per class (per scheme for the scheme class).
TEMPLATE_COUNTS = {
    "rob": 5,
    "rename": 3,
    "lsq": 6,
    "mshr": 2,
    "shadows": 8,
    "doppelganger": 3,
    "scheme/nda": 2,
    "scheme/stt": 2,
    "scheme/dom": 3,
    "scheme/dom+vp": 2,
}


class TestEveryViolationTemplate:
    def test_one_case_per_template(self):
        counts = {}
        for scheme, cls, _, _ in TEMPLATE_CASES.values():
            key = f"{cls}/{scheme}" if cls == "scheme" else cls
            counts[key] = counts.get(key, 0) + 1
        assert counts == TEMPLATE_COUNTS
        assert sum(counts.values()) == 36

    @pytest.mark.parametrize("scheme", SCHEME_LABELS)
    def test_hand_built_window_is_clean(self, scheme):
        w = Window(scheme)
        w.add("alu", in_iq=True)
        w.core.iq_count = 1
        w.add("branch")
        load = w.add("load")
        w.add("alu", src1_uop=load)
        w.add("store", src2_uop=load)
        w.add("branch", branch_resolved=True)
        w.add("store", address_ready=True)
        assert all(not v for v in InvariantChecker(w.core).audit().values())
        InvariantChecker(w.core).check()

    @pytest.mark.parametrize("name", list(TEMPLATE_CASES))
    def test_violation_text(self, name):
        scheme, cls, raises, build = TEMPLATE_CASES[name]
        w = Window(scheme)
        expected = build(w)
        checker = InvariantChecker(w.core)
        assert checker.audit()[cls] == expected
        error = check_raises(w.core, raises)
        if raises == cls:
            assert error.violations == [f"[{cls}] {text}" for text in expected]


class TestSchemeHookBoundaries:
    """Clean windows on the edges of the scheme hooks' conditions.

    A root or producer exactly on the shadow frontier is no longer
    speculative, and a committed producer is out of the lock's reach.
    Only the scheme class is asserted: pinning the frontier on a load
    is itself a shadows fault.
    """

    @staticmethod
    def scheme_violations(w):
        return InvariantChecker(w.core).audit()["scheme"]

    def test_nda_consumer_of_a_load_on_the_frontier(self):
        w = Window("nda")
        load = w.add("load")
        w.add("alu", src1_uop=load, issue_cycle=3)
        w.core.shadows.branch_dispatched(load.seq)
        assert self.scheme_violations(w) == []

    def test_nda_store_data_from_a_load_on_the_frontier(self):
        w = Window("nda")
        load = w.add("load")
        w.add("store", src2_uop=load, store_data_ready=True, address_ready=True)
        w.core.shadows.branch_dispatched(load.seq)
        assert self.scheme_violations(w) == []

    def test_nda_consumer_of_a_committed_load(self):
        w = Window("nda")
        w.add("branch")
        load = w.add("load")
        w.add("alu", src1_uop=load, issue_cycle=3)
        w.core.rob.remove(load)
        w.core.lq.remove(load)
        load.state = STATE_COMMITTED
        assert self.scheme_violations(w) == []

    def test_stt_taint_root_on_the_frontier(self):
        w = Window("stt")
        branch = w.add("branch")
        producer = w.add("alu", taint=branch.seq)
        w.add("alu", src1_uop=producer, issue_cycle=3)
        assert self.scheme_violations(w) == []

    def test_stt_impossible_taint_with_no_caster_live(self):
        """With no caster live the sweep skips its producer cross-check,
        which cannot fire; the per-uop range check must still report."""
        w = Window("stt")
        below = w.add("alu", taint=-5)
        producer = w.add("alu", taint=0)
        above = w.add("alu", src1_uop=producer, issue_cycle=3)
        above.taint = above.seq + 1
        assert w.core.shadows.frontier() == INFINITE_SEQ
        assert self.scheme_violations(w) == [
            f"uop seq={below.seq} pc={below.pc} carries impossible taint "
            f"root -5 (must lie in [0, seq])",
            f"uop seq={above.seq} pc={above.pc} carries impossible taint "
            f"root {above.seq + 1} (must lie in [0, seq])",
        ]

    def test_stt_consumer_of_a_committed_producer(self):
        w = Window("stt")
        w.add("branch")
        load = w.add("load")
        load.taint = load.seq
        w.add("alu", src1_uop=load, issue_cycle=3)
        w.core.rob.remove(load)
        w.core.lq.remove(load)
        load.state = STATE_COMMITTED
        assert self.scheme_violations(w) == []
