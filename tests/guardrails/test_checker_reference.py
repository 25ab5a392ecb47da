"""The invariant checker against the per-class checker it replaced.

:class:`~repro.guardrails.invariants.InvariantChecker` sweeps the rob,
rename, lsq and shadows classes in one walk of the ROB and reads uop
state through the ``state`` / ``kind`` slots; the NDA, STT, DoM and
DoM+VP hooks read the same slots and the shadow frontier once per sweep.
This module keeps the straightforward form it replaced as the reference:
one method per class, each walking the structures it needs and reading
state through the ``MicroOp`` properties and the public accessors of the
MSHR file and the doppelganger engine, and the scheme hooks as they were
written against those properties.  No reference calls the production
sweep it checks.

Every (fuzz profile, fuzz scheme) program is stopped at several points;
each stop is deep-copied and given zero to two seeded corruptions of the
kinds real wrong-path bugs cause, drawn in equal shares from the window
structures, the scheme hooks and (where the core has one) the
doppelganger engine.  On every resulting state both forms must produce
the same :meth:`~InvariantChecker.audit` (every class, every string, in
order) and :meth:`~InvariantChecker.check` must raise the same
``(invariant, violations)`` as the reference, or neither may raise.
Every class that can fail under a scheme must fail first somewhere.
"""

import copy
import random

import pytest

from repro.common.config import GuardrailConfig, small_config
from repro.common.errors import InvariantViolationError
from repro.fuzz.generator import generate_program
from repro.fuzz.profiles import PROFILES, get_profile
from repro.fuzz.session import DEFAULT_FUZZ_SCHEMES
from repro.guardrails.invariants import INVARIANT_CLASSES, InvariantChecker
from repro.isa.instructions import KIND_CBRANCH, KIND_LOAD, KIND_STORE
from repro.pipeline.core import Core
from repro.pipeline.shadows import INFINITE_SEQ
from repro.pipeline.uop import (
    STATE_COMMITTED,
    STATE_COMPLETED,
    STATE_SQUASHED,
    UNTAINTED,
    UopState,
)
from repro.schemes import make_scheme

# ----------------------------------------------------------------------
# The reference: one function per invariant class, property reads
# ----------------------------------------------------------------------


def reference_rob(core):
    problems = []
    rob = core.rob
    if len(rob) > core.config.core.rob_entries:
        problems.append(
            f"ROB holds {len(rob)} entries, capacity is "
            f"{core.config.core.rob_entries}"
        )
    previous = -1
    in_iq = 0
    for uop in rob:
        if uop.seq <= previous:
            problems.append(
                f"ROB not age-ordered: seq={uop.seq} follows seq={previous}"
            )
        previous = uop.seq
        if uop.squashed or uop.committed:
            problems.append(
                f"ROB contains a {UopState(uop.state).name} entry seq={uop.seq} "
                f"(must have been removed)"
            )
        if uop.in_iq:
            in_iq += 1
    if in_iq != core.iq_count:
        problems.append(
            f"IQ accounting imbalance: counter says {core.iq_count}, "
            f"ROB holds {in_iq} entries flagged in_iq"
        )
    if not 0 <= core.iq_count <= core.config.core.iq_entries:
        problems.append(
            f"IQ occupancy {core.iq_count} outside "
            f"[0, {core.config.core.iq_entries}]"
        )
    return problems


def reference_rename(core):
    problems = []
    residents = {id(uop) for uop in core.rob}
    for reg, uop in core.rename.items():
        if uop.squashed:
            problems.append(
                f"rename map r{reg} points at squashed seq={uop.seq} "
                f"(physical register leaked across squash)"
            )
        elif uop.committed:
            problems.append(
                f"rename map r{reg} points at committed seq={uop.seq} "
                f"(stale mapping survived commit)"
            )
        elif id(uop) not in residents:
            problems.append(
                f"rename map r{reg} points at seq={uop.seq} which is "
                f"not ROB-resident"
            )
    return problems


def reference_lsq(core):
    problems = []
    residents = {id(uop) for uop in core.rob}
    for label, queue, capacity, want_load in (
        ("LQ", core.lq, core.config.core.lq_entries, True),
        ("SQ", core.sq, core.config.core.sq_entries, False),
    ):
        if len(queue) > capacity:
            problems.append(
                f"{label} holds {len(queue)} entries, capacity {capacity}"
            )
        previous = -1
        for uop in queue:
            if uop.seq <= previous:
                problems.append(
                    f"{label} not age-ordered: seq={uop.seq} follows "
                    f"seq={previous}"
                )
            previous = uop.seq
            if want_load and not uop.is_load:
                problems.append(f"{label} entry seq={uop.seq} is not a load")
            if not want_load and not uop.is_store:
                problems.append(f"{label} entry seq={uop.seq} is not a store")
            if uop.squashed:
                problems.append(
                    f"{label} entry seq={uop.seq} is squashed but was "
                    f"never pruned"
                )
            elif id(uop) not in residents:
                problems.append(
                    f"{label} entry seq={uop.seq} does not map to a live "
                    f"ROB entry"
                )
    return problems


def reference_mshr(core):
    hierarchy = core.hierarchy
    mshrs = hierarchy.mshrs
    problems = []
    # in_flight applies the file's lazy expiry, as the sweep must: a miss
    # whose completion has passed is not an orphan.
    occupancy = mshrs.in_flight(core.cycle)
    if occupancy > mshrs.entries:
        problems.append(
            f"MSHR occupancy {occupancy} exceeds capacity {mshrs.entries}"
        )
    latency = hierarchy.max_latency
    horizon = core.cycle + latency
    for line, ready in mshrs.outstanding_lines().items():
        if ready > horizon:
            problems.append(
                f"orphaned MSHR for line {line:#x}: completion "
                f"{ready} is beyond the worst-case horizon {horizon} "
                f"(cycle {core.cycle} + max latency {latency})"
            )
    return problems


def reference_shadows(core):
    problems = []
    by_seq = {uop.seq: uop for uop in core.rob}
    branch_casters = core.shadows.live_branch_casters()
    store_casters = core.shadows.live_store_casters()
    for seq in branch_casters:
        uop = by_seq.get(seq)
        if uop is None:
            problems.append(
                f"branch shadow caster seq={seq} outlived its casting "
                f"instruction (not in ROB)"
            )
        elif not uop.inst.is_conditional_branch:
            problems.append(
                f"branch shadow caster seq={seq} is not a conditional "
                f"branch"
            )
        elif uop.branch_resolved:
            problems.append(
                f"branch shadow caster seq={seq} is already resolved but "
                f"still casts a shadow"
            )
    for seq in store_casters:
        uop = by_seq.get(seq)
        if uop is None:
            problems.append(
                f"store shadow caster seq={seq} outlived its casting "
                f"instruction (not in ROB)"
            )
        elif not uop.is_store:
            problems.append(f"store shadow caster seq={seq} is not a store")
        elif uop.address_ready:
            problems.append(
                f"store shadow caster seq={seq} has a resolved address "
                f"but still casts a shadow"
            )
    tracked_branches = set(branch_casters)
    tracked_stores = set(store_casters)
    for uop in core.rob:
        if uop.squashed:
            continue
        if (
            uop.inst.is_conditional_branch
            and not uop.branch_resolved
            and uop.seq not in tracked_branches
        ):
            problems.append(
                f"unresolved branch seq={uop.seq} casts no shadow "
                f"(speculation window under-approximated)"
            )
        if uop.is_store and not uop.address_ready and uop.seq not in tracked_stores:
            problems.append(
                f"unresolved store seq={uop.seq} casts no shadow "
                f"(speculation window under-approximated)"
            )
    return problems


def reference_doppelganger(core):
    engine = core.engine
    if engine is None:
        return []
    problems = []
    predicted_in_rob = 0
    for uop in core.rob:
        if not uop.is_load or uop.dl_predicted_address is None:
            continue
        predicted_in_rob += 1
        if uop.dl_used and not uop.dl_correct:
            problems.append(
                f"load seq={uop.seq} pc={uop.pc} consumed its preload "
                f"without a verified-correct prediction"
            )
        if (
            uop.completed
            and uop.dl_verified
            and not uop.dl_correct
            and not uop.dl_cancelled
            and not uop.executed
            and not uop.vp_active
        ):
            problems.append(
                f"load seq={uop.seq} pc={uop.pc} completed after a "
                f"mispredicted doppelganger without replaying the real "
                f"access (dropped replay)"
            )
    tracked = engine.outstanding_instances()
    if tracked != predicted_in_rob:
        problems.append(
            f"doppelganger instance accounting imbalance: engine tracks "
            f"{tracked} in-flight predicted instances, ROB holds "
            f"{predicted_in_rob}"
        )
    return problems


def reference_nda(scheme, core):
    problems = []
    shadows = scheme.shadows
    for uop in core.rob:
        if uop.squashed:
            continue
        issued = uop.issue_cycle >= 0
        producers = [uop.src1_uop]
        if not uop.is_load and not uop.is_store:
            producers.append(uop.src2_uop)
        if issued:
            for producer in producers:
                if (
                    producer is not None
                    and producer.is_load
                    and producer.in_flight
                    and not producer.squashed
                    and shadows.is_speculative(producer.seq)
                ):
                    problems.append(
                        f"uop seq={uop.seq} pc={uop.pc} issued while its "
                        f"load producer seq={producer.seq} is still "
                        f"speculative (NDA value lock bypassed)"
                    )
        if uop.is_store and uop.store_data_ready:
            producer = uop.src2_uop
            if (
                producer is not None
                and producer.is_load
                and producer.in_flight
                and not producer.squashed
                and shadows.is_speculative(producer.seq)
            ):
                problems.append(
                    f"store seq={uop.seq} pc={uop.pc} bound data from "
                    f"speculative load seq={producer.seq} (NDA value "
                    f"lock bypassed)"
                )
    return problems


def reference_stt(scheme, core):
    problems = []
    shadows = scheme.shadows
    for uop in core.rob:
        if uop.squashed:
            continue
        taint = uop.taint
        if taint != UNTAINTED and not 0 <= taint <= uop.seq:
            problems.append(
                f"uop seq={uop.seq} pc={uop.pc} carries impossible "
                f"taint root {taint} (must lie in [0, seq])"
            )
        if uop.is_load or uop.is_store or uop.is_branch or uop.issue_cycle < 0:
            continue
        for producer in (uop.src1_uop, uop.src2_uop):
            if producer is None or not producer.in_flight:
                continue
            ptaint = producer.taint
            if ptaint == UNTAINTED or not shadows.is_speculative(ptaint):
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


def reference_dom(scheme, core):
    problems = []
    for load in core.lq:
        if load.squashed:
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
        if load.completed and not load.executed and not load.vp_active:
            problems.append(
                f"load seq={load.seq} pc={load.pc} completed without a "
                f"memory access, forward, or doppelganger release "
                f"(dropped replay)"
            )
    return problems


def reference_dom_vp(scheme, core):
    problems = reference_dom(scheme, core)
    for load in core.lq:
        if load.squashed or not load.vp_active:
            continue
        if not load.dom_delayed:
            problems.append(
                f"load seq={load.seq} pc={load.pc} is value-predicted "
                f"but was never a delayed miss"
            )
        if load.committed:
            problems.append(
                f"load seq={load.seq} pc={load.pc} committed with an "
                f"unvalidated value prediction"
            )
    return problems


REFERENCE_SCHEME_HOOKS = {
    "nda": reference_nda,
    "stt": reference_stt,
    "dom": reference_dom,
    "dom+vp": reference_dom_vp,
}


def reference_scheme(core):
    hook = REFERENCE_SCHEME_HOOKS.get(core.scheme.name)
    return [] if hook is None else hook(core.scheme, core)


REFERENCE_CLASSES = (
    ("rob", reference_rob),
    ("rename", reference_rename),
    ("lsq", reference_lsq),
    ("mshr", reference_mshr),
    ("shadows", reference_shadows),
    ("doppelganger", reference_doppelganger),
    ("scheme", reference_scheme),
)


def reference_audit(core):
    return {name: check(core) for name, check in REFERENCE_CLASSES}


def reference_check(core):
    """``(invariant, labelled violations)`` of the first failing class."""
    for name, check in REFERENCE_CLASSES:
        problems = check(core)
        if problems:
            return name, [f"[{name}] {problem}" for problem in problems]
    return None


# ----------------------------------------------------------------------
# Seeded corruptions
# ----------------------------------------------------------------------


def swap_adjacent_rob_entries(core, rng):
    if len(core.rob) >= 2:
        i = rng.randrange(len(core.rob) - 1)
        core.rob[i], core.rob[i + 1] = core.rob[i + 1], core.rob[i]


def duplicate_rob_entry(core, rng):
    if core.rob:
        i = rng.randrange(len(core.rob))
        core.rob.insert(i, core.rob[i])


def kill_rob_entry_state(core, rng):
    """Squash or commit an entry but leave it in the ROB; a squash may
    also have retired the entry's shadow caster, as the core's does."""
    if not core.rob:
        return
    uop = rng.choice(core.rob)
    uop.state = rng.choice((STATE_SQUASHED, STATE_COMMITTED))
    if uop.state == STATE_SQUASHED and rng.random() < 0.5:
        shadows = core.shadows
        if uop.seq in shadows.live_branch_casters():
            shadows.branch_resolved(uop.seq)
        elif uop.seq in shadows.live_store_casters():
            shadows.store_address_resolved(uop.seq)


def shift_iq_count(core, rng):
    core.iq_count += rng.choice((-2, -1, 1, core.config.core.iq_entries + 1))


def flip_in_iq(core, rng):
    if core.rob:
        uop = rng.choice(core.rob)
        uop.in_iq = not uop.in_iq


def kill_rename_target(core, rng):
    if not core.rename:
        return
    uop = core.rename[rng.choice(sorted(core.rename))]
    if uop in core.rob:
        core.rob.remove(uop)
    uop.state = rng.choice((uop.state, STATE_SQUASHED, STATE_COMMITTED))


def push_rob_uop_into_lsq(core, rng):
    if core.rob:
        rng.choice((core.lq, core.sq)).append(rng.choice(core.rob))


def add_or_resolve_caster(core, rng):
    shadows = core.shadows
    branch = rng.random() < 0.5
    queue = shadows._branches if branch else shadows._stores
    if rng.random() < 0.5:
        live = queue.live()
        if live:
            queue.remove(rng.choice(live))
        return
    tail = queue._queue[-1] if queue._queue else -1
    candidates = [uop.seq for uop in core.rob if uop.seq > tail]
    candidates.append(max(tail, core.next_seq) + rng.randrange(1, 8))
    queue.add(rng.choice(candidates))


def move_frontier(core, rng, seq):
    """Resolve every caster, then let ``seq`` alone cast a shadow."""
    shadows = core.shadows
    for live in shadows.live_branch_casters():
        shadows.branch_resolved(live)
    for live in shadows.live_store_casters():
        shadows.store_address_resolved(live)
    if rng.random() < 0.5:
        shadows.branch_dispatched(seq)
    else:
        shadows.store_dispatched(seq)


def rebase_frontier(core, rng):
    if core.rob:
        move_frontier(core, rng, rng.choice(core.rob).seq)


def load_read(uop):
    """The in-flight load ``uop`` reads, if any."""
    for producer in (uop.src1_uop, uop.src2_uop):
        if (
            producer is not None
            and producer.kind == KIND_LOAD
            and producer.state < STATE_COMMITTED
        ):
            return producer
    return None


def older_casters(core, seq):
    """Branches and stores older than ``seq`` that could cast a shadow
    again: each is young enough to join its caster queue in order."""
    queues = {KIND_CBRANCH: core.shadows._branches, KIND_STORE: core.shadows._stores}
    return [
        uop
        for uop in core.rob
        if uop.seq < seq
        and uop.kind in queues
        and uop.state != STATE_SQUASHED
        and uop.seq > (queues[uop.kind]._queue or [-1])[-1]
    ]


def issue_early(core, rng, uop):
    """Bind a store's data early, or issue ``uop`` early."""
    if uop.kind == KIND_STORE and rng.random() < 0.5:
        uop.store_data_ready = True
    else:
        uop.issue_cycle = core.cycle


def forge_early_issue(core, rng):
    """Issue a load's consumer, or bind a store's data from a load, early:
    an NDA value-lock bypass once the load is speculative, which the
    forgery may arrange by moving the frontier to or before the load."""
    consumers = [uop for uop in core.rob if load_read(uop) is not None]
    if not consumers:
        return
    uop = rng.choice(consumers)
    load = load_read(uop)
    move_frontier(core, rng, rng.choice((core.rob[0].seq, load.seq)))
    issue_early(core, rng, uop)


def forge_covered_issue(core, rng):
    """The same bypass with the casters kept as a real one would find
    them: the load is covered by a live caster, or an older branch or
    store is reopened so that it casts a shadow over the load."""
    frontier = core.shadows.frontier()
    consumers = [
        uop
        for uop in core.rob
        if load_read(uop) is not None
        and (frontier < load_read(uop).seq or older_casters(core, load_read(uop).seq))
    ]
    if not consumers:
        return
    uop = rng.choice(consumers)
    if frontier >= load_read(uop).seq:
        caster = rng.choice(older_casters(core, load_read(uop).seq))
        if caster.kind == KIND_CBRANCH:
            caster.branch_resolved = False
            core.shadows.branch_dispatched(caster.seq)
        else:
            caster.address_ready = False
            core.shadows.store_dispatched(caster.seq)
    issue_early(core, rng, uop)


def forge_taint(core, rng):
    """Forge the taint of an entry, or of a producer an issued entry read
    (STT's cross-check compares the two)."""
    if not core.rob:
        return
    uop = rng.choice(core.rob)
    issued = [
        producer
        for consumer in core.rob
        if consumer.issue_cycle >= 0
        for producer in (consumer.src1_uop, consumer.src2_uop)
        if producer is not None
    ]
    if issued and rng.random() < 0.5:
        uop = rng.choice(issued)
    if rng.random() < 0.3:
        # A root exactly on the frontier: just no longer speculative.
        if core.shadows.frontier() == INFINITE_SEQ:
            move_frontier(core, rng, rng.choice(core.rob).seq)
        uop.taint = core.shadows.frontier()
        return
    uop.taint = rng.choice(
        (UNTAINTED, -5, rng.randrange(0, uop.seq + 1), uop.seq + rng.randrange(1, 50))
    )


def drop_rob_entry(core, rng):
    if core.rob:
        core.rob.remove(rng.choice(core.rob))


def forge_dom_delay_fields(core, rng):
    if not core.lq:
        return
    load = rng.choice(core.lq)
    load.dom_delayed = rng.random() < 0.8
    load.dom_touch_pending = rng.random() < 0.5
    load.executed = rng.random() < 0.4
    load.result = rng.choice((None, load.result, 7))
    load.vp_active = rng.random() < 0.4
    load.state = rng.choice((load.state, STATE_COMPLETED, STATE_COMMITTED))


def flip_resolution(core, rng):
    if core.rob:
        uop = rng.choice(core.rob)
        if rng.random() < 0.5:
            uop.branch_resolved = not uop.branch_resolved
        else:
            uop.address_ready = not uop.address_ready


def overfill_or_orphan_mshr(core, rng):
    """Give this copy its own MSHR file (the copies share the hierarchy),
    then fill it past capacity or pin a miss past the memory horizon."""
    hierarchy = copy.copy(core.hierarchy)
    hierarchy.mshrs = mshrs = copy.deepcopy(hierarchy.mshrs)
    core.hierarchy = hierarchy
    horizon = core.cycle + hierarchy.max_latency
    if rng.random() < 0.5:
        for index in range(mshrs.entries + 1 - mshrs.in_flight(core.cycle)):
            mshrs._outstanding[0xF0000000 + 64 * index] = rng.randint(
                core.cycle + 1, horizon
            )
    else:
        line = 0xDEAD0000 + 64 * rng.randrange(16)
        mshrs._outstanding[line] = horizon + rng.randrange(1, 100)


def forge_preload(core, rng):
    """Forge the verify-or-replay fields of a ROB load that carries an
    address prediction.  The fuzz programs halt before the stride table
    grows confident, so a load without one is first given one, counted
    by the engine as dispatch would count it."""
    loads = [uop for uop in core.rob if uop.kind == KIND_LOAD]
    if not loads:
        return
    load = rng.choice(loads)
    if load.dl_predicted_address is None:
        load.dl_predicted_address = 0x40
        outstanding = core.engine._outstanding
        outstanding[load.pc] = outstanding.get(load.pc, 0) + 1
    for field in (
        "dl_used",
        "dl_correct",
        "dl_verified",
        "dl_cancelled",
        "executed",
        "vp_active",
    ):
        setattr(load, field, rng.random() < 0.5)
    load.state = rng.choice((load.state, STATE_COMPLETED))


def skew_outstanding_count(core, rng):
    """Bump one PC's in-flight instance count in the engine, or drop it."""
    if core.engine is None:
        return
    outstanding = core.engine._outstanding
    pcs = sorted(outstanding)
    if pcs and rng.random() < 0.5:
        del outstanding[rng.choice(pcs)]
    else:
        pc = rng.choice(pcs) if pcs else core.rob[0].pc if core.rob else 0
        outstanding[pc] = outstanding.get(pc, 0) + 1


def forge_bypass_without_casters(core, rng):
    """Resolve every caster and its instruction, then issue a load's
    consumer or bind a store's data from a load.  With no caster live no
    load is speculative, so this is no NDA value-lock bypass."""
    shadows = core.shadows
    for seq in shadows.live_branch_casters():
        shadows.branch_resolved(seq)
    for seq in shadows.live_store_casters():
        shadows.store_address_resolved(seq)
    for uop in core.rob:
        if uop.kind == KIND_CBRANCH:
            uop.branch_resolved = True
        elif uop.kind == KIND_STORE:
            uop.address_ready = True
    consumers = [uop for uop in core.rob if load_read(uop) is not None]
    if consumers:
        issue_early(core, rng, rng.choice(consumers))


#: Corruptions of the window's structures: ROB, IQ accounting, rename
#: map, LSQ, MSHRs and shadow casters.
WINDOW_CORRUPTIONS = (
    swap_adjacent_rob_entries,
    duplicate_rob_entry,
    kill_rob_entry_state,
    shift_iq_count,
    flip_in_iq,
    kill_rename_target,
    push_rob_uop_into_lsq,
    add_or_resolve_caster,
    drop_rob_entry,
    flip_resolution,
    overfill_or_orphan_mshr,
)
#: Corruptions aimed at the scheme hooks, which need a specific producer,
#: taint or delay state to fire.
SCHEME_CORRUPTIONS = (
    rebase_frontier,
    forge_early_issue,
    forge_covered_issue,
    forge_taint,
    forge_dom_delay_fields,
    forge_bypass_without_casters,
)
#: Corruptions aimed at the doppelganger engine's accounting.  Each group
#: draws an equal share, this one only on a core that has an engine.
ENGINE_CORRUPTIONS = (
    forge_preload,
    skew_outstanding_count,
)

#: Committed-instruction budgets each program is stopped at.
STOP_POINTS = (8, 25, 50, 90)
#: Corrupted copies taken at each stop.
COPIES_PER_STOP = 16


def shared_parts(core):
    """Parts no corruption mutates, shared by the copies to keep a deep
    copy cheap: the program, its memory image, caches and predictors.
    The MSHR corruption gives its copy its own file before it writes."""
    parts = (
        core.program,
        *core.program.instructions,
        core.config,
        core.arch,
        core.stats,
        core.hierarchy,
        core.bpred,
        core.stride,
        core.value_pred,
        core._decoded,
        *core._dec_entries,
    )
    return {id(part): part for part in parts}


def new_check(core):
    try:
        InvariantChecker(core).check()
    except InvariantViolationError as error:
        return error.invariant, error.violations
    return None


@pytest.mark.parametrize("scheme", DEFAULT_FUZZ_SCHEMES)
def test_checker_matches_reference(scheme):
    config = small_config().with_overrides(guardrails=GuardrailConfig(level="full"))
    states = failing = 0
    raised = set()
    for profile in sorted(PROFILES):
        program = generate_program(11, get_profile(profile))
        core = Core(program, make_scheme(scheme), config=config)
        for stop in STOP_POINTS:
            core.run(max_instructions=stop)
            if core.halted:
                break
            for index in range(COPIES_PER_STOP):
                rng = random.Random(f"{profile}/{scheme}/{stop}/{index}")
                state = copy.deepcopy(core, shared_parts(core))
                groups = (WINDOW_CORRUPTIONS, SCHEME_CORRUPTIONS)
                if state.engine is not None:
                    groups += (ENGINE_CORRUPTIONS,)
                for _ in range(rng.randint(0, 2)):
                    rng.choice(rng.choice(groups))(state, rng)
                label = f"{profile} stop={stop} copy={index}"
                audit = InvariantChecker(state).audit()
                assert audit == reference_audit(state), label
                if state.shadows.frontier() == INFINITE_SEQ:
                    # No caster is live, so no load is speculative.
                    assert not any("NDA value lock" in p for p in audit["scheme"])
                expected = reference_check(state)
                assert new_check(state) == expected, label
                states += 1
                if expected is not None:
                    failing += 1
                    raised.add(expected[0])
    # The corpus must actually exercise the checker: every class that can
    # fail under this scheme fails first somewhere, and a healthy share
    # of states is faulty.
    assert states >= 100
    assert failing >= states // 3
    assert raised == raising_classes(scheme)


def raising_classes(scheme):
    """The classes a corrupted state can fail under ``scheme``: the
    doppelganger class needs the engine, the scheme class a hook."""
    classes = {"rob", "rename", "lsq", "mshr", "shadows"}
    built = make_scheme(scheme)
    if built.address_prediction:
        classes.add("doppelganger")
    if built.name in REFERENCE_SCHEME_HOOKS:
        classes.add("scheme")
    return classes


def test_every_class_raises_under_some_fuzz_scheme():
    raising = set().union(*map(raising_classes, DEFAULT_FUZZ_SCHEMES))
    assert raising == set(INVARIANT_CLASSES)
