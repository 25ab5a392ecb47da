"""The microarchitectural invariant checker.

A wrong-path bug that leaks a rename-map entry or wedges a load queue
does not crash a Python simulator — it silently skews IPC, which is the
worst possible failure mode for a reproduction whose *output is the
point*.  The checker makes the machine-state contracts that hold in a
correct simulation explicit and executable, in the spirit of the
machine-state invariants formal treatments (ProSpeCT, Colvin & Winter's
abstract semantics) build their proofs on:

========================  =============================================
``rob``                   ROB age-ordered, bounded, only live entries;
                          IQ accounting consistent.
``rename``                every rename-map entry is a live ROB resident
                          (the physical-register-leak analog: a squashed
                          or evicted producer left in the map).
``lsq``                   LQ/SQ entries are the right kind, age-ordered,
                          bounded, and all map to live ROB entries.
``mshr``                  occupancy within capacity, no orphaned miss
                          pinned past the worst-case memory horizon.
``shadows``               shadow casters never outlive (or miss) their
                          casting instruction, in both directions.
``doppelganger``          predicted-instance accounting balances and
                          verify-or-replay holds (no dropped replays,
                          no unverified preload consumed).
``scheme``                the active scheme's own contract (NDA's value
                          lock, STT taint monotonicity, DoM delayed-miss
                          discipline, DoM+VP's validation gate).
========================  =============================================

Cadence is configured by :class:`~repro.common.config.GuardrailConfig`:
``full`` checks every cycle (fault-injection tests, ``repro doctor``),
``cheap`` every ``check_interval`` cycles (CI sweeps), ``off`` costs one
attribute test per cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.common.errors import InvariantViolationError
from repro.guardrails.dump import format_crash_dump, machine_snapshot, write_crash_dump
from repro.isa.instructions import KIND_CBRANCH, KIND_LOAD, KIND_STORE
from repro.pipeline.shadows import INFINITE_SEQ
from repro.pipeline.uop import STATE_COMMITTED, STATE_SQUASHED, UopState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import Core
    from repro.pipeline.uop import MicroOp

INVARIANT_CLASSES = (
    "rob",
    "rename",
    "lsq",
    "mshr",
    "shadows",
    "doppelganger",
    "scheme",
)


class InvariantChecker:
    """Sweeps every invariant class over one core's state.

    :meth:`audit` is the non-raising form (used by ``repro doctor`` for a
    per-class report); :meth:`check` raises a typed
    :class:`InvariantViolationError` carrying a machine-state snapshot —
    and writes a crash dump when a dump directory is configured.

    A guardrails-full core sweeps every cycle, so a sweep reads uop state
    the way the core's hot loop does: the ``state`` and ``kind`` slots
    against the plain-int ``STATE_*`` / ``KIND_*`` codes, never the
    convenience properties.
    """

    def __init__(self, core: "Core"):
        self.core = core
        self.dump_dir = core.config.guardrails.dump_dir
        # A core's config, and so its limits and memory horizon, is fixed
        # for its life: read them once, not on every sweep.
        limits = core.config.core
        self._rob_entries = limits.rob_entries
        self._iq_entries = limits.iq_entries
        self._lq_entries = limits.lq_entries
        self._sq_entries = limits.sq_entries
        self._max_latency = core.hierarchy.max_latency

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def audit(self) -> Dict[str, List[str]]:
        """Run every class; returns ``{class: [violations]}`` (all keys)."""
        found: Dict[str, List[str]] = {name: [] for name in INVARIANT_CLASSES}
        found.update(self._violations())
        return found

    def check(self) -> None:
        """Raise :class:`InvariantViolationError` on any violation."""
        for name, problems in self._violations():
            self._fail(name, problems)

    def _violations(self) -> Iterator[Tuple[str, List[str]]]:
        """``(class, violations)`` for each class that has violations, in
        :data:`INVARIANT_CLASSES` order.

        Lazy, so :meth:`check` stops at the first class with problems:
        the MSHR sweep (which expires completed misses) runs only on a
        window whose rob, rename and lsq classes are clean.  A clean
        sweep yields nothing.
        """
        core = self.core
        rob, rename, lsq, shadows = self._check_window()
        if rob:
            yield "rob", rob
        if rename:
            yield "rename", rename
        if lsq:
            yield "lsq", lsq
        mshr = core.hierarchy.mshrs.validate(core.cycle, self._max_latency)
        if mshr:
            yield "mshr", mshr
        if shadows:
            yield "shadows", shadows
        engine = core.engine
        if engine is not None:
            doppelganger = engine.validate(core.rob)
            if doppelganger:
                yield "doppelganger", doppelganger
        scheme = core.scheme.check_invariants(core)
        if scheme:
            yield "scheme", scheme

    def _fail(self, invariant: str, problems: List[str]) -> None:
        core = self.core
        snapshot = machine_snapshot(core)
        labelled = [f"[{invariant}] {problem}" for problem in problems]
        message = (
            f"invariant {invariant!r} violated at cycle {core.cycle} "
            f"({core.program.name} under {core.scheme.describe()}): "
            f"{problems[0]}"
            + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        )
        dump_path = None
        if self.dump_dir is not None:
            text = format_crash_dump(snapshot, message, labelled)
            dump_path = write_crash_dump(self.dump_dir, snapshot, text)
        raise InvariantViolationError(
            message,
            invariant=invariant,
            violations=labelled,
            snapshot=snapshot,
            dump_path=dump_path,
        )

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def _check_window(self) -> Tuple[List[str], List[str], List[str], List[str]]:
        """The rob, rename, lsq and shadows classes from one ROB walk.

        The walk checks age order, dead entries and IQ flags, and collects
        the window's unresolved branches and stores in ROB order.  ROB
        residency is a test against ``set(rob)`` by identity (``MicroOp``
        keeps ``object``'s ``__eq__`` and ``__hash__``).  A ROB the walk
        finds clean is age-ordered and holds only live uops, so C-level
        tests then clear two classes:

        * rename: every rename-map uop is in ``set(rob)``;
        * shadows: the unresolved branches and stores are, in order,
          exactly the tracker's live casters (read only while some caster
          is live).

        Where a test fails, a per-entry loop names the offenders; it is
        the one place each of its messages is written.
        """
        core = self.core
        rob = core.rob
        rob_problems: List[str] = []
        if len(rob) > self._rob_entries:
            rob_problems.append(
                f"ROB holds {len(rob)} entries, capacity is "
                f"{self._rob_entries}"
            )
        unresolved: List["MicroOp"] = []
        open_branches: List[int] = []
        open_stores: List[int] = []
        previous = -1
        in_iq = 0
        for uop in rob:
            seq = uop.seq
            if seq <= previous:
                rob_problems.append(
                    f"ROB not age-ordered: seq={seq} follows seq={previous}"
                )
            previous = seq
            if uop.in_iq:
                in_iq += 1
            if uop.state >= STATE_COMMITTED:
                # Committed or squashed: the entry should have left.
                state = uop.state
                rob_problems.append(
                    f"ROB contains a {UopState(state).name} entry seq={seq} "
                    f"(must have been removed)"
                )
                if state == STATE_SQUASHED:
                    continue
            kind = uop.kind
            if kind == KIND_CBRANCH:
                if not uop.branch_resolved:
                    unresolved.append(uop)
                    open_branches.append(seq)
            elif kind == KIND_STORE:
                if not uop.address_ready:
                    unresolved.append(uop)
                    open_stores.append(seq)
        if in_iq != core.iq_count:
            rob_problems.append(
                f"IQ accounting imbalance: counter says {core.iq_count}, "
                f"ROB holds {in_iq} entries flagged in_iq"
            )
        if not 0 <= core.iq_count <= self._iq_entries:
            rob_problems.append(
                f"IQ occupancy {core.iq_count} outside "
                f"[0, {self._iq_entries}]"
            )
        rob_clean = not rob_problems

        residents = set(rob)
        rename_problems: List[str] = []
        if not (rob_clean and residents.issuperset(core.rename.values())):
            for reg, uop in core.rename.items():
                state = uop.state
                if state == STATE_SQUASHED:
                    rename_problems.append(
                        f"rename map r{reg} points at squashed seq={uop.seq} "
                        f"(physical register leaked across squash)"
                    )
                elif state == STATE_COMMITTED:
                    rename_problems.append(
                        f"rename map r{reg} points at committed seq={uop.seq} "
                        f"(stale mapping survived commit)"
                    )
                elif uop not in residents:
                    rename_problems.append(
                        f"rename map r{reg} points at seq={uop.seq} which is "
                        f"not ROB-resident"
                    )

        lsq_problems: List[str] = []
        for label, queue, capacity, want, noun in (
            ("LQ", core.lq, self._lq_entries, KIND_LOAD, "load"),
            ("SQ", core.sq, self._sq_entries, KIND_STORE, "store"),
        ):
            if len(queue) > capacity:
                lsq_problems.append(
                    f"{label} holds {len(queue)} entries, capacity {capacity}"
                )
            previous = -1
            for uop in queue:
                seq = uop.seq
                if seq <= previous:
                    lsq_problems.append(
                        f"{label} not age-ordered: seq={seq} follows "
                        f"seq={previous}"
                    )
                previous = seq
                if uop.kind != want:
                    lsq_problems.append(f"{label} entry seq={seq} is not a {noun}")
                if uop.state == STATE_SQUASHED:
                    # Squashes hit a contiguous youngest suffix, which the
                    # prune removes — a surviving squashed entry leaked.
                    lsq_problems.append(
                        f"{label} entry seq={seq} is squashed but was "
                        f"never pruned"
                    )
                elif uop not in residents:
                    lsq_problems.append(
                        f"{label} entry seq={seq} does not map to a live "
                        f"ROB entry"
                    )

        shadows = core.shadows
        if shadows.frontier() == INFINITE_SEQ:
            # No caster is live: the tracker's queues are empty.
            branch_casters: List[int] = []
            store_casters: List[int] = []
        else:
            branch_casters = shadows.live_branch_casters()
            store_casters = shadows.live_store_casters()
        shadow_problems: List[str] = []
        if not (
            rob_clean
            and open_branches == branch_casters
            and open_stores == store_casters
        ):
            by_seq: Dict[int, "MicroOp"] = {uop.seq: uop for uop in rob}
            for seq in branch_casters:
                uop = by_seq.get(seq)
                if uop is None:
                    shadow_problems.append(
                        f"branch shadow caster seq={seq} outlived its casting "
                        f"instruction (not in ROB)"
                    )
                elif uop.kind != KIND_CBRANCH:
                    shadow_problems.append(
                        f"branch shadow caster seq={seq} is not a conditional "
                        f"branch"
                    )
                elif uop.branch_resolved:
                    shadow_problems.append(
                        f"branch shadow caster seq={seq} is already resolved "
                        f"but still casts a shadow"
                    )
            for seq in store_casters:
                uop = by_seq.get(seq)
                if uop is None:
                    shadow_problems.append(
                        f"store shadow caster seq={seq} outlived its casting "
                        f"instruction (not in ROB)"
                    )
                elif uop.kind != KIND_STORE:
                    shadow_problems.append(
                        f"store shadow caster seq={seq} is not a store"
                    )
                elif uop.address_ready:
                    shadow_problems.append(
                        f"store shadow caster seq={seq} has a resolved address "
                        f"but still casts a shadow"
                    )
            # Reverse direction: every unresolved caster in the window must
            # be tracked, else speculation checks go permissive (unsafe!).
            tracked = {
                KIND_CBRANCH: set(branch_casters),
                KIND_STORE: set(store_casters),
            }
            for uop in unresolved:
                if uop.seq not in tracked[uop.kind]:
                    noun = "branch" if uop.kind == KIND_CBRANCH else "store"
                    shadow_problems.append(
                        f"unresolved {noun} seq={uop.seq} casts no shadow "
                        f"(speculation window under-approximated)"
                    )
        return rob_problems, rename_problems, lsq_problems, shadow_problems
