"""The specflow entry point: program -> per-scheme leakage verdicts.

Pipeline (see the package docstring for the rationale):

1. **Vacuity** — a program with no declared ``secret_regions`` has
   nothing to leak; every scheme is ``safe`` by definition.
2. **Architectural precheck** — interpret the program twice with the
   secret words set to two different values (via
   :func:`repro.oracle.apply_secret`) and compare the in-order memory
   and branch traces.  A divergence is an *architectural* channel: no
   speculation scheme defends it, so every scheme gets ``leak-possible``
   immediately.  The traces also yield **witnesses**: load pcs that
   concretely touched a secret word, which seed the taint flow even when
   their address is not statically constant.
3. **Architectural taint pass** — a whole-program dataflow whose only
   sources are *must* secret reads (constant address inside a region, or
   a witnessed pc).  Deliberately **not** may-reads: treating every
   unknown-address load as a potential secret read here would taint
   attacker-controlled values like Spectre's index and drown the
   analysis in false paths.
4. **Window passes** — per conditional branch, re-run the flow inside
   its speculation window: the architectural state at the branch enters
   re-keyed as ``pre`` facts (data the window did not acquire — what
   NDA/STT leave unprotected), and in-window loads that *may* read a
   secret (unknown address, constant in-region address, witnessed pc)
   add ``spec`` facts (data whose acquiring load squashes with the
   window — what NDA/STT gate).
5. **Classification** — every instruction in a window whose
   address/predicate operand carries taint is a candidate transmitter;
   :mod:`~repro.analysis.specflow.policies` decides per scheme which
   survive, and any survivor makes that scheme ``leak-possible`` with a
   rendered instruction-level leak path.

Budget exhaustion (interpreter or dataflow) yields ``unknown`` for every
scheme — the explicit escape hatch that keeps ``safe`` a real claim.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.attacks.corpus import CORPUS_SCHEME_LABELS
from repro.common.errors import ExecutionError, SpecflowBudgetError
from repro.isa.instructions import KIND_CBRANCH, KIND_LOAD, KIND_STORE
from repro.isa.program import InterpreterResult, Program
from repro.oracle import apply_secret
from repro.analysis.specflow.cfg import speculation_windows, successors
from repro.analysis.specflow.dataflow import (
    AbsState,
    DEFAULT_BUDGET,
    operand_taint,
    rekey_state,
    run_dataflow,
)
from repro.analysis.specflow.model import (
    KIND_ARCH,
    KIND_PRE,
    KIND_SPEC,
    LeakFinding,
    ProgramReport,
    SchemeVerdict,
    TaintFact,
    Transmitter,
    VERDICT_LEAK,
    VERDICT_SAFE,
    VERDICT_UNKNOWN,
)
from repro.analysis.specflow.policies import (
    TRANSMIT_BRANCH,
    TRANSMIT_LOAD,
    TRANSMIT_STORE,
    block_note,
    policy_for,
    surviving_facts,
)

#: Secret values the architectural precheck interprets under.  Any two
#: distinct values work — the precheck asks whether traces *can* differ,
#: and taint analysis covers value-specific corner cases conservatively.
_PRECHECK_SECRETS = (1, 2)

#: In-order interpretation budget for the precheck.  The corpus gadgets
#: execute a few thousand instructions; fuzz programs are generated with
#: bounded trip counts.  Exhaustion means ``unknown``, never a wrong
#: verdict.
DEFAULT_INTERP_BUDGET = 200_000

#: Leak findings listed per scheme verdict (the count in ``reason`` is
#: exact; the listing is capped so JSON reports stay readable).
_MAX_FINDINGS = 8


def _arch_divergence(
    low: InterpreterResult, high: InterpreterResult
) -> Optional[Tuple[str, int]]:
    """Describe the first secret-dependent architectural difference, if
    any, as ``(description, pc_or_-1)``."""
    if low.halted != high.halted:
        return ("architectural halt state depends on the secret", -1)
    assert low.mem_trace is not None and high.mem_trace is not None
    for index, (a, b) in enumerate(zip(low.mem_trace, high.mem_trace)):
        if a != b:
            return (
                f"architectural memory access #{index} depends on the secret "
                f"(pc{a[0]} [{a[1]:#x}] vs pc{b[0]} [{b[1]:#x}])",
                a[0],
            )
    if len(low.mem_trace) != len(high.mem_trace):
        index = min(len(low.mem_trace), len(high.mem_trace))
        longer = low.mem_trace if len(low.mem_trace) > index else high.mem_trace
        return (
            f"architectural memory access #{index} exists only for one "
            f"secret (pc{longer[index][0]} [{longer[index][1]:#x}])",
            longer[index][0],
        )
    if low.branch_trace != high.branch_trace:
        for index, (a, b) in enumerate(zip(low.branch_trace, high.branch_trace)):
            if a != b:
                return (
                    f"architectural branch outcome #{index} depends on the "
                    f"secret",
                    -1,
                )
        return ("architectural branch count depends on the secret", -1)
    return None


def _transmit_kind(kind_code: int) -> str:
    if kind_code == KIND_LOAD:
        return TRANSMIT_LOAD
    if kind_code == KIND_STORE:
        return TRANSMIT_STORE
    return TRANSMIT_BRANCH


def _scheme_labels(schemes: Optional[Iterable]) -> List:
    if schemes is None:
        return list(CORPUS_SCHEME_LABELS)
    return list(schemes)


def _all_verdict(
    program: Program,
    schemes: Optional[Iterable],
    verdict: str,
    reason: str,
    leak_note: str = "",
    leak_pc: int = -1,
    arch_channel: Optional[str] = None,
    unknown_reason: Optional[str] = None,
    windows: int = 0,
) -> ProgramReport:
    """A report giving every requested scheme the same verdict."""
    verdicts: Dict[str, SchemeVerdict] = {}
    for spec in _scheme_labels(schemes):
        policy = policy_for(spec)
        label = spec if isinstance(spec, str) else policy.name
        leaks: List[LeakFinding] = []
        if verdict == VERDICT_LEAK:
            text = (
                program.instructions[leak_pc].disassemble()
                if 0 <= leak_pc < len(program.instructions)
                else "(whole program)"
            )
            leaks = [
                LeakFinding(
                    transmitter_pc=leak_pc,
                    transmitter_kind="architectural",
                    transmitter_text=text,
                    window_pc=-1,
                    window_text="",
                    facts=[],
                    note=leak_note,
                )
            ]
        verdicts[label] = SchemeVerdict(
            scheme=label,
            policy=policy.name,
            verdict=verdict,
            leaks=leaks,
            reason=reason,
        )
    return ProgramReport(
        program_name=program.name,
        secret_regions=program.secret_regions,
        verdicts=verdicts,
        windows=windows,
        transmitters=0,
        arch_channel=arch_channel,
        unknown_reason=unknown_reason,
    )


def collect_transmitters(
    program: Program,
    witnesses: frozenset,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[List[Transmitter], int]:
    """Run the architectural pass and every window pass; returns
    ``(transmitters, window_count)``.  Raises
    :class:`SpecflowBudgetError` when the shared budget runs out."""
    secret_words = frozenset(program.secret_words())

    def arch_source(pc: int, addr: Optional[int]) -> Optional[str]:
        if (addr is not None and addr in secret_words) or pc in witnesses:
            return KIND_ARCH
        return None

    def window_source(pc: int, addr: Optional[int]) -> Optional[str]:
        if addr is None or addr in secret_words or pc in witnesses:
            return KIND_SPEC
        return None

    global_in, spent = run_dataflow(
        program, {0: AbsState.entry(program)}, arch_source, budget=budget
    )
    remaining = budget - spent
    windows = speculation_windows(program)
    succ_table = successors(program)
    transmitters: List[Transmitter] = []
    for branch_pc in sorted(windows):
        entry = global_in.get(branch_pc)
        if entry is None:
            continue  # the branch is unreachable; its shadow cannot open
        seed = rekey_state(entry, KIND_PRE)
        entries = {succ: seed for succ in succ_table[branch_pc]}
        if not entries:
            continue
        window = windows[branch_pc]
        window_in, spent = run_dataflow(
            program, entries, window_source, allowed=window, budget=remaining
        )
        remaining -= spent
        for pc in sorted(window):
            kind_code = program.instructions[pc].kind
            if kind_code not in (KIND_LOAD, KIND_STORE, KIND_CBRANCH):
                continue
            state = window_in.get(pc)
            if state is None:
                continue
            taint = operand_taint(state, pc, program)
            if not taint:
                continue
            facts = tuple(
                TaintFact(source_pc=src, kind=kind, path=path)
                for (kind, src), path in sorted(taint.items())
            )
            transmitters.append(
                Transmitter(
                    pc=pc,
                    kind=_transmit_kind(kind_code),
                    window_pc=branch_pc,
                    facts=facts,
                )
            )
    return transmitters, len(windows)


def analyze_program(
    program: Program,
    schemes: Optional[Sequence[Union[str, object]]] = None,
    budget: int = DEFAULT_BUDGET,
    interp_budget: int = DEFAULT_INTERP_BUDGET,
) -> ProgramReport:
    """Statically judge ``program`` under each scheme (see module doc).

    ``schemes`` takes labels (``"dom+ap"``) and/or scheme instances;
    defaults to :data:`~repro.attacks.corpus.CORPUS_SCHEME_LABELS`.
    """
    if not program.secret_regions:
        return _all_verdict(
            program,
            schemes,
            VERDICT_SAFE,
            "no declared secret regions: nothing to leak (vacuously safe)",
            windows=len(speculation_windows(program)),
        )

    # -- architectural precheck + witnesses ----------------------------
    try:
        low = apply_secret(program, _PRECHECK_SECRETS[0]).interpret(
            max_instructions=interp_budget, trace_mem=True
        )
        high = apply_secret(program, _PRECHECK_SECRETS[1]).interpret(
            max_instructions=interp_budget, trace_mem=True
        )
    except ExecutionError as error:
        return _all_verdict(
            program,
            schemes,
            VERDICT_UNKNOWN,
            f"reference interpretation failed: {error}",
            unknown_reason=str(error),
        )
    divergence = _arch_divergence(low, high)
    if divergence is not None:
        description, pc = divergence
        return _all_verdict(
            program,
            schemes,
            VERDICT_LEAK,
            "architectural channel: the secret changes committed behaviour "
            "with no speculation involved, which no speculation scheme "
            "defends",
            leak_note=description,
            leak_pc=pc,
            arch_channel=description,
            windows=len(speculation_windows(program)),
        )
    secret_words = frozenset(program.secret_words())
    witnesses = frozenset(
        pc
        for trace in (low.mem_trace or (), high.mem_trace or ())
        for (pc, addr, is_store) in trace
        if not is_store and addr in secret_words
    )

    # -- taint passes ---------------------------------------------------
    try:
        transmitters, window_count = collect_transmitters(
            program, witnesses, budget=budget
        )
    except SpecflowBudgetError as error:
        return _all_verdict(
            program,
            schemes,
            VERDICT_UNKNOWN,
            f"analysis budget exhausted: {error}",
            unknown_reason=str(error),
        )

    # -- per-scheme classification --------------------------------------
    verdicts: Dict[str, SchemeVerdict] = {}
    for spec in _scheme_labels(schemes):
        policy = policy_for(spec)
        label = spec if isinstance(spec, str) else policy.name
        leaks: List[LeakFinding] = []
        seen_pcs = set()
        surviving = 0
        for transmitter in transmitters:
            facts = surviving_facts(policy, transmitter)
            if not facts:
                continue
            surviving += 1
            if transmitter.pc in seen_pcs:
                continue  # one finding per transmitter site is enough
            seen_pcs.add(transmitter.pc)
            if len(leaks) < _MAX_FINDINGS:
                leaks.append(
                    LeakFinding(
                        transmitter_pc=transmitter.pc,
                        transmitter_kind=transmitter.kind,
                        transmitter_text=program.instructions[
                            transmitter.pc
                        ].disassemble(),
                        window_pc=transmitter.window_pc,
                        window_text=program.instructions[
                            transmitter.window_pc
                        ].disassemble(),
                        facts=list(facts),
                        note=block_note(policy, transmitter),
                    )
                )
        if leaks:
            verdict = SchemeVerdict(
                scheme=label,
                policy=policy.name,
                verdict=VERDICT_LEAK,
                leaks=leaks,
                reason=(
                    f"{len(seen_pcs)} transmitter site(s) survive "
                    f"{policy.name}'s restrictions"
                ),
            )
        else:
            verdict = SchemeVerdict(
                scheme=label,
                policy=policy.name,
                verdict=VERDICT_SAFE,
                leaks=[],
                reason=(
                    f"all {len(transmitters)} candidate transmitter(s) are "
                    f"blocked by {policy.name}"
                    if transmitters
                    else "no tainted transmitter in any speculation window"
                ),
            )
        verdicts[label] = verdict
    return ProgramReport(
        program_name=program.name,
        secret_regions=program.secret_regions,
        verdicts=verdicts,
        windows=window_count,
        transmitters=len(transmitters),
        arch_channel=None,
        unknown_reason=None,
    )


__all__ = [
    "DEFAULT_INTERP_BUDGET",
    "analyze_program",
    "collect_transmitters",
]
