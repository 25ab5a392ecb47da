"""The cross-scheme differential oracle.

One program, many executions, one verdict.  A generated program is run
under every requested scheme × ``idle_skip`` {on, off} × guardrails
{off, full}, and every execution must:

* commit exactly the architectural state (registers, memory, halt) the
  in-order reference interpreter produces — secure speculation schemes
  are *timing* mechanisms and must never change dataflow;
* agree bit-for-bit on committed-instruction count with every other
  execution of the same program;
* within a (scheme, guardrails) pair, produce bit-identical
  :class:`~repro.common.stats.SimStats` across ``idle_skip`` modes —
  the event-driven loop is an optimization, never a semantic;
* within a (scheme, idle_skip) pair, produce bit-identical SimStats
  across guardrail levels — guardrails are pure observers, which is why
  the result cache's config fingerprint leaves them out;
* finish without tripping the invariant checker, the deadlock watchdog,
  or the cycle budget.

Anything else is a *finding*, classified by ``kind`` so the shrinker can
demand the same failure from smaller candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import GuardrailConfig, SystemConfig, small_config
from repro.common.errors import ExecutionError, ReproError
from repro.isa.program import InterpreterResult, Program
from repro.oracle import (
    Snapshot,
    arch_snapshot,
    arch_state_matches,
    diff_snapshots,
    interpret_reference,
    reference_snapshot,
)
from repro.pipeline.core import Core

#: Divergence/verdict kinds, from most to least specific.
KIND_CLEAN = "clean"
KIND_ARCH = "arch-divergence"
KIND_STATS = "stats-divergence"
KIND_ERROR = "error"
KIND_REFERENCE_LIMIT = "reference-limit"

#: Commit-budget slack over the reference execution.  A correct core
#: commits exactly the reference's dynamic instruction count; a core (or
#: an injected mutation) that corrupts control flow can loop forever, so
#: every matrix cell is capped at ``factor × reference + slack`` commits
#: and judged on the state it reached — a non-halted snapshot is an
#: architectural divergence, not a hang.
COMMIT_BUDGET_FACTOR = 2
COMMIT_BUDGET_SLACK = 256


def commit_budget(reference_instructions: int) -> int:
    return COMMIT_BUDGET_FACTOR * reference_instructions + COMMIT_BUDGET_SLACK


@dataclass(frozen=True)
class ExecutionMode:
    """One cell of the execution matrix."""

    scheme: str
    idle_skip: bool
    guardrails: str

    def describe(self) -> str:
        return (
            f"{self.scheme} idle_skip={'on' if self.idle_skip else 'off'} "
            f"guardrails={self.guardrails}"
        )


@dataclass
class Execution:
    """Outcome of one mode: how its committed state differs from the
    reference's (not at all, on correct code), or the error that stopped
    it."""

    mode: ExecutionMode
    ok: bool
    differences: List[str] = field(default_factory=list)
    stats: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    message: str = ""


@dataclass
class MatrixReport:
    """The oracle's verdict on one program."""

    program_name: str
    kind: str
    divergences: List[str] = field(default_factory=list)
    executions: List[Execution] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.kind == KIND_CLEAN

    def summary(self) -> str:
        if self.clean:
            return f"{self.program_name}: clean ({len(self.executions)} executions)"
        lines = [
            f"{self.program_name}: {self.kind} "
            f"({len(self.divergences)} divergence(s))"
        ]
        lines.extend(f"  {entry}" for entry in self.divergences[:12])
        if len(self.divergences) > 12:
            lines.append(f"  ... {len(self.divergences) - 12} more")
        return "\n".join(lines)


def matrix_modes(
    schemes: Sequence[str], matrix: str = "full"
) -> List[ExecutionMode]:
    """The execution matrix for a scheme list.

    ``"full"`` crosses schemes × idle_skip {on, off} × guardrails
    {off, full}; ``"schemes"`` keeps one cell per scheme (idle_skip on,
    guardrails full) for cheap smokes.
    """
    modes: List[ExecutionMode] = []
    for scheme in schemes:
        if matrix == "schemes":
            modes.append(ExecutionMode(scheme, True, "full"))
            continue
        for idle_skip in (True, False):
            for guardrails in ("off", "full"):
                modes.append(ExecutionMode(scheme, idle_skip, guardrails))
    return modes


def fuzz_config(base: Optional[SystemConfig] = None) -> SystemConfig:
    """The baseline config differential runs derive their modes from."""
    return base if base is not None else small_config()


class Reference:
    """The reference interpreter's run of one program, which every
    execution of that program is judged against."""

    def __init__(self, result: InterpreterResult) -> None:
        self.result = result

    @cached_property
    def snapshot(self) -> Snapshot:
        """The keyed view, built when the first execution differs and
        reused by the rest: it only renders a divergence."""
        return reference_snapshot(self.result)

    def differences(self, core: Core) -> List[str]:
        """A finished core's architectural differences from the
        reference, rendered; empty when it committed the same state."""
        if arch_state_matches(core, self.result):
            return []
        return diff_snapshots(
            self.snapshot, arch_snapshot(core), ignore=("committed",)
        )


def run_mode(
    program: Program,
    mode: ExecutionMode,
    config: SystemConfig,
    reference: Reference,
    mutation: Optional[str] = None,
) -> Execution:
    """Run one matrix cell under ``config``, which is already at the
    mode's guardrail level, and judge it against ``reference`` as it
    finishes; never raises, errors come back as data."""
    # Imported here: mutations import schemes, and keeping the scheme
    # factory out of module scope keeps this module importable from
    # anywhere (including workers) without ordering concerns.
    from repro.fuzz.mutations import make_scheme_variant

    try:
        scheme = make_scheme_variant(mode.scheme, mutation)
        core = Core(program, scheme, config=config, idle_skip=mode.idle_skip)
        core.run(
            max_instructions=commit_budget(reference.result.instructions_executed)
        )
        return Execution(
            mode=mode,
            ok=True,
            differences=reference.differences(core),
            stats=core.stats.as_dict(),
        )
    except ReproError as error:
        return Execution(
            mode=mode,
            ok=False,
            error_type=type(error).__name__,
            message=str(error),
        )
    except Exception as error:  # infrastructure bug — still a finding
        return Execution(
            mode=mode,
            ok=False,
            error_type=type(error).__name__,
            message=str(error) or repr(error),
        )


def run_matrix(
    program: Program,
    schemes: Sequence[str],
    config: Optional[SystemConfig] = None,
    matrix: str = "full",
    mutation: Optional[str] = None,
) -> MatrixReport:
    """Run the full execution matrix for ``program`` and judge it."""
    config = fuzz_config(config)
    try:
        reference = Reference(interpret_reference(program))
    except ExecutionError as error:
        return MatrixReport(
            program_name=program.name,
            kind=KIND_REFERENCE_LIMIT,
            divergences=[f"reference interpreter: {error}"],
        )

    modes = matrix_modes(schemes, matrix)
    # One config per guardrail level, so each is fingerprinted once per
    # program.  No crash dumps: failures travel back as data.
    configs = {
        level: config.with_overrides(guardrails=GuardrailConfig(level=level))
        for level in {mode.guardrails for mode in modes}
    }
    executions = [
        run_mode(program, mode, configs[mode.guardrails], reference, mutation)
        for mode in modes
    ]
    divergences: List[str] = []
    errors: List[str] = []

    committed_baseline: Optional[Tuple[str, int]] = None
    for execution in executions:
        label = execution.mode.describe()
        if not execution.ok:
            errors.append(f"[{label}] {execution.error_type}: {execution.message}")
            continue
        divergences.extend(f"[{label}] {entry}" for entry in execution.differences)
        assert execution.stats is not None
        committed = execution.stats["committed_instructions"]
        if committed_baseline is None:
            committed_baseline = (label, committed)
        elif committed != committed_baseline[1]:
            divergences.append(
                f"[{label}] committed {committed} instructions, but "
                f"[{committed_baseline[0]}] committed {committed_baseline[1]}"
            )

    divergences.extend(_stats_divergences(executions))

    if divergences:
        kind = KIND_ARCH if _has_arch_divergence(divergences) else KIND_STATS
        divergences.extend(errors)
        return MatrixReport(program.name, kind, divergences, executions)
    if errors:
        return MatrixReport(program.name, KIND_ERROR, errors, executions)
    return MatrixReport(program.name, KIND_CLEAN, [], executions)


def _has_arch_divergence(divergences: List[str]) -> bool:
    return any(" stats[" not in entry for entry in divergences)


def _stats_divergences(executions: Sequence[Execution]) -> List[str]:
    """Bit-identity of SimStats across the two axes that must not matter.

    ``idle_skip`` per (scheme, guardrails) is the event-driven loop's
    equivalence contract; ``guardrails`` per (scheme, idle_skip) is the
    pure-observer promise the result cache relies on.  Both are enforced
    on every fuzzed program rather than only on the hand-written suite.
    """
    return [
        *_axis_divergences(executions, "idle_skip", "guardrails"),
        *_axis_divergences(executions, "guardrails", "idle_skip"),
    ]


def _axis_divergences(
    executions: Sequence[Execution], axis: str, fixed: str
) -> List[str]:
    """SimStats differences along ``axis``, per (scheme, ``fixed``) group.

    Each group's first execution (matrix order: idle_skip on, guardrails
    off) is the baseline the others are compared with.
    """
    grouped: Dict[Tuple[str, Any], List[Execution]] = {}
    for execution in executions:
        if not execution.ok or execution.stats is None:
            continue
        mode = execution.mode
        grouped.setdefault((mode.scheme, getattr(mode, fixed)), []).append(
            execution
        )
    problems: List[str] = []
    for (scheme, value), group in sorted(grouped.items()):
        if len(group) < 2:
            continue
        baseline = group[0]
        assert baseline.stats is not None
        here = f"{axis}={_setting(getattr(baseline.mode, axis))}"
        for other in group[1:]:
            assert other.stats is not None
            there = f"{axis}={_setting(getattr(other.mode, axis))}"
            for counter in baseline.stats:
                a = baseline.stats[counter]
                b = other.stats[counter]
                if a != b:
                    problems.append(
                        f"[{scheme} {fixed}={_setting(value)}] "
                        f"stats[{counter}]: {here} {a} vs {there} {b}"
                    )
    return problems


def _setting(value: Any) -> str:
    """A mode setting as reports spell it: idle_skip on/off, else as is."""
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)
