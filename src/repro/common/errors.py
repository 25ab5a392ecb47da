"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so that
callers can catch simulator problems without masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration value.

    Subclasses :class:`ValueError` so long-standing callers that guard
    bad-argument paths with ``except ValueError`` keep working (the same
    compatibility contract as :class:`StatisticsError`).
    """


class AssemblyError(ReproError):
    """A program could not be assembled (bad mnemonic, operand, or label)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExecutionError(ReproError):
    """The simulated program performed an illegal operation."""


class SimulationLimitError(ReproError):
    """The simulation exceeded its cycle or instruction budget.

    Usually indicates a deadlocked pipeline (a bug) or a runaway program
    (an infinite loop in the workload).
    """


class StructuralHazardError(ReproError):
    """An internal structure (ROB, LQ, SQ, IQ) was used inconsistently."""


class InvariantViolationError(StructuralHazardError):
    """A microarchitectural invariant check failed (guardrails).

    Carries the invariant class that fired, the individual violation
    messages, and a structured machine-state snapshot taken at the moment
    of the failure so the broken state can be diagnosed without a rerun.
    """

    def __init__(
        self,
        message: str,
        invariant: str = "unknown",
        violations: "list[str] | None" = None,
        snapshot: "dict | None" = None,
        dump_path: "str | None" = None,
    ):
        self.invariant = invariant
        self.violations = violations if violations is not None else [message]
        self.snapshot = snapshot if snapshot is not None else {}
        self.dump_path = dump_path
        super().__init__(message)


class DeadlockError(SimulationLimitError):
    """The watchdog declared the pipeline wedged.

    ``kind`` distinguishes a *deadlock* (no commit and nothing in flight
    that could make progress) from a *livelock* (issue/replay activity
    that never retires).  Carries the machine-state snapshot and, when a
    dump directory is configured, the path of the written crash dump.
    """

    def __init__(
        self,
        message: str,
        kind: str = "deadlock",
        snapshot: "dict | None" = None,
        dump_path: "str | None" = None,
        dump: "str | None" = None,
    ):
        self.kind = kind
        self.snapshot = snapshot if snapshot is not None else {}
        self.dump_path = dump_path
        self.dump = dump
        super().__init__(message)


class JobTimeoutError(ReproError):
    """A sweep worker exceeded its per-job wall-clock budget."""


class WorkerCrashError(ReproError):
    """A sweep worker process died (crash/kill) before returning a result."""


class LintError(ReproError):
    """reprolint could not analyze a target (unreadable file, broken
    baseline, syntax error in the tree under analysis)."""


class SpecflowBudgetError(ReproError):
    """The static leakage analyzer exceeded its work budget.

    specflow's speculation-window passes are quadratic in the worst case;
    rather than stall, the analyzer aborts and reports ``unknown`` — the
    verdict that makes no soundness claim — for every scheme.
    """


class SpecflowUsageError(ReproError):
    """``repro specflow`` was invoked incorrectly (unknown gadget or
    scheme name).  The CLI maps this to exit code 2, mirroring
    ``repro lint``'s misuse / findings / clean distinction."""


class LintUsageError(LintError):
    """reprolint was invoked incorrectly (unknown rule id, missing path).

    The CLI maps this to exit code 2, distinguishing misuse from
    findings (exit 1) and a clean pass (exit 0).
    """


class StatisticsError(ReproError, ValueError):
    """An aggregate metric was asked of unusable inputs (empty sequence,
    non-positive geomean operand, zero baseline).

    Subclasses :class:`ValueError` so long-standing callers that guard
    with ``except ValueError`` keep working.
    """


class EmptyMeasurementError(ReproError):
    """A run produced no usable measurement window.

    Raised when a benchmark commits nothing inside its measurement window
    — typically because the program halted during warmup ("program
    shorter than warmup window") — or when a baseline with zero IPC would
    poison every normalization.  Carries the offending pair so sweeps can
    skip-and-report instead of dying.
    """

    def __init__(self, message: str, benchmark: str | None = None,
                 scheme: str | None = None):
        self.benchmark = benchmark
        self.scheme = scheme
        if benchmark is not None or scheme is not None:
            message = f"({benchmark}, {scheme}): {message}"
        super().__init__(message)
