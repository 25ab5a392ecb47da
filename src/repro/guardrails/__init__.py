"""Guardrails: invariant checker, watchdog, and crash-dump diagnostics.

The simulator's failure mode of record is *silently wrong numbers* — a
leaked rename entry or a wedged ROB shows up only as a skewed IPC figure.
This package makes those failures loud, local, and diagnosable:

* :class:`InvariantChecker` — machine-state invariants swept at a
  configurable cadence (``GuardrailConfig.level``), raising a typed
  :class:`~repro.common.errors.InvariantViolationError` with a snapshot.
* :class:`Watchdog` — commit-starvation/livelock detection with crash
  dumps, raising :class:`~repro.common.errors.DeadlockError`.
* :func:`run_doctor` — the ``repro doctor`` smoke check: every scheme,
  every invariant class, full cadence.
* :func:`machine_snapshot` / :func:`format_crash_dump` /
  :func:`write_crash_dump` — the shared diagnostics plumbing.
"""

from repro.guardrails.doctor import DoctorReport, run_doctor, smoke_program
from repro.guardrails.dump import (
    describe_uop,
    format_crash_dump,
    machine_snapshot,
    write_crash_dump,
)
from repro.guardrails.invariants import INVARIANT_CLASSES, InvariantChecker
from repro.guardrails.watchdog import Watchdog
from repro.pipeline.hooks import register_guardrail_provider


def _default_guardrails(core):
    """Build a core's observer pair per its ``GuardrailConfig``.

    Registered with :mod:`repro.pipeline.hooks` below so the pipeline
    gets its observers without ever importing this package (the core is
    the observed object; the dependency points from here to it).
    """
    interval = core.config.guardrails.effective_interval
    checker = InvariantChecker(core) if interval else None
    return checker, Watchdog(core)


register_guardrail_provider(_default_guardrails)

__all__ = [
    "DoctorReport",
    "INVARIANT_CLASSES",
    "InvariantChecker",
    "Watchdog",
    "describe_uop",
    "format_crash_dump",
    "machine_snapshot",
    "run_doctor",
    "smoke_program",
    "write_crash_dump",
]
