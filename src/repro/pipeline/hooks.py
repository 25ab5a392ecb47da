"""Observer attachment points for the pipeline.

Two kinds of observer read a :class:`~repro.pipeline.core.Core` from
outside; neither changes simulated behaviour.

**Opt-in observers** (the pipeline tracer, the stage profiler) subclass
:class:`CoreObserver` and attach to one core with ``core.observer = obs``.
The slot defaults to ``None``; the scheduling loop then makes no extra
call per step or per micro-op.

**Guardrails** (invariant checker, watchdog) keep a provider of their own
here, for three reasons:

* every core is armed by default, so nothing has to attach them;
* the core must not import :mod:`repro.guardrails` (reprolint RPL401),
  so the dependency points *from* guardrails *to* the pipeline;
* their cadence lives inline in the loop — one integer compare per step
  for the watchdog, a cycle countdown for the checker.  A generic
  per-step hook would add a call to every step of every run.

The guardrails package registers the provider at import time
(``repro/__init__`` imports it, and Python initializes parent packages
before submodules, so any ``import repro.pipeline.core`` wires the
provider first).  :class:`~repro.pipeline.core.Core` asks
:func:`build_guardrails` for its pair and runs fine with ``(None, None)``
when nothing registered — e.g. when a stripped-down embedder imports the
pipeline package directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.guardrails.invariants import InvariantChecker
    from repro.guardrails.watchdog import Watchdog
    from repro.pipeline.core import Core
    from repro.pipeline.uop import MicroOp

    GuardrailProvider = Callable[
        ["Core"], Tuple[Optional["InvariantChecker"], Optional["Watchdog"]]
    ]

_guardrail_provider: "Optional[GuardrailProvider]" = None


class CoreObserver:
    """Base of an opt-in observer of one core (``core.observer = obs``).

    The core passes each of its eight phase methods through
    :meth:`wrap_phase` once, at loop entry, and calls the ``on_*`` hooks
    as a micro-op moves through the pipeline.  Every method here does
    nothing; a subclass overrides the ones it needs.
    """

    def wrap_phase(self, phase: Callable) -> Callable:
        """The callable the loop runs in place of ``phase``."""
        return phase

    def on_dispatch(self, uop: "MicroOp", cycle: int) -> None:
        pass

    def on_issue(self, uop: "MicroOp", cycle: int) -> None:
        pass

    def on_complete(self, uop: "MicroOp", cycle: int) -> None:
        pass

    def on_commit(self, uop: "MicroOp", cycle: int) -> None:
        pass

    def on_squash(self, uop: "MicroOp", cycle: int) -> None:
        pass


def register_guardrail_provider(provider: "GuardrailProvider") -> None:
    """Install the factory that builds a core's guardrail pair.

    Called once, from ``repro.guardrails.__init__``.
    """
    global _guardrail_provider
    _guardrail_provider = provider


def build_guardrails(
    core: "Core",
) -> "Tuple[Optional[InvariantChecker], Optional[Watchdog]]":
    """``(invariant_checker_or_None, watchdog_or_None)`` for ``core``."""
    if _guardrail_provider is None:
        return None, None
    return _guardrail_provider(core)
