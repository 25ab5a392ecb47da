"""Import-layering rule (RPL401).

The simulator's layers are a dependency *tower*, not a web:

* ``repro.schemes`` are policy strategy objects; they may see the
  pipeline only through the :mod:`repro.schemes.base` interface so each
  scheme stays a reviewable statement of its paper's policy rather than
  reaching into core internals.
* ``repro.memory`` models the hierarchy below the core and must not
  import the pipeline above it (drivers that run a core against memory
  live in the harness).
* ``repro.guardrails`` *observes* the simulator; the simulated machine
  must never import its own observers (the core reaches guardrails only
  through the :mod:`repro.pipeline.hooks` inversion point, wired by the
  top-level package).

``if TYPE_CHECKING:`` imports are exempt — they never execute, and are
the sanctioned way to annotate across layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.analysis.registry import ModuleContext, Rule, register
from repro.analysis.rules._util import imported_modules


@dataclass(frozen=True)
class LayerContract:
    """Modules under ``scope`` must not import ``forbidden``."""

    scope: str
    forbidden: str
    exempt: Tuple[str, ...] = ()
    why: str = ""


CONTRACTS: Tuple[LayerContract, ...] = (
    LayerContract(
        scope="repro.schemes",
        forbidden="repro.pipeline",
        exempt=("repro.schemes.base",),
        why="schemes reach the pipeline only through schemes.base, which "
        "re-exports the uop vocabulary they need",
    ),
    LayerContract(
        scope="repro.memory",
        forbidden="repro.pipeline",
        why="the memory hierarchy sits below the core; code that drives a "
        "core against memory belongs in the harness",
    ),
    LayerContract(
        scope="repro.schemes",
        forbidden="repro.analysis",
        why="schemes declare their leakage model as plain booleans "
        "(blocks_spec_taint, invisible_speculation, ...) precisely so the "
        "policy layer never depends on the analyzer; the analyzer builds "
        "its PolicyModel from them on its side",
    ),
    *(
        LayerContract(
            scope=scope,
            forbidden="repro.guardrails",
            why="the simulated machine must not import its own observers; "
            "guardrails attach through repro.pipeline.hooks",
        )
        for scope in (
            "repro.pipeline",
            "repro.memory",
            "repro.schemes",
            "repro.predictors",
            "repro.doppelganger",
            "repro.isa",
        )
    ),
)


def _in_scope(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@register
class LayeringRule(Rule):
    rule_id = "RPL401"
    name = "layering"
    rationale = (
        "upward or sideways imports couple layers that must stay "
        "independently testable and refactorable, and are how import "
        "cycles start; each layer contract names the sanctioned path"
    )

    def check(self, ctx: ModuleContext) -> Iterator:
        for contract in CONTRACTS:
            if not _in_scope(ctx.module, contract.scope):
                continue
            if any(_in_scope(ctx.module, e) for e in contract.exempt):
                continue
            for imported, node in imported_modules(ctx.tree, ctx.module):
                if _in_scope(imported, contract.forbidden):
                    yield self.finding(
                        ctx,
                        node,
                        f"{contract.scope} module imports '{imported}' "
                        f"(forbidden layer {contract.forbidden}): "
                        f"{contract.why}",
                    )
