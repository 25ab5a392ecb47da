"""Attack execution harness: run gadgets, observe, decide "leaked?".

Two complementary judgements:

* :func:`run_attack` — the classic receiver view: after the victim runs,
  does the probe array's residency reveal the secret value?
* :func:`noninterference_check` — the strong property the paper's
  arguments reduce to: run the same gadget with different secrets and
  compare the microarchitectural state the attacker can observe; any
  difference is a leak, whether or not a receiver could decode it.

The equivalence machinery (``noninterference_check``,
``snapshots_equal``, ``attack_config``) lives in :mod:`repro.oracle`,
shared with the differential fuzzer, and is re-exported here so existing
imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.attacks.gadgets import Gadget
from repro.attacks.observer import CacheObserver
from repro.common.config import SystemConfig
from repro.oracle import (
    attack_config,
    build_gadget_core,
    noninterference_check,
    snapshots_equal,
)
from repro.schemes.base import SecureScheme

__all__ = [
    "AttackOutcome",
    "attack_config",
    "noninterference_check",
    "run_attack",
    "snapshots_equal",
]


@dataclass
class AttackOutcome:
    """The result of one attack run."""

    scheme: str
    secret: int
    inferred: Optional[int]
    leaked: bool
    resident_values: List[int]
    stats_summary: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        verdict = "LEAKED" if self.leaked else "safe"
        return (
            f"[{self.scheme}] secret={self.secret} inferred={self.inferred} "
            f"-> {verdict}"
        )


def run_attack(
    gadget: Gadget,
    scheme: Union[str, SecureScheme] = "unsafe",
    config: Optional[SystemConfig] = None,
) -> AttackOutcome:
    """Run ``gadget`` under ``scheme`` and try to recover the secret via
    the probe-array cache channel."""
    core, scheme_obj = build_gadget_core(gadget, scheme, config)
    core.run()
    observer = CacheObserver(
        core.hierarchy, gadget.probe_base, values=gadget.probe_values
    )
    inferred = observer.infer_secret(exclude=gadget.training_values)
    return AttackOutcome(
        scheme=scheme_obj.describe(),
        secret=gadget.secret_value,
        inferred=inferred,
        leaked=inferred == gadget.secret_value,
        resident_values=observer.resident_values(),
        stats_summary=core.stats.summary(),
    )
