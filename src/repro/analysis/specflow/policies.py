"""Declarative models of what each speculation scheme blocks.

A :class:`PolicyModel` reduces a scheme to the five facts that decide
whether a statically discovered transmitter can actually leak:

* ``blocks_spec_taint`` — NDA-P's value lock / STT's taint gates: a
  transmitter whose secret was acquired *inside the same speculation
  window* never executes with that data (the gate holds until the window
  resolves, and a mispredicted window squashes the transmitter).  Data
  acquired **before** the window (``pre`` facts) is explicitly outside
  these schemes' threat model — that is Figure 4b.
* ``invisible_speculation`` — the DoM family: speculative loads are
  L1-probes and speculative misses are delayed, so *explicit* transient
  transmitters (secret-dependent load/store addresses) leave no trace.
* ``inorder_branches`` — DoM+AP's §4.6 rule: branches resolve only once
  non-speculative, closing the resolution-order implicit channel.
* ``ap_observable`` — the doppelganger engine issues (visible) accesses
  for predicted addresses, so transient *control flow* becomes
  observable through which doppelgangers appear — the Figure 4 channel.
  Without it, DoM's invisible speculation hides branch direction too.
* ``explicit_reissue_leak`` — the §5.3 violation: a mispredicted
  doppelganger's real (secret-dependent-address) load re-issues while
  still speculative, re-opening the explicit channel under DoM.

The mapping is deliberately conservative where the dynamic oracle is
racy: a policy may classify a transmitter as leaking that the simulator
never wins the race to observe.  The differential harness only requires
the sound inclusion (static ``leak-possible`` ⊇ dynamic leak).

Each scheme class declares these facts itself, as plain boolean class
attributes of the same names beside the hooks that implement them
(:class:`~repro.schemes.base.SecureScheme`), so the schemes package
stays independent of the analysis layer (reprolint RPL401).  Its
all-False defaults are the unsafe model, the sound one for a class that
declares nothing.  ``ap_observable`` is the instance's
``address_prediction``, and the two rules that exist only under address
prediction (``inorder_branches``, ``explicit_reissue_leak``) hold only
when it is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.attacks.corpus import scheme_factory
from repro.schemes.base import SecureScheme
from repro.analysis.specflow.model import KIND_SPEC, TaintFact, Transmitter

TRANSMIT_LOAD = "load"
TRANSMIT_STORE = "store"
TRANSMIT_BRANCH = "branch"


@dataclass(frozen=True)
class PolicyModel:
    """What one scheme configuration blocks (see module docstring)."""

    name: str
    blocks_spec_taint: bool = False
    invisible_speculation: bool = False
    inorder_branches: bool = False
    ap_observable: bool = False
    explicit_reissue_leak: bool = False


def policy_for(scheme: Union[str, SecureScheme]) -> PolicyModel:
    """The :class:`PolicyModel` for a scheme instance, or for a label
    such as ``"dom+ap"`` or ``"dom-insecure-branches+ap"``.  A label is
    built by :func:`~repro.attacks.corpus.scheme_factory`, so it is
    refused exactly when the simulator refuses it (``"dom+vp+ap"``)."""
    if isinstance(scheme, str):
        scheme = scheme_factory(scheme)
    ap = bool(scheme.address_prediction)
    return PolicyModel(
        scheme.name + ("+ap" if ap else ""),
        blocks_spec_taint=scheme.blocks_spec_taint,
        invisible_speculation=scheme.invisible_speculation,
        inorder_branches=ap and scheme.inorder_branches,
        ap_observable=ap,
        explicit_reissue_leak=ap and scheme.explicit_reissue_leak,
    )


def surviving_facts(
    policy: PolicyModel, transmitter: Transmitter
) -> Tuple[TaintFact, ...]:
    """The taint facts with which ``transmitter`` still executes-and-is-
    observable under ``policy``; empty means the scheme blocks it."""
    if transmitter.kind == TRANSMIT_BRANCH:
        if policy.inorder_branches:
            # §4.6: the branch resolves only once non-speculative, at
            # which point a misprediction squashes before any
            # secret-dependent steering becomes visible.
            return ()
        if policy.invisible_speculation and not policy.ap_observable:
            # No doppelgangers: transient control flow only steers
            # probe-hits/delayed-misses, which leave no trace.
            return ()
    else:
        if policy.invisible_speculation and not policy.explicit_reissue_leak:
            # Speculative accesses are invisible probes / delayed misses;
            # the secret-dependent address never reaches the hierarchy.
            return ()
    facts = transmitter.facts
    if policy.blocks_spec_taint:
        facts = tuple(fact for fact in facts if fact.kind != KIND_SPEC)
    return facts


def block_note(policy: PolicyModel, transmitter: Transmitter) -> str:
    """One line of *why* the surviving facts leak under ``policy`` —
    attached to leak findings so a reader can audit the claim."""
    if transmitter.kind == TRANSMIT_BRANCH:
        if policy.explicit_reissue_leak or policy.ap_observable:
            return (
                "transient branch resolution steers which doppelganger "
                "accesses appear (Figure 4 implicit channel)"
            )
        return "transient branch steers observable cache fills"
    if policy.explicit_reissue_leak:
        return (
            "mispredicted doppelganger re-issues its real "
            "secret-dependent access while speculative (missing §5.3 rule)"
        )
    return "secret-dependent address reaches the memory hierarchy"


__all__ = [
    "PolicyModel",
    "TRANSMIT_BRANCH",
    "TRANSMIT_LOAD",
    "TRANSMIT_STORE",
    "block_note",
    "policy_for",
    "surviving_facts",
]
