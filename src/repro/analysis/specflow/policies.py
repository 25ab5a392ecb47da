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

Schemes name their policy with a plain string class attribute
(``specflow_policy``) rather than importing this module — the schemes
package must stay independent of the analysis layer (reprolint RPL401);
rule RPL901 enforces that every scheme declares the attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import ConfigError
from repro.schemes import SCHEME_CLASSES, make_scheme, parse_label
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


#: Policy keys a scheme may put in ``specflow_policy``.
POLICY_KEYS = (
    "unsafe",
    "nda",
    "stt",
    "dom",
    "dom+vp",
    "dom-insecure-branches",
    "dom-insecure-reissue",
)


def _build(key: str, ap: bool) -> PolicyModel:
    name = key + ("+ap" if ap else "")
    if key == "unsafe":
        return PolicyModel(name, ap_observable=ap)
    if key in ("nda", "stt"):
        return PolicyModel(name, blocks_spec_taint=True, ap_observable=ap)
    if key == "dom":
        return PolicyModel(
            name,
            invisible_speculation=True,
            inorder_branches=ap,
            ap_observable=ap,
        )
    if key == "dom+vp":
        # DoMValuePrediction takes no address prediction (the point is a
        # clean VP-vs-AP comparison), so no doppelganger channel and no
        # need for the in-order branch rule.
        return PolicyModel("dom+vp", invisible_speculation=True)
    if key == "dom-insecure-branches":
        return PolicyModel(
            name,
            invisible_speculation=True,
            inorder_branches=False,
            ap_observable=ap,
        )
    if key == "dom-insecure-reissue":
        return PolicyModel(
            name,
            invisible_speculation=True,
            inorder_branches=ap,
            ap_observable=ap,
            explicit_reissue_leak=ap,
        )
    raise ConfigError(
        f"unknown specflow policy {key!r}; expected one of {sorted(POLICY_KEYS)}"
    )


def policy_for(scheme) -> PolicyModel:
    """The :class:`PolicyModel` for a scheme.

    Accepts either a scheme *instance* (anything with ``specflow_policy``
    and ``address_prediction`` attributes — every
    :class:`~repro.schemes.base.SecureScheme`) or a *label* string like
    ``"dom+ap"`` / ``"dom-insecure-branches+ap"``.  A label of the scheme
    registry resolves through :func:`~repro.schemes.make_scheme`, so it
    is refused exactly when the simulator refuses it (``"dom+vp+ap"``);
    other keys, such as the weakened DoM variants, map to their policy
    directly.
    """
    if isinstance(scheme, str):
        key, address_prediction = parse_label(scheme)
        if key not in SCHEME_CLASSES:
            return _build(key, address_prediction)
        scheme = make_scheme(scheme)
    opt_out = getattr(scheme, "specflow_opt_out", None)
    if opt_out:
        raise ConfigError(
            f"scheme {getattr(scheme, 'name', scheme)!r} opted out of "
            f"specflow analysis: {opt_out}"
        )
    key = getattr(scheme, "specflow_policy", None)
    if not isinstance(key, str):
        raise ConfigError(
            f"scheme {getattr(scheme, 'name', scheme)!r} declares no "
            f"specflow_policy string (and no specflow_opt_out)"
        )
    return _build(key, bool(getattr(scheme, "address_prediction", False)))


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
    "POLICY_KEYS",
    "PolicyModel",
    "TRANSMIT_BRANCH",
    "TRANSMIT_LOAD",
    "TRANSMIT_STORE",
    "block_note",
    "policy_for",
    "surviving_facts",
]
