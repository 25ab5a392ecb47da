"""The scheme interface: how a secure speculation policy plugs into the core.

A :class:`SecureScheme` is a strategy object the pipeline consults at the
decision points the paper's schemes differ on.  All of the paper's
restrictions share one structure: *wait until the shadow frontier reaches
some sequence number* — NDA-P's propagation lock waits for the producing
load to become non-speculative, STT's transmitter delays wait for a taint
root's visibility point, DoM's delayed misses and in-order branch
resolution wait for the instruction's own visibility point.  The hooks
therefore return a **block key**: :data:`READY` (−1) when the action may
proceed now, otherwise the sequence number the shadow frontier must reach
first.  The core parks the instruction on a frontier-ordered wait queue
and wakes it exactly when that happens — O(1) per query, no per-cycle
polling.

Hooks:

* :meth:`value_block_seq` — may a dependent consume a completed
  producer's result? (NDA-P: not until the producer load is
  non-speculative.)
* :meth:`load_block_seq` — may this address-resolved load access the
  memory hierarchy? (STT: not while the address is tainted; DoM: a
  delayed miss or mispredicted doppelganger waits for non-speculation.)
* :meth:`load_is_probe` — is the access an L1-only non-mutating probe
  (DoM while speculative)?
* :meth:`branch_block_seq` / :meth:`store_block_seq` — may this branch
  resolve / this store address become visible? (STT: tainted predicates
  and addresses wait; DoM+AP: branches resolve in order.)
* :meth:`load_result_taint` — STT's output tainting.

Schemes never mutate pipeline structures; they only answer questions,
keeping each scheme a reviewable statement of its paper's policy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import ConfigError

# This module is the schemes package's single sanctioned window onto the
# pipeline (reprolint RPL401): concrete schemes import pipeline types
# from here, never from repro.pipeline directly, so the full surface a
# policy can touch stays visible in one place.  The STATE_* and KIND_*
# codes let an invariant sweep read a uop's ``state`` and ``kind`` slots
# the way the core's hot loop does.
from repro.isa.instructions import (
    KIND_CBRANCH,
    KIND_JMP,
    KIND_LOAD,
    KIND_STORE,
)
from repro.pipeline.shadows import INFINITE_SEQ
from repro.pipeline.uop import (
    STATE_COMMITTED,
    STATE_COMPLETED,
    STATE_SQUASHED,
    UNTAINTED,
    MicroOp,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.core import Core

__all__ = [
    "INFINITE_SEQ",
    "KIND_CBRANCH",
    "KIND_JMP",
    "KIND_LOAD",
    "KIND_STORE",
    "MicroOp",
    "READY",
    "STATE_COMMITTED",
    "STATE_COMPLETED",
    "STATE_SQUASHED",
    "SecureScheme",
    "UNTAINTED",
]

READY = -1
"""Block key meaning "no restriction — proceed now"."""

#: Each hook the core skips while it is the base no-op, and the fast-path
#: flag that says a scheme overrides it.
_HOOK_FLAGS = (
    ("value_block_seq", "gates_values"),  # NDA's value lock
    ("load_block_seq", "gates_loads"),  # STT transmitters, DoM delayed misses
    ("store_block_seq", "gates_stores"),  # STT tainted store addresses
    ("branch_block_seq", "gates_branches"),  # STT predicates, DoM+AP order
    ("load_is_probe", "uses_probe"),  # DoM's L1 probe discipline
    ("load_result_taint", "uses_taint"),  # STT's output taints
)


class SecureScheme:
    """Unsafe baseline behaviour; secure schemes override the hooks."""

    #: Short identifier used by the harness and result labels.
    name = "unsafe"
    #: True when the doppelganger engine should run on this scheme.
    address_prediction = False
    #: DoM releases doppelganger values that missed in the L1 only once the
    #: load is non-speculative (paper §5.3); other schemes release at
    #: verification (subject to the value lock).
    dl_miss_release_at_nonspec = False
    #: DoM+VP: delayed misses speculate on a predicted value, validated
    #: (and squashed on mismatch) when the real load returns.
    uses_value_prediction = False
    #: False for a scheme that takes no doppelganger engine by design
    #: (DoM+VP, the paper's value-prediction foil): it has no ``+ap``
    #: label, and asking it for address prediction is a ConfigError.
    supports_address_prediction = True

    # ------------------------------------------------------------------
    # Leakage model.  The static analyzer (``repro.analysis.specflow``)
    # judges a scheme by these facts, each set by the class whose hooks
    # implement it.  They are plain booleans, so schemes never import
    # the analysis layer (reprolint RPL401).  The all-False defaults are
    # the unsafe model: a class that declares nothing is judged to block
    # nothing, which is sound.  Whether doppelganger accesses are
    # observable follows from ``address_prediction``.
    # ------------------------------------------------------------------
    #: No transmitter executes with data acquired inside its own
    #: speculation window (NDA-P's value lock, STT's taint gates).
    blocks_spec_taint = False
    #: Speculative accesses leave no trace in the memory hierarchy (DoM).
    invisible_speculation = False
    #: Under address prediction only: branches resolve once
    #: non-speculative (DoM+AP, §4.6).
    inorder_branches = False
    #: Under address prediction only: a mispredicted doppelganger's real
    #: load re-issues while speculative (§5.3's rule removed).
    explicit_reissue_leak = False

    # ------------------------------------------------------------------
    # Fast-path flags.  The core hoists these at construction and skips a
    # hook's call site entirely when its flag is False.  __init_subclass__
    # sets each to whether the class overrides its hook (_HOOK_FLAGS),
    # and needs_shadows (the scheme reads the shadow frontier) to whether
    # it overrides any, so no hook and its stat side effects (NDA's
    # delayed_propagations, STT's delayed_transmitters) can be skipped by
    # mistake.  An instance may narrow a flag whose override is a no-op
    # in its configuration (DoM's branch rule needs address prediction),
    # never widen one.
    # ------------------------------------------------------------------
    gates_values = False
    gates_loads = False
    gates_stores = False
    gates_branches = False
    uses_probe = False
    uses_taint = False
    needs_shadows = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        overridden = {
            flag: getattr(cls, hook) is not getattr(SecureScheme, hook)
            for hook, flag in _HOOK_FLAGS
        }
        for flag, value in overridden.items():
            setattr(cls, flag, value)
        cls.needs_shadows = any(overridden.values())

    def __init__(self, address_prediction: bool = False):
        if address_prediction and not self.supports_address_prediction:
            raise ConfigError(
                f"scheme {self.name!r} takes no address prediction (no +ap form)"
            )
        self.address_prediction = address_prediction
        self.core: Optional["Core"] = None

    def attach(self, core: "Core") -> None:
        """Bind to a core; called once by the core's constructor."""
        self.core = core
        self.shadows = core.shadows

    # ------------------------------------------------------------------
    # Value propagation
    # ------------------------------------------------------------------
    def value_block_seq(self, producer: MicroOp) -> int:
        """Frontier seq required before dependents may read ``producer``'s
        completed result; READY when propagation is unrestricted."""
        return READY

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def load_block_seq(self, load: MicroOp) -> int:
        """Frontier seq required before this load may access memory."""
        return READY

    def load_is_probe(self, load: MicroOp) -> bool:
        """Should this load's access be a non-mutating L1 probe (DoM)?"""
        return False

    # ------------------------------------------------------------------
    # Branches and stores
    # ------------------------------------------------------------------
    def branch_block_seq(self, branch: MicroOp, operand_taint: int) -> int:
        """Frontier seq required before this branch may execute/resolve."""
        return READY

    def store_block_seq(self, store: MicroOp, operand_taint: int) -> int:
        """Frontier seq required before this store's address may become
        architecturally visible."""
        return READY

    # ------------------------------------------------------------------
    # Taint (STT only)
    # ------------------------------------------------------------------
    def is_tainted(self, taint: int) -> bool:
        return False

    def load_result_taint(self, load: MicroOp) -> int:
        """Taint of a load's output at the moment its value binds."""
        return UNTAINTED

    # ------------------------------------------------------------------
    # Guardrails
    # ------------------------------------------------------------------
    def check_invariants(self, core: "Core") -> list:
        """Scheme-specific invariant sweep; returns violation strings.

        Called by the guardrail checker (``--guardrails cheap|full``) so
        each scheme can assert the machine-state properties its security
        argument rests on (NDA's value lock, STT's taint monotonicity,
        DoM's delayed-miss discipline).  The base scheme has no
        restrictions, hence nothing to violate.
        """
        return []

    def describe(self) -> str:
        suffix = "+AP" if self.address_prediction else ""
        return f"{self.name}{suffix}"
