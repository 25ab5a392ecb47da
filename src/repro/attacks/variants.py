"""Deliberately weakened scheme variants.

These exist to *demonstrate the necessity* of the paper's mitigations: the
security tests show that the full schemes block an attack while the
variant with one rule removed leaks.  They must never be used outside
tests/examples — their names say so.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.pipeline.uop import MicroOp
from repro.schemes.base import READY
from repro.schemes.dom import DelayOnMiss


class InsecureDoMAPWithoutInOrderBranches(DelayOnMiss):
    """DoM + Doppelganger Loads *without* §4.6's in-order branch rule.

    A secret-dependent branch may then resolve transiently, redirect the
    wrong-path fetch, and steer which doppelganger's (visible) miss
    appears — exactly the implicit channel of Figure 4.  Used by
    ``tests/attacks`` to show the rule is load-bearing.
    """

    name = "dom-insecure-branches"
    inorder_branches = False  # branch_block_seq below drops §4.6's rule

    def branch_block_seq(self, branch: MicroOp, operand_taint: int) -> int:
        return READY


class InsecureDoMAPEagerMispredictReissue(DelayOnMiss):
    """DoM + Doppelganger Loads *without* §5.3's delayed re-issue rule.

    The real load of a mispredicted doppelganger issues immediately (even
    while speculative), so whether a *second* miss appears depends on the
    resolved address — which may be derived from a speculatively loaded
    value, leaking it through the miss pattern.
    """

    name = "dom-insecure-reissue"
    explicit_reissue_leak = True  # load_block_seq below drops §5.3's rule

    def load_block_seq(self, load: MicroOp) -> int:
        if load.dom_delayed and self.shadows.is_speculative(load.seq):
            return load.seq
        return READY


#: Each weakened variant by its key, the way :func:`repro.schemes.parse_label`
#: splits a label.  Each removes a rule that closes a doppelganger
#: channel, so the attack corpus runs each only with ``+ap``; without
#: address prediction a variant runs, and is judged, as plain DoM.
INSECURE_VARIANTS: Dict[str, Type[DelayOnMiss]] = {
    variant.name: variant
    for variant in (
        InsecureDoMAPWithoutInOrderBranches,
        InsecureDoMAPEagerMispredictReissue,
    )
}
