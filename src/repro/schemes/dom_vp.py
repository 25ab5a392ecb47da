"""Delay-on-Miss with value prediction (DoM+VP) — the paper's foil.

The original DoM paper [40] proposed covering delayed misses with *value
prediction*: a delayed load's destination register receives a predicted
value that propagates speculatively; when the real load finally returns
(at the visibility point, as in plain DoM), the value is validated and a
mismatch squashes the load's dependents.

Our paper argues (§2.3, §8) this is inferior to Doppelganger Loads:
values are harder to predict than addresses, and a wrong value costs a
squash while a wrong address costs nothing.  This scheme exists so the
repository can *run* that comparison (``bench_extension_value_prediction``)
rather than assert it.

Security: the value predictor is commit-trained (same argument as the
address predictor), and validation happens against the non-speculatively
re-issued load's data, so no new channel opens relative to plain DoM with
respect to its memory-hierarchy threat model.
"""

from __future__ import annotations

from repro.schemes.base import STATE_COMMITTED, STATE_SQUASHED
from repro.schemes.dom import DelayOnMiss


class DoMValuePrediction(DelayOnMiss):
    """DoM whose delayed misses speculate on a predicted *value*.

    The mechanism lives in the core (probe-miss prediction, completion
    validation, dependent squash); this subclass only switches it on and
    keeps the plain-DoM behaviour everywhere else.  It takes no address
    prediction: the point is a clean VP-vs-AP comparison.
    """

    name = "dom+vp"
    uses_value_prediction = True
    supports_address_prediction = False

    def check_invariants(self, core) -> list:
        """Plain-DoM checks plus the VP gate: a speculatively propagated
        value prediction exists only on a *delayed miss* (anything else
        would predict values DoM never needed to hide), and a predicted
        value may never become architectural before validation (the
        commit gate keeps vp-active loads at the ROB head)."""
        problems = super().check_invariants(core)
        for load in core.lq:
            state = load.state
            if state == STATE_SQUASHED or not load.vp_active:
                continue
            if not load.dom_delayed:
                problems.append(
                    f"load seq={load.seq} pc={load.pc} is value-predicted "
                    f"but was never a delayed miss"
                )
            if state == STATE_COMMITTED:
                problems.append(
                    f"load seq={load.seq} pc={load.pc} committed with an "
                    f"unvalidated value prediction"
                )
        return problems
