"""Tests for shadow tracking and the monotone frontier."""

import pytest

from repro.common.errors import StructuralHazardError
from repro.pipeline.shadows import INFINITE_SEQ, ShadowTracker


class TestFrontier:
    def test_empty_tracker_nothing_speculative(self):
        t = ShadowTracker()
        assert t.frontier() == INFINITE_SEQ
        assert t.is_nonspeculative(0)
        assert t.is_nonspeculative(10**9)

    def test_branch_casts_shadow_over_younger(self):
        t = ShadowTracker()
        t.branch_dispatched(5)
        assert t.is_speculative(6)
        assert t.is_nonspeculative(5)  # own shadow does not cover itself
        assert t.is_nonspeculative(4)

    def test_store_casts_shadow(self):
        t = ShadowTracker()
        t.store_dispatched(3)
        assert t.is_speculative(4)
        t.store_address_resolved(3)
        assert t.is_nonspeculative(4)

    def test_frontier_is_min_over_both_sources(self):
        t = ShadowTracker()
        t.branch_dispatched(10)
        t.store_dispatched(20)
        assert t.frontier() == 10
        t.branch_resolved(10)
        assert t.frontier() == 20

    def test_out_of_order_resolution(self):
        t = ShadowTracker()
        t.branch_dispatched(1)
        t.branch_dispatched(2)
        t.branch_dispatched(3)
        t.branch_resolved(2)  # younger resolves first
        assert t.frontier() == 1
        t.branch_resolved(1)
        assert t.frontier() == 3

    def test_squash_removes_casters(self):
        t = ShadowTracker()
        t.branch_dispatched(1)
        t.store_dispatched(2)
        t.caster_squashed(2, is_branch=False)
        t.caster_squashed(1, is_branch=True)
        assert t.frontier() == INFINITE_SEQ

    def test_resolution_idempotent(self):
        t = ShadowTracker()
        t.branch_dispatched(1)
        t.branch_resolved(1)
        t.branch_resolved(1)  # no error
        assert t.frontier() == INFINITE_SEQ

    def test_casters_must_arrive_in_order(self):
        t = ShadowTracker()
        t.branch_dispatched(5)
        with pytest.raises(StructuralHazardError):
            t.branch_dispatched(4)

    def test_counts(self):
        t = ShadowTracker()
        t.branch_dispatched(1)
        t.branch_dispatched(2)
        t.store_dispatched(3)
        assert t.unresolved_branches() == 2
        assert t.unresolved_stores() == 1
        t.branch_resolved(1)
        assert t.unresolved_branches() == 1

    def test_reset(self):
        t = ShadowTracker()
        t.branch_dispatched(1)
        t.reset()
        assert t.frontier() == INFINITE_SEQ
        t.branch_dispatched(0)  # fresh ordering allowed after reset
        assert t.frontier() == 0


class TestMonotonicity:
    def test_nonspeculative_is_monotone_per_instruction(self):
        """Once an already-dispatched instruction is non-speculative it
        stays non-speculative forever — the property the max-root taint
        representation and every frontier-keyed wait in the core rely on.
        (Casters arrive in sequence order, so later arrivals can never
        re-shadow an older instruction.)"""
        import random

        rng = random.Random(42)
        t = ShadowTracker()
        live = []
        seq = 0
        # Instructions whose non-speculative status we watch.
        released: set[int] = set()
        for _ in range(500):
            if rng.random() < 0.6 or not live:
                seq += 1
                if rng.random() < 0.5:
                    t.branch_dispatched(seq)
                    live.append((seq, True))
                else:
                    t.store_dispatched(seq)
                    live.append((seq, False))
            else:
                index = rng.randrange(len(live))
                caster, is_branch = live.pop(index)
                if is_branch:
                    t.branch_resolved(caster)
                else:
                    t.store_address_resolved(caster)
            # Record and re-check monotone release for every seq so far.
            for watched in range(1, seq + 1):
                if t.is_nonspeculative(watched):
                    released.add(watched)
            for watched in released:
                assert t.is_nonspeculative(watched)


class TestLiveCasters:
    def test_live_casters_match_a_model(self):
        """The guardrails read the live casters, oldest first, whether or
        not an out-of-order resolution left a lazily removed entry."""
        import random

        rng = random.Random(7)
        t = ShadowTracker()
        live = []
        seq = 0
        for _ in range(500):
            if rng.random() < 0.55 or not live:
                seq += 1
                is_branch = rng.random() < 0.5
                if is_branch:
                    t.branch_dispatched(seq)
                else:
                    t.store_dispatched(seq)
                live.append((seq, is_branch))
            else:
                caster, is_branch = live.pop(rng.randrange(len(live)))
                t.caster_squashed(caster, is_branch)
            assert t.live_branch_casters() == [s for s, b in live if b]
            assert t.live_store_casters() == [s for s, b in live if not b]
