"""Declarative scheme policy models."""

import pytest

from repro.analysis.specflow.model import (
    KIND_ARCH,
    KIND_PRE,
    KIND_SPEC,
    Transmitter,
    TaintFact,
)
from repro.analysis.specflow.policies import (
    PolicyModel,
    TRANSMIT_BRANCH,
    TRANSMIT_LOAD,
    policy_for,
    surviving_facts,
)
from repro.attacks.corpus import CORPUS_SCHEME_LABELS, scheme_factory
from repro.common.errors import ConfigError
from repro.schemes.base import SecureScheme


def transmitter(kind=TRANSMIT_LOAD, *fact_kinds):
    facts = tuple(
        TaintFact(source_pc=10 + i, kind=k, path=(10 + i,))
        for i, k in enumerate(fact_kinds)
    )
    return Transmitter(pc=5, kind=kind, window_pc=1, facts=facts)


class TestPolicyFor:
    def test_label_with_ap_suffix(self):
        policy = policy_for("nda+ap")
        assert policy.blocks_spec_taint and policy.ap_observable

    def test_every_standard_label_resolves(self):
        for label in CORPUS_SCHEME_LABELS:
            assert policy_for(label).name == label

    def test_scheme_instance_resolves_from_declared_policy(self):
        scheme = scheme_factory("dom+ap")
        policy = policy_for(scheme)
        assert policy.name == "dom+ap"
        assert policy.invisible_speculation and policy.inorder_branches

    def test_unknown_label_is_a_config_error(self):
        with pytest.raises(ConfigError):
            policy_for("retpoline")

    def test_a_label_the_simulator_refuses_is_refused(self):
        with pytest.raises(ConfigError, match="no address prediction"):
            scheme_factory("dom+vp+ap")
        with pytest.raises(ConfigError, match="no address prediction"):
            policy_for("dom+vp+ap")
        assert policy_for("DOM+VP").name == "dom+vp"

    def test_weakened_variants_still_resolve(self):
        for label in ("dom-insecure-branches+ap", "dom-insecure-reissue+ap"):
            assert policy_for(label).name == label

    def test_weakened_variant_without_ap_is_judged_as_dom(self):
        # The rule each variant removes exists only under address
        # prediction, so without it the variant runs, and is judged, as
        # plain DoM; scheme_factory and policy_for accept the same labels.
        for key in ("dom-insecure-branches", "dom-insecure-reissue"):
            assert not scheme_factory(key).address_prediction
            assert policy_for(key) == PolicyModel(key, invisible_speculation=True)

    def test_undeclared_scheme_gets_the_unsafe_model(self):
        class Undeclared(SecureScheme):
            name = "mystery"

        assert policy_for(Undeclared()) == PolicyModel("mystery")
        assert policy_for(Undeclared(address_prediction=True)) == PolicyModel(
            "mystery+ap", ap_observable=True
        )


class TestSurvivingFacts:
    def test_unsafe_keeps_everything(self):
        t = transmitter(TRANSMIT_LOAD, KIND_ARCH, KIND_PRE, KIND_SPEC)
        assert len(surviving_facts(policy_for("unsafe"), t)) == 3

    def test_nda_blocks_spec_but_not_pre(self):
        policy = policy_for("nda")
        spec_only = transmitter(TRANSMIT_LOAD, KIND_SPEC)
        assert surviving_facts(policy, spec_only) == ()
        mixed = transmitter(TRANSMIT_LOAD, KIND_PRE, KIND_SPEC)
        assert [f.kind for f in surviving_facts(policy, mixed)] == [KIND_PRE]

    def test_dom_hides_load_transmitters(self):
        t = transmitter(TRANSMIT_LOAD, KIND_ARCH, KIND_PRE, KIND_SPEC)
        assert surviving_facts(policy_for("dom"), t) == ()

    def test_dom_ap_exposes_branch_transmitters(self):
        t = transmitter(TRANSMIT_BRANCH, KIND_PRE)
        # Plain DoM keeps transient work invisible...
        assert surviving_facts(policy_for("dom"), t) == ()
        # ...but under AP the branch resolves in order, so the implicit
        # branch channel is closed for a *different* reason: still safe.
        assert surviving_facts(policy_for("dom+ap"), t) == ()

    def test_insecure_branch_variant_leaks_branch_channel_under_ap(self):
        t = transmitter(TRANSMIT_BRANCH, KIND_PRE)
        assert surviving_facts(policy_for("dom-insecure-branches+ap"), t)

    def test_insecure_reissue_variant_leaks_load_channel_under_ap(self):
        t = transmitter(TRANSMIT_LOAD, KIND_PRE)
        assert surviving_facts(policy_for("dom-insecure-reissue+ap"), t)
        # The same transmitter is invisible under the correct DoM+AP.
        assert surviving_facts(policy_for("dom+ap"), t) == ()
