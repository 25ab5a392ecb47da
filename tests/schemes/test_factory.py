"""Tests for scheme construction and the registry."""

import pytest

from repro.common.errors import ConfigError
from repro.schemes import (
    SCHEME_CLASSES,
    SCHEME_LABELS,
    SCHEME_NAMES,
    DelayOnMiss,
    NDAPermissive,
    STT,
    SecureScheme,
    UnsafeBaseline,
    make_scheme,
    parse_label,
)

#: Each hook the core can skip, and the fast-path flag its override sets.
HOOK_FLAGS = {
    "value_block_seq": "gates_values",
    "load_block_seq": "gates_loads",
    "store_block_seq": "gates_stores",
    "branch_block_seq": "gates_branches",
    "load_is_probe": "uses_probe",
    "load_result_taint": "uses_taint",
}
FLAGS = (*HOOK_FLAGS.values(), "needs_shadows")


def raised_flags(scheme):
    """The fast-path flags set on a scheme class or instance."""
    return {flag for flag in FLAGS if getattr(scheme, flag)}


class TestFactory:
    def test_all_names_constructible(self):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name)
            assert scheme.name == name
            assert not scheme.address_prediction

    def test_ap_suffix(self):
        scheme = make_scheme("dom+ap")
        assert isinstance(scheme, DelayOnMiss)
        assert scheme.address_prediction

    def test_explicit_flag(self):
        scheme = make_scheme("nda", address_prediction=True)
        assert isinstance(scheme, NDAPermissive)
        assert scheme.address_prediction

    def test_case_and_whitespace_insensitive(self):
        assert isinstance(make_scheme("  STT  "), STT)
        assert make_scheme("DOM+AP").address_prediction

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_scheme("sdo")

    def test_describe(self):
        assert make_scheme("unsafe").describe() == "unsafe"
        assert make_scheme("stt+ap").describe() == "stt+AP"

    def test_every_label_builds_what_it_names(self):
        for label in SCHEME_LABELS:
            assert make_scheme(label).describe().lower() == label

    def test_parse_label(self):
        assert parse_label(" DOM+AP ") == ("dom", True)
        assert parse_label("dom+vp") == ("dom+vp", False)
        assert parse_label("dom-insecure-branches+ap") == (
            "dom-insecure-branches", True,
        )


class TestSchemeMetadata:
    def test_only_stt_uses_taint(self):
        assert make_scheme("stt").uses_taint
        for name in ("unsafe", "nda", "dom"):
            assert not make_scheme(name).uses_taint

    def test_only_dom_releases_dl_misses_at_nonspec(self):
        assert make_scheme("dom").dl_miss_release_at_nonspec
        for name in ("unsafe", "nda", "stt"):
            assert not make_scheme(name).dl_miss_release_at_nonspec

    def test_registry_is_complete(self):
        assert set(SCHEME_CLASSES) == {"unsafe", "nda", "stt", "dom", "dom+vp"}
        assert SCHEME_CLASSES["unsafe"] is UnsafeBaseline

    def test_dom_vp_flags(self):
        scheme = make_scheme("dom+vp")
        assert scheme.uses_value_prediction
        assert not scheme.address_prediction
        # DoM+VP takes no address prediction: the scheme exists for a
        # clean VP-vs-AP comparison, so asking for it is an error.
        with pytest.raises(ConfigError, match="no address prediction"):
            make_scheme("dom+vp", address_prediction=True)
        with pytest.raises(ConfigError, match="no address prediction"):
            make_scheme("dom+vp+ap")


class TestHookFlags:
    """The fast-path flags follow from the hooks a class overrides."""

    @pytest.mark.parametrize("hook", sorted(HOOK_FLAGS))
    def test_overriding_one_hook_raises_only_its_flag(self, hook):
        base = getattr(SecureScheme, hook)
        one_hook = type(
            "OneHook", (SecureScheme,),
            {hook: lambda self, *args: base(self, *args)},
        )
        expected = {HOOK_FLAGS[hook], "needs_shadows"}
        assert raised_flags(one_hook) == expected
        assert raised_flags(one_hook()) == expected

    def test_overriding_no_hook_raises_no_flag(self):
        class NoHook(SecureScheme):
            name = "no-hook"

            def check_invariants(self, core) -> list:
                return []

        assert raised_flags(NoHook) == set()
        assert raised_flags(UnsafeBaseline) == set()

    def test_an_inherited_override_counts(self):
        class LockedAgain(NDAPermissive):
            name = "nda-again"

        assert raised_flags(LockedAgain) == {"gates_values", "needs_shadows"}

    def test_dom_gates_branches_only_with_address_prediction(self):
        assert DelayOnMiss.gates_branches
        assert not make_scheme("dom").gates_branches
        assert make_scheme("dom+ap").gates_branches
