"""Tests for configuration dataclasses and their validation."""

import copy
import dataclasses
import functools
import pickle

import pytest

from repro.common import config as config_module
from repro.common.config import (
    BranchPredictorConfig,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    CacheConfig,
    CoreConfig,
    GuardrailConfig,
    MemoryConfig,
    PredictorConfig,
    SystemConfig,
    default_config,
    small_config,
)
from repro.common.errors import ConfigError
from repro.fuzz.differential import fuzz_config
from repro.harness.parallel import _sweep_entry_slug
from repro.harness.runner import run_key
from repro.harness.store import ResultStore, key_digest
from repro.oracle import attack_config


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig("L1", 48 * 1024, 12, latency=5)
        assert cache.num_sets == 48 * 1024 // (12 * 64)

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ConfigError, match="multiple"):
            CacheConfig("L1", 1000, 3, latency=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size_bytes=0, ways=1, latency=1),
            dict(size_bytes=1024, ways=0, latency=1),
            dict(size_bytes=1024, ways=1, latency=0),
            dict(size_bytes=1024, ways=1, latency=1, mshrs=0),
        ],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig("X", **kwargs)

    @pytest.mark.parametrize("line_size", [0, 1, 48])
    def test_rejects_line_sizes_the_cache_cannot_shift_by(self, line_size):
        """48 would silently model 32-byte lines; 1 would leave 64-bit
        lines that overflow a level's signed 64-bit slots."""
        with pytest.raises(ConfigError, match="power of two"):
            CacheConfig("X", 1024 * 48, 4, latency=1, line_size=line_size)


class TestMemoryConfig:
    def test_default_matches_table1(self):
        memory = MemoryConfig()
        assert memory.l1.size_bytes == 48 * 1024
        assert memory.l2.size_bytes == 2 * 1024 * 1024
        assert memory.l3.size_bytes == 16 * 1024 * 1024

    def test_rejects_inverted_level_sizes(self):
        with pytest.raises(ConfigError, match="monotonically"):
            MemoryConfig(
                l1=CacheConfig("L1", 1 << 20, 4, latency=2),
                l2=CacheConfig("L2", 1 << 16, 4, latency=8),
            )

    def test_rejects_zero_dram_latency(self):
        with pytest.raises(ConfigError):
            MemoryConfig(dram_latency=0)


class TestCoreConfig:
    def test_rejects_rob_smaller_than_lq(self):
        with pytest.raises(ConfigError, match="ROB"):
            CoreConfig(rob_entries=16, lq_entries=32)

    def test_rejects_zero_widths(self):
        with pytest.raises(ConfigError):
            CoreConfig(decode_width=0)
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=0)

    def test_negative_penalties_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(mispredict_penalty=-1)
        with pytest.raises(ConfigError):
            CoreConfig(branch_resolution_delay=-1)
        with pytest.raises(ConfigError):
            CoreConfig(branch_resolve_latency=0)


class TestBranchPredictorConfig:
    def test_power_of_two_tables(self):
        with pytest.raises(ConfigError):
            BranchPredictorConfig(table_entries=1000)
        with pytest.raises(ConfigError):
            BranchPredictorConfig(btb_entries=100)

    def test_history_bits_bounds(self):
        BranchPredictorConfig(history_bits=0)   # bimodal allowed
        with pytest.raises(ConfigError):
            BranchPredictorConfig(history_bits=25)


class TestPredictorConfig:
    def test_num_sets(self):
        assert PredictorConfig(entries=1024, ways=8).num_sets == 128

    def test_entries_divisible_by_ways(self):
        with pytest.raises(ConfigError):
            PredictorConfig(entries=100, ways=8)

    def test_threshold_within_confidence_range(self):
        with pytest.raises(ConfigError):
            PredictorConfig(confidence_threshold=8, max_confidence=7)

    def test_prefetch_degree_zero_allowed(self):
        assert PredictorConfig(prefetch_degree=0).prefetch_degree == 0

    def test_secure_defaults(self):
        cfg = PredictorConfig()
        assert not cfg.train_on_execute
        assert cfg.multi_instance_aging


class TestSystemConfig:
    def test_default_is_frozen(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.max_cycles = 5  # type: ignore[misc]

    def test_with_overrides(self):
        cfg = default_config().with_overrides(max_cycles=123, prefetch_enabled=False)
        assert cfg.max_cycles == 123
        assert not cfg.prefetch_enabled
        assert cfg.core.rob_entries == 352  # untouched

    def test_small_config_keeps_mechanisms(self):
        cfg = small_config()
        assert cfg.core.rob_entries < 64
        assert cfg.memory.l1.mshrs >= 1
        assert cfg.predictor.entries >= 1

    def test_rejects_zero_budget(self):
        with pytest.raises(ConfigError):
            SystemConfig(max_cycles=0)


class TestFingerprintAndRoundTrip:
    def test_fingerprint_is_stable_across_instances(self):
        assert default_config().fingerprint() == default_config().fingerprint()
        assert small_config().fingerprint() == small_config().fingerprint()

    def test_fingerprint_is_hex_digest(self):
        digest = default_config().fingerprint()
        assert len(digest) == 64
        int(digest, 16)

    def test_any_knob_changes_the_fingerprint(self):
        base = default_config()
        assert (
            base.with_overrides(max_cycles=base.max_cycles + 1).fingerprint()
            != base.fingerprint()
        )
        assert (
            base.with_overrides(
                core=dataclasses.replace(base.core, rob_entries=128)
            ).fingerprint()
            != base.fingerprint()
        )
        assert (
            base.with_overrides(
                predictor=dataclasses.replace(base.predictor, kind="two_delta")
            ).fingerprint()
            != base.fingerprint()
        )

    def test_dict_round_trip_is_exact(self):
        for cfg in (default_config(), small_config()):
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_preserves_fingerprint(self):
        cfg = small_config()
        assert config_from_dict(config_to_dict(cfg)).fingerprint() == cfg.fingerprint()

    def test_dict_form_is_json_able(self):
        import json

        text = json.dumps(config_to_dict(default_config()), sort_keys=True)
        assert config_from_dict(json.loads(text)) == default_config()


#: The configs every persistent cache is keyed by, by factory name.
NAMED_CONFIGS = {
    "default_config": default_config,
    "small_config": small_config,
    "attack_config": attack_config,
    "fuzz_config": fuzz_config,
}

PINNED_DIGESTS = {
    "default_config": "2ca5fa262e06dcebccff21f7363445e0a8c3e50774d84e533081e9ddc14f24b1",
    "small_config": "a94d630faceb274078097940d9c141eedc2597a0f070346b0e95fbea128e0884",
    "attack_config": "8be8a9a2ebeecdf7873264d497cb83d648b121a64b5d8675d0a0edf4fbb7d7ba",
    "fuzz_config": "a94d630faceb274078097940d9c141eedc2597a0f070346b0e95fbea128e0884",
}

#: ``run_key("hmmer", "dom+ap", 500, 1500, default_config())``'s store
#: digest and its entry path under a sweep store's root.
PINNED_KEY_DIGEST = "f83941665ca70739c60d81ae679e2435fe334a5b51e853713e30d7e95114e995"
PINNED_ENTRY_PATH = "f8/v2-hmmer-dom_ap-w500-m1500-f83941665ca70739.json"


def _pinned_key():
    return run_key("hmmer", "dom+ap", 500, 1500, default_config())


class TestPinnedCacheKeys:
    """The literal cache keys that existing result stores were written under.

    The sweep store, the session memos and the decode cache are all keyed
    by ``SystemConfig.fingerprint()``, so any change to these digests makes
    every existing cache miss.  That is right after a deliberate config
    change (a new knob, a new default), and these pins make it visible.
    Re-record them by running this module as a script, which prints the
    current values to paste over the literals above::

        PYTHONPATH=src python tests/common/test_config.py
    """

    @pytest.mark.parametrize("name", sorted(NAMED_CONFIGS))
    def test_named_config_digest(self, name):
        config = NAMED_CONFIGS[name]()
        assert config.fingerprint() == PINNED_DIGESTS[name]
        assert config_fingerprint(config) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(NAMED_CONFIGS))
    def test_guardrails_override_keeps_the_digest(self, name):
        guarded = NAMED_CONFIGS[name]().with_overrides(
            guardrails=GuardrailConfig(level="full", dump_dir="crash-dumps")
        )
        assert guarded.fingerprint() == PINNED_DIGESTS[name]

    def test_store_address(self, tmp_path):
        key = _pinned_key()
        assert key_digest(key) == PINNED_KEY_DIGEST
        path = ResultStore(tmp_path, namer=_sweep_entry_slug).path_for(key)
        assert path.relative_to(tmp_path).as_posix() == PINNED_ENTRY_PATH


def _leaf_paths(config, prefix=()):
    """Every leaf field of ``config`` as a path of field names."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        path = prefix + (field.name,)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, path)
        else:
            yield path


def _changed(name, value):
    """A different value for leaf ``name`` that its config still accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 or 1
    if value is None:
        return "crash-dumps"
    return {"kind": "two_delta", "level": "full"}.get(name, value + "'")


def _with_leaf(config, path, value, replace):
    head, *rest = path
    if rest:
        value = _with_leaf(getattr(config, head), rest, value, dataclasses.replace)
    return replace(config, **{head: value})


LEAF_PATHS = list(_leaf_paths(default_config()))
ROUTES = {
    "with_overrides": lambda config, **fields: config.with_overrides(**fields),
    "replace": dataclasses.replace,
}


class TestFingerprintMemo:
    """``fingerprint()`` computes its digest once per instance and keeps it."""

    def test_digest_is_computed_once(self, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return config_fingerprint(config)

        monkeypatch.setattr(config_module, "config_fingerprint", counting)
        config = small_config()
        assert config.fingerprint() == config.fingerprint() == PINNED_DIGESTS["small_config"]
        assert calls == [config]

    def test_every_leaf_is_reached(self):
        def flattened(data, prefix=()):
            for name, value in data.items():
                if isinstance(value, dict):
                    yield from flattened(value, prefix + (name,))
                else:
                    yield prefix + (name,)

        assert sorted(LEAF_PATHS) == sorted(flattened(config_to_dict(default_config())))

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("path", LEAF_PATHS, ids=".".join)
    def test_a_derived_config_gets_its_own_digest(self, path, route):
        base = default_config()
        base_digest = base.fingerprint()
        leaf = functools.reduce(getattr, path, base)
        derived = _with_leaf(base, path, _changed(path[-1], leaf), ROUTES[route])
        assert derived != base
        assert derived.fingerprint() == config_fingerprint(derived)
        if path[0] == "guardrails":
            assert derived.fingerprint() == base_digest
        else:
            assert derived.fingerprint() != base_digest

    def test_storing_the_digest_changes_nothing_observable(self):
        config, twin = small_config(), small_config()

        def observed():
            return config == twin, hash(config), repr(config), config_to_dict(config)

        before = observed()
        digest = config.fingerprint()
        assert observed() == before
        assert config_from_dict(config_to_dict(config)).fingerprint() == digest

    @pytest.mark.parametrize("stored", [False, True], ids=["fresh", "stored"])
    def test_copies_carry_the_right_digest(self, stored):
        config = attack_config()
        if stored:
            config.fingerprint()
        for duplicate in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config)):
            assert duplicate == config
            assert duplicate.fingerprint() == config_fingerprint(attack_config())
            assert duplicate.fingerprint() == PINNED_DIGESTS["attack_config"]


if __name__ == "__main__":
    for name, factory in sorted(NAMED_CONFIGS.items()):
        print(f'    "{name}": "{factory().fingerprint()}",')
    key = _pinned_key()
    print(f'PINNED_KEY_DIGEST = "{key_digest(key)}"')
    entry = ResultStore(".", namer=_sweep_entry_slug).path_for(key)
    print(f'PINNED_ENTRY_PATH = "{entry.as_posix()}"')
