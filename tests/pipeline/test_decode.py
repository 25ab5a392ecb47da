"""Decoded-program cache: keying, sharing, and process isolation.

The cache is keyed on (program contents, config fingerprint).  The
contracts pinned here:

* a config change that alters any simulated knob misses by construction
  (the fingerprint is part of the key), and the baked-in config-derived
  values (latencies) actually differ between the entries;
* guardrail-only config changes *share* the entry (guardrails are
  excluded from the fingerprint because they cannot change simulated
  behaviour);
* repeated runs of the same (program, config) — warmup + measure
  windows, repeated cores, both idle_skip modes — reuse one decode
  table by identity;
* the cache is process-local: worker processes under
  :class:`~repro.harness.parallel.ParallelSession` build their own,
  the parent's cache sees nothing, and pooled results stay bit-identical
  to serial ones.
"""

from dataclasses import replace

import pytest

from repro.common.config import GuardrailConfig, small_config
from repro.harness.parallel import ParallelSession
from repro.harness.runner import run_benchmark
from repro.pipeline.core import Core
from repro.pipeline.decode import (
    cache_info,
    clear_cache,
    decode_program,
)
from repro.schemes import make_scheme
from repro.workloads.profiles import build_workload


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def make_core(program, config, scheme="unsafe", **kwargs):
    return Core(program, make_scheme(scheme), config=config, **kwargs)


class TestKeying:
    def test_same_program_and_config_hits(self):
        program = build_workload("hmmer")
        config = small_config()
        first = decode_program(program, config)
        second = decode_program(program, config)
        assert first is second
        info = cache_info()
        assert info["misses"] == 1 and info["hits"] == 1

    def test_config_fingerprint_change_invalidates(self):
        program = build_workload("hmmer")
        config = small_config()
        base = decode_program(program, config)
        slower = config.with_overrides(
            core=replace(config.core, alu_latency=config.core.alu_latency + 2)
        )
        other = decode_program(program, slower)
        assert other is not base
        assert cache_info()["misses"] == 2
        # The invalidation is substantive: decode bakes the ALU latency
        # into the entries, so sharing across these configs would have
        # simulated the wrong machine.
        baked = {entry[7] for entry in base.entries}
        baked_slow = {entry[7] for entry in other.entries}
        assert baked != baked_slow

    def test_guardrail_only_change_shares(self):
        program = build_workload("hmmer")
        config = small_config()
        first = decode_program(program, config)
        guarded = config.with_overrides(
            guardrails=GuardrailConfig(level="full")
        )
        assert decode_program(program, guarded) is first
        assert cache_info()["misses"] == 1

    def test_program_content_not_object_identity(self):
        config = small_config()
        first = decode_program(build_workload("hmmer"), config)
        # A fresh build returns a distinct Program object with identical
        # contents; the cache must key on contents.
        second = decode_program(build_workload("hmmer"), config)
        assert first is second

    def test_capacity_bounded(self):
        config = small_config()
        capacity = cache_info()["capacity"]
        names = ("hmmer", "mcf", "libquantum", "lbm")
        for index in range(capacity + 8):
            cfg = config.with_overrides(max_cycles=1_000_000 + index)
            decode_program(build_workload(names[index % len(names)]), cfg)
        assert cache_info()["size"] <= capacity


class TestSharingAcrossRuns:
    def test_cores_share_one_decode(self):
        program = build_workload("mcf")
        config = small_config()
        event = make_core(program, config, idle_skip=True)
        reference = make_core(program, config, idle_skip=False)
        assert event._dec_entries is reference._dec_entries
        info = cache_info()
        assert info["misses"] == 1 and info["hits"] >= 1

    def test_warmup_measure_sweep_decodes_once(self):
        config = small_config()
        first = run_benchmark("mcf", "stt", config, warmup=100, measure=300)
        second = run_benchmark("mcf", "stt", config, warmup=100, measure=300)
        assert first.stats == second.stats
        assert cache_info()["misses"] == 1

    def test_session_sweep_one_miss_per_benchmark(self):
        config = small_config()
        session = ParallelSession(config=config, warmup=100, measure=300, jobs=1)
        session.sweep(("hmmer", "mcf"), ("unsafe", "stt", "dom"))
        assert cache_info()["misses"] == 2


class TestProcessIsolation:
    def test_parallel_session_no_cross_job_leakage(self, tmp_path):
        benchmarks, schemes = ("hmmer", "mcf"), ("unsafe", "dom")
        serial = ParallelSession(warmup=100, measure=300, jobs=1).sweep(
            benchmarks, schemes
        )
        clear_cache()
        pooled = ParallelSession(
            warmup=100, measure=300, jobs=2, cache_dir=tmp_path
        ).sweep(benchmarks, schemes)
        # Workers decode in their own interpreters; nothing leaks into the
        # parent's process-local cache...
        info = cache_info()
        assert info["misses"] == 0 and info["size"] == 0
        # ...and isolation costs nothing in fidelity: pooled results are
        # bit-identical to the serial session's.
        assert len(pooled) == len(serial)
        for pair_pooled, pair_serial in zip(pooled, serial):
            assert pair_pooled.benchmark == pair_serial.benchmark
            assert pair_pooled.scheme == pair_serial.scheme
            assert pair_pooled.stats == pair_serial.stats
