"""The perf-baseline harness: pair verification, JSON round trip,
profile merging, and regression comparison."""

import json

import pytest

from repro.common.errors import ReproError
from repro.harness.perfbench import (
    StatsMismatchError,
    bench_pair,
    bench_profiles,
    compare_baselines,
    load_baseline,
    run_bench,
    write_baseline,
)
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES


class TestBenchPair:
    def test_pair_records_both_loops(self):
        record = bench_pair("mcf", "dom+ap", instructions=400)
        assert record.benchmark == "mcf"
        assert record.scheme == "dom+ap"
        # run() stops at the end of the committing step, so the budget
        # can overshoot by at most one commit group.
        assert 400 <= record.instructions < 400 + 16
        assert record.cycles > 0
        # The whole point of the event-driven loop: steps < cycles.
        assert record.steps < record.cycles
        assert record.cycles_per_step > 1.0
        assert record.wall_event > 0

    def test_mismatch_is_a_hard_error(self, monkeypatch):
        """A baseline produced by diverging loops must be impossible."""
        from repro.pipeline import core as core_module

        original_run = core_module.Core.run

        def corrupted_run(self, max_instructions=None):
            result = original_run(self, max_instructions=max_instructions)
            if not self._idle_skip:
                self.stats.cycles += 1
            return result

        monkeypatch.setattr(core_module.Core, "run", corrupted_run)
        with pytest.raises(StatsMismatchError):
            bench_pair("mcf", "unsafe", instructions=200)


class TestProfiles:
    def test_full_profile_is_the_figure6_grid(self):
        profiles = bench_profiles()
        full = profiles["full"]
        assert set(full.schemes) == {BASELINE_SCHEME, *FIGURE_SCHEMES}
        assert len(full.benchmarks) > 20  # every workload profile
        quick = profiles["quick"]
        assert set(quick.benchmarks) < set(full.benchmarks)
        assert set(quick.schemes) < set(full.schemes)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError):
            run_bench("nonexistent")


def tiny_fragment(name="quick", sim_ips=1000.0):
    record = {
        "benchmark": "mcf", "scheme": "unsafe", "instructions": 100,
        "cycles": 500, "steps": 100, "wall_event": 0.1,
        "wall_reference": 0.2, "sim_ips": sim_ips, "speedup": 2.0,
        "cycles_per_step": 5.0,
    }
    return {
        "profile": name,
        "instructions_per_pair": 100,
        "records": [record],
        "totals": {
            "pairs": 1, "instructions": 100, "cycles": 500, "steps": 100,
            "wall_event": 0.1, "wall_reference": 0.2, "sim_ips": sim_ips,
            "speedup": 2.0, "cycles_per_step": 5.0,
        },
    }


class TestBaselineFile:
    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = write_baseline(str(path), tiny_fragment())
        assert load_baseline(str(path)) == payload
        assert "quick" in payload["profiles"]
        assert "python" in payload["environment"]

    def test_merge_preserves_other_profiles(self, tmp_path):
        path = tmp_path / "bench.json"
        write_baseline(str(path), tiny_fragment(name="full"))
        payload = write_baseline(str(path), tiny_fragment(name="quick"))
        assert set(payload["profiles"]) == {"full", "quick"}

    def test_corrupt_baseline_is_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        payload = write_baseline(str(path), tiny_fragment())
        assert json.loads(path.read_text()) == payload

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_baseline(str(tmp_path / "absent.json"))


class TestCompare:
    def test_no_warning_within_threshold(self, tmp_path):
        baseline = {"profiles": {"quick": tiny_fragment(sim_ips=1000.0)}}
        current = tiny_fragment(sim_ips=900.0)  # 10% drop, threshold 20%
        assert compare_baselines(current, baseline) == []

    def test_warns_beyond_threshold(self):
        baseline = {"profiles": {"quick": tiny_fragment(sim_ips=1000.0)}}
        current = tiny_fragment(sim_ips=500.0)  # 50% drop
        warnings = compare_baselines(current, baseline)
        assert warnings and all("fell" in w for w in warnings)
        # Per-pair and aggregate regression both reported.
        assert len(warnings) == 2

    def test_missing_profile_warns_instead_of_crashing(self):
        warnings = compare_baselines(tiny_fragment(), {"profiles": {}})
        assert len(warnings) == 1 and "no 'quick' profile" in warnings[0]

    def test_baseline_with_retired_fields_still_compares(self):
        """Baselines recorded before the reference loop's timing was
        dropped (the checked-in BENCH_figure6.json among them) carry
        ``wall_reference`` and ``speedup``; comparing reads only
        ``sim_ips``."""
        baseline = {"profiles": {"quick": tiny_fragment(sim_ips=1000.0)}}
        current = tiny_fragment(sim_ips=500.0)
        for entry in current["records"] + [current["totals"]]:
            del entry["wall_reference"], entry["speedup"]
        assert len(compare_baselines(current, baseline)) == 2

    def test_speedups_never_fail_the_run(self):
        baseline = {"profiles": {"quick": tiny_fragment(sim_ips=1000.0)}}
        current = tiny_fragment(sim_ips=5000.0)  # improvement
        assert compare_baselines(current, baseline) == []
