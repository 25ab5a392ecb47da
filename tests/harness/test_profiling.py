"""Tests for the profiling layer (``repro profile``).

The profiling layer is the instrument the busy-path optimization pass
is steered by, so its own contracts need pinning: the stage observer
must time only the core it observes and leave the :class:`Core` class
alone, the stage report must attribute wall time to the real phase
methods, and both report modes must be JSON-serializable with a
versioned shape.
"""

import json

import pytest

from repro.harness.profiling import (
    PROFILE_FORMAT_VERSION,
    STAGE_METHODS,
    StageAccounting,
    bench_profiles,
    profile_cprofile,
    profile_stages,
    render_stage_report,
    write_report,
)
from repro.harness.runner import BASELINE_SCHEME, FIGURE_SCHEMES
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.workloads.profiles import benchmark_names

from tests.conftest import counting_loop


class TestGrids:
    def test_full_is_the_figure6_grid_and_quick_a_cut_of_it(self):
        grids = bench_profiles()
        full, quick = grids["full"], grids["quick"]
        assert full.benchmarks == benchmark_names("all")
        assert set(full.schemes) == {BASELINE_SCHEME, *FIGURE_SCHEMES}
        assert set(quick.benchmarks) < set(full.benchmarks)
        assert set(quick.schemes) < set(full.schemes)


class TestStageAccounting:
    def test_times_only_the_core_it_observes(self):
        class_attributes = dict(vars(Core))
        accounting = StageAccounting()
        # idle_skip off runs the phases without their activity guards.
        observed = Core(
            counting_loop(20), make_scheme("unsafe"), idle_skip=False
        )
        observed.observer = accounting
        observed.run()
        calls = dict(accounting.calls)
        assert all(calls[name] > 0 for name in STAGE_METHODS)
        assert accounting.total_seconds() > 0.0
        Core(counting_loop(20), make_scheme("unsafe")).run()
        assert accounting.calls == calls
        assert dict(vars(Core)) == class_attributes


class TestStageReport:
    @pytest.fixture(scope="class")
    def report(self):
        return profile_stages("quick")

    def test_shape_and_version(self, report):
        assert report["version"] == PROFILE_FORMAT_VERSION
        assert report["mode"] == "stages"
        assert report["profile"] == "quick"
        assert {row["stage"] for row in report["stages"]} == set(STAGE_METHODS)
        assert report["totals"]["pairs"] == len(report["pairs"])
        assert set(report["environment"]) == {
            "python", "implementation", "machine", "system",
        }

    def test_attributes_real_wall_time(self, report):
        totals = report["totals"]
        assert totals["wall"] > 0
        assert 0 < totals["staged_seconds"]
        assert totals["instructions"] > 0
        # The busy phases must have been hit; a zero-call dispatch would
        # mean the wrappers missed the event loop's late binding.
        calls = {row["stage"]: row["calls"] for row in report["stages"]}
        assert calls["_dispatch"] > 0
        assert calls["_commit"] > 0

    def test_render_and_json_round_trip(self, report, tmp_path):
        text = render_stage_report(report)
        assert "stage profile over the quick grid" in text
        assert "_dispatch" in text
        path = tmp_path / "profile.json"
        write_report(str(path), report)
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )


class TestCProfileMode:
    def test_top_rows_sorted_by_tottime(self):
        report = profile_cprofile("quick", top=10)
        assert report["mode"] == "cprofile"
        assert len(report["top"]) <= 10
        times = [row["tottime"] for row in report["top"]]
        assert times == sorted(times, reverse=True)
        assert "function calls" in report["text"]
