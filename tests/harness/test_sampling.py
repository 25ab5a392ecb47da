"""Tests for the multi-window sampling harness."""

import functools

import pytest

from repro.harness import sampling
from repro.harness.sampling import SampledResult, sample_benchmark
from repro.pipeline.core import Core


class TestSampledResult:
    def test_mean_and_stdev(self):
        result = SampledResult("b", "s", 100, ipcs=[1.0, 2.0, 3.0])
        assert result.mean == pytest.approx(2.0)
        assert result.stdev == pytest.approx(1.0)
        assert result.relative_stdev == pytest.approx(0.5)

    def test_single_window_has_zero_stdev(self):
        result = SampledResult("b", "s", 100, ipcs=[1.5])
        assert result.stdev == 0.0


class TestSampling:
    def test_collects_requested_windows(self):
        result = sample_benchmark(
            "hmmer", "unsafe", windows=3, window_instructions=1500, warmup=800
        )
        assert len(result.ipcs) == 3
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_steady_state_is_stable(self):
        """Consecutive warm windows of a regular kernel must agree within
        a few percent — the measurement-stability property the figure
        windows rely on."""
        result = sample_benchmark(
            "hmmer", "unsafe", windows=4, window_instructions=5000, warmup=6000
        )
        assert result.relative_stdev < 0.08

    @pytest.mark.parametrize("stand_in", ("mcf", "omnetpp_s"))
    def test_windows_do_not_depend_on_idle_skipping(self, stand_in, monkeypatch):
        """A window ends on the cycle its last step ran, never on a
        trailing idle-skip jump, so the per-cycle reference loop measures
        the same IPCs.  Both pointer chases end windows inside long
        misses, where the event loop jumps its clock."""
        def sample():
            return sample_benchmark(
                stand_in, "dom", windows=2, window_instructions=1000, warmup=300
            ).ipcs

        skipping = sample()
        monkeypatch.setattr(sampling, "Core", functools.partial(Core, idle_skip=False))
        assert sample() == skipping

    def test_invalid_window_count(self):
        with pytest.raises(ValueError):
            sample_benchmark("hmmer", "unsafe", windows=0)
