"""Tests for the pipeline tracer."""

import pytest

from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.trace import PipelineTracer

from tests.conftest import counting_loop


def traced_run(program, scheme="unsafe", capacity=10_000):
    core = Core(program, make_scheme(scheme))
    tracer = PipelineTracer(capacity=capacity)
    core.observer = tracer
    core.run()
    return core, tracer


class TestRecording:
    def test_lifecycle_recorded(self):
        core, tracer = traced_run(counting_loop(20))
        committed = tracer.committed()
        assert len(committed) == core.stats.committed_instructions
        for record in committed:
            assert record.dispatch_cycle >= 0
            assert record.commit_cycle >= record.dispatch_cycle

    def test_squashed_instructions_recorded(self):
        core, tracer = traced_run(counting_loop(50))
        assert len(tracer.squashed()) == core.stats.squashed_instructions
        for record in tracer.squashed():
            assert record.fate == "squashed"
            assert record.commit_cycle == -1

    def test_issue_precedes_complete(self):
        _, tracer = traced_run(counting_loop(20))
        for record in tracer.committed():
            if record.issue_cycle >= 0:
                assert record.issue_cycle >= record.dispatch_cycle
                assert record.complete_cycle >= record.issue_cycle

    def test_capacity_bounds_memory(self):
        _, tracer = traced_run(counting_loop(200), capacity=50)
        assert len(tracer.records()) <= 50
        assert tracer.dropped > 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PipelineTracer(capacity=0)

    def test_doppelganger_flag_captured(self):
        from tests.doppelganger.test_engine import strided_loop

        _, tracer = traced_run(strided_loop(n=120), scheme="stt+ap")
        predicted = [r for r in tracer.loads() if r.dl_predicted]
        assert predicted, "no doppelganger-covered loads traced"

    def test_lifetime(self):
        _, tracer = traced_run(counting_loop(10))
        record = tracer.committed()[0]
        assert record.lifetime() == record.commit_cycle - record.dispatch_cycle


class TestRendering:
    def test_timeline_contains_markers(self):
        _, tracer = traced_run(counting_loop(10))
        text = tracer.render_timeline(count=10)
        assert "D" in text
        assert "R" in text
        assert "li r1, 10" in text

    def test_timeline_empty(self):
        assert "no trace records" in PipelineTracer().render_timeline()

    def test_summary_counts(self):
        core, tracer = traced_run(counting_loop(30))
        text = tracer.render_summary()
        assert f"{core.stats.committed_instructions} committed" in text
        assert "commit latency" in text

    def test_tracing_does_not_change_results(self):
        program = counting_loop(40)
        plain = Core(program, make_scheme("dom+ap"))
        plain.run()
        traced_core, _ = traced_run(counting_loop(40), scheme="dom+ap")
        assert traced_core.arch.read_mem(8) == plain.arch.read_mem(8)
        assert traced_core.stats.cycles == plain.stats.cycles
