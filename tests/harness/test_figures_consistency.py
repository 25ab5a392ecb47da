"""Cross-figure consistency: the figures are views of one sweep and must
agree with each other and with raw runs."""

import pytest

from repro.harness.experiments import (
    figure1_summary,
    figure6_normalized_ipc,
    figure7_coverage_accuracy,
)
from repro.harness.parallel import ParallelSession

BENCHES = ("hmmer", "libquantum")


@pytest.fixture(scope="module")
def session():
    return ParallelSession(warmup=1000, measure=4000, jobs=1)


class TestCrossFigureConsistency:
    def test_figure1_gmean_equals_figure6_gmean(self, session):
        fig6 = figure6_normalized_ipc(session, benchmarks=BENCHES)
        fig1 = figure1_summary(session, benchmarks=BENCHES)
        for scheme, value in fig1.gmean.items():
            assert value == pytest.approx(fig6.gmean[scheme])

    def test_figure6_rows_match_raw_runs(self, session):
        fig6 = figure6_normalized_ipc(session, benchmarks=BENCHES)
        for benchmark in BENCHES:
            expected = session.normalized_ipc(benchmark, "dom")
            assert fig6.rows[benchmark]["dom"] == pytest.approx(expected)

    def test_figure7_matches_run_stats(self, session):
        fig7 = figure7_coverage_accuracy(session, benchmarks=BENCHES)
        for benchmark in BENCHES:
            stats = session.run(benchmark, "dom+ap").stats
            assert fig7.coverage[benchmark] == pytest.approx(stats.coverage)
            assert fig7.accuracy[benchmark] == pytest.approx(stats.accuracy)

    def test_slowdown_reduction_recomputable(self, session):
        fig1 = figure1_summary(session, benchmarks=BENCHES)
        for scheme in ("nda", "stt", "dom"):
            slowdown = 1.0 - fig1.gmean[scheme]
            slowdown_ap = 1.0 - fig1.gmean[f"{scheme}+ap"]
            if slowdown > 0:
                expected = (slowdown - slowdown_ap) / slowdown
                assert fig1.slowdown_reduction[scheme] == pytest.approx(expected)

    def test_session_reuse_no_resimulation(self, session):
        before = session.cached_runs()
        figure6_normalized_ipc(session, benchmarks=BENCHES)
        figure7_coverage_accuracy(session, benchmarks=BENCHES)
        figure1_summary(session, benchmarks=BENCHES)
        # Everything above reuses the same (benchmark, scheme) runs.
        assert session.cached_runs() == before
