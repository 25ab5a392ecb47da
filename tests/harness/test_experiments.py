"""Tests for the figure/table regeneration code.

Full-suite shape assertions live in the benchmarks; here a three-benchmark
micro-suite checks the experiment plumbing: normalization, geomeans,
table rendering, and the qualitative relations that must hold even on a
tiny sample (DoM slowest on streams, AP recovering, mcf unpredictable).
"""

import pytest

from repro.harness.experiments import (
    PAPER_HEADLINE,
    figure1_summary,
    figure6_normalized_ipc,
    figure7_coverage_accuracy,
    figure8_cache_traffic,
    unsafe_ap_delta,
)
from repro.harness.parallel import ParallelSession

BENCHES = ("libquantum", "mcf", "hmmer")


@pytest.fixture(scope="module")
def session():
    return ParallelSession(warmup=1500, measure=6000, jobs=1)


class TestFigure6:
    def test_structure(self, session):
        result = figure6_normalized_ipc(session, benchmarks=BENCHES)
        assert set(result.rows) == set(BENCHES)
        for row in result.rows.values():
            assert set(row) == set(result.schemes)
        assert set(result.gmean) == set(result.schemes)

    def test_dom_suffers_on_streaming(self, session):
        result = figure6_normalized_ipc(session, benchmarks=BENCHES)
        assert result.rows["libquantum"]["dom"] < 0.7

    def test_ap_recovers_dom_on_streaming(self, session):
        result = figure6_normalized_ipc(session, benchmarks=BENCHES)
        row = result.rows["libquantum"]
        assert row["dom+ap"] > row["dom"] * 1.3

    def test_mcf_immune_to_ap(self, session):
        result = figure6_normalized_ipc(session, benchmarks=BENCHES)
        row = result.rows["mcf"]
        assert row["dom+ap"] == pytest.approx(row["dom"], rel=0.05)

    def test_table_renders(self, session):
        text = figure6_normalized_ipc(session, benchmarks=BENCHES).format_table()
        assert "GMEAN" in text
        assert "libquantum" in text


class TestFigure1Summary:
    def test_paper_reference_values_embedded(self, session):
        result = figure1_summary(session, benchmarks=BENCHES)
        assert result.paper_gmean == PAPER_HEADLINE
        assert set(result.slowdown_reduction) == {"nda", "stt", "dom"}

    def test_ap_always_reduces_slowdown_or_zero(self, session):
        result = figure1_summary(session, benchmarks=BENCHES)
        for scheme, reduction in result.slowdown_reduction.items():
            assert reduction >= -0.2, f"{scheme} AP made things much worse"

    def test_renders(self, session):
        assert "slowdown reduction" in figure1_summary(
            session, benchmarks=BENCHES
        ).format_table()


class TestFigure7:
    def test_coverage_accuracy_in_range(self, session):
        result = figure7_coverage_accuracy(session, benchmarks=BENCHES)
        for value in list(result.coverage.values()) + list(result.accuracy.values()):
            assert 0.0 <= value <= 1.0

    def test_mcf_lowest_coverage(self, session):
        result = figure7_coverage_accuracy(session, benchmarks=BENCHES)
        assert result.coverage["mcf"] == min(result.coverage.values())

    def test_schemes_within_a_percent(self, session):
        """§7: coverage/accuracy nearly identical across schemes (trained
        on the same committed stream)."""
        dom = figure7_coverage_accuracy(session, benchmarks=("hmmer",), scheme="dom+ap")
        stt = figure7_coverage_accuracy(session, benchmarks=("hmmer",), scheme="stt+ap")
        assert dom.coverage["hmmer"] == pytest.approx(
            stt.coverage["hmmer"], abs=0.05
        )

    def test_renders(self, session):
        assert "coverage" in figure7_coverage_accuracy(
            session, benchmarks=BENCHES
        ).format_table()


class TestFigure8:
    def test_normalized_access_structure(self, session):
        result = figure8_cache_traffic(session, benchmarks=BENCHES)
        for table in (result.l1, result.l2):
            assert set(table) == set(BENCHES)
            for row in table.values():
                for value in row.values():
                    assert value > 0

    def test_ap_increases_l1_accesses_when_predictions_wrong(self, session):
        """Mispredicted doppelgangers add L1 traffic on top of the demand
        accesses (paper: visible increase on xalancbmk).  A correct
        prediction replaces the demand access 1:1, so the effect shows on
        low-accuracy benchmarks."""
        result = figure8_cache_traffic(session, benchmarks=("xalancbmk",))
        assert (
            result.l1["xalancbmk"]["stt+ap"]
            > result.l1["xalancbmk"]["stt"] * 1.02
        )

    def test_renders(self, session):
        assert "L2 accesses" in figure8_cache_traffic(
            session, benchmarks=BENCHES
        ).format_table()


class TestUnsafeAP:
    def test_small_gain_on_baseline(self, session):
        result = unsafe_ap_delta(session, benchmarks=BENCHES)
        # §7: ~0.5% geomean on the paper's suite; allow a loose band for
        # the micro-suite, but it must not be a large slowdown or speedup.
        assert -0.05 < result.gmean_gain < 0.15

    def test_renders(self, session):
        assert "GMEAN gain" in unsafe_ap_delta(session, benchmarks=BENCHES).format_table()


class _OneBadBenchmark:
    """A stub session: 'broken' raises the typed error, others delegate."""

    def __init__(self, real):
        self.real = real

    def run(self, benchmark, scheme):
        from repro.common.errors import EmptyMeasurementError

        if benchmark == "broken":
            raise EmptyMeasurementError(
                "program shorter than warmup window",
                benchmark=benchmark, scheme=scheme,
            )
        return self.real.run(benchmark, scheme)

    def normalized_ipc(self, benchmark, scheme):
        from repro.common.errors import EmptyMeasurementError

        if benchmark == "broken":
            raise EmptyMeasurementError(
                "program shorter than warmup window",
                benchmark=benchmark, scheme=scheme,
            )
        return self.real.normalized_ipc(benchmark, scheme)


class TestSkipAndReport:
    """One benchmark with an empty measurement window must not abort a
    whole figure sweep (regression: it used to die on ZeroDivisionError
    or a geomean ValueError)."""

    def test_figure6_skips_and_reports(self, session):
        result = figure6_normalized_ipc(
            _OneBadBenchmark(session), benchmarks=("hmmer", "broken", "mcf")
        )
        assert set(result.rows) == {"hmmer", "mcf"}
        assert "broken" in result.skipped
        assert "shorter than warmup" in result.skipped["broken"]
        for scheme, value in result.gmean.items():
            assert value > 0
        assert "skipped broken" in result.format_table()

    def test_figure7_skips_and_reports(self, session):
        result = figure7_coverage_accuracy(
            _OneBadBenchmark(session), benchmarks=("hmmer", "broken")
        )
        assert set(result.coverage) == {"hmmer"}
        assert "broken" in result.skipped

    def test_figure8_skips_and_reports(self, session):
        result = figure8_cache_traffic(
            _OneBadBenchmark(session), benchmarks=("hmmer", "broken")
        )
        assert set(result.l1) == {"hmmer"}
        assert "broken" in result.skipped

    def test_unsafe_ap_skips_and_reports(self, session):
        result = unsafe_ap_delta(
            _OneBadBenchmark(session), benchmarks=("hmmer", "broken")
        )
        assert set(result.per_benchmark) == {"hmmer"}
        assert "broken" in result.skipped

    def test_figure1_survives_via_figure6(self, session):
        result = figure1_summary(
            _OneBadBenchmark(session), benchmarks=("hmmer", "broken", "mcf")
        )
        assert set(result.slowdown_reduction) == {"nda", "stt", "dom"}
