"""Tests for CSV/Markdown export and the per-benchmark report."""

import csv
import io

import pytest

from repro.harness.experiments import (
    figure1_summary,
    figure6_normalized_ipc,
    figure7_coverage_accuracy,
    figure8_cache_traffic,
)
from repro.harness.export import (
    benchmark_report,
    figure6_to_csv,
    figure6_to_markdown,
    figure7_to_csv,
    figure8_to_csv,
    summary_to_markdown,
)
from repro.harness.parallel import ParallelSession

BENCHES = ("hmmer", "mcf")


@pytest.fixture(scope="module")
def session():
    return ParallelSession(warmup=800, measure=3000, jobs=1)


class TestCSV:
    def test_figure6_csv_parses(self, session):
        text = figure6_to_csv(figure6_normalized_ipc(session, benchmarks=BENCHES))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "benchmark"
        assert rows[-1][0] == "GMEAN"
        assert len(rows) == 2 + len(BENCHES)
        # Every data cell parses as a float.
        for row in rows[1:]:
            for cell in row[1:]:
                float(cell)

    def test_figure7_csv_parses(self, session):
        text = figure7_to_csv(
            figure7_coverage_accuracy(session, benchmarks=BENCHES)
        )
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["benchmark", "coverage", "accuracy"]
        assert rows[-1][0] == "GMEAN"

    def test_figure8_csv_has_both_levels(self, session):
        text = figure8_to_csv(figure8_cache_traffic(session, benchmarks=BENCHES))
        rows = list(csv.reader(io.StringIO(text)))
        assert any(cell.startswith("l1:") for cell in rows[0])
        assert any(cell.startswith("l2:") for cell in rows[0])


class TestMarkdown:
    def test_figure6_markdown_shape(self, session):
        text = figure6_to_markdown(
            figure6_normalized_ipc(session, benchmarks=BENCHES)
        )
        lines = text.splitlines()
        assert lines[0].startswith("| benchmark |")
        assert set(lines[1].replace("|", "")) <= {"-"}
        assert "**GMEAN**" in text

    def test_summary_markdown_includes_paper_columns(self, session):
        text = summary_to_markdown(figure1_summary(session, benchmarks=BENCHES))
        assert "| scheme | paper | measured |" in text
        assert "reduction" in text


class TestBenchmarkReport:
    def test_report_mentions_counters(self, session):
        text = benchmark_report(session, "hmmer", schemes=("dom", "dom+ap"))
        assert "# hmmer" in text
        assert "baseline IPC" in text
        assert "domDelay" in text
        assert "dom+ap" in text

    def test_report_rows_match_schemes(self, session):
        text = benchmark_report(session, "mcf", schemes=("nda",))
        payload_rows = [
            line for line in text.splitlines() if line.startswith("nda")
        ]
        assert len(payload_rows) == 1


class TestRunResultSerialization:
    def test_json_round_trip(self, session):
        from repro.harness.export import run_result_from_json, run_result_to_json

        result = session.run("hmmer", "dom+ap")
        clone = run_result_from_json(run_result_to_json(result))
        assert clone == result
        assert clone.stats == result.stats

    def test_sweep_to_csv_has_every_counter(self, session):
        from repro.harness.export import sweep_to_csv

        results = session.sweep(BENCHES, ("unsafe", "dom"))
        rows = list(csv.reader(io.StringIO(sweep_to_csv(results))))
        header, data = rows[0], rows[1:]
        assert header[:4] == ["benchmark", "scheme", "warmup", "measure"]
        assert "cycles" in header and "dl_issued" in header
        assert len(data) == len(results)
        for row in data:
            for cell in row[2:]:
                int(cell)

    def test_sweep_to_csv_empty(self):
        from repro.harness.export import sweep_to_csv

        assert sweep_to_csv([]) == ""
