"""Tests for the sweep CSV export (``repro sweep --csv``)."""

import csv
import io

import pytest

from repro.harness.export import sweep_to_csv
from repro.harness.parallel import ParallelSession

BENCHES = ("hmmer", "mcf")


@pytest.fixture(scope="module")
def session():
    return ParallelSession(warmup=800, measure=3000, jobs=1)


class TestRunResultSerialization:
    def test_sweep_to_csv_has_every_counter(self, session):
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
        assert sweep_to_csv([]) == ""
