"""The differential oracle: clean on stock, loud on injected bugs.

``TestPinnedDivergences`` pins the full ``(kind, divergences)`` report of
both injected mutations on three programs against a checked-in fixture,
so any change to how the oracle compares or renders snapshots shows up
as a diff.  A deliberate change re-records the fixture by running this
module as a script, and says in its commit why the text moved::

    PYTHONPATH=src python tests/fuzz/test_differential.py
"""

import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.fuzz.differential import (
    KIND_ARCH,
    KIND_CLEAN,
    KIND_REFERENCE_LIMIT,
    Execution,
    _has_arch_divergence,
    _stats_divergences,
    commit_budget,
    matrix_modes,
    run_matrix,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.mutations import MUTATIONS, make_scheme_variant
from repro.fuzz.profiles import get_profile
from repro.isa.builder import CodeBuilder

SMOKE_SCHEMES = ("unsafe", "dom+ap")

FIXTURE = Path(__file__).with_name("injected_divergences.json")

#: (profile, seed) of the programs whose injected-bug reports are pinned:
#: together they show register and memory differences, ``'<absent>'``
#: values and the truncation marker.
PINNED_PROGRAMS = (("default", 0), ("streaming", 4), ("chase", 2))
PINNED_CASES = [
    f"{mutation}/{profile}/{seed}"
    for mutation in sorted(MUTATIONS)
    for profile, seed in PINNED_PROGRAMS
]


class TestMatrixModes:
    def test_full_matrix_crosses_everything(self):
        modes = matrix_modes(SMOKE_SCHEMES, "full")
        assert len(modes) == len(SMOKE_SCHEMES) * 2 * 2
        assert {m.scheme for m in modes} == set(SMOKE_SCHEMES)
        assert {m.idle_skip for m in modes} == {True, False}
        assert {m.guardrails for m in modes} == {"off", "full"}

    def test_schemes_matrix_is_one_cell_per_scheme(self):
        modes = matrix_modes(SMOKE_SCHEMES, "schemes")
        assert len(modes) == len(SMOKE_SCHEMES)
        assert all(m.idle_skip and m.guardrails == "full" for m in modes)


class TestStockSimulator:
    def test_generated_program_is_clean_full_matrix(self):
        program = generate_program(0, get_profile("default"))
        report = run_matrix(program, SMOKE_SCHEMES, matrix="full")
        assert report.kind == KIND_CLEAN
        assert report.clean
        assert len(report.executions) == len(SMOKE_SCHEMES) * 4
        assert report.divergences == []

    @pytest.mark.parametrize("name", ("branchy", "store_pressure"))
    def test_pressure_profiles_are_clean(self, name):
        program = generate_program(1, get_profile(name))
        report = run_matrix(program, SMOKE_SCHEMES, matrix="schemes")
        assert report.kind == KIND_CLEAN


class TestInjectedBugs:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutations_are_caught(self, mutation):
        program = generate_program(0, get_profile("default"))
        report = run_matrix(
            program, SMOKE_SCHEMES, matrix="schemes", mutation=mutation
        )
        assert report.kind == KIND_ARCH
        assert report.divergences

    def test_runaway_mutated_program_is_bounded(self):
        # commit-bitflip can corrupt the loop counter; the commit budget
        # turns the resulting endless loop into a fast halted=False
        # divergence instead of a hang.
        program = generate_program(1, get_profile("branchy"))
        report = run_matrix(
            program, SMOKE_SCHEMES, matrix="schemes", mutation="commit-bitflip"
        )
        assert report.kind == KIND_ARCH

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ConfigError, match="unknown mutation"):
            make_scheme_variant("dom", "not-a-mutation")


def injected_report(case):
    mutation, profile, seed = case.split("/")
    program = generate_program(int(seed), get_profile(profile))
    report = run_matrix(
        program, SMOKE_SCHEMES, matrix="schemes", mutation=mutation
    )
    return {"kind": report.kind, "divergences": report.divergences}


class TestPinnedDivergences:
    def test_fixture_covers_the_cases(self):
        assert sorted(json.loads(FIXTURE.read_text())) == sorted(PINNED_CASES)

    @pytest.mark.parametrize("case", PINNED_CASES)
    def test_report_matches_fixture(self, case):
        expected = json.loads(FIXTURE.read_text())[case]
        assert injected_report(case) == expected


def executions(schemes=("dom",), **changed):
    """One clean execution per full-matrix mode, all with equal stats;
    ``changed`` maps a mode description to the stats it reports instead."""
    result = []
    for mode in matrix_modes(schemes, "full"):
        stats = changed.get(mode.describe(), {"cycles": 100, "committed": 40})
        result.append(Execution(mode=mode, ok=True, stats=dict(stats)))
    return result


class TestStatsDivergences:
    def test_identical_stats_are_clean(self):
        assert _stats_divergences(executions(("unsafe", "dom"))) == []

    def test_guardrail_level_changing_stats_is_caught(self):
        report = _stats_divergences(
            executions(
                **{"dom idle_skip=off guardrails=full": {"cycles": 101, "committed": 40}}
            )
        )
        # The idle_skip comparison within guardrails=full sees it too,
        # and its messages come first.
        assert report == [
            "[dom guardrails=full] stats[cycles]: idle_skip=on 100 vs "
            "idle_skip=off 101",
            "[dom idle_skip=off] stats[cycles]: guardrails=off 100 vs "
            "guardrails=full 101",
        ]
        assert not _has_arch_divergence(report)

    def test_every_level_pair_is_compared(self):
        changed = {"cycles": 100, "committed": 41}
        report = _stats_divergences(
            executions(
                **{
                    "dom idle_skip=on guardrails=full": changed,
                    "dom idle_skip=off guardrails=full": changed,
                }
            )
        )
        assert report == [
            "[dom idle_skip=off] stats[committed]: guardrails=off 40 vs "
            "guardrails=full 41",
            "[dom idle_skip=on] stats[committed]: guardrails=off 40 vs "
            "guardrails=full 41",
        ]

    def test_failed_execution_has_no_pair(self):
        runs = executions(
            **{"dom idle_skip=on guardrails=full": {"cycles": 7, "committed": 40}}
        )
        for run in runs:
            if run.mode.describe() == "dom idle_skip=on guardrails=full":
                run.ok, run.stats = False, None
        assert _stats_divergences(runs) == []

    def test_one_cell_per_scheme_has_no_pairs(self):
        runs = [
            Execution(mode=mode, ok=True, stats={"cycles": index})
            for index, mode in enumerate(matrix_modes(SMOKE_SCHEMES, "schemes"))
        ]
        assert _stats_divergences(runs) == []


class TestReferenceLimit:
    def test_non_halting_program_is_its_own_kind(self):
        b = CodeBuilder()
        b.label("spin")
        b.jmp("spin")
        b.halt()
        report = run_matrix(
            b.build(name="spin"), SMOKE_SCHEMES, matrix="schemes"
        )
        assert report.kind == KIND_REFERENCE_LIMIT
        assert report.executions == []

    def test_commit_budget_scales_with_reference(self):
        assert commit_budget(1000) > commit_budget(10) > 0


def record():
    """Re-run the pinned cases and rewrite the fixture."""
    reports = {case: injected_report(case) for case in PINNED_CASES}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} cases to {FIXTURE}")


if __name__ == "__main__":
    record()
