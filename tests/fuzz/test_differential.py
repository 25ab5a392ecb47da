"""The differential oracle: clean on stock, loud on injected bugs.

``TestPinnedDivergences`` pins the full ``(kind, divergences)`` report of
both injected mutations on three programs against a checked-in fixture,
so any change to how the oracle compares or renders snapshots shows up
as a diff.  A deliberate change re-records the fixture by running this
module as a script, and says in its commit why the text moved::

    PYTHONPATH=src python tests/fuzz/test_differential.py

``TestRawStateJudgement`` checks that each execution is judged on its raw
architectural state, and that keyed snapshots are built only to render a
divergence.
"""

import json
from pathlib import Path

import pytest

from repro import oracle
from repro.common import config as config_module
from repro.common.errors import ConfigError
from repro.fuzz import differential
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
from repro.fuzz.profiles import PROFILES, get_profile
from repro.fuzz.session import DEFAULT_FUZZ_SCHEMES
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


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestRawStateJudgement:
    @pytest.mark.parametrize("matrix", ("full", "schemes"))
    @pytest.mark.parametrize("mutation", (None, *sorted(MUTATIONS)))
    def test_matches_exactly_when_the_keyed_diff_is_empty(
        self, monkeypatch, mutation, matrix
    ):
        verdicts = []

        def checked(core, reference):
            matches = oracle.arch_state_matches(core, reference)
            keyed = oracle.diff_snapshots(
                oracle.reference_snapshot(reference),
                oracle.arch_snapshot(core),
                ignore=("committed",),
            )
            verdicts.append((matches, keyed == []))
            return matches

        monkeypatch.setattr(differential, "arch_state_matches", checked)
        seeds = (0, 1)
        for name in sorted(PROFILES):
            for seed in seeds:
                program = generate_program(seed, get_profile(name))
                run_matrix(
                    program, DEFAULT_FUZZ_SCHEMES, matrix=matrix, mutation=mutation
                )
        assert len(verdicts) == len(PROFILES) * len(seeds) * len(
            matrix_modes(DEFAULT_FUZZ_SCHEMES, matrix)
        )
        assert all(matches == empty for matches, empty in verdicts)
        if mutation is None:
            assert all(matches for matches, _ in verdicts)
        else:
            assert not all(matches for matches, _ in verdicts)

    def test_a_clean_program_builds_no_snapshot(self, monkeypatch):
        arch = counting(monkeypatch, differential, "arch_snapshot")
        reference = counting(monkeypatch, differential, "reference_snapshot")
        program = generate_program(0, get_profile("default"))
        report = run_matrix(program, DEFAULT_FUZZ_SCHEMES, matrix="full")
        assert report.clean
        assert arch == [] and reference == []

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_only_a_diverging_execution_is_snapshotted(self, monkeypatch, mutation):
        arch = counting(monkeypatch, differential, "arch_snapshot")
        reference = counting(monkeypatch, differential, "reference_snapshot")
        program = generate_program(0, get_profile("default"))
        report = run_matrix(
            program, DEFAULT_FUZZ_SCHEMES, matrix="full", mutation=mutation
        )
        diverging = [run for run in report.executions if run.differences]
        assert report.kind == KIND_ARCH and diverging
        assert len(arch) == len(diverging)
        assert len(reference) == 1


class TestModeConfigs:
    def test_each_guardrail_level_is_fingerprinted_once(self, monkeypatch):
        digested = counting(monkeypatch, config_module, "config_fingerprint")
        program = generate_program(0, get_profile("default"))
        report = run_matrix(program, DEFAULT_FUZZ_SCHEMES, matrix="full")
        assert report.clean
        levels = [config.guardrails.level for (config,) in digested]
        assert len(levels) == len(set(levels))
        assert set(levels) <= {"off", "full"}


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
