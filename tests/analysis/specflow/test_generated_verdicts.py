"""Pin the static verdict of every generated secret program, per label.

The differential (``repro specflow``) holds generated programs only to
the soundness inclusion: static ``safe`` must be dynamically clean.  A
change that turns a ``safe`` cell into ``leak-possible`` passes that
check unseen, although it is a lost proof.  This module pins every
(secretgen seed, label) cell for seeds 0-49 and every label of
:data:`~repro.attacks.corpus.CORPUS_SCHEME_LABELS`, as
``tests/attacks/test_matrix.py`` pins the corpus cells.

A deliberate change re-records the fixture by running this module as a
script, and says in its commit why the verdicts moved::

    PYTHONPATH=src python tests/analysis/specflow/test_generated_verdicts.py
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.specflow import analyze_program
from repro.attacks.corpus import CORPUS_SCHEME_LABELS
from repro.fuzz.secretgen import generate_secret_case

FIXTURE = Path(__file__).with_name("generated_verdicts.json")
SEEDS = range(50)


def case_verdicts(seed):
    """The generated case's name and its static verdict under each label."""
    case = generate_secret_case(seed)
    report = analyze_program(case.build(case.secrets[0]).program)
    return {
        "name": case.name,
        "verdicts": {label: report.verdict(label) for label in CORPUS_SCHEME_LABELS},
    }


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_labels_match_pin():
    assert list(CORPUS_SCHEME_LABELS) == load_fixture()["labels"]


@pytest.mark.parametrize("seed", SEEDS)
def test_static_verdicts_match_pin(seed):
    assert case_verdicts(seed) == load_fixture()["seeds"][str(seed)]


def record():
    """Re-analyse every seed; rewrite the fixture."""
    seeds = {str(seed): case_verdicts(seed) for seed in SEEDS}
    payload = {"labels": list(CORPUS_SCHEME_LABELS), "seeds": seeds}
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    tally = Counter(
        verdict for case in seeds.values() for verdict in case["verdicts"].values()
    )
    print(f"wrote {sum(tally.values())} cells ({dict(sorted(tally.items()))}) "
          f"to {FIXTURE}")


if __name__ == "__main__":
    record()
