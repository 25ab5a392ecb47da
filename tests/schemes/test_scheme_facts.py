"""Pin what every scheme label builds, and the CLI tables that list labels.

Which labels exist, which scheme takes ``+ap`` and what each label turns
into are facts the simulator, the static analyzer and the CLI all read.
This module pins them through entry points whose signatures stay fixed
(:func:`repro.attacks.corpus.scheme_factory`,
:func:`repro.analysis.specflow.policies.policy_for` and
:func:`repro.cli.main`), so a change to where those facts are stated must
leave every one of them the same.

* Per corpus label, in corpus order: the class built, its
  ``address_prediction``, ``describe()``, the seven fast-path flags,
  ``uses_value_prediction``, ``dl_miss_release_at_nonspec`` and the
  :class:`PolicyModel` the label resolves to, which is built from the
  leakage-model facts the class declares.
* The stdout of ``repro list`` and ``repro attack``, and the scheme
  column of ``repro doctor``'s table, in row order.

A deliberate change re-records the fixture by running this module as a
script, and says in its commit why the facts moved::

    PYTHONPATH=src python tests/schemes/test_scheme_facts.py
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.analysis.specflow.policies import policy_for
from repro.attacks.corpus import CORPUS_SCHEME_LABELS, scheme_factory
from repro.cli import main

FIXTURE = Path(__file__).with_name("scheme_facts.json")

#: Instance attributes pinned per label, beside the class and describe().
ATTRIBUTES = (
    "address_prediction",
    "gates_values",
    "gates_loads",
    "gates_stores",
    "gates_branches",
    "uses_probe",
    "uses_taint",
    "needs_shadows",
    "uses_value_prediction",
    "dl_miss_release_at_nonspec",
)

#: ``repro doctor`` with every smoke but the per-scheme one switched off.
DOCTOR_ARGS = (
    "doctor", "--no-lint", "--no-fuzz", "--no-chaos", "--no-specflow",
    "--instructions", "300",
)


def label_facts(label):
    scheme = scheme_factory(label)
    cls = type(scheme)
    facts = {
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "describe": scheme.describe(),
        "policy_for": dataclasses.asdict(policy_for(label)),
    }
    facts.update((name, getattr(scheme, name)) for name in ATTRIBUTES)
    return facts


def cli_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(list(argv))
    assert status == 0
    return out.getvalue()


def doctor_rows():
    """The scheme column of the doctor's table, top to bottom."""
    lines = cli_output(*DOCTOR_ARGS).splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("scheme"))
    rows = []
    for line in lines[header + 2:]:
        if not line:
            break
        rows.append(line.split()[0])
    return rows


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_corpus_labels_match_pin():
    assert list(CORPUS_SCHEME_LABELS) == list(load_fixture()["labels"])


@pytest.mark.parametrize("label", CORPUS_SCHEME_LABELS)
def test_label_facts_match_pin(label):
    assert label_facts(label) == load_fixture()["labels"][label]


def test_list_output_matches_pin():
    assert cli_output("list") == load_fixture()["list"]


def test_attack_output_matches_pin():
    assert cli_output("attack") == load_fixture()["attack"]


def test_doctor_row_order_matches_pin():
    assert doctor_rows() == load_fixture()["doctor_rows"]


def record():
    """Rebuild every label and re-run the three commands; rewrite the
    fixture."""
    payload = {
        "labels": {label: label_facts(label) for label in CORPUS_SCHEME_LABELS},
        "list": cli_output("list"),
        "attack": cli_output("attack"),
        "doctor_rows": doctor_rows(),
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote the facts of {len(CORPUS_SCHEME_LABELS)} labels and three "
          f"command outputs to {FIXTURE}")


if __name__ == "__main__":
    record()
