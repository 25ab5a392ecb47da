"""The attack corpus: every gadget × every scheme, with pinned verdicts.

One table answers, for each corpus gadget and each scheme configuration,
two different questions:

* **expected_dynamic** — does the simulator, running the gadget twice
  with different secrets, produce distinguishable attacker-visible state
  (``leak``) or not (``clean``)?  This is ground truth for *this*
  microarchitecture: a "clean" can be a genuinely closed channel or a
  lost race.
* **expected_static** — what does the static analyzer
  (``repro.analysis.specflow``) claim?  ``leak-possible`` must cover
  every dynamic ``leak`` (soundness); it may additionally flag cells
  whose dynamic run happens to be clean — those conservative cells are
  listed per entry below, with the reason.

Both judges consume the same secret definition
(:attr:`repro.isa.program.Program.secret_regions`), so an entry is just
a builder, a secret pair, and the two verdict rows.  The differential
harness (``repro specflow``) and the verdict-matrix test replay the
whole table; a simulator change that flips any cell fails loudly and has
to re-pin the expectation here, with the paper section that justifies it.

This module deliberately does not import the analysis layer — the
expected-static row is plain strings, compared by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple

from repro.attacks.gadgets import (
    Gadget,
    dom_implicit_channel,
    spectre_v1,
    store_forward_probe,
)
from repro.attacks.variants import INSECURE_VARIANTS
from repro.common.errors import ConfigError
from repro.schemes import SCHEME_LABELS, make_scheme, parse_label
from repro.schemes.base import SecureScheme

DYNAMIC_LEAK = "leak"
DYNAMIC_CLEAN = "clean"
STATIC_LEAK = "leak-possible"
STATIC_SAFE = "safe"

#: Every scheme configuration the corpus pins: every registry label, then
#: the ``+ap`` form of each weakened variant.
CORPUS_SCHEME_LABELS: Tuple[str, ...] = SCHEME_LABELS + tuple(
    key + "+ap" for key in INSECURE_VARIANTS
)


def scheme_factory(label: str) -> SecureScheme:
    """A fresh scheme instance for ``label``: a registry label, or a
    weakened variant's key with an optional ``+ap`` (fresh per run —
    scheme objects carry a core binding, so sharing across runs is a
    bug)."""
    key, address_prediction = parse_label(label)
    variant = INSECURE_VARIANTS.get(key)
    if variant is None:
        return make_scheme(label)
    return variant(address_prediction=address_prediction)


def _rows(leak_labels: Tuple[str, ...], leak: str, clean: str) -> Dict[str, str]:
    unknown = set(leak_labels) - set(CORPUS_SCHEME_LABELS)
    if unknown:
        raise ConfigError(f"unknown corpus scheme labels: {sorted(unknown)}")
    return {
        label: (leak if label in leak_labels else clean)
        for label in CORPUS_SCHEME_LABELS
    }


@dataclass(frozen=True)
class CorpusEntry:
    """One gadget with its pinned static and dynamic verdict rows."""

    name: str
    build: Callable[[int], Gadget]
    secrets: Tuple[int, int]
    expected_dynamic: Mapping[str, str] = field(default_factory=dict)
    expected_static: Mapping[str, str] = field(default_factory=dict)
    notes: str = ""


ATTACK_CORPUS: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="spectre_v1",
        build=lambda secret: spectre_v1(secret_value=secret),
        secrets=(5, 9),
        expected_dynamic=_rows(
            ("unsafe", "unsafe+ap"), DYNAMIC_LEAK, DYNAMIC_CLEAN
        ),
        expected_static=_rows(
            (
                "unsafe",
                "unsafe+ap",
                "dom-insecure-branches+ap",
                "dom-insecure-reissue+ap",
            ),
            STATIC_LEAK,
            STATIC_SAFE,
        ),
        notes=(
            "Universal read gadget (Figure 1a).  Conservative static "
            "cells: the insecure DoM variants are flagged because a "
            "speculatively loaded value reaches a branch predicate / the "
            "missing reissue rule re-opens the explicit channel in "
            "principle, but this gadget's dynamics never win that race."
        ),
    ),
    CorpusEntry(
        name="fig4a_transient_secret",
        build=lambda secret: dom_implicit_channel(secret, register_secret=False),
        secrets=(0, 1),
        expected_dynamic=_rows(
            ("unsafe", "unsafe+ap", "dom-insecure-branches+ap"),
            DYNAMIC_LEAK,
            DYNAMIC_CLEAN,
        ),
        expected_static=_rows(
            ("unsafe", "unsafe+ap", "dom-insecure-branches+ap"),
            STATIC_LEAK,
            STATIC_SAFE,
        ),
        notes=(
            "Figure 4a: the secret is read speculatively (L1-resident), "
            "then steers a branch between two address-predictable loads.  "
            "Static and dynamic rows agree exactly: NDA/STT squash the "
            "speculatively acquired taint with the window, DoM+AP's "
            "in-order branches close the implicit channel, and dropping "
            "that rule (dom-insecure-branches) leaks."
        ),
    ),
    CorpusEntry(
        name="fig4b_register_secret",
        build=lambda secret: dom_implicit_channel(secret, register_secret=True),
        secrets=(0, 1),
        expected_dynamic=_rows(
            (
                "unsafe",
                "nda",
                "unsafe+ap",
                "nda+ap",
                "dom-insecure-branches+ap",
            ),
            DYNAMIC_LEAK,
            DYNAMIC_CLEAN,
        ),
        expected_static=_rows(
            (
                "unsafe",
                "nda",
                "stt",
                "unsafe+ap",
                "nda+ap",
                "stt+ap",
                "dom-insecure-branches+ap",
            ),
            STATIC_LEAK,
            STATIC_SAFE,
        ),
        notes=(
            "Figure 4b: the secret sits in a register *before* the "
            "speculation window — outside NDA/STT's threat model, so "
            "both are statically leak-possible.  Dynamically NDA leaks "
            "and STT happens to stay clean on this microarchitecture "
            "(its predicate gate delays the branch long enough to lose "
            "the race) — the permitted conservative direction."
        ),
    ),
    CorpusEntry(
        name="store_forward_probe",
        build=lambda secret: store_forward_probe(),
        secrets=(0, 1),
        expected_dynamic=_rows((), DYNAMIC_LEAK, DYNAMIC_CLEAN),
        expected_static=_rows((), STATIC_LEAK, STATIC_SAFE),
        notes=(
            "Figure 3 is a correctness/transparency gadget, not a secrecy "
            "one: it declares no secret regions, so it is vacuously safe "
            "statically and trivially clean dynamically.  It stays in the "
            "corpus to pin that the pipeline handles the no-secret case."
        ),
    ),
)

CORPUS_BY_NAME: Dict[str, CorpusEntry] = {
    entry.name: entry for entry in ATTACK_CORPUS
}


def corpus_entry(name: str) -> CorpusEntry:
    if name not in CORPUS_BY_NAME:
        raise ConfigError(
            f"unknown corpus gadget {name!r}; expected one of "
            f"{sorted(CORPUS_BY_NAME)}"
        )
    return CORPUS_BY_NAME[name]


__all__ = [
    "ATTACK_CORPUS",
    "CORPUS_BY_NAME",
    "CORPUS_SCHEME_LABELS",
    "CorpusEntry",
    "DYNAMIC_CLEAN",
    "DYNAMIC_LEAK",
    "STATIC_LEAK",
    "STATIC_SAFE",
    "corpus_entry",
    "scheme_factory",
]
