"""The shared equivalence oracle: one definition of "these runs agree".

Two subsystems judge executions for equality and must never drift apart
in what they compare:

* the **attack harness** (:mod:`repro.attacks.harness`) runs one gadget
  under several *secrets* and asks whether the microarchitectural state
  an attacker can observe is identical — the noninterference property
  the paper's security arguments reduce to;
* the **differential fuzzer** (:mod:`repro.fuzz`) runs one random
  program under several *schemes and scheduler modes* and asks whether
  the architectural state — the only thing secure speculation is allowed
  to preserve — is identical everywhere.

Both judgements live here so there is exactly one implementation of
"snapshot a run" and "are these snapshots equal", instead of two copies
that would drift.  :mod:`repro.attacks.harness` re-exports the attack
entry points for backward compatibility.

Snapshot vocabulary:

* :func:`arch_snapshot` / :func:`reference_snapshot` — committed
  architectural state (registers, memory, halt) of a core run or of the
  in-order reference interpreter.
* :func:`arch_state_matches` — the same judgement on the raw state,
  without building either snapshot; snapshots then only render a
  divergence.
* :func:`observable_snapshot` — the attacker-visible microarchitectural
  view (probe-line residency plus watched access counts).
* :func:`snapshots_equal` / :func:`diff_snapshots` — equality and a
  human-readable explanation of the first differences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.common.config import BranchPredictorConfig, SystemConfig
from repro.common.errors import ConfigError
from repro.isa.program import InterpreterResult, Program
from repro.pipeline.core import Core
from repro.schemes import make_scheme
from repro.schemes.base import SecureScheme

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.gadgets import Gadget

Snapshot = Dict[Hashable, Optional[int]]
"""A flat observation: hashable keys to int, bool or None values."""


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def arch_snapshot(core: Core) -> Snapshot:
    """The committed architectural state of a (finished) core run.

    Keys are chosen so two runs of *any* origin can be compared:
    per-register entries, per-word memory entries, the halt flag, and the
    committed-instruction count.  Zero-valued memory words are kept: a
    store that wrote a zero is still an architectural effect and two
    executions must agree on having performed it.
    """
    snapshot: Snapshot = {
        "halted": core.halted,
        "committed": core.stats.committed_instructions,
    }
    for index, value in enumerate(core.arch.registers):
        snapshot[("reg", index)] = 0 if index == 0 else value
    for address, value in sorted(core.arch.memory.items()):
        snapshot[("mem", address)] = value
    return snapshot


def reference_snapshot(result: InterpreterResult) -> Snapshot:
    """An :func:`arch_snapshot`-shaped view of the in-order interpreter.

    The interpreter is the golden functional model; a core run whose
    snapshot differs from this one committed wrong architectural state.
    The committed-instruction count is deliberately *not* part of the
    reference view (it is compared across core runs, where it must
    match, but the interpreter's dynamic count includes no squash
    replay subtleties worth pinning here).
    """
    state = result.state
    snapshot: Snapshot = {"halted": result.halted}
    for index, value in enumerate(state.registers):
        snapshot[("reg", index)] = 0 if index == 0 else value
    for address, value in sorted(state.memory.items()):
        snapshot[("mem", address)] = value
    return snapshot


def arch_state_matches(core: Core, reference: InterpreterResult) -> bool:
    """True when a finished core committed the reference's architectural
    state: its halt flag, registers and memory words.

    Exactly when ``diff_snapshots(reference_snapshot(reference),
    arch_snapshot(core), ignore=("committed",))`` is empty, at the cost of
    one list and one dict comparison.  Both snapshots force r0 to 0, so
    r0 is left out here; a zero-valued word is an entry on both sides, so
    a word one side wrote as zero and the other never wrote differs here
    too.
    """
    state = reference.state
    return (
        core.halted == reference.halted
        and core.arch.registers[1:] == state.registers[1:]
        and core.arch.memory == state.memory
    )


def snapshots_equal(snapshots: Mapping[Any, Snapshot]) -> bool:
    """True when every key produced an identical snapshot."""
    views = list(snapshots.values())
    return all(view == views[0] for view in views[1:])


def _render_key(key: Any) -> str:
    if isinstance(key, tuple) and len(key) == 2:
        kind, which = key
        if kind == "reg":
            return f"r{which}"
        if kind == "mem":
            return f"[{which:#x}]"
        return f"{kind}:{which}"
    return str(key)


def diff_snapshots(
    reference: Snapshot,
    candidate: Snapshot,
    limit: int = 8,
    ignore: Sequence[Any] = (),
) -> List[str]:
    """Human-readable differences between two snapshots (at most ``limit``).

    ``ignore`` names keys excluded from the comparison (e.g. a count the
    caller compares elsewhere).  The rendering names registers and memory
    words so a divergence report reads like a debugger, not a dict diff.

    The differing keys come from one symmetric difference of the two item
    views, which needs every value hashable (see :data:`Snapshot`); only
    those keys are sorted and rendered, so the cost scales with the
    entries that differ, not with the snapshot's size.
    """
    keys = {key for key, _ in reference.items() ^ candidate.items()}
    keys.difference_update(ignore)
    problems: List[str] = []
    for key in sorted(keys, key=lambda key: (str(type(key)), str(key))):
        expected = reference.get(key, "<absent>")
        actual = candidate.get(key, "<absent>")
        if expected != actual:
            problems.append(
                f"{_render_key(key)}: expected {expected!r}, got {actual!r}"
            )
            if len(problems) >= limit:
                problems.append("... (further differences truncated)")
                break
    return problems


# ----------------------------------------------------------------------
# The attack-side oracle (moved from repro.attacks.harness)
# ----------------------------------------------------------------------
def attack_config() -> SystemConfig:
    """The system configuration attack runs use by default.

    Identical to the Table 1 system except the branch predictor runs with
    zero history bits (pure bimodal).  A real attacker *trains* the
    predictor into a known state before triggering the gadget; with
    global history the prediction at the attack point would depend on
    incidental path history, adding noise that has nothing to do with the
    schemes under test.  Bimodal counters make the trained transient path
    deterministic, which is what the paper's attack discussions assume.
    """
    return SystemConfig(branch=BranchPredictorConfig(history_bits=0))


def apply_secret(program: Program, value: int) -> Program:
    """A copy of ``program`` with every declared secret word set to ``value``.

    The canonical way to vary a secret: both the dynamic noninterference
    check (via gadget builders, validated below) and the static analyzer's
    architectural-channel precheck derive their per-secret program images
    from the ``Program.secret_regions`` declaration, so the two judges can
    never disagree about *which* state is the secret.
    """
    if not program.secret_regions:
        raise ConfigError(
            f"{program.name}: no secret regions declared; nothing to vary"
        )
    memory = dict(program.initial_memory)
    for word in program.secret_words():
        memory[word] = value & ((1 << 64) - 1)
    return Program(
        program.instructions,
        initial_memory=memory,
        initial_registers=program.initial_registers,
        name=program.name,
        secret_regions=program.secret_regions,
    )


def _check_secret_variation(reference: Program, candidate: Program) -> None:
    """Require two builds of one gadget to differ only in secret regions.

    A gadget builder that bakes the secret into anything *other* than the
    declared regions (an instruction immediate, an attacker-visible index)
    would make the noninterference comparison meaningless — the attacker
    view could differ for reasons that are not leaks.  Catching that here
    keeps the dynamic oracle and the static analyzer aligned on the same
    threat model.
    """
    if len(reference.instructions) != len(candidate.instructions) or any(
        a != b for a, b in zip(reference.instructions, candidate.instructions)
    ):
        raise ConfigError(
            f"{reference.name}: gadget instructions vary with the secret"
        )
    if reference.initial_registers != candidate.initial_registers:
        raise ConfigError(
            f"{reference.name}: gadget initial registers vary with the secret"
        )
    if reference.secret_regions != candidate.secret_regions:
        raise ConfigError(
            f"{reference.name}: gadget secret regions vary with the secret"
        )
    secret_words = set(reference.secret_words())
    differing = {
        addr
        for addr in set(reference.initial_memory) | set(candidate.initial_memory)
        if reference.initial_memory.get(addr, 0)
        != candidate.initial_memory.get(addr, 0)
    }
    outside = sorted(differing - secret_words)
    if outside:
        raise ConfigError(
            f"{reference.name}: memory outside the declared secret regions "
            f"varies with the secret (first: {outside[0]:#x}); declare it "
            f"with CodeBuilder.mark_secret or fix the builder"
        )


def build_gadget_core(
    gadget: "Gadget",
    scheme: Union[str, SecureScheme],
    config: Optional[SystemConfig],
) -> Tuple[Core, SecureScheme]:
    """A core primed to run one attack gadget (warm lines included)."""
    if isinstance(scheme, str):
        scheme = make_scheme(scheme)
    if config is None:
        config = attack_config()
    core = Core(gadget.program, scheme, config=config)
    if gadget.warm_addresses:
        core.hierarchy.warm(list(gadget.warm_addresses))
    return core, scheme


def observable_snapshot(core: Core, gadget: "Gadget") -> Snapshot:
    """The attacker-visible view after a gadget run.

    Probe-line residency for every observed address, plus per-line access
    counts for the watched lines: an access to an already-resident line
    still perturbs replacement state, which eviction probing can detect.
    """
    # Imported lazily: repro.attacks.harness imports this module at load
    # time, so a top-level import back into repro.attacks would cycle.
    from repro.attacks.observer import CacheObserver

    observer = CacheObserver(
        core.hierarchy, gadget.probe_base, values=gadget.probe_values
    )
    view: Snapshot = dict(observer.snapshot(gadget.observed_addresses))
    for line, count in core.hierarchy.watched_counts().items():
        view[("accesses", line)] = count
    return view


def noninterference_check(
    gadget_builder: Callable[[int], "Gadget"],
    scheme: Union[str, SecureScheme] = "dom+ap",
    secrets: Sequence[int] = (0, 1),
    config: Optional[SystemConfig] = None,
) -> Dict[int, Snapshot]:
    """Run the gadget once per secret and snapshot observable state.

    Returns ``{secret: {observed_address: residency_level_or_None}}``.
    The scheme is leak-free for this gadget iff all snapshots are equal —
    ``snapshots_equal(result)`` — because then no attacker measuring those
    addresses can distinguish the secrets.
    """
    snapshots: Dict[int, Snapshot] = {}
    reference_program: Optional[Program] = None
    for secret in secrets:
        gadget = gadget_builder(secret)
        if not gadget.observed_addresses:
            raise ConfigError("gadget declares no observed addresses")
        if reference_program is None:
            reference_program = gadget.program
        else:
            _check_secret_variation(reference_program, gadget.program)
        core, _ = build_gadget_core(gadget, scheme, config)
        core.hierarchy.watch(list(gadget.observed_addresses))
        core.run()
        snapshots[secret] = observable_snapshot(core, gadget)
    return snapshots


def interpret_reference(
    program: Program, max_instructions: int = 1_000_000
) -> InterpreterResult:
    """Run the functional reference model with a bounded budget.

    Thin wrapper so oracle users share one default interpretation budget;
    a program that exceeds it raises
    :class:`~repro.common.errors.ExecutionError` (the fuzzer treats that
    as its own divergence kind rather than a simulator bug).
    """
    return program.interpret(max_instructions=max_instructions)
