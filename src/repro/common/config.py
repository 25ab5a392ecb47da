"""System configuration dataclasses.

The defaults reproduce Table 1 of the paper (an IceLake-like core):

==============================  =======================================
Decode width                    5 instructions
Issue / Commit width            8 instructions
Instruction queue               160 entries
Reorder buffer                  352 entries
Load queue                      128 entries
Store queue/buffer              72 entries
Address predictor/prefetcher    1024 entries, 8-way (full PC tags)
L1 D cache                      48 KiB, 12 ways, 5-cycle roundtrip, 16 MSHRs
Private L2 cache                2 MiB, 8 ways, 15-cycle roundtrip
Shared L3 cache                 16 MiB, 16 ways, 40-cycle roundtrip
Memory access time              13.5 ns (~50 cycles at the modelled clock)
==============================  =======================================

All knobs that the evaluation sweeps or ablates are explicit fields so a
single frozen ``SystemConfig`` fully describes an experiment.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Mapping

from repro.common.errors import ConfigError

CACHE_LINE_SIZE = 64
"""Cache line size in bytes, shared by every level of the hierarchy."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of a single cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    mshrs: int = 16
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, f"{self.name}: size must be positive")
        _require(self.ways > 0, f"{self.name}: ways must be positive")
        _require(self.latency >= 1, f"{self.name}: latency must be >= 1")
        _require(self.mshrs >= 1, f"{self.name}: mshrs must be >= 1")
        # A cache level finds a line by shifting the address, and stores
        # lines in signed 64-bit slots: a 64-bit address shifted by at
        # least one bit always fits.
        _require(
            self.line_size >= 2 and self.line_size & (self.line_size - 1) == 0,
            f"{self.name}: line size must be a power of two >= 2",
        )
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            f"{self.name}: size must be a multiple of ways * line size",
        )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


@dataclass(frozen=True)
class MemoryConfig:
    """The three-level hierarchy plus DRAM of Table 1."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 48 * 1024, 12, latency=5, mshrs=16)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 2 * 1024 * 1024, 8, latency=15)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 16 * 1024 * 1024, 16, latency=40)
    )
    dram_latency: int = 50
    """DRAM access latency in core cycles (13.5 ns at the modelled clock)."""

    def __post_init__(self) -> None:
        _require(self.dram_latency >= 1, "dram_latency must be >= 1")
        sizes = (self.l1.size_bytes, self.l2.size_bytes, self.l3.size_bytes)
        _require(
            sizes[0] <= sizes[1] <= sizes[2],
            "cache levels must be monotonically non-decreasing in size",
        )


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table 1, Processor section)."""

    decode_width: int = 5
    issue_width: int = 8
    commit_width: int = 8
    iq_entries: int = 160
    rob_entries: int = 352
    lq_entries: int = 128
    sq_entries: int = 72
    load_ports: int = 3
    """Cache access slots per cycle shared by loads/doppelgangers/prefetches."""
    store_ports: int = 2
    alu_latency: int = 1
    mul_latency: int = 3
    branch_resolution_delay: int = 12
    """Minimum cycles from a branch's *dispatch* to its resolution (shadow
    cleared, squash on mispredict) — the pipeline-depth floor of the
    fetch→execute→redirect path.  This keeps control shadows open long
    enough for the secure schemes' restrictions to bite, as in the
    paper's gem5 model."""
    branch_resolve_latency: int = 4
    """Cycles from a branch's issue (operands ready) to its resolution —
    the execute-to-redirect tail paid even by branches whose operands
    arrive long after fetch (e.g. predicates fed by cache misses)."""
    mispredict_penalty: int = 6
    """Front-end refill cycles after a squash-and-redirect."""

    def __post_init__(self) -> None:
        for name in (
            "decode_width",
            "issue_width",
            "commit_width",
            "iq_entries",
            "rob_entries",
            "lq_entries",
            "sq_entries",
            "load_ports",
            "store_ports",
            "alu_latency",
            "mul_latency",
        ):
            _require(getattr(self, name) >= 1, f"{name} must be >= 1")
        _require(self.mispredict_penalty >= 0, "mispredict_penalty must be >= 0")
        _require(
            self.branch_resolution_delay >= 0,
            "branch_resolution_delay must be >= 0",
        )
        _require(
            self.branch_resolve_latency >= 1,
            "branch_resolve_latency must be >= 1",
        )
        _require(
            self.rob_entries >= self.lq_entries,
            "ROB must be at least as large as the load queue",
        )


@dataclass(frozen=True)
class BranchPredictorConfig:
    """A gshare direction predictor with a direct-mapped BTB."""

    history_bits: int = 12
    table_entries: int = 4096
    btb_entries: int = 4096

    def __post_init__(self) -> None:
        _require(0 <= self.history_bits <= 24, "history_bits out of range")
        _require(
            self.table_entries > 0 and self.table_entries & (self.table_entries - 1) == 0,
            "table_entries must be a power of two",
        )
        _require(
            self.btb_entries > 0 and self.btb_entries & (self.btb_entries - 1) == 0,
            "btb_entries must be a power of two",
        )


@dataclass(frozen=True)
class PredictorConfig:
    """The shared stride prefetcher / address predictor (paper Section 5.1).

    The same 1024-entry, 8-way, full-PC-tagged structure serves both as a
    conventional stride prefetcher (predicting *future* instances of a load)
    and, when ``address_prediction`` is enabled on the scheme, as the
    Doppelganger address predictor (predicting the *current* instance).
    """

    entries: int = 1024
    ways: int = 8
    kind: str = "stride"
    """Table flavour: "stride" (the paper's baseline, a repurposed PC
    stride prefetcher) or "two_delta" (the 'better predictor' future-work
    extension: the predicting stride changes only when a new delta is
    observed twice, surviving isolated irregular accesses)."""
    confidence_threshold: int = 2
    """Minimum stride-stability counter before a prediction is produced."""
    max_confidence: int = 7
    prefetch_degree: int = 2
    prefetch_distance: int = 4
    train_on_execute: bool = False
    """INSECURE ablation knob: train the stride table at address
    generation (observing wrong-path/speculative addresses) instead of at
    commit.  Exists only so the ablation benches can quantify what the
    commit-only security requirement costs; never enable it otherwise."""
    multi_instance_aging: bool = True
    """Advance the predicted address by one stride per outstanding
    in-flight instance of the same load PC, so overlapping loop
    iterations each receive a distinct prediction.  The paper says the
    predictor "predicts the address of the current instance of the load
    based on its history" (§5.1); with several instances of one PC in
    flight this per-instance aging is the only reading that reproduces
    the paper's ~90% accuracy (Figure 7) — a commit-trained entry would
    otherwise hand every in-flight instance the same stale address.  The
    count of in-flight instances is fetch-stream information, independent
    of speculative *data*, so the security argument is unchanged.  Set to
    False to measure the naive single-prediction variant (ablation)."""

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "entries must be >= 1")
        _require(self.ways >= 1, "ways must be >= 1")
        _require(self.entries % self.ways == 0, "entries must be divisible by ways")
        _require(
            0 <= self.confidence_threshold <= self.max_confidence,
            "confidence_threshold must lie within [0, max_confidence]",
        )
        _require(self.prefetch_degree >= 0, "prefetch_degree must be >= 0")
        _require(self.prefetch_distance >= 1, "prefetch_distance must be >= 1")
        _require(
            self.kind in ("stride", "two_delta"),
            f"unknown predictor kind {self.kind!r}",
        )

    @property
    def num_sets(self) -> int:
        return self.entries // self.ways


GUARDRAIL_LEVELS = ("off", "cheap", "full")
"""Invariant-checker cadences: disabled / every ``check_interval`` cycles /
every cycle."""


@dataclass(frozen=True)
class GuardrailConfig:
    """Microarchitectural guardrails: invariant checker + watchdog.

    Guardrails are pure observers — they never change what the simulator
    computes, only whether a corrupted machine state or a wedged pipeline
    fails loudly (typed error + crash dump) instead of silently skewing
    IPC.  Because results are identical at every level, this sub-config is
    deliberately *excluded* from :func:`config_fingerprint`, so cached
    results are shared between ``--guardrails off`` and ``full`` runs.
    """

    level: str = "off"
    """Invariant-check cadence: "off", "cheap" (every ``check_interval``
    cycles), or "full" (every cycle)."""
    check_interval: int = 1024
    """Cycles between invariant sweeps at level "cheap".  The cadence is
    cycle-accurate under idle skipping: a clock jump spends the whole jump
    against the countdown, and since machine state cannot change mid-jump
    at most one sweep runs per step."""
    watchdog_window: int = 200_000
    """Steps (scheduler iterations) without a commit before the watchdog
    classifies the core as deadlocked/livelocked.  Steps, not cycles: an
    idle-skip jump over a long miss must never read as starvation, and in
    a genuine wedge the clock advances one cycle per step so both
    countings trip at the same point.  Must dwarf the worst-case memory
    latency so even a non-skipping loop never mistakes one long-latency
    miss chain for a wedge (clamped at core construction against the
    memory config)."""
    dump_dir: str | None = None
    """Directory for crash dumps (watchdog + invariant failures); ``None``
    attaches the dump text to the raised error only."""

    def __post_init__(self) -> None:
        _require(
            self.level in GUARDRAIL_LEVELS,
            f"guardrails level must be one of {GUARDRAIL_LEVELS}, got {self.level!r}",
        )
        _require(self.check_interval >= 1, "check_interval must be >= 1")
        _require(self.watchdog_window >= 1, "watchdog_window must be >= 1")

    @property
    def effective_interval(self) -> int:
        """Cycles between invariant sweeps; 0 means checking is off."""
        if self.level == "off":
            return 0
        return 1 if self.level == "full" else self.check_interval


@dataclass(frozen=True)
class SystemConfig:
    """A complete, immutable description of one simulated system."""

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    prefetch_enabled: bool = True
    max_cycles: int = 50_000_000
    """Hard simulation budget; exceeding it raises SimulationLimitError."""
    guardrails: GuardrailConfig = field(default_factory=GuardrailConfig)

    def __post_init__(self) -> None:
        _require(self.max_cycles >= 1, "max_cycles must be >= 1")

    def with_overrides(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with top-level fields replaced.

        Nested fields can be replaced by passing fully-built sub-configs,
        e.g. ``cfg.with_overrides(core=replace(cfg.core, rob_entries=64))``.
        """
        return replace(self, **overrides)

    def fingerprint(self) -> str:
        """A stable hex digest of every knob in this configuration.

        Two configs fingerprint equal iff every field (including nested
        sub-configs) is equal, so the digest is a safe cache key: any
        change to any knob — and nothing else — invalidates cached runs.
        Computed on the first call and kept on the instance: every field
        is frozen, and overrides build new instances.
        """
        if "_fingerprint" not in self.__dict__:
            object.__setattr__(self, "_fingerprint", config_fingerprint(self))
        return self.__dict__["_fingerprint"]


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a :class:`SystemConfig` to plain JSON-able data."""
    return asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    The round trip is exact (``config_from_dict(config_to_dict(c)) == c``),
    which worker processes and the on-disk result cache rely on.
    """
    memory = data["memory"]
    return SystemConfig(
        core=CoreConfig(**data["core"]),
        memory=MemoryConfig(
            l1=CacheConfig(**memory["l1"]),
            l2=CacheConfig(**memory["l2"]),
            l3=CacheConfig(**memory["l3"]),
            dram_latency=memory["dram_latency"],
        ),
        branch=BranchPredictorConfig(**data["branch"]),
        predictor=PredictorConfig(**data["predictor"]),
        prefetch_enabled=data["prefetch_enabled"],
        max_cycles=data["max_cycles"],
        # Absent in payloads written before guardrails existed.
        guardrails=GuardrailConfig(**data.get("guardrails", {})),
    )


FINGERPRINT_EXCLUDED_FIELDS = frozenset({"guardrails"})
"""Top-level :class:`SystemConfig` fields deliberately left out of
:func:`config_fingerprint`.

Every entry here must correspond to an explicit ``payload.pop("<field>",
None)`` in :func:`config_fingerprint` and vice versa — the reprolint
fingerprint-completeness rule (RPL201) enforces that agreement statically,
so a field can neither be dropped from the cache key by accident (the
PR-1 stale-memo bug) nor claimed excluded while it still keys the cache.

* ``guardrails`` — pure observers: invariant checks and the watchdog
  never change simulated behaviour, so runs at every ``--guardrails``
  level (and any dump directory) share cache entries.
"""


def config_fingerprint(config: SystemConfig) -> str:
    """SHA-256 over the canonical (sorted-key JSON) form of ``config``.

    The payload is the full ``asdict`` serialization; the only fields
    removed are the ones sanctioned by
    :data:`FINGERPRINT_EXCLUDED_FIELDS` (see there for rationale).
    """
    payload = config_to_dict(config)
    payload.pop("guardrails", None)  # sanctioned by FINGERPRINT_EXCLUDED_FIELDS
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_config() -> SystemConfig:
    """The Table 1 configuration used throughout the evaluation."""
    return SystemConfig()


def small_config(max_cycles: int = 2_000_000) -> SystemConfig:
    """A scaled-down configuration for fast unit tests.

    Keeps every mechanism active (shadows, MSHRs, port contention) but with
    small structures so tests exercise capacity limits quickly.
    """
    return SystemConfig(
        core=CoreConfig(
            decode_width=2,
            issue_width=4,
            commit_width=4,
            iq_entries=16,
            rob_entries=32,
            lq_entries=16,
            sq_entries=16,
            load_ports=2,
            store_ports=1,
        ),
        memory=MemoryConfig(
            l1=CacheConfig("L1D", 2 * 1024, 2, latency=2, mshrs=4),
            l2=CacheConfig("L2", 16 * 1024, 4, latency=8),
            l3=CacheConfig("L3", 64 * 1024, 8, latency=20),
            dram_latency=40,
        ),
        predictor=PredictorConfig(entries=64, ways=4),
        max_cycles=max_cycles,
    )
