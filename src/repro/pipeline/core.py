"""The out-of-order core.

An execution-driven model: instructions are really executed — including
wrong-path (transient) instructions, which are later squashed — so both the
performance effects (MLP/ILP limits of the secure schemes) and the security
arguments of the paper can be observed directly.

The implementation is event-driven rather than scan-driven: instructions
park on exactly the event that will un-block them, so per-cycle cost is
proportional to *activity*, not window size:

* **operand wakeup** — a consumer with unready sources registers on its
  producers and is pushed into the ready heap when the last one becomes
  readable (scoreboard style);
* **frontier waits** — every scheme restriction in the paper reduces to
  "wait until the shadow frontier reaches sequence number K" (NDA-P's
  propagation lock, STT's transmitter delays, DoM's delayed misses,
  DoM+AP's in-order branch resolution, the DoM doppelganger release).
  Blocked instructions sit in a frontier-ordered heap and wake exactly
  when the frontier passes their key;
* **timed events** — ALU/memory completions, address generation, branch
  resolution, and doppelganger releases fire from a time-ordered heap;
* **idle skipping** — when nothing can issue, dispatch, or commit, the
  clock jumps to the next timed event (memory-bound phases cost ~0).

Cycle phases (oldest pipeline stage first): writeback → frontier wakeups →
commit → issue → memory ports (real loads, then doppelgangers, then
prefetches) → dispatch/fetch.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.config import SystemConfig, default_config
from repro.common.errors import SimulationLimitError
from repro.common.stats import SimStats
from repro.doppelganger.engine import DoppelgangerEngine
from repro.isa.instructions import (
    KIND_ALU,
    KIND_CBRANCH,
    KIND_HALT,
    KIND_JMP,
    KIND_LOAD,
    KIND_STORE,
)
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.decode import decode_program
from repro.pipeline.hooks import CoreObserver, build_guardrails
from repro.pipeline.shadows import ShadowTracker
from repro.pipeline.uop import NO_FORWARD, UNTAINTED, MicroOp
from repro.predictors.branch import GShareBranchPredictor
from repro.predictors.stride import make_stride_table
from repro.schemes.base import READY, SecureScheme

# Timed-event kinds.
_EV_ALU = 0
_EV_BRANCH = 1
_EV_AGU_LOAD = 2
_EV_AGU_STORE = 3
_EV_MEM = 4
_EV_DL = 5
_EV_VP_VALIDATE = 6

# Frontier-waiter reasons.
_W_UNLOCK = 0   # a completed-but-locked producer becomes readable
_W_REREADY = 1  # a gate-blocked IQ entry goes back to the ready heap
_W_MEM = 2      # a gate-blocked load goes back to the memory queue
_W_DL = 3       # a DoM doppelganger miss releases at its visibility point
_W_BRANCH = 4   # a branch with a deferred resolution (STT taint, DoM+AP
                # in-order rule) resolves once the frontier reaches its key

# Producer-waiter kinds.
_K_ISSUE = 0
_K_STORE_DATA = 1

_FORWARD_LATENCY = 2
"""Cycles for a store-buffer forward to deliver data."""

# Plain-int UopState values (see repro.pipeline.uop.STATE_*): hot paths
# compare against literals; 2=COMPLETED, 3=COMMITTED, 4=SQUASHED.


class Core:
    """One out-of-order core running one program under one scheme."""

    def __init__(
        self,
        program: Program,
        scheme: SecureScheme,
        config: Optional[SystemConfig] = None,
        idle_skip: bool = True,
    ):
        self.program = program
        self._idle_skip = idle_skip
        self.config = config if config is not None else default_config()
        self.stats = SimStats()
        self.arch = program.initial_state()
        self.hierarchy = MemoryHierarchy(self.config.memory, self.stats)
        self.bpred = GShareBranchPredictor(self.config.branch)
        self.stride = make_stride_table(self.config.predictor)
        self.shadows = ShadowTracker()
        self.scheme = scheme
        scheme.attach(self)
        self.engine: Optional[DoppelgangerEngine] = (
            DoppelgangerEngine(self) if scheme.address_prediction else None
        )
        if scheme.uses_value_prediction:
            from repro.predictors.value import ValuePredictor

            self.value_pred: Optional["ValuePredictor"] = ValuePredictor(
                self.config.predictor
            )
        else:
            self.value_pred = None

        self.rob: Deque[MicroOp] = deque()
        self.lq: Deque[MicroOp] = deque()
        self.sq: Deque[MicroOp] = deque()
        self.rename: Dict[int, MicroOp] = {}
        self.iq_count = 0

        self._ready: List[Tuple[int, MicroOp]] = []
        self._mem_queue: List[Tuple[int, MicroOp]] = []
        # Loads bounced by a structural hazard, split by what wakes them:
        # MSHR exhaustion retries only once an entry frees (the wake time is
        # computable from the MSHR file), while a forward-blocked load waits
        # on its store's data — a same-step producer event.
        self._mem_retry: List[MicroOp] = []
        self._forward_retry: List[MicroOp] = []
        # Calendar queue of timed events: cycle -> [(kind, uop), ...] in
        # schedule order, plus a min-heap holding each live bucket's cycle
        # once.  Scheduling is a dict probe + list append instead of a
        # heap sift; same-cycle events drain in insertion order, exactly
        # the ordering the old (when, counter, kind, uop) heap's counter
        # tie-break produced.  Handlers only ever schedule into the
        # future (latency >= 1), so a bucket never grows while draining.
        self._events: Dict[int, List[Tuple[int, MicroOp]]] = {}
        self._event_cycles: List[int] = []
        self._event_counter = 0
        self._frontier_waiters: List[Tuple[int, int, int, MicroOp]] = []
        self._prefetch_queue: Deque[int] = deque()

        # Word-granular LSQ indexes: word address -> address-resolved,
        # uncommitted entries (AGU-completion order).  Forwarding,
        # violation checks, and value binding consult these instead of
        # scanning the whole queue; squashed entries are dropped lazily.
        self._sq_index: Dict[int, List[MicroOp]] = {}
        self._lq_index: Dict[int, List[MicroOp]] = {}

        self.observer: Optional[CoreObserver] = None
        self.cycle = 0
        self.next_seq = 0
        self.fetch_pc = 0
        self.fetch_stalled_until = 0
        self.fetch_halted = False
        self.halted = False
        self._last_commit_cycle = 0
        # Step bookkeeping: the watchdog counts *steps* since the last
        # commit (cycle deltas would misread an idle-skip jump over a long
        # miss as starvation), and the loop's exit needs the cycle of the
        # last step actually executed to report a cycle count that does
        # not depend on how far the trailing jump overshot.
        self._step_count = 0
        self._last_commit_step = 0
        self._last_step_cycle = 0

        # Hot-path config, hoisted once: the loop and its phases run millions
        # of times and the frozen-dataclass attribute chain is measurable.
        core_cfg = self.config.core
        self._decode_width = core_cfg.decode_width
        self._issue_width = core_cfg.issue_width
        self._commit_width = core_cfg.commit_width
        self._load_ports = core_cfg.load_ports
        self._store_ports = core_cfg.store_ports
        self._rob_entries = core_cfg.rob_entries
        self._iq_entries = core_cfg.iq_entries
        self._lq_entries = core_cfg.lq_entries
        self._sq_entries = core_cfg.sq_entries
        self._alu_latency = core_cfg.alu_latency
        self._mul_latency = core_cfg.mul_latency
        self._branch_resolve_latency = core_cfg.branch_resolve_latency
        self._branch_resolution_delay = core_cfg.branch_resolution_delay
        self._mispredict_penalty = core_cfg.mispredict_penalty
        self._l1_latency = self.config.memory.l1.latency
        self._prefetch_enabled = self.config.prefetch_enabled
        self._train_on_execute = self.config.predictor.train_on_execute

        # Scheme fast-path flags, hoisted: a False flag means the hook is
        # the base no-op and the call site is skipped entirely.
        self._gates_values = scheme.gates_values
        self._gates_loads = scheme.gates_loads
        self._gates_stores = scheme.gates_stores
        self._gates_branches = scheme.gates_branches
        self._uses_probe = scheme.uses_probe
        self._uses_taint = scheme.uses_taint

        # Per-program decode table, shared across cores/windows/runs via
        # the process-local cache in repro.pipeline.decode.
        self._decoded = decode_program(program, self.config)
        self._dec_entries = self._decoded.entries
        self._dec_len = self._decoded.length

        # Writeback dispatch table, indexed by _EV_* kind.
        self._ev_handlers = (
            self._complete,                  # _EV_ALU
            self._resolve_branch,            # _EV_BRANCH
            self._finish_load_agu,           # _EV_AGU_LOAD
            self._finish_store_agu,          # _EV_AGU_STORE
            self._complete,                  # _EV_MEM
            self._release_doppelganger,      # _EV_DL
            self._validate_value_prediction, # _EV_VP_VALIDATE
        )

        # Guardrails are attached through the provider registry
        # (repro.pipeline.hooks) so the core never imports the guardrails
        # package.  The watchdog is always armed when a provider is
        # registered (one compare per run iteration); the invariant
        # checker exists only when enabled so --guardrails off costs a
        # single attribute test per cycle.
        interval = self.config.guardrails.effective_interval
        self.invariant_checker, self.watchdog = build_guardrails(self)
        self._check_interval = interval
        self._check_countdown = interval

        # The unsafe baseline never consults the shadow frontier, so the
        # tracker bookkeeping (caster add/resolve/squash) can be skipped
        # wholesale — unless something else reads it: the invariant
        # checker cross-validates the tracker against the ROB, and the
        # doppelganger engine's release rule waits on the frontier.
        self._track_shadows = (
            scheme.needs_shadows
            or scheme.address_prediction
            or self.invariant_checker is not None
        )

    # ==================================================================
    # Public API
    # ==================================================================
    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until the program halts (or the budget is reached)."""
        # Each MicroOp (one per fetched instruction) is freed by reference
        # count as it retires or is squashed (see _commit and
        # _squash_from), so a run leaves the cyclic collector no uops.
        self._loop(max_instructions, False)
        return self.stats

    def step(self) -> None:
        """Run exactly one iteration of :meth:`run`'s scheduling loop,
        cycle-limit and watchdog checks included (a no-op once halted)."""
        self._loop(None, True)

    # repro: hot
    def _loop(self, max_instructions: Optional[int], once: bool) -> None:
        """The scheduling loop: the only place that writes the phase order.

        Each iteration checks the instruction budget, the cycle limit and
        the watchdog, runs the phases oldest pipeline stage first, and
        advances the clock; ``once`` stops after one iteration.  With
        ``idle_skip`` on (the default) each phase runs behind a cheap
        activity guard — an idle phase costs one truth test — and the
        clock jumps over provably idle stretches.  With ``idle_skip=False``
        the same body is the per-cycle reference loop: every phase is
        visited every cycle and the clock always advances by one.  Every
        phase is a no-op when its queues are empty, so the guards are
        purely an optimization, and the reference mode pins that claim:
        both modes must produce bit-identical :class:`SimStats`.

        The hot structures are bound to locals: an iteration runs millions
        of times and repeated ``self.X`` lookups are a measurable fraction
        of total wall time.  An attached :attr:`observer` wraps each phase
        once, here at entry, so without one the loop makes no extra call.
        """
        stats = self.stats
        limit = self.config.max_cycles
        watchdog = self.watchdog
        window = watchdog.window if watchdog is not None else 0
        every = not self._idle_skip  # reference mode: no phase guards
        event_cycles = self._event_cycles
        waiters = self._frontier_waiters
        ready = self._ready
        rob = self.rob
        mem_queue = self._mem_queue
        mem_retry = self._mem_retry
        forward_retry = self._forward_retry
        prefetch_queue = self._prefetch_queue
        engine = self.engine
        if engine is not None:
            dl_candidates = engine.candidates
            issue_spare = engine.issue_spare
        else:
            dl_candidates = issue_spare = None
        checker = self.invariant_checker
        load_ports = self._load_ports
        phases = (self._writeback, self._process_frontier, self._commit,
                  self._issue, self._schedule_memory, self._issue_prefetches,
                  self._dispatch, self._next_cycle)
        if self.observer is not None:
            phases = tuple(map(self.observer.wrap_phase, phases))
        (writeback, process_frontier, commit, issue, schedule_memory,
         issue_prefetches, dispatch, next_cycle) = phases
        # Budget as a plain int so the per-step check is one comparison.
        budget = max_instructions if max_instructions is not None else -1
        while not self.halted:
            if budget >= 0 and stats.committed_instructions >= budget:
                break
            now = self.cycle
            if now >= limit:
                raise SimulationLimitError(
                    f"{self.program.name}: exceeded {limit} cycles"
                )
            step_count = self._step_count
            if watchdog is not None and (
                step_count - self._last_commit_step > window
            ):
                watchdog.trip(self)
            self._step_count = step_count + 1
            self._last_step_cycle = now
            if every or (event_cycles and event_cycles[0] <= now):
                writeback(now)
            if every or waiters:
                process_frontier(now)
            if every or (rob and rob[0].state in (2, 3)):  # head completed
                commit(now)
                if self.halted:
                    break
            if every or ready:
                issue(now)
            ports = load_ports
            if every or mem_queue or mem_retry or forward_retry:
                ports = schedule_memory(now, ports)
            if issue_spare is not None and (every or dl_candidates):
                ports = issue_spare(ports, now)
            if every or (prefetch_queue and ports > 0):
                issue_prefetches(now, ports)
            if every or (
                not self.fetch_halted and now >= self.fetch_stalled_until
            ):
                dispatch(now)
            # Fast path: these queues are exactly _next_cycle's first
            # wake-source guard — when any is non-empty the next step is
            # provably at now + 1, so skip the call.
            if ready or mem_queue or forward_retry or prefetch_queue:
                nxt = now + 1
            else:
                nxt = next_cycle(now)
            if checker is not None:
                # Cycle-accurate cadence: the countdown burns *simulated
                # cycles*, so idle-skip jumps cannot silently stretch the
                # check interval.  One sweep covers a whole jumped stretch
                # — machine state cannot change while no step runs.
                self._check_countdown -= nxt - now
                if self._check_countdown <= 0:
                    self._check_countdown = self._check_interval
                    checker.check()
            self.cycle = nxt
            if once:
                break
        if self.halted:
            stats.cycles = self.cycle
        else:
            # The trailing _next_cycle may already have jumped the clock
            # deep into an idle stretch nothing will observe.  Report the
            # cycle after the last step that actually ran, which is what
            # a non-skipping loop would read — so the count is
            # independent of idle skipping.
            stats.cycles = self._last_step_cycle + 1

    # repro: hot
    def _next_cycle(self, now: int) -> int:
        """``now + 1``, or a jump to the next timed event when idle.

        Equivalence contract (pinned by tests/pipeline/test_idle_skip.py):
        a skip is legal only when *no* phase could do work at the skipped
        cycles, so a core with ``idle_skip=False`` must produce bit-
        identical :class:`SimStats`.  Every wake source therefore appears
        here: the ready heap, the memory queues, structural-hazard retries
        (MSHR wakeups are computed from the MSHR file), prefetch timers,
        doppelganger candidates, *eligible* frontier waiters (a resolution
        cascade pipelines one step at a time), the timed-event heap, and
        the fetch-stall timer.
        """
        if not self._idle_skip:
            return now + 1
        engine = self.engine
        if (
            self._ready
            or self._mem_queue
            or self._forward_retry
            or self._prefetch_queue
            or (engine is not None and engine.candidates)
        ):
            return now + 1
        waiters = self._frontier_waiters
        if waiters and waiters[0][0] <= self.shadows.frontier():
            # A frontier-resolution cascade (e.g. DoM+AP in-order branch
            # resolution) unlocks at most one layer per step; an already-
            # eligible waiter means next step has work at now + 1.
            return now + 1
        rob = self.rob
        if rob and rob[0].state in (2, 3):  # head completed
            return now + 1
        fetch_halted = self.fetch_halted
        stalled_until = self.fetch_stalled_until
        if not (
            fetch_halted
            or now + 1 < stalled_until
            or len(rob) >= self._rob_entries
            or self.iq_count >= self._iq_entries
        ):
            return now + 1  # dispatch fetches at now + 1
        candidates = []
        event_cycles = self._event_cycles
        if event_cycles:
            candidates.append(event_cycles[0])
        if self._mem_retry:
            wake = self.hierarchy.mshrs.next_free(now)
            if wake is None:
                return now + 1  # an entry is already free; retry next cycle
            candidates.append(wake)
        if not fetch_halted and stalled_until > now:
            candidates.append(stalled_until)
        if not candidates:
            return now + 1
        return max(now + 1, min(candidates))

    def inject_invalidation(self, address: int) -> None:
        """Model an external coherence invalidation reaching this core.

        The line is invalidated in the caches and the load queue is
        snooped: executed out-of-order loads with a matching address are
        squashed (memory-consistency repair); doppelganger predicted
        addresses are noted and handled at release (paper §4.5).
        """
        line = self.hierarchy.line_address(address)
        self.hierarchy.invalidate(address)
        violator: Optional[MicroOp] = None
        for load in self.lq:
            if load.squashed:
                continue
            if self.engine is not None and self.engine.on_invalidation(load, line):
                self.stats.lq_invalidation_matches += 1
            if (
                load.result is not None
                and load.address_ready
                and self.hierarchy.line_address(load.address) == line
                and self._has_incomplete_older_load(load)
            ):
                self.stats.lq_invalidation_matches += 1
                if violator is None:
                    violator = load
        if violator is not None:
            self._squash_from(violator.seq - 1, violator.pc, violator.bp_history)

    # ==================================================================
    # Phase 1: writeback (timed events)
    # ==================================================================
    # repro: hot
    def _writeback(self, now: int) -> None:
        cycles = self._event_cycles
        buckets = self._events
        handlers = self._ev_handlers
        while cycles and cycles[0] <= now:
            bucket = buckets.pop(heappop(cycles), None)
            if bucket is None:  # bucket cleared behind our back (tests)
                continue
            for kind, uop in bucket:
                if uop.state != 4:  # not squashed
                    handlers[kind](uop, now)

    # repro: hot
    def _complete(self, uop: MicroOp, now: int = 0) -> None:
        if uop.state >= 2:  # completed/committed/squashed
            return
        uop.state = 2  # STATE_COMPLETED
        if self.observer is not None:
            self.observer.on_complete(uop, self.cycle)
        if self._gates_values:
            block = self.scheme.value_block_seq(uop)
            if block != READY:
                # Completed but locked (NDA-P): dependents wake when the
                # shadow frontier reaches the producer itself.
                self._wait_frontier(block, uop, _W_UNLOCK)
                return
        if uop.waiters:
            self._notify_waiters(uop)

    # repro: hot
    def _notify_waiters(self, producer: MicroOp) -> None:
        waiters = producer.waiters
        if not waiters:
            return
        producer.waiters = None
        ready = self._ready
        for consumer, kind in waiters:
            if consumer.state == 4:  # squashed
                continue
            if kind == _K_ISSUE:
                wait_count = consumer.wait_count - 1
                consumer.wait_count = wait_count
                if wait_count == 0 and consumer.in_iq and not consumer.in_ready:
                    consumer.in_ready = True
                    heappush(ready, (consumer.seq, consumer))
            else:  # _K_STORE_DATA
                consumer.result = producer.result or 0
                consumer.store_data_ready = True
                if consumer.address_ready:
                    self._complete(consumer)

    # repro: hot
    def _resolve_branch(self, branch: MicroOp, now: int) -> None:
        # The outcome was computed at execute; the *resolution* (shadow
        # clear, possible squash) may still be deferred by the scheme —
        # STT while the predicate is tainted, DoM+AP until the branch is
        # non-speculative (in-order resolution).  Deferred resolutions
        # pipeline: each fires the moment the frontier reaches its key.
        if self._gates_branches:
            taint = self._operand_taint(branch) if self._uses_taint else UNTAINTED
            block = self.scheme.branch_block_seq(branch, taint)
            if block != READY:
                self._wait_frontier(block, branch, _W_BRANCH)
                return
        branch.branch_resolved = True
        if self._track_shadows:
            self.shadows.branch_resolved(branch.seq)
        self._complete(branch)
        if branch.actual_taken != branch.predicted_taken:
            self.stats.branch_mispredictions += 1
            self.bpred.record_mispredict()
            self.bpred.restore_history(branch.bp_history, branch.actual_taken)
            target = branch.inst.imm if branch.actual_taken else branch.pc + 1
            self._squash_from(branch.seq, target, history_restored=True)

    # repro: hot
    def _finish_load_agu(self, load: MicroOp, now: int) -> None:
        load.address_ready = True
        word = load.address & ~7
        lst = self._lq_index.get(word)
        if lst is None:
            self._lq_index[word] = [load]
        else:
            lst.append(load)
        if self._train_on_execute:
            # INSECURE ablation path: observes speculative/wrong-path
            # addresses (see PredictorConfig.train_on_execute).
            self.stride.train_commit(load.pc, load.address)
        if self.engine is not None:
            self.engine.on_address_resolved(load, now)
        # Slot and field reads of ``has_doppelganger and dl_correct``: a
        # verified-correct preload, not cancelled, supplies the value.
        if not (
            load.dl_correct
            and load.dl_predicted_address is not None
            and not load.dl_cancelled
        ):
            heappush(self._mem_queue, (load.seq, load))

    # repro: hot
    def _finish_store_agu(self, store: MicroOp, now: int) -> None:
        store.address_ready = True
        word = store.address & ~7
        lst = self._sq_index.get(word)
        if lst is None:
            self._sq_index[word] = [store]
        else:
            lst.append(store)
        if self._track_shadows:
            self.shadows.store_address_resolved(store.seq)
        if store.store_data_ready:
            self._complete(store)
        self._check_violations(store)

    def _check_violations(self, store: MicroOp) -> None:
        """Memory-order violation: a younger load already bound a value for
        this store's word without forwarding from it (or something
        younger).  Squash from the oldest violator and refetch it."""
        lst = self._lq_index.get(store.word_address)
        if not lst:
            return
        store_seq = store.seq
        violator: Optional[MicroOp] = None
        stale = False
        for load in lst:
            if load.state == 4:  # squashed; dropped lazily below
                stale = True
                continue
            if load.seq < store_seq or load.result is None:
                continue
            if load.forward_source_seq >= store_seq:
                continue
            if violator is None or load.seq < violator.seq:
                violator = load
        if stale:
            lst[:] = [load for load in lst if load.state != 4]
        if violator is not None:
            self._squash_from(violator.seq - 1, violator.pc, violator.bp_history)

    def _release_doppelganger(self, load: MicroOp, now: int) -> None:
        """A verified-correct doppelganger's value becomes the load result."""
        state = load.state
        if state == 4 or state == 2 or state == 3 or load.executed:
            return
        if load.dl_invalidated:
            # §4.5: a noted invalidation takes effect at propagation time —
            # discard the preload and fall back to a real access.
            load.dl_cancelled = True
            load.dl_correct = False
            self._push_mem(load)
            return
        if not self._bind_load_value(load):
            # A matching older store exists but its data is not ready yet;
            # store-to-load forwarding will override the preload as soon as
            # the data arrives (§4.4).  Retry next cycle.
            self._schedule(now + 1, _EV_DL, load)
            return
        load.dl_used = True
        load.executed = True
        if load.forward_source_seq != NO_FORWARD:
            load.dl_forwarded = True
            self.stats.dl_forwarded += 1
        if self._uses_taint:
            load.taint = self.scheme.load_result_taint(load)
        self.stats.dl_released_early += 1
        self._complete(load)

    def _youngest_matching_store(self, load: MicroOp) -> Optional[MicroOp]:
        """The youngest in-SQ store older than ``load`` whose resolved
        address matches the load's word, or None.

        Consults the word-granular SQ index instead of scanning the whole
        queue; squashed entries are dropped lazily.  Matches the original
        reversed-queue scan exactly: the index holds only address-ready,
        uncommitted stores, and the youngest match is the max-seq one.
        """
        lst = self._sq_index.get(load.address & ~7)
        if not lst:
            return None
        load_seq = load.seq
        best: Optional[MicroOp] = None
        best_seq = -1
        stale = False
        for store in lst:
            if store.state == 4:  # squashed; dropped lazily below
                stale = True
                continue
            seq = store.seq
            if seq <= load_seq and seq > best_seq:
                best = store
                best_seq = seq
        if stale:
            lst[:] = [store for store in lst if store.state != 4]
        return best

    def _bind_load_value(self, load: MicroOp) -> bool:
        """Functionally bind the load's value (forwarding-aware).

        Returns False when an address-matching older store's data is not
        yet available (the caller must retry).
        """
        store = self._youngest_matching_store(load)
        if store is not None:
            if not store.store_data_ready:
                return False
            load.result = store.result
            load.forward_source_seq = store.seq
            return True
        load.result = self.arch.read_mem(load.address)
        load.forward_source_seq = NO_FORWARD
        return True

    # ==================================================================
    # Phase 2: frontier wakeups
    # ==================================================================
    def _wait_frontier(self, key: int, uop: MicroOp, reason: int) -> None:
        self._event_counter += 1
        heapq.heappush(self._frontier_waiters, (key, self._event_counter, reason, uop))

    def defer_until_nonspec(self, load: MicroOp) -> None:
        """Queue a doppelganger release for the load's visibility point."""
        self._wait_frontier(load.seq, load, _W_DL)

    def schedule_dl_release(self, load: MicroOp, when: int) -> None:
        self._schedule(when, _EV_DL, load)

    # repro: hot
    def _process_frontier(self, now: int) -> None:
        waiters = self._frontier_waiters
        if not waiters:
            return
        frontier = self.shadows.frontier()
        while waiters and waiters[0][0] <= frontier:
            _, _, reason, uop = heappop(waiters)
            state = uop.state
            if state == 4:  # squashed
                continue
            if reason == _W_UNLOCK:
                self._notify_waiters(uop)
            elif reason == _W_REREADY:
                if uop.in_iq:
                    self._push_ready(uop)
            elif reason == _W_MEM:
                # state < 2: not yet completed
                if not uop.executed and (state < 2 or uop.vp_active):
                    self._push_mem(uop)
            elif reason == _W_BRANCH:
                if not uop.branch_resolved:
                    self._resolve_branch(uop, now)
            else:  # _W_DL
                if not uop.executed and state < 2:
                    self._schedule(
                        max(uop.dl_completion_cycle, now + 1), _EV_DL, uop
                    )

    # ==================================================================
    # Phase 3: commit
    # ==================================================================
    # repro: hot
    def _commit(self, now: int) -> None:
        rob = self.rob
        if not rob:
            return
        state = rob[0].state
        if state != 2 and state != 3:
            return
        width = self._commit_width
        stores_left = self._store_ports
        stats = self.stats
        rename = self.rename
        registers = self.arch.registers
        observer = self.observer
        step_count = self._step_count
        committed = 0
        branches = 0
        while width > 0 and rob:
            uop = rob[0]
            state = uop.state
            if state != 2 and state != 3:
                break
            kind = uop.kind
            if kind == KIND_STORE and stores_left <= 0:
                break
            if kind == KIND_LOAD and uop.vp_active:
                # DoM+VP: a predicted value propagated speculatively but
                # cannot become architectural before validation.
                break
            rob.popleft()
            uop.state = 3  # STATE_COMMITTED
            if observer is not None:
                observer.on_commit(uop, now)
            width -= 1
            committed += 1
            dec = uop.dec
            if dec[2]:  # writes rd, never r0: ArchState.write_reg's store
                rd = dec[3]
                registers[rd] = (uop.result or 0) & ((1 << 64) - 1)
                if rename.get(rd) is uop:
                    del rename[rd]
            if kind == KIND_ALU:
                pass
            elif kind == KIND_LOAD:
                self._commit_load(uop, now)
            elif kind == KIND_STORE:
                self._commit_store(uop, now)
                stores_left -= 1
            elif kind == KIND_CBRANCH:
                branches += 1
                self.bpred.train(uop.pc, uop.actual_taken, uop.bp_history)
            elif kind == KIND_HALT:
                self.halted = True
                break
            if uop.waiters:
                self._notify_waiters(uop)
            # Nothing reads a retired uop's producers (in-flight consumers
            # keep their own reference to it), and these links would chain
            # every retired uop to older ones.
            uop.src1_uop = uop.src2_uop = uop.prev_producer = None
        if committed:
            self._last_commit_cycle = now
            self._last_commit_step = step_count
            stats.committed_instructions += committed
            if branches:
                stats.committed_branches += branches

    # repro: hot
    def _commit_load(self, load: MicroOp, now: int) -> None:
        stats = self.stats
        stats.committed_loads += 1
        if self.lq and self.lq[0] is load:
            self.lq.popleft()
        else:  # pragma: no cover - defensive; loads commit in order
            self._drop(self.lq, load)
        if load.address_ready:
            self._index_remove(self._lq_index, load)
        if load.dom_touch_pending:
            self.hierarchy.touch(load.address, now)
        # Commit is the *only* place predictors are trained — the
        # security-critical invariant for both the prefetcher and the
        # Doppelganger address predictor.  (train_on_execute is the
        # insecure ablation that moves training to address generation.)
        if not self._train_on_execute:
            self.stride.train_commit(load.pc, load.address)
        if self.value_pred is not None:
            self.value_pred.train_commit(load.pc, load.result or 0)
        if self._prefetch_enabled:
            for candidate in self.stride.prefetch_candidates(load.pc, load.address):
                if self.hierarchy.residency(candidate) != 1:
                    self._prefetch_queue.append(candidate)
        if self.engine is not None:
            self.engine.on_commit(load)

    # repro: hot
    def _commit_store(self, store: MicroOp, now: int) -> None:
        self.stats.committed_stores += 1
        if self.sq and self.sq[0] is store:
            self.sq.popleft()
        else:  # pragma: no cover - defensive; stores commit in order
            self._drop(self.sq, store)
        if store.address_ready:
            self._index_remove(self._sq_index, store)
        self.arch.write_mem(store.address, store.result or 0)
        self.hierarchy.access(store.address, now, is_write=True)

    @staticmethod
    def _drop(queue: Deque[MicroOp], uop: MicroOp) -> None:
        try:
            queue.remove(uop)
        except ValueError:
            pass

    @staticmethod
    def _index_remove(index: Dict[int, List[MicroOp]], uop: MicroOp) -> None:
        """Drop an LSQ-index entry (commit/squash of an address-resolved op)."""
        word = uop.address & ~7
        lst = index.get(word)
        if lst is None:
            return
        if len(lst) == 1:
            if lst[0] is uop:
                del index[word]
            return
        try:
            lst.remove(uop)
        except ValueError:  # pragma: no cover - already lazily dropped
            pass

    # ==================================================================
    # Phase 4: issue
    # ==================================================================
    def _push_ready(self, uop: MicroOp) -> None:
        if not uop.in_ready:
            uop.in_ready = True
            heapq.heappush(self._ready, (uop.seq, uop))

    def _push_mem(self, load: MicroOp) -> None:
        heapq.heappush(self._mem_queue, (load.seq, load))

    def _operand_taint(self, uop: MicroOp) -> int:
        """The larger live taint of both source producers (STT)."""
        taint = UNTAINTED
        producer = uop.src1_uop
        if producer is not None and producer.state != 3:
            taint = producer.taint
        producer = uop.src2_uop
        if producer is not None and producer.state != 3 and producer.taint > taint:
            taint = producer.taint
        return taint

    @staticmethod
    def _address_taint(uop: MicroOp) -> int:
        producer = uop.src1_uop
        if producer is not None and producer.state != 3:
            return producer.taint
        return UNTAINTED

    # repro: hot
    def _issue(self, now: int) -> None:
        ready = self._ready
        if not ready:
            return
        width = self._issue_width
        scheme = self.scheme
        gates_stores = self._gates_stores
        uses_taint = self._uses_taint
        observer = self.observer
        events = self._events
        event_cycles = self._event_cycles
        mask = (1 << 64) - 1
        branch_resolve_latency = self._branch_resolve_latency
        branch_resolution_floor = 1 + self._branch_resolution_delay
        counter = self._event_counter
        issued = 0
        while width > 0 and ready:
            uop = heappop(ready)[1]
            uop.in_ready = False
            if uop.state == 4 or not uop.in_iq:  # squashed or stale entry
                continue
            dec = uop.dec
            kind = dec[1]
            if kind == KIND_STORE and gates_stores:
                # Only the *address* operand (rs1) gates store resolution;
                # tainted store data is harmless until forwarded, and a
                # forwarded value can never out-live its taint (monotone
                # frontier: the consumer goes non-speculative only after
                # the taint root does).
                taint = self._address_taint(uop) if uses_taint else UNTAINTED
                block = scheme.store_block_seq(uop, taint)
                if block != READY:
                    self._event_counter = counter
                    self._wait_frontier(block, uop, _W_REREADY)
                    counter = self._event_counter
                    continue
            uop.in_iq = False
            issued += 1
            uop.issue_cycle = now
            if observer is not None:
                observer.on_issue(uop, now)
            # --- execute: compute the result, schedule its completion ---
            producer = uop.src1_uop
            value1 = uop.src1_value if producer is None else (producer.result or 0)
            if kind == KIND_ALU:
                # Result computed now, visible after latency.
                value2 = (
                    dec[6]  # immediate operand
                    if dec[10]
                    else (
                        uop.src2_value
                        if uop.src2_uop is None
                        else (uop.src2_uop.result or 0)
                    )
                )
                uop.result = dec[8](value1, value2)
                if uses_taint:
                    uop.taint = self._operand_taint(uop)
                when = now + dec[7]
                bucket = events.get(when)
                if bucket is None:
                    events[when] = [(_EV_ALU, uop)]
                    heappush(event_cycles, when)
                else:
                    bucket.append((_EV_ALU, uop))
            elif kind == KIND_LOAD:
                uop.address = (value1 + dec[6]) & mask
                if uses_taint:
                    uop.taint = self._address_taint(uop)
                bucket = events.get(now + 1)
                if bucket is None:
                    events[now + 1] = [(_EV_AGU_LOAD, uop)]
                    heappush(event_cycles, now + 1)
                else:
                    bucket.append((_EV_AGU_LOAD, uop))
            elif kind == KIND_STORE:
                uop.address = (value1 + dec[6]) & mask
                bucket = events.get(now + 1)
                if bucket is None:
                    events[now + 1] = [(_EV_AGU_STORE, uop)]
                    heappush(event_cycles, now + 1)
                else:
                    bucket.append((_EV_AGU_STORE, uop))
            else:  # conditional branch
                value2 = (
                    uop.src2_value
                    if uop.src2_uop is None
                    else (uop.src2_uop.result or 0)
                )
                uop.actual_taken = dec[9](value1, value2)
                # Resolution cannot happen before the branch has traversed
                # the front-end + execute pipeline (a *floor* measured from
                # fetch, modelling pipeline depth) — but a branch whose
                # operand arrived late has long since been fetched and
                # resolves within a couple of cycles of issue.
                resolve_at = now + branch_resolve_latency
                floor = uop.dispatch_cycle + branch_resolution_floor
                if floor > resolve_at:
                    resolve_at = floor
                bucket = events.get(resolve_at)
                if bucket is None:
                    events[resolve_at] = [(_EV_BRANCH, uop)]
                    heappush(event_cycles, resolve_at)
                else:
                    bucket.append((_EV_BRANCH, uop))
            width -= 1
        self.iq_count -= issued
        self._event_counter = counter

    # ==================================================================
    # Phase 5: memory ports
    # ==================================================================
    # repro: hot
    def _schedule_memory(self, now: int, ports: int) -> int:
        queue = self._mem_queue
        forward_retry = self._forward_retry
        if forward_retry:
            for load in forward_retry:
                if load.state != 4:
                    heappush(queue, (load.seq, load))
            forward_retry.clear()
        mem_retry = self._mem_retry
        if mem_retry and self.hierarchy.mshrs.can_allocate(now):
            # MSHR-starved loads re-attempt only once an entry has actually
            # freed: the gate keeps the per-attempt access/stall counters
            # from inflating with the polling rate, and — because the first
            # free cycle is a pure function of the MSHR file — re-attempts
            # land on the same cycles whether or not the idle stretch in
            # between was skipped.
            for load in mem_retry:
                if load.state != 4:
                    heappush(queue, (load.seq, load))
            mem_retry.clear()
        if ports <= 0 or not queue:
            return ports
        scheme = self.scheme
        gates_loads = self._gates_loads
        uses_probe = self._uses_probe
        stats = self.stats
        hierarchy_access = self.hierarchy.access
        arch_read_mem = self.arch.read_mem
        while ports > 0 and queue:
            load = heappop(queue)[1]
            state = load.state
            if state == 4 or load.executed:  # squashed
                continue
            if (state == 2 or state == 3) and not load.vp_active:  # completed
                continue
            if load.dl_predicted_address is not None and (
                not load.dl_cancelled and load.dl_correct
            ):
                continue  # value arrives via the doppelganger release
            if gates_loads:
                block = scheme.load_block_seq(load)
                if block != READY:
                    self._wait_frontier(block, load, _W_MEM)
                    continue
            store = self._youngest_matching_store(load)
            if store is not None and not store.store_data_ready:
                forward_retry.append(load)
                continue
            ports -= 1
            if store is not None:
                load.result = store.result
                load.forward_source_seq = store.seq
                load.executed = True
                stats.store_to_load_forwards += 1
                self._finish_load(load, now + _FORWARD_LATENCY, level=0)
                continue
            if uses_probe and not load.dom_delayed and scheme.load_is_probe(load):
                if self.hierarchy.probe(load.address, now):
                    load.executed = True
                    load.dom_touch_pending = True
                    load.result = arch_read_mem(load.address)
                    load.forward_source_seq = NO_FORWARD
                    self._finish_load(load, now + self._l1_latency, 1)
                else:
                    load.dom_delayed = True
                    stats.dom_delayed_misses += 1
                    self._wait_frontier(load.seq, load, _W_MEM)
                    if self.value_pred is not None and not load.vp_active:
                        self._speculate_value(load, now)
                continue
            result = hierarchy_access(load.address, now)
            if result.retry:
                mem_retry.append(load)
                continue
            if load.dom_delayed:
                stats.dom_reissued_loads += 1
            load.executed = True
            if load.vp_active:
                # The delayed miss finally performed its real access:
                # validate the speculatively propagated value against it.
                load.vp_real_value = self._memory_view(load)
                load.access_level = result.level
                self._schedule(now + result.latency, _EV_VP_VALIDATE, load)
                continue
            load.result = arch_read_mem(load.address)
            load.forward_source_seq = NO_FORWARD
            self._finish_load(load, now + result.latency, result.level)
        return ports

    def _speculate_value(self, load: MicroOp, now: int) -> None:
        """DoM+VP: a delayed miss propagates a *predicted value* that will
        be validated when the real access returns (squash on mismatch)."""
        predicted = self.value_pred.predict_current(load.pc)
        if predicted is None:
            return
        self.stats.vp_predictions += 1
        load.vp_active = True
        load.result = predicted
        load.forward_source_seq = NO_FORWARD
        self._schedule(now + self._l1_latency, _EV_MEM, load)

    def _memory_view(self, load: MicroOp) -> int:
        """The value the load's real access observes (forwarding-aware)."""
        store = self._youngest_matching_store(load)
        if store is not None and store.store_data_ready:
            return store.result or 0
        return self.arch.read_mem(load.address)

    def _validate_value_prediction(self, load: MicroOp, now: int) -> None:
        if load.state == 4 or not load.vp_active:
            return
        load.vp_active = False
        if load.vp_real_value == load.result:
            self.stats.vp_correct += 1
            return
        # Mispredicted value: dependents consumed garbage — squash every
        # younger instruction and refetch after the load; the load itself
        # keeps the (now corrected) real value.
        self.stats.vp_wrong += 1
        self.stats.vp_squashes += 1
        load.result = load.vp_real_value
        self._squash_from(load.seq, load.pc + 1, load.bp_history)

    def _finish_load(self, load: MicroOp, completion: int, level: int) -> None:
        load.access_level = level
        if self.scheme.uses_taint:
            load.taint = self.scheme.load_result_taint(load)
        self._schedule(completion, _EV_MEM, load)

    def _issue_prefetches(self, now: int, ports: int) -> None:
        queue = self._prefetch_queue
        while ports > 0 and queue:
            address = queue.popleft()
            ports -= 1
            result = self.hierarchy.access(address, now)
            if not result.retry:
                self.stats.prefetches_issued += 1
                if not result.l1_hit:
                    self.stats.prefetch_fills += 1

    # ==================================================================
    # Phase 6: dispatch / fetch
    # ==================================================================
    # repro: hot
    def _dispatch(self, now: int) -> None:
        if self.fetch_halted or now < self.fetch_stalled_until:
            return
        rob = self.rob
        rob_entries = self._rob_entries
        iq_count = self.iq_count
        iq_entries = self._iq_entries
        if len(rob) >= rob_entries or iq_count >= iq_entries:
            return  # the window is full: nothing to fetch this cycle
        lq, sq = self.lq, self.sq
        entries = self._dec_entries
        length = self._dec_len
        rename = self.rename
        rename_get = rename.get
        registers = self.arch.registers
        bpred = self.bpred
        engine = self.engine
        value_block_seq = self.scheme.value_block_seq
        shadows = self.shadows
        track_shadows = self._track_shadows
        gates_values = self._gates_values
        observer = self.observer
        ready = self._ready
        lq_entries = self._lq_entries
        sq_entries = self._sq_entries
        pc = self.fetch_pc
        first_seq = seq = self.next_seq
        # Every uop takes one ROB entry, so the ROB's room bounds the
        # group; only the IQ needs a test per uop.
        for _ in range(min(self._decode_width, rob_entries - len(rob))):
            if iq_count >= iq_entries:
                break
            if pc < 0 or pc >= length:
                # Fetch ran past the program (wrong path); a
                # squash-and-redirect restarts it.
                self.fetch_halted = True
                break
            dec = entries[pc]
            kind = dec[1]
            if kind == KIND_LOAD:
                if len(lq) >= lq_entries:
                    break
            elif kind == KIND_STORE:
                if len(sq) >= sq_entries:
                    break
            # --- rename sources (ren1/ren2: decoded rs1/rs2, None for r0,
            # so a register read needs no r0 test) ---
            src1 = src2 = None
            value1 = value2 = 0
            ren = dec[4]
            if ren is not None:
                src1 = rename_get(ren)
                if src1 is None:
                    value1 = registers[ren]
            ren = dec[5]
            if ren is not None:
                src2 = rename_get(ren)
                if src2 is None:
                    value2 = registers[ren]
            if dec[2]:  # writes: rename the destination
                rd = dec[3]
                uop = MicroOp(seq, pc, dec, now, bpred.history, src1, value1,
                              src2, value2, rename_get(rd))
                rename[rd] = uop
            else:
                uop = MicroOp(seq, pc, dec, now, bpred.history, src1, value1,
                              src2, value2)
            if observer is not None:
                observer.on_dispatch(uop, now)
            rob.append(uop)
            next_pc = pc + 1
            taken_transfer = False
            if kind <= KIND_CBRANCH:  # ALU, load, store, branch: the IQ
                if kind == KIND_CBRANCH:
                    if track_shadows:
                        shadows.branch_dispatched(seq)
                    taken = bpred.predict(pc)
                    uop.predicted_taken = taken
                    if taken:
                        next_pc = dec[6]
                        taken_transfer = True
                elif kind == KIND_LOAD:
                    lq.append(uop)
                elif kind == KIND_STORE:
                    sq.append(uop)
                    if track_shadows:
                        shadows.store_dispatched(seq)
                # --- enter the IQ, waiting on the producers rename found:
                # a memory op on its address operand (rs1) only ---
                uop.in_iq = True
                iq_count += 1
                waits = 0
                if src1 is not None:
                    pstate = src1.state
                    if pstate != 3 and (
                        pstate < 2
                        or (gates_values and value_block_seq(src1) != READY)
                    ):
                        if src1.waiters is None:
                            src1.waiters = [(uop, _K_ISSUE)]
                        else:
                            src1.waiters.append((uop, _K_ISSUE))
                        waits = 1
                if src2 is not None and (kind == KIND_ALU or kind == KIND_CBRANCH):
                    pstate = src2.state
                    if pstate != 3 and (
                        pstate < 2
                        or (gates_values and value_block_seq(src2) != READY)
                    ):
                        if src2.waiters is None:
                            src2.waiters = [(uop, _K_ISSUE)]
                        else:
                            src2.waiters.append((uop, _K_ISSUE))
                        waits += 1
                if waits:
                    uop.wait_count = waits
                else:
                    uop.in_ready = True
                    heappush(ready, (seq, uop))
                if kind == KIND_LOAD:
                    if engine is not None:
                        engine.on_dispatch(uop)
                elif kind == KIND_STORE:
                    self._bind_store_data(uop)
            elif kind == KIND_JMP:
                uop.actual_taken = uop.predicted_taken = True
                uop.branch_resolved = True
                self._complete(uop)
                next_pc = dec[6]
                taken_transfer = True
            elif kind == KIND_HALT:
                self._complete(uop)
                seq += 1
                pc = next_pc
                self.fetch_halted = True
                break
            else:  # NOP
                self._complete(uop)
            seq += 1
            pc = next_pc
            if taken_transfer:
                break  # one taken control transfer per fetch group
        if seq != first_seq:
            self.next_seq = seq
            self.iq_count = iq_count
            self.stats.fetched_instructions += seq - first_seq
        self.fetch_pc = pc

    def _bind_store_data(self, store: MicroOp) -> None:
        producer = store.src2_uop
        if producer is None:
            store.result = store.src2_value
            store.store_data_ready = True
            return
        state = producer.state
        if state == 3 or (
            state >= 2
            and not (
                self._gates_values
                and self.scheme.value_block_seq(producer) != READY
            )
        ):  # committed, or completed and readable
            store.result = producer.result or 0
            store.store_data_ready = True
        elif producer.waiters is None:
            producer.waiters = [(store, _K_STORE_DATA)]
        else:
            producer.waiters.append((store, _K_STORE_DATA))

    # ==================================================================
    # Squash
    # ==================================================================
    # repro: hot
    def _squash_from(
        self,
        boundary_seq: int,
        redirect_pc: int,
        history_snapshot: Optional[int] = None,
        history_restored: bool = False,
    ) -> None:
        """Squash everything younger than ``boundary_seq`` and refetch."""
        rob = self.rob
        if rob and rob[-1].seq > boundary_seq:
            rename = self.rename
            track_shadows = self._track_shadows
            caster_squashed = self.shadows.caster_squashed
            observer = self.observer
            engine = self.engine
            cycle = self.cycle
            squashed = 0
            while rob and rob[-1].seq > boundary_seq:
                uop = rob.pop()
                uop.state = 4  # STATE_SQUASHED
                # A squashed uop never completes, so nothing reads its
                # waiters; each holds a consumer whose source link points
                # back here.
                uop.waiters = None
                squashed += 1
                if observer is not None:
                    observer.on_squash(uop, cycle)
                if uop.in_iq:
                    uop.in_iq = False
                    self.iq_count -= 1
                dec = uop.dec
                kind = dec[1]
                if dec[2]:  # writes
                    rd = dec[3]
                    if rename.get(rd) is uop:
                        # Restore the shadowed producer, unless it has
                        # already committed — its value lives in the
                        # architectural file now, and re-inserting it
                        # would leave the map holding a stale reference
                        # past retirement.
                        prev = uop.prev_producer
                        if prev is not None and prev.state != 3:
                            rename[rd] = prev
                        else:
                            del rename[rd]
                if kind == KIND_CBRANCH:
                    if track_shadows and not uop.branch_resolved:
                        caster_squashed(uop.seq, is_branch=True)
                elif kind == KIND_STORE:
                    if track_shadows and not uop.address_ready:
                        caster_squashed(uop.seq, is_branch=False)
                    if uop.address_ready:
                        self._index_remove(self._sq_index, uop)
                elif kind == KIND_LOAD:
                    if uop.address_ready:
                        self._index_remove(self._lq_index, uop)
                    if engine is not None:
                        engine.on_squash(uop)
            self.stats.squashed_instructions += squashed
            self._prune(self.lq)
            self._prune(self.sq)
        if not history_restored and history_snapshot is not None:
            self.bpred.history = history_snapshot
        self.fetch_pc = redirect_pc
        self.fetch_halted = False
        self.fetch_stalled_until = self.cycle + 1 + self._mispredict_penalty

    @staticmethod
    def _prune(queue: Deque[MicroOp]) -> None:
        while queue and queue[-1].state == 4:  # squashed
            queue.pop()

    def _has_incomplete_older_load(self, load: MicroOp) -> bool:
        for other in self.lq:
            if other.seq >= load.seq:
                return False
            if not other.squashed and other.result is None:
                return True
        return False

    # ==================================================================
    # Event plumbing
    # ==================================================================
    def _schedule(self, when: int, kind: int, uop: MicroOp) -> None:
        bucket = self._events.get(when)
        if bucket is None:
            self._events[when] = [(kind, uop)]
            heappush(self._event_cycles, when)
        else:
            bucket.append((kind, uop))
