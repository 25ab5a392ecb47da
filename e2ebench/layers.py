"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public boundary of each ``repro`` layer from the
benchmark's own files; the simulator source is not touched.  Wrappers are
installed on classes and module attributes *before* the job pool forks,
so every pool worker inherits them.  Functions that other modules import
by name (``build_workload``, ``decode_program``, the oracle functions,
``run_matrix``, ...) are replaced in every ``repro`` module that holds a
reference, not only where they are defined.

Each process records one span per wrapped call into flat typed arrays:
name, start, end (``perf_counter_ns``, which is CLOCK_MONOTONIC on Linux,
so parent and worker clocks agree) and the enclosing span.  Self time is
accumulated per name as spans close: a span's duration minus the time its
child spans cover.  A worker clears its buffers when a job starts and
ships that job's spans, aggregates and counts back inside the job's
payload; the parent pops them out before the session sees the payload.
Everything stays in memory until :func:`write_trace` runs at the end.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Payload key under which a worker ships its job's trace to the parent.
TRACE_KEY = "_e2ebench_trace"

#: Scheme hooks the core calls on the hot path.
SCHEME_HOOKS = (
    "value_block_seq",
    "load_block_seq",
    "branch_block_seq",
    "store_block_seq",
    "load_is_probe",
    "load_result_taint",
)

#: Single methods: (module, class, attribute, span name).
METHODS = (
    ("repro.harness.store", "ResultStore", "put", "harness.store.put"),
    ("repro.harness.store", "ProgressLedger", "record", "harness.ledger.record"),
    ("repro.common.config", "SystemConfig", "fingerprint", "common.fingerprint"),
    ("repro.common.stats", "RunResult", "from_dict", "common.result_from_dict"),
    ("repro.isa.program", "Program", "initial_state", "isa.initial_state"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "__init__", "memory.init"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "access", "memory.access"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "probe", "memory.probe"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "touch", "memory.touch"),
    ("repro.pipeline.core", "Core", "__init__", "pipeline.init"),
    ("repro.pipeline.core", "Core", "step", "pipeline.step"),
    ("repro.predictors.branch", "GShareBranchPredictor", "predict",
     "predictors.branch.predict"),
    ("repro.predictors.branch", "GShareBranchPredictor", "train",
     "predictors.branch.train"),
    ("repro.guardrails.invariants", "InvariantChecker", "check", "guardrails.check"),
)

#: Class families: every class in the hierarchy that defines one of the
#: attributes gets it wrapped as ``<prefix>.<attribute>``.  ``None`` means
#: the root class's public methods.
FAMILIES = (
    ("repro.predictors.stride", "StrideTable",
     ("train_commit", "predict_current", "prefetch_candidates"), "predictors.stride"),
    ("repro.schemes.base", "SecureScheme", SCHEME_HOOKS, "schemes"),
    ("repro.doppelganger.engine", "DoppelgangerEngine", None, "doppelganger"),
)

#: Plain functions: (module, name, span name), replaced everywhere.
FUNCTIONS = (
    ("repro.common.config", "config_from_dict", "common.config_from_dict"),
    ("repro.pipeline.decode", "decode_program", "pipeline.decode"),
    ("repro.oracle", "interpret_reference", "oracle.reference"),
    ("repro.oracle", "arch_snapshot", "oracle.snapshot"),
    ("repro.oracle", "diff_snapshots", "oracle.diff"),
    ("repro.fuzz.generator", "generate_program", "fuzz.generate"),
    ("repro.fuzz.differential", "run_matrix", "fuzz.matrix"),
)

#: The job workers, wrapped so each job ships its trace home.
JOB_FUNCTIONS = (
    ("repro.harness.parallel", "execute_job"),
    ("repro.fuzz.session", "execute_fuzz_job"),
)


def unwrapped(fn: Callable) -> Callable:
    """The original behind a tracing wrapper (``fn`` itself if unwrapped),
    for benchmark-side checks that must not add spans."""
    return getattr(fn, "__wrapped__", fn)


class Recorder:
    """One process's spans and counts, kept in memory as flat arrays.

    Span ``i`` has name ``names[kinds[i]]``, runs from ``starts[i]`` to
    ``ends[i]`` and was opened inside span ``parents[i]`` (-1 for a root).
    Buffers are cleared in place so the wrappers can bind them once.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self.kinds = array.array("B")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.parents = array.array("i")
        self.stack: List[int] = []
        self.covered: List[int] = []
        self.calls: List[int] = []
        self.total: List[int] = []
        self.self_ns: List[int] = []
        self.root = [0]
        self.counts: Dict[str, int] = {}
        self.built: set = set()

    def clear(self) -> None:
        for column in (self.kinds, self.starts, self.ends, self.parents):
            del column[:]
        del self.stack[:]
        del self.covered[:]
        for column in (self.calls, self.total, self.self_ns):
            column[:] = [0] * len(column)
        self.root[0] = 0
        self.counts.clear()
        self.built.clear()

    def kind(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            for column in (self.calls, self.total, self.self_ns):
                column.append(0)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as one span named ``name`` per call."""
        kind = self.kind(name)
        kinds, starts, ends, parents = self.kinds, self.starts, self.ends, self.parents
        stack, covered, root = self.stack, self.covered, self.root
        calls, total, self_ns = self.calls, self.total, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            covered.append(0)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                calls[kind] += 1
                total[kind] += duration
                self_ns[kind] += duration - covered.pop()
                if covered:
                    covered[-1] += duration
                else:
                    root[0] += duration

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def columns(self) -> Tuple[array.array, ...]:
        return (self.kinds[:], self.starts[:], self.ends[:], self.parents[:])

    def aggregates(self) -> Dict[str, List[int]]:
        return {
            name: [self.calls[k], self.total[k], self.self_ns[k]]
            for k, name in enumerate(self.names)
            if self.calls[k]
        }

    def export(self, job: str) -> Dict[str, Any]:
        """This process's spans since the last clear, as picklable data."""
        return {
            "pid": os.getpid(),
            "job": job,
            "columns": self.columns(),
            "aggregates": self.aggregates(),
            "root_ns": self.root[0],
            "counts": dict(self.counts),
            "built": sorted(self.built),
        }


class Tracer:
    """Installs the wrappers, collects worker traces, computes the metrics."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.jobs: List[Dict[str, Any]] = []
        self.capacity_ns = 0
        self.workers = 0
        self.attempts = 0
        self.executions = 0
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        rec = self.recorder
        self._method("repro.harness.jobs", "JobEngine", "run", "harness.engine_run",
                     self._engine_run)
        self._method("repro.harness.store", "ResultStore", "get", "harness.store.get",
                     self._store_get)
        self._method("repro.pipeline.core", "Core", "run", "pipeline.run",
                     self._core_run)
        for module, cls, attr, name in METHODS:
            self._method(module, cls, attr, name)
        for module, cls, attrs, prefix in FAMILIES:
            self._family(module, cls, attrs, prefix)
        self._function("repro.workloads.profiles", "build_workload", "workloads.build",
                       self._build_workload)
        for module, attr, name in FUNCTIONS:
            self._function(module, attr, name)
        for module, attr in JOB_FUNCTIONS:
            self._function(module, attr, "harness.job", self._job)
        rec.clear()
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _resolve(self, module: str, attr: str) -> Optional[Any]:
        try:
            return getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return None

    def _method(self, module, cls_name, attr, name, hook=None) -> None:
        cls = self._resolve(module, cls_name)
        if cls is None:
            return
        if attr not in vars(cls):
            self.missing.append(f"{module}.{cls_name}.{attr}")
            return
        self._wrap_attr(cls, attr, name, hook)

    def _wrap_attr(self, cls, attr, name, hook=None) -> None:
        raw = vars(cls)[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        target = hook(fn) if hook is not None else fn
        wrapper = self.recorder.wrap(target, name)
        functools.update_wrapper(wrapper, fn)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, raw))

    def _family(self, module, root_name, attrs, prefix) -> None:
        root = self._resolve(module, root_name)
        if root is None:
            return
        if attrs is None:
            attrs = tuple(
                attr for attr, value in vars(root).items()
                if not attr.startswith("_") and inspect.isfunction(value)
            )
        pending, seen = [root], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in vars(cls):
                    self._wrap_attr(cls, attr, f"{prefix}.{attr}")

    def _function(self, module, attr, name, hook=None) -> None:
        original = self._resolve(module, attr)
        if original is None:
            return
        if hook is None:
            wrapper = self.recorder.wrap(original, name)
        else:
            wrapper = hook(self.recorder.wrap(original, name), original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    # ------------------------------------------------------------------
    # Hooks: counts recorded at the same boundaries as the spans
    # ------------------------------------------------------------------
    def _engine_run(self, fn):
        """Parent side of the pool: merge each job's trace as it resolves
        and account pool capacity (workers × ``JobEngine.run`` wall)."""
        rec = self.recorder

        def run(engine, cold, store, *args, **kwargs):
            workers = min(engine.jobs, len(cold))

            def resolved(key, payload):
                shipped = payload.pop(TRACE_KEY, None)
                if shipped is not None:
                    shipped["parent_span"] = rec.stack[-1] if rec.stack else -1
                    self.jobs.append(shipped)
                self.attempts += payload.get("attempts", 1)
                result = payload.get("result")
                if isinstance(result, dict) and "executions" in result:
                    self.executions += result["executions"]
                store(key, payload)

            started = time.perf_counter_ns()
            try:
                return fn(engine, cold, resolved, *args, **kwargs)
            finally:
                self.capacity_ns += workers * (time.perf_counter_ns() - started)
                self.workers = max(self.workers, workers)

        return run

    def _store_get(self, fn):
        rec = self.recorder

        def get(store, key):
            payload = fn(store, key)
            if payload is not None:
                rec.count("store_hits")
            return payload

        return get

    def _core_run(self, fn):
        rec = self.recorder

        def run(core, *args, **kwargs):
            stats = core.stats
            committed, fetched = stats.committed_instructions, stats.fetched_instructions
            dl_correct, dl_issued = stats.dl_correct, stats.dl_issued
            try:
                return fn(core, *args, **kwargs)
            finally:
                rec.count("committed", stats.committed_instructions - committed)
                rec.count("fetched", stats.fetched_instructions - fetched)
                rec.count("dl_correct", stats.dl_correct - dl_correct)
                rec.count("dl_issued", stats.dl_issued - dl_issued)

        return run

    def _build_workload(self, timed, original):
        rec = self.recorder

        @functools.wraps(original)
        def build_workload(name, *args, **kwargs):
            rec.built.add(name)
            return timed(name, *args, **kwargs)

        return build_workload

    def _job(self, timed, original):
        """Worker side: start each job with empty buffers, ship them back."""
        rec = self.recorder
        decode = importlib.import_module("repro.pipeline.decode")
        cache_info = getattr(decode, "cache_info", None)

        @functools.wraps(original)
        def job(spec):
            if os.getpid() == rec.pid:  # run inline: the parent keeps its spans
                return timed(spec)
            rec.clear()
            before = cache_info() if cache_info else {}
            payload = timed(spec)
            after = cache_info() if cache_info else {}
            for field in ("hits", "misses"):
                rec.count(f"decode_{field}", after.get(field, 0) - before.get(field, 0))
            label = getattr(spec, "label", None) or f"{spec.benchmark}/{spec.scheme}"
            payload[TRACE_KEY] = rec.export(label)
            return payload

        return job

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def merged(self) -> Tuple[Dict[str, List[int]], Dict[str, int], set]:
        aggregates = {k: list(v) for k, v in self.recorder.aggregates().items()}
        counts = dict(self.recorder.counts)
        built = set(self.recorder.built)
        for job in self.jobs:
            for name, values in job["aggregates"].items():
                into = aggregates.setdefault(name, [0, 0, 0])
                for i, value in enumerate(values):
                    into[i] += value
            for name, value in job["counts"].items():
                counts[name] = counts.get(name, 0) + value
            built.update(job["built"])
        return aggregates, counts, built

    def metrics(
        self, wall_s: float, untraced_ops: float, traced_ops: float
    ) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit)."""
        agg, counts, built = self.merged()

        def calls(*names: str) -> int:
            return sum(agg.get(n, (0, 0, 0))[0] for n in names)

        def inclusive(*names: str) -> float:
            return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

        def own(*names: str) -> float:
            return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

        def prefixed(prefix: str) -> List[str]:
            return [n for n in agg if n.startswith(prefix)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        job_ms = sorted(
            (job["columns"][2][0] - job["columns"][1][0]) / 1e6
            for job in self.jobs if len(job["columns"][0])
        )
        tail_pct = tail_percentile(len(job_ms))
        busy_s = inclusive("harness.job")
        capacity_s = self.capacity_ns / 1e9
        processes = 1 + self.workers
        covered_s = (self.recorder.root[0] + sum(j["root_ns"] for j in self.jobs)) / 1e9
        oracle = prefixed("oracle.")
        stride = prefixed("predictors.stride.")
        branch = prefixed("predictors.branch.")
        dl = prefixed("doppelganger.")
        hooks = prefixed("schemes.")
        decode_lookups = counts.get("decode_hits", 0) + counts.get("decode_misses", 0)
        values: Dict[str, Tuple[float, str]] = {
            "harness.pool.busy_share": (ratio(busy_s, capacity_s), "ratio"),
            "harness.pool.capacity_s": (capacity_s, "s"),
            "harness.job.count": (len(job_ms), "count"),
            "harness.job.busy_s": (busy_s, "s"),
            "harness.job.p50_ms": (percentile(job_ms, 50), "ms"),
            "harness.job.tail_ms": (percentile(job_ms, tail_pct), "ms"),
            "harness.job.tail_percentile": (tail_pct, "pct"),
            "harness.job.self_s": (own("harness.job"), "s"),
            "harness.job.attempts": (self.attempts, "count"),
            "harness.store.put_calls": (calls("harness.store.put"), "count"),
            "harness.store.put_s": (own("harness.store.put"), "s"),
            "harness.ledger.record_calls": (calls("harness.ledger.record"), "count"),
            "harness.ledger.record_s": (own("harness.ledger.record"), "s"),
            "harness.store.get_calls": (calls("harness.store.get"), "count"),
            "harness.store.get_s": (own("harness.store.get"), "s"),
            "harness.store.hit_ratio": (
                ratio(counts.get("store_hits", 0), calls("harness.store.get")), "ratio"),
            "common.fingerprint_calls": (calls("common.fingerprint"), "count"),
            "common.fingerprint_s": (own("common.fingerprint"), "s"),
            "common.decode_calls": (
                calls("common.config_from_dict", "common.result_from_dict"), "count"),
            "common.decode_s": (
                own("common.config_from_dict", "common.result_from_dict"), "s"),
            "workloads.build_calls": (calls("workloads.build"), "count"),
            "workloads.build_s": (own("workloads.build"), "s"),
            "workloads.distinct": (len(built), "count"),
            "workloads.distinct_per_build": (
                ratio(len(built), calls("workloads.build")), "ratio"),
            "isa.initial_state_calls": (calls("isa.initial_state"), "count"),
            "isa.initial_state_s": (own("isa.initial_state"), "s"),
            "memory.init_calls": (calls("memory.init"), "count"),
            "memory.init_s": (own("memory.init"), "s"),
            "pipeline.init_calls": (calls("pipeline.init"), "count"),
            "pipeline.init_self_s": (own("pipeline.init"), "s"),
            "pipeline.decode_calls": (calls("pipeline.decode"), "count"),
            "pipeline.decode_s": (own("pipeline.decode"), "s"),
            "pipeline.decode_hit_ratio": (
                ratio(counts.get("decode_hits", 0), decode_lookups), "ratio"),
            "pipeline.run_calls": (calls("pipeline.run"), "count"),
            "pipeline.run_self_s": (own("pipeline.run"), "s"),
            "pipeline.committed": (counts.get("committed", 0), "count"),
            "pipeline.run_ns_per_instr": (
                ratio(inclusive("pipeline.run") * 1e9, counts.get("committed", 0)),
                "ns/instr"),
            "pipeline.step_calls": (calls("pipeline.step"), "count"),
            "pipeline.step_self_s": (own("pipeline.step"), "s"),
            "pipeline.fetched": (counts.get("fetched", 0), "count"),
            "pipeline.committed_per_fetched": (
                ratio(counts.get("committed", 0), counts.get("fetched", 0)), "ratio"),
            "memory.access_calls": (calls("memory.access"), "count"),
            "memory.access_s": (own("memory.access"), "s"),
            "memory.ns_per_access": (
                ratio(own("memory.access") * 1e9, calls("memory.access")), "ns"),
            "memory.probe_calls": (calls("memory.probe"), "count"),
            "memory.probe_s": (own("memory.probe"), "s"),
            "memory.touch_calls": (calls("memory.touch"), "count"),
            "memory.touch_s": (own("memory.touch"), "s"),
            "predictors.stride_calls": (calls(*stride), "count"),
            "predictors.stride_s": (own(*stride), "s"),
            "predictors.branch_calls": (calls(*branch), "count"),
            "predictors.branch_s": (own(*branch), "s"),
            "doppelganger.calls": (calls(*dl), "count"),
            "doppelganger.self_s": (own(*dl), "s"),
            "doppelganger.issued": (counts.get("dl_issued", 0), "count"),
            "doppelganger.correct_per_issued": (
                ratio(counts.get("dl_correct", 0), counts.get("dl_issued", 0)), "ratio"),
            "schemes.hook_calls": (calls(*hooks), "count"),
            "schemes.hook_s": (own(*hooks), "s"),
            "guardrails.check_calls": (calls("guardrails.check"), "count"),
            "guardrails.check_s": (own("guardrails.check"), "s"),
            "oracle.reference_s": (own("oracle.reference"), "s"),
            "oracle.snapshot_s": (own("oracle.snapshot"), "s"),
            "oracle.diff_calls": (calls("oracle.diff"), "count"),
            "oracle.diff_s": (own("oracle.diff"), "s"),
            "fuzz.generate_s": (own("fuzz.generate"), "s"),
            "fuzz.matrix_self_s": (own("fuzz.matrix"), "s"),
            "fuzz.executions": (self.executions, "count"),
            "trace.capacity_s": (wall_s * processes, "s"),
            "trace.unattributed_share": (
                max(0.0, 1.0 - ratio(covered_s, wall_s * processes)), "ratio"),
            "trace.untraced_ops_per_s": (untraced_ops, "ops/s"),
            "trace.traced_ops_per_s": (traced_ops, "ops/s"),
            "trace.overhead_ratio": (ratio(untraced_ops, traced_ops), "ratio"),
            "trace.core_run_share": (ratio(inclusive("pipeline.run"), busy_s), "ratio"),
            "trace.guardrails_oracle_share": (
                ratio(inclusive("guardrails.check", *oracle), busy_s), "ratio"),
            "trace.store_read_share": (
                ratio(own("harness.store.get", "common.fingerprint",
                          "common.config_from_dict", "common.result_from_dict"),
                      wall_s), "ratio"),
            "trace.spans": (
                len(self.recorder.kinds) + sum(len(j["columns"][0]) for j in self.jobs),
                "count"),
        }
        return values

    # ------------------------------------------------------------------
    # Writing the spans out
    # ------------------------------------------------------------------
    def write(self, directory: Path) -> Path:
        """Write every span: ``spans.bin`` holds, per chunk, the four
        columns back to back (u8 name, i64 start ns, i64 end ns, i32
        parent); ``index.json`` names the chunks and the span names."""
        directory.mkdir(parents=True, exist_ok=True)
        chunks = [("parent", self.recorder.pid, -1, self.recorder.columns())]
        chunks += [
            (job["job"], job["pid"], job["parent_span"], job["columns"])
            for job in self.jobs
        ]
        index = []
        with open(directory / "spans.bin", "wb") as out:
            for job, pid, parent_span, columns in chunks:
                index.append({
                    "job": job, "pid": pid, "parent_span": parent_span,
                    "offset": out.tell(), "count": len(columns[0]),
                })
                for column in columns:
                    column.tofile(out)
        (directory / "index.json").write_text(json.dumps({
            "names": self.recorder.names,
            "columns": ["name:u8", "start_ns:i64", "end_ns:i64", "parent:i32"],
            "chunks": index,
            "missing_boundaries": self.missing,
        }, indent=1))
        return directory


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples
    beyond it; the median when there are too few samples for any."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]
