"""Outside-in layer tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public entry point (a class method or a module-level name
at its call site) with a timing wrapper that lives here, so the traced
run measures the unmodified program.  Untraced runs never call
:func:`install` and pay nothing.

Every wrapped call keeps a per-thread stack of child-time accumulators,
so each boundary's *self* time (its duration minus the wrapped calls
nested inside it) is exact and the self times of one thread never
overlap: their sum plus an explicit unattributed remainder is the wall
time, the accounting rule of a CPI stack.

Two kinds of boundary:

* span boundaries (cells, programs, emulate, inject, simulate, store
  I/O) record one span each: name, start, end, parent span and a trace
  id shared by every span of one cell or program;
* per-instruction boundaries (``retire``, ``next_block``, optimizer
  passes, frame execution) are far too frequent for one span per call,
  so they are aggregated into the innermost open span as a call count
  plus self seconds.

Spans stay in memory and are written out once, at the end of the run,
as Chrome trace-event JSON (:func:`chrome_trace`), which Perfetto opens
offline.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: Optimizer pass ``name`` attribute -> metric suffix.  ``asst`` is the
#: value-assertion pass (``ValueAssertion``), reported as ``va``.
PASS_METRICS = {
    "nop": "optimizer.pass.nop_s",
    "cp": "optimizer.pass.cp_s",
    "ra": "optimizer.pass.ra_s",
    "cse": "optimizer.pass.cse_s",
    "sf": "optimizer.pass.sf_s",
    "asst": "optimizer.pass.va_s",
    "dce": "optimizer.pass.dce_s",
}


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "span")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.span: _Span | None = None


class _Span:
    __slots__ = (
        "span_id", "name", "metric", "trace_id", "parent_id",
        "pid", "tid", "start", "end", "aggs",
    )

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "metric": self.metric,
            "trace_id": self.trace_id,
            "parent": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "start": self.start,
            "end": self.end,
            "aggs": {k: list(v) for k, v in self.aggs.items()},
        }


class Tracer:
    """Per-thread self-time totals plus an in-memory span list."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self.spans: list = []  # closed _Span objects, or dicts shipped back
        self.remote_self: dict[str, float] = defaultdict(float)
        self.remote_counts: dict[str, int] = defaultdict(int)
        self.remote_batch_s = 0.0

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def reset(self) -> None:
        """Forget everything recorded so far (start of the timed phase)."""
        with self._lock:
            for state in self._states:
                state.self_s.clear()
                state.counts.clear()
            self.spans.clear()
            self.remote_self.clear()
            self.remote_counts.clear()
            self.remote_batch_s = 0.0

    def local_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and counts summed over this process's threads."""
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            for state in self._states:
                for name, value in state.self_s.items():
                    self_s[name] += value
                for name, value in state.counts.items():
                    counts[name] += value
        return self_s, counts

    def add_remote(self, shipped: dict) -> None:
        """Fold totals and spans a worker process shipped back."""
        with self._lock:
            for name, value in shipped["self_s"].items():
                self.remote_self[name] += value
            for name, value in shipped["counts"].items():
                self.remote_counts[name] += value
            self.remote_batch_s += shipped["batch_s"]
            self.spans.extend(shipped["spans"])

    # ------------------------------------------------------------ wrappers

    def aggregate(self, fn, metric, metric_of=None, count=None):
        """Wrap a per-instruction boundary: count + self seconds only."""
        local = self._local
        new_state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            name = metric if metric_of is None else metric_of(args)
            stack = state.stack
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - child[0]
                state.self_s[name] += own
                state.counts[name] += 1
                span = state.span
                if span is not None:
                    agg = span.aggs.get(name)
                    if agg is None:
                        span.aggs[name] = [1, own]
                    else:
                        agg[0] += 1
                        agg[1] += own
            if count is not None:
                count(state.counts, args, result)
            return result

        return wrapper

    def span(self, fn, name, metric, trace_id_of=None, count=None):
        """Wrap a coarse boundary: one span per call, plus self seconds."""
        local = self._local
        new_state = self.state
        ids = self._ids
        spans = self.spans
        pid = os.getpid

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            parent = state.span
            record = _Span()
            record.pid = process = pid()
            record.span_id = f"{process}.{next(ids)}"
            record.name = name
            record.metric = metric
            record.parent_id = parent.span_id if parent is not None else None
            if trace_id_of is not None:
                record.trace_id = trace_id_of(args)
            else:
                record.trace_id = parent.trace_id if parent is not None else None
            record.tid = threading.get_ident()
            record.aggs = {}
            state.span = record
            stack = state.stack
            child = [0.0]
            stack.append(child)
            record.start = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = end = perf_counter()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                state.self_s[metric] += elapsed - child[0]
                state.counts[metric] += 1
                state.span = parent
                spans.append(record)
            if count is not None:
                count(state.counts, args, result)
            return result

        return wrapper


# ------------------------------------------------------------ counters


def _count_instructions(counts, args, result) -> None:
    counts["x86.instructions"] += len(result)


def _count_frames(counts, args, result) -> None:
    if result is not None:
        counts["replay.frames_built"] += 1


def _count_store_get(counts, args, result) -> None:
    counts["store.hits" if result is not None else "store.misses"] += 1


def _count_store_put(counts, args, result) -> None:
    counts["store.writes"] += 1


def _cell_id(args) -> str:
    task = args[0]
    return f"cell:{task.workload}/{task.config.name}/seed{task.seed}"


def _program_id(args) -> str:
    return f"program:{args[0].seed}"


def _program_seed_id(args) -> str:
    """``generate_program(seed)``: the id its ``run_differential`` gets."""
    return f"program:{args[0]}"


def _job_id(args) -> str:
    return f"job:{args[1].job_id}"


def _pass_metric(args) -> str:
    return PASS_METRICS.get(args[0].name, f"optimizer.pass.{args[0].name}_s")


# ------------------------------------------------------------- install

#: Span boundaries: (module, attribute path, span name, metric, trace-id
#: function, counter).  Module-level functions are patched where they are
#: *called* (the name the caller looks up at run time), methods on their
#: class.
_SPANS = [
    ("repro.artifacts.runner", "compute_cell", "cell", "runner.cell_self_s",
     _cell_id, None),
    ("repro.artifacts.runner", "build_workload", "build_workload",
     "workloads.build_self_s", None, None),
    ("repro.x86.emulator", "Emulator.run", "emulate", "x86.emulate_s",
     None, _count_instructions),
    ("repro.trace.injector", "MicroOpInjector.inject_trace", "inject",
     "trace.inject_s", None, None),
    ("repro.timing.pipeline", "PipelineModel.simulate", "simulate",
     "timing.simulate_self_s", None, None),
    ("repro.artifacts.store", "ArtifactStore.get_trace", "store.get_trace",
     "artifacts.get_s", None, _count_store_get),
    ("repro.artifacts.store", "ArtifactStore.get_result", "store.get_result",
     "artifacts.get_s", None, _count_store_get),
    ("repro.artifacts.store", "ArtifactStore.put_trace", "store.put_trace",
     "artifacts.put_s", None, _count_store_put),
    ("repro.artifacts.store", "ArtifactStore.put_result", "store.put_result",
     "artifacts.put_s", None, _count_store_put),
    ("repro.fuzz.campaign", "generate_program", "generate", "fuzz.generate_s",
     _program_seed_id, None),
    ("repro.fuzz.campaign", "run_differential", "program",
     "fuzz.oracle_self_s", _program_id, None),
]

#: Aggregated boundaries: (module, attribute path, metric, per-call metric
#: function, counter).
_AGGREGATES = [
    ("repro.replay.sequencer", "ICacheSequencer.next_block",
     "replay.icache_next_block_s", None, None),
    ("repro.replay.sequencer", "RePLaySequencer.next_block",
     "replay.frontend_self_s", None, None),
    ("repro.tracecache.sequencer", "TraceCacheSequencer.next_block",
     "tracecache.next_block_s", None, None),
    ("repro.replay.constructor", "FrameConstructor.retire",
     "replay.construct_s", None, _count_frames),
    ("repro.optimizer.pipeline", "FrameOptimizer.optimize",
     "optimizer.optimize_s", None, None),
    ("repro.optimizer.passes.base", "Pass.__call__", None, _pass_metric, None),
    ("repro.verify.verifier", "StateVerifier.verify_frame_instance",
     "verify.verify_s", None, None),
    ("repro.verify.verifier", "execute_frame", "verify.frame_exec_s",
     None, None),
    ("repro.fuzz.oracle", "execute_frame", "verify.frame_exec_s", None, None),
]


def _patch(module_name: str, path: str, make) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    setattr(owner, attr, make(vars(owner)[attr]))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary in this process (call before any work)."""
    for module, path, name, metric, trace_id_of, count in _SPANS:
        make = functools.partial(
            tracer.span, name=name, metric=metric, trace_id_of=trace_id_of,
            count=count,
        )
        _patch(module, path, make)
    for module, path, metric, metric_of, count in _AGGREGATES:
        make = functools.partial(
            tracer.aggregate, metric=metric, metric_of=metric_of, count=count
        )
        _patch(module, path, make)


def install_service_hooks(tracer: Tracer) -> None:
    """Ship worker-side totals and spans back through the service.

    The service's pool pickles ``repro.service.pool.run_batch`` by
    reference and its workers are forked after :func:`install`, so the
    replacement below runs inside the worker with every wrapper in
    place.  It attaches the batch's totals to the batch's last output;
    the patched ``Scheduler._deliver`` in the node strips them off
    before the output is delivered, so served entries are untouched.
    ``Scheduler._serve_cached`` becomes a per-job span.
    """
    pool = importlib.import_module("repro.service.pool")
    scheduler = importlib.import_module("repro.service.scheduler")
    run_batch = pool.run_batch

    @functools.wraps(run_batch)
    def traced_run_batch(payload):
        state = tracer.state()
        self_before = dict(state.self_s)
        counts_before = dict(state.counts)
        first_span = len(tracer.spans)
        start = perf_counter()
        outputs = run_batch(payload)
        batch_s = perf_counter() - start
        shipped = {
            "self_s": {
                k: v - self_before.get(k, 0.0)
                for k, v in state.self_s.items()
                if v != self_before.get(k, 0.0)
            },
            "counts": {
                k: v - counts_before.get(k, 0)
                for k, v in state.counts.items()
                if v != counts_before.get(k, 0)
            },
            "batch_s": batch_s,
            "spans": [s.to_json() for s in tracer.spans[first_span:]],
        }
        del tracer.spans[first_span:]
        if outputs:
            outputs[-1]["perfbench"] = shipped
        return outputs

    pool.run_batch = traced_run_batch
    # The node's store reads for one job run inside _serve_cached; as a
    # span it gives them the job's trace id.
    _patch("repro.service.scheduler", "Scheduler._serve_cached", functools.partial(
        tracer.span, name="serve_cached", metric="service.serve_cached_self_s",
        trace_id_of=_job_id,
    ))
    deliver = scheduler.Scheduler._deliver

    @functools.wraps(deliver)
    def traced_deliver(self, job, output):
        shipped = output.pop("perfbench", None)
        if shipped is not None:
            tracer.add_remote(shipped)
        return deliver(self, job, output)

    scheduler.Scheduler._deliver = traced_deliver


# --------------------------------------------------------------- export


def span_dicts(tracer: Tracer) -> list[dict]:
    return [s if isinstance(s, dict) else s.to_json() for s in tracer.spans]


def chrome_trace(spans: list[dict], metadata: dict) -> dict:
    """Chrome trace-event JSON: one complete ("X") event per span.

    Aggregated per-instruction boundaries ride along in each span's
    ``args`` as ``{metric: [calls, self_seconds]}``.
    """
    if spans:
        origin = min(s["start"] for s in spans)
    else:
        origin = 0.0
    events = []
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": s["metric"],
                "ph": "X",
                "ts": round((s["start"] - origin) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {
                    "id": s["id"],
                    "parent": s["parent"],
                    "trace_id": s["trace_id"],
                    "aggregates": s["aggs"],
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": metadata,
    }


def layer_table(rows: dict[str, float], wall_s: float) -> dict:
    """Rows plus ``unattributed_s`` summing to ``wall_s`` exactly."""
    named = {name: value for name, value in sorted(rows.items()) if value}
    unattributed = wall_s - sum(named.values())
    return {
        "wall_s": wall_s,
        "rows": named,
        "unattributed_s": unattributed,
        "sum_s": sum(named.values()) + unattributed,
    }
