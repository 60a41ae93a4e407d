"""The one-slot injected-stream memo (``repro.trace.injector.inject_once``).

Every configuration of a trace shares one injected stream, so two things
must hold: nothing that consumes the stream changes it, and the memo
injects once per trace while keeping at most one stream alive.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.artifacts import runner
from repro.artifacts.runner import MatrixTask, run_matrix
from repro.harness import CONFIGS, run_experiment
from repro.scenarios.characterize import characterize
from repro.trace import DynamicTrace, MicroOpInjector, injector
from repro.trace.injector import inject_once
from repro.workloads import build_workload


@pytest.fixture
def count_injections(monkeypatch):
    """Empty the memo slot and count ``MicroOpInjector.inject_trace`` calls."""
    monkeypatch.setattr(injector, "_LAST_INJECTED", None)
    calls = []
    original = MicroOpInjector.inject_trace

    def counting(self, trace):
        calls.append(trace)
        return original(self, trace)

    monkeypatch.setattr(MicroOpInjector, "inject_trace", counting)
    return calls


def _snapshot(trace, stream):
    return [
        (
            instr.record is trace.records[index],
            tuple(id(uop) for uop in instr.uops),
            [dict(vars(uop)) for uop in instr.uops],
        )
        for index, instr in enumerate(stream)
    ]


def test_shared_stream_is_never_mutated(count_injections):
    trace = build_workload("vortex", seed=1)
    stream, _ = inject_once(trace)
    before = _snapshot(trace, stream)
    assert all(same_record for same_record, _, _ in before)

    cells = [
        (CONFIGS[name], scheduling)
        for name in ("IC", "TC", "RP", "RPO")
        for scheduling in ("reference", "template")
    ]
    cells.append((replace(CONFIGS["RPO"], verify=True), "template"))
    shared = [
        run_experiment(trace, config, scheduling=scheduling)
        for config, scheduling in cells
    ]
    assert count_injections == [trace]
    assert inject_once(trace)[0] is stream
    assert _snapshot(trace, stream) == before
    assert shared[-1].frames_verified > 0

    for (config, scheduling), result in zip(cells, shared):
        fresh = run_experiment(
            DynamicTrace(trace.records), config, scheduling=scheduling
        )
        assert result.sim == fresh.sim, (config.name, scheduling)
        assert result.uops_per_x86 == fresh.uops_per_x86
    assert len(count_injections) == 1 + len(cells)


def test_matrix_injects_each_trace_once(count_injections, monkeypatch):
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    workloads = ("eon", "vortex")
    tasks = [
        MatrixTask(workload, CONFIGS[name], seed=5)
        for workload in workloads
        for name in ("IC", "TC", "RP", "RPO")
    ]
    run = run_matrix(tasks, jobs=1)
    assert len(count_injections) == 2

    traces = [
        runner._TRACE_MEMO[runner.trace_key(workload, None, 5)]
        for workload in workloads
    ]
    assert count_injections == traces
    for task, result in zip(run.tasks, run.results):
        fresh = MicroOpInjector()
        fresh.inject_trace(traces[workloads.index(task.workload)])
        assert result.uops_per_x86 == fresh.uops_per_x86

    # The memo holds only the last trace's stream: once the runner's
    # trace memo lets go, the first trace is unreachable.
    first, last = (weakref.ref(trace) for trace in traces)
    del traces
    count_injections.clear()
    runner._TRACE_MEMO.clear()
    gc.collect()
    assert first() is None
    assert injector._LAST_INJECTED[0] is last()


def test_building_a_new_trace_empties_the_slot(count_injections, monkeypatch):
    monkeypatch.setattr(runner, "_TRACE_MEMO", {})
    inject_once(build_workload("vortex", seed=1))
    runner.compute_trace("vortex", seed=6)
    assert injector._LAST_INJECTED is None


def test_characterize_shares_the_memo(count_injections):
    trace = build_workload("vortex", seed=1)
    rp = characterize(trace, CONFIGS["RP"])
    rpo = characterize(trace, CONFIGS["RPO"])
    run_experiment(trace, CONFIGS["RPO"])
    assert count_injections == [trace]
    assert rpo.dynamic_uop_reduction > rp.dynamic_uop_reduction == 0.0


def test_empty_trace_has_no_expansion(count_injections):
    stream, ratio = inject_once(DynamicTrace([]))
    assert stream == [] and ratio == 0.0
