"""Frames are built only for regions the optimization queue will take.

``RePLaySequencer`` hands the constructor ``OptimizationQueue.wants`` so
a region whose path is resident or in flight is dropped before it is
frame-ified.  The reference is the same sequencer with no admission
test: every region is frame-ified and ``submit`` drops the repeats.
Both must feed the queue the same frames at the same cycles.
"""

import pytest

from helpers import inject, run_program
from repro.harness import CONFIGS
from repro.optimizer import FrameOptimizer
from repro.replay import ConstructorConfig, FrameConstructor, RePLaySequencer
from repro.replay.optqueue import OptimizationQueue
from repro.timing.pipeline import PipelineModel
from repro.trace.injector import inject_once
from repro.workloads import build_workload
from repro.x86 import Assembler, Cond, Imm, Reg

_retire = FrameConstructor.retire
_frameify = FrameConstructor._frameify
_submit = OptimizationQueue.submit


def run_replay(monkeypatch, workload, config_name, eager):
    """One replay cell; returns (sequencer, sim, taken submits, frameify calls).

    ``taken`` lists ``(path_key, cycle)`` for every submit that passed the
    duplicate checks, i.e. was optimized/deposited or dropped for depth.
    """
    taken = []
    built = [0]

    def submit(queue, frame, now):
        if queue.wants(frame.path_key, now):
            taken.append((frame.path_key, now))
        return _submit(queue, frame, now)

    def frameify(constructor, pending, end_next_pc):
        built[0] += 1
        return _frameify(constructor, pending, end_next_pc)

    monkeypatch.setattr(OptimizationQueue, "submit", submit)
    monkeypatch.setattr(FrameConstructor, "_frameify", frameify)
    if eager:
        monkeypatch.setattr(
            FrameConstructor,
            "retire",
            lambda constructor, instr, wants=None: _retire(constructor, instr),
        )
    config = CONFIGS[config_name]
    injected, _ = inject_once(build_workload(workload, seed=1))
    optimizer = FrameOptimizer(config.optimizer) if config.optimize else None
    sequencer = RePLaySequencer(
        injected, config.processor, optimizer, constructor_config=config.constructor
    )
    sim = PipelineModel(config.processor).simulate(sequencer)
    monkeypatch.undo()
    return sequencer, sim, taken, built[0]


def cache_paths(sequencer):
    return [frame.path_key for frame in sequencer.frame_cache.frames()]


@pytest.mark.parametrize("config_name", ["RP", "RPO"])
@pytest.mark.parametrize("workload", ["eon", "vortex"])
def test_lazy_construction_matches_eager(monkeypatch, workload, config_name):
    lazy, lazy_sim, lazy_taken, lazy_built = run_replay(
        monkeypatch, workload, config_name, eager=False
    )
    eager, eager_sim, eager_taken, eager_built = run_replay(
        monkeypatch, workload, config_name, eager=True
    )
    assert lazy_taken == eager_taken
    assert cache_paths(lazy) == cache_paths(eager)
    assert lazy_sim == eager_sim
    assert lazy.queue.totals == eager.queue.totals
    totals = lazy.queue.totals
    # Every built frame reached the optimizer or was dropped for depth.
    assert lazy_built == totals.frames_optimized + totals.frames_dropped
    assert lazy_built == len(lazy_taken)
    assert eager_built > lazy_built  # repeats were being frame-ified


def straight_line_then_branch():
    """Three single-uop adds, then a first-seen (unbiased) branch."""
    asm = Assembler()
    asm.xor(Reg.EAX, Reg.EAX)
    for _ in range(3):
        asm.add(Reg.EAX, Imm(1))
    asm.jcc(Cond.Z, "done")
    asm.add(Reg.EAX, Imm(2))
    asm.label("done")
    asm.ret()
    _, _, trace = run_program(asm)
    injected = inject(trace)
    branch = next(
        i for i, instr in enumerate(injected)
        if instr.record.instruction.is_conditional
    )
    return injected[:branch], injected[branch]


def overflow_constructor(prefix, branch):
    """A constructor whose next retire of ``branch`` overflows a frame and
    also ends a one-instruction leftover region big enough to keep."""
    prefix_uops = sum(len(instr.uops) for instr in prefix)
    constructor = FrameConstructor(
        ConstructorConfig(min_uops=1, max_uops=prefix_uops)
    )
    for instr in prefix:
        assert constructor.retire(instr) is None
    assert len(branch.uops) >= 1
    return constructor


def path_of(instrs):
    return (instrs[0].record.pc, tuple(i.record.pc for i in instrs))


def test_overflow_returns_the_overflowed_region_not_the_leftover():
    prefix, branch = straight_line_then_branch()
    frame = overflow_constructor(prefix, branch).retire(branch)
    assert frame is not None and frame.path_key == path_of(prefix)
    asked = []
    frame = overflow_constructor(prefix, branch).retire(
        branch, lambda key: asked.append(key) or True
    )
    assert frame is not None and frame.path_key == path_of(prefix)
    assert asked == [path_of(prefix)]


def test_rejected_overflow_region_does_not_let_the_leftover_through():
    prefix, branch = straight_line_then_branch()
    constructor = overflow_constructor(prefix, branch)
    asked = []
    built = []
    constructor._frameify = lambda *args: built.append(args)
    assert constructor.retire(branch, lambda key: asked.append(key) or False) is None
    assert asked == [path_of(prefix)]  # the leftover was never offered
    assert built == []
    assert constructor.frames_emitted == 0
    # Both regions were closed: the next region starts afresh.
    assert constructor._pending == [] and constructor._pending_uops == 0
