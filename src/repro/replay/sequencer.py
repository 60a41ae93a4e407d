"""Sequencers: the fetch-source decision logic (paper §2, Figure 5).

``ICacheSequencer`` models a conventional front end.  ``RePLaySequencer``
couples the frame constructor, optimization engine, frame cache, and the
recovery model: at each fetch point it probes the frame cache; a hit
dispatches the frame, and the dynamic instance either commits (its path
matches and no unsafe store aliases) or fires, rolling back and
re-executing the region from the ICache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.trace.injector import InjectedInstruction
from repro.replay.constructor import ConstructorConfig, FrameConstructor
from repro.replay.fetch_groups import build_icache_block, event_from_decode
from repro.replay.frame import Frame
from repro.replay.frame_cache import FrameCache
from repro.replay.optqueue import OptimizationQueue
from repro.optimizer.pipeline import FrameOptimizer
from repro.timing.config import ProcessorConfig
from repro.timing.pipeline import BranchEvent, FetchBlock
from repro.timing.schedule import FrameSchedule, ScheduleBuilder
from repro.verify.state import ArchTracker
from repro.verify.verifier import StateVerifier


@dataclass
class SequencerStats:
    """Dynamic-stream accounting used for Table 3."""

    raw_uops_total: int = 0  # uops the injector would supply for all x86
    raw_loads_total: int = 0
    frame_raw_uops: int = 0  # original uops of regions covered by frames
    frame_fetched_uops: int = 0  # uops actually fetched for those regions
    frame_raw_loads: int = 0
    frame_fetched_loads: int = 0
    frame_dispatches: int = 0
    frame_aborts: int = 0
    unsafe_aborts: int = 0
    cooldown_skips: int = 0  # dispatch opportunities skipped post-fire

    @property
    def dynamic_uop_reduction(self) -> float:
        """Fraction of all dynamic uops removed by optimization (Table 3)."""
        if not self.raw_uops_total:
            return 0.0
        return (self.frame_raw_uops - self.frame_fetched_uops) / self.raw_uops_total

    @property
    def dynamic_load_reduction(self) -> float:
        if not self.raw_loads_total:
            return 0.0
        return (
            self.frame_raw_loads - self.frame_fetched_loads
        ) / self.raw_loads_total


def dynamic_address(
    injected: list[InjectedInstruction], base_index: int, uop
) -> int | None:
    """Current-instance address of a frame memory uop (via its mem key).

    ``base_index`` is the injected-stream index where the frame instance
    starts.  Falls back to the construction-time observed address when
    the key cannot be resolved against this instance's records.
    """
    if uop.mem_key is None:
        return uop.observed_address
    x86_index, mem_index = uop.mem_key
    record = injected[base_index + x86_index].record
    if mem_index >= len(record.mem_ops):
        return uop.observed_address
    return record.mem_ops[mem_index].address


def unsafe_store_conflict(
    frame: Frame, injected: list[InjectedInstruction], base_index: int
) -> bool:
    """Unsafe-store alias check (paper §3.4).

    The paper describes comparing an unsafe store against *all* prior
    memory transactions; we check the speculation's actual premise — the
    unsafe store must not touch the bytes whose forwarded value it was
    speculated not to clobber (the covering load/store of each removed
    load).  The blanket rule aborts constantly on kernels that
    legitimately revisit a table inside one frame, which contradicts the
    paper's observation that speculatively removed loads "almost never
    cause frames to abort"; see DESIGN.md.

    Shared by :class:`RePLaySequencer` dispatch and the differential
    fuzz oracle (:mod:`repro.fuzz.oracle`), so both judge an instance's
    commit eligibility identically.
    """
    if frame.buffer is None:
        return False
    mem_uops = frame.kept_mem_uops()
    guarded = [u for u in mem_uops if u.is_store and u.unsafe]
    if not guarded:
        return False
    buffer = frame.buffer
    for store in guarded:
        address = dynamic_address(injected, base_index, store)
        if address is None:
            continue
        for guard_slot in store.unsafe_guards:
            guard = buffer.uops[guard_slot]
            guard_address = dynamic_address(injected, base_index, guard)
            if guard_address is None:
                continue
            if (
                address < guard_address + guard.size
                and guard_address < address + store.size
            ):
                return True
    return False


class ICacheSequencer:
    """Conventional fetch: everything comes from the instruction cache."""

    def __init__(
        self, injected: list[InjectedInstruction], config: ProcessorConfig
    ) -> None:
        self.injected = injected
        self.config = config
        self.index = 0
        self.stats = SequencerStats()
        #: per-run schedule/decode template cache, shared with the blocks
        #: this sequencer emits (and with frame dispatch in subclasses).
        self.sched_builder = ScheduleBuilder(config)
        for instr in injected:
            self.stats.raw_uops_total += len(instr.uops)
            self.stats.raw_loads_total += sum(1 for u in instr.uops if u.is_load)

    def next_block(self, cycle: int) -> FetchBlock | None:
        if self.index >= len(self.injected):
            return None
        block, count = build_icache_block(
            self.injected, self.index, self.config, builder=self.sched_builder
        )
        self.index += count
        return block


class RePLaySequencer(ICacheSequencer):
    """Frame-cache-enabled fetch with construction, optimization, recovery."""

    #: Evict a frame once its fires exceed its commits by this margin.
    FIRE_EVICTION_MARGIN = 4

    def __init__(
        self,
        injected: list[InjectedInstruction],
        config: ProcessorConfig,
        optimizer: FrameOptimizer | None,
        constructor_config: ConstructorConfig | None = None,
        verifier: StateVerifier | None = None,
    ) -> None:
        super().__init__(injected, config)
        self.constructor = FrameConstructor(constructor_config)
        self.frame_cache = FrameCache(config.frame_cache_uops)
        cycles_per_uop = 10
        depth = 3
        if optimizer is not None:
            cycles_per_uop = optimizer.config.cycles_per_uop
            depth = optimizer.config.pipeline_depth
        self.queue = OptimizationQueue(
            self.frame_cache, optimizer, cycles_per_uop=cycles_per_uop, depth=depth
        )
        self.verifier = verifier
        self.tracker = ArchTracker() if verifier is not None else None
        #: After a fire, the aborted frame's original instructions execute
        #: from the ICache (paper §3.4); no frame dispatch until this index.
        self._icache_until = 0
        self._verified_paths: set[tuple] = set()

    # ------------------------------------------------------------- fetch

    def next_block(self, cycle: int) -> FetchBlock | None:
        if self.index >= len(self.injected):
            return None
        self.queue.drain(cycle)
        pc = self.injected[self.index].record.pc
        frame = None
        if self.index >= self._icache_until:
            frame = self.frame_cache.lookup(pc)
        if frame is not None and frame.uop_count:
            if frame.cooldown > 0:
                frame.cooldown -= 1
                self.stats.cooldown_skips += 1
            elif self._instance_commits(frame):
                return self._dispatch_frame(frame, cycle)
            else:
                return self._dispatch_firing_frame(frame)
        probe = (
            self.frame_cache.contains if self.index >= self._icache_until else None
        )
        block, count = build_icache_block(
            self.injected,
            self.index,
            self.config,
            stop_probe=probe,
            builder=self.sched_builder,
        )
        self._retire_region(count, cycle)
        return block

    # ------------------------------------------------------- frame checks

    def _instance_commits(self, frame: Frame) -> bool:
        """Path match plus unsafe-store alias check for this instance."""
        injected = self.injected
        base = self.index
        if base + frame.x86_count > len(injected):
            return False
        for offset, pc in enumerate(frame.x86_pcs):
            if injected[base + offset].record.pc != pc:
                return False
        if frame.always_fires:
            return False
        return not self._unsafe_store_conflict(frame)

    def _unsafe_store_conflict(self, frame: Frame) -> bool:
        """Delegates to the shared module-level check, keeping stats."""
        conflict = unsafe_store_conflict(frame, self.injected, self.index)
        if conflict:
            self.stats.unsafe_aborts += 1
        return conflict

    def _dynamic_address(self, frame: Frame, uop) -> int | None:
        """Current-instance address via the shared module-level helper."""
        return dynamic_address(self.injected, self.index, uop)

    # --------------------------------------------------------- dispatch

    def _frame_addresses(
        self, template: FrameSchedule
    ) -> list[int | None]:
        """Current-instance addresses, resolved only at the memory slots."""
        addresses: list[int | None] = [None] * len(template.kept)
        injected = self.injected
        base = self.index
        for position, uop in template.mem_positions:
            addresses[position] = dynamic_address(injected, base, uop)
        return addresses

    def _exit_event(
        self, frame: Frame, template: FrameSchedule
    ) -> list[BranchEvent]:
        """Prediction event for the frame's exit branch, if it kept one."""
        position = template.exit_control_pos
        if position is None:
            return []
        last_instr = self.injected[self.index + frame.x86_count - 1]
        decode = self.sched_builder.instr_decode(last_instr)
        event = event_from_decode(decode, last_instr.record, 0)
        if event is None:
            return []
        event.uop_index = position
        return [event]

    def _train_events(self, frame: Frame) -> list[BranchEvent]:
        """Predictor-training events for the frame's internal transfers."""
        events: list[BranchEvent] = []
        builder = self.sched_builder
        for offset in range(frame.x86_count - 1):
            instr = self.injected[self.index + offset]
            if instr.record.instruction.is_branch:
                event = event_from_decode(
                    builder.instr_decode(instr), instr.record, 0
                )
                if event is not None:
                    events.append(event)
        return events

    def _dispatch_frame(self, frame: Frame, cycle: int) -> FetchBlock:
        template = self.sched_builder.frame_schedule(frame)
        uops = template.kept
        addresses = self._frame_addresses(template)
        events = self._exit_event(frame, template)
        train_events = self._train_events(frame)
        if (
            self.verifier is not None
            and frame.opt_result is not None
            and frame.path_key not in self._verified_paths
        ):
            base = self.index
            records = [
                self.injected[base + k].record for k in range(frame.x86_count)
            ]
            self.verifier.verify_frame_instance(frame, records, self.tracker)
            self._verified_paths.add(frame.path_key)
        stats = self.stats
        stats.frame_dispatches += 1
        stats.frame_raw_uops += frame.raw_uop_count
        stats.frame_fetched_uops += len(uops)
        stats.frame_raw_loads += template.raw_loads
        stats.frame_fetched_loads += template.fetched_loads
        frame.commits += 1
        self._retire_region(frame.x86_count, cycle)
        return FetchBlock(
            source="frame",
            uops=uops,
            addresses=addresses,
            x86_count=frame.x86_count,
            pc=frame.start_pc,
            branch_events=events,
            train_events=train_events,
            frame=frame,
            sched=template,
        )

    def _dispatch_firing_frame(self, frame: Frame) -> FetchBlock:
        """This instance deviates from the frame's path: it fires."""
        self.stats.frame_aborts += 1
        frame.fires += 1
        frame.cooldown = 4  # skip the next few dispatch opportunities
        if frame.fires > frame.commits + self.FIRE_EVICTION_MARGIN:
            self.frame_cache.evict(frame.start_pc)
        # The aborted region re-executes from the ICache (paper §3.4).
        self._icache_until = self.index + frame.x86_count
        template = self.sched_builder.frame_schedule(frame)
        return FetchBlock(
            source="frame",
            uops=template.kept,
            addresses=template.fire_addresses,
            x86_count=0,  # nothing retires; the region re-executes next
            pc=frame.start_pc,
            fires=True,
            frame=frame,
            sched=template,
        )

    # --------------------------------------------------------- retirement

    def _retire_region(self, count: int, cycle: int) -> None:
        """Feed retired instructions to the tracker and frame constructor.

        The constructor builds a frame only for a region the queue would
        take now (DESIGN.md §5); most regions repeat a resident path.
        """
        wants = functools.partial(self.queue.wants, now=cycle)
        for _ in range(count):
            instr = self.injected[self.index]
            new_frame = self.constructor.retire(instr, wants)
            if new_frame is not None:
                self.queue.submit(new_frame, cycle)
            if self.tracker is not None:
                self.tracker.apply(instr.record)
            self.index += 1
