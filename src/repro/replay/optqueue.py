"""Optimization-engine latency and occupancy model (paper §5.1.4).

The paper models the optimizer abstractly: a pipelined engine with a
variable latency of 10 cycles per instruction and a pipeline depth of 3.
Frames arriving while all stages are busy are dropped (the constructor
will rebuild them if the region stays hot).  Optimization itself runs
eagerly in this model; the *result* only becomes visible in the frame
cache once the modeled latency has elapsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.optimizer.pipeline import FrameOptimizer
from repro.replay.frame import Frame
from repro.replay.frame_cache import FrameCache


@dataclass
class OptimizerTotals:
    """Aggregate optimization statistics across all frames of a run."""

    frames_optimized: int = 0
    frames_dropped: int = 0
    uops_before: int = 0
    uops_after: int = 0
    loads_before: int = 0
    loads_after: int = 0
    loads_removed_speculatively: int = 0
    stores_marked_unsafe: int = 0
    #: per-pass change counts summed over every optimized frame — the
    #: run ledger's ``passes`` section (Table 3's per-pass view).
    changes_by_pass: dict[str, int] = field(default_factory=dict)

    @property
    def uops_removed(self) -> int:
        return self.uops_before - self.uops_after

    @property
    def loads_removed(self) -> int:
        return self.loads_before - self.loads_after

    @property
    def uop_reduction(self) -> float:
        if not self.uops_before:
            return 0.0
        return 1.0 - self.uops_after / self.uops_before

    @property
    def load_reduction(self) -> float:
        if not self.loads_before:
            return 0.0
        return 1.0 - self.loads_after / self.loads_before


class OptimizationQueue:
    """Pipelined optimizer front-ending the frame cache."""

    def __init__(
        self,
        frame_cache: FrameCache,
        optimizer: FrameOptimizer | None,
        cycles_per_uop: int = 10,
        depth: int = 3,
    ) -> None:
        self.frame_cache = frame_cache
        self.optimizer = optimizer
        self.cycles_per_uop = cycles_per_uop
        self.depth = depth
        self._in_flight: list[tuple[int, Frame]] = []  # (ready_cycle, frame)
        self.totals = OptimizerTotals()

    def submit(self, frame: Frame, now: int) -> bool:
        """Offer a freshly constructed frame; False if dropped/duplicate.

        Duplicate detection is against the cache and the in-flight stages,
        so an evicted path is naturally rebuilt when its region re-heats.
        """
        if not self.wants(frame.path_key, now):
            return False
        if self.optimizer is None:
            # Basic rePLay: frames are deposited immediately (paper §6.3).
            frame.build_buffer()
            self._account(frame)
            self.frame_cache.insert(frame)
            return True
        if len(self._in_flight) >= self.depth:
            self.totals.frames_dropped += 1
            return False
        buffer = frame.build_buffer()
        frame.opt_result = self.optimizer.optimize(buffer)
        ready = now + self.cycles_per_uop * frame.raw_uop_count
        self._in_flight.append((ready, frame))
        self._account(frame)
        return True

    def wants(self, path_key: tuple, now: int) -> bool:
        """Would :meth:`submit` take a frame with this path at ``now``?

        Runs submit's duplicate checks, in submit's order, on the path
        alone, so the constructor can skip building a frame that would
        be discarded (DESIGN.md §5).  The depth check is not among them:
        a frame dropped for depth is still built and counted.
        """
        self.drain(now)
        if self.frame_cache.contains_path(path_key):
            return False
        return all(f.path_key != path_key for _, f in self._in_flight)

    def _account(self, frame: Frame) -> None:
        totals = self.totals
        totals.frames_optimized += 1
        totals.uops_before += frame.raw_uop_count
        totals.uops_after += frame.uop_count
        raw_loads = sum(1 for u in frame.dyn_uops if u.is_load)
        totals.loads_before += raw_loads
        totals.loads_after += frame.load_count
        if frame.opt_result is not None:
            stats = frame.opt_result.stats
            totals.loads_removed_speculatively += stats.loads_removed_speculatively
            totals.stores_marked_unsafe += stats.stores_marked_unsafe
            by_pass = totals.changes_by_pass
            for pass_name, changes in stats.changes_by_pass.items():
                by_pass[pass_name] = by_pass.get(pass_name, 0) + changes

    def drain(self, now: int) -> None:
        """Deposit frames whose modeled optimization latency has elapsed."""
        if not self._in_flight:
            return
        still_busy = []
        for ready, frame in self._in_flight:
            if ready <= now:
                self.frame_cache.insert(frame)
            else:
                still_busy.append((ready, frame))
        self._in_flight = still_busy
