"""The frame constructor (paper §2, §5.1.4; mechanism from Patel et al. [13]).

Watches the retired instruction stream, converts *dynamically biased*
branches into assertions, and merges the resulting basic blocks into
atomic frames of 8-256 micro-operations.  A conditional branch is
promoted once it has gone the same direction for ``promotion_threshold``
consecutive executions; indirect jumps are promoted on a stable target.
An unbiased control transfer terminates the frame and remains its exit
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.trace.injector import InjectedInstruction
from repro.uops.uop import Uop, UopOp
from repro.x86.instructions import Cond, Mnemonic
from repro.replay.frame import Frame


@dataclass
class _BiasEntry:
    """Consecutive-outcome tracker for one branch site."""

    last_outcome: object = None
    run_length: int = 0

    def observe(self, outcome) -> int:
        """Record an outcome; returns the run length *before* this event."""
        previous_run = self.run_length if outcome == self.last_outcome else 0
        if outcome == self.last_outcome:
            self.run_length += 1
        else:
            self.last_outcome = outcome
            self.run_length = 1
        return previous_run


class BranchBiasTable:
    """Per-site bias trackers for conditional branches and indirect jumps."""

    def __init__(self, promotion_threshold: int = 16) -> None:
        self.promotion_threshold = promotion_threshold
        self._entries: dict[int, _BiasEntry] = {}

    def observe(self, pc: int, outcome) -> bool:
        """Record an outcome; True if the site was already promoted with
        this same outcome (i.e. the event matched the established bias)."""
        entry = self._entries.get(pc)
        if entry is None:
            entry = _BiasEntry()
            self._entries[pc] = entry
        previous_run = entry.observe(outcome)
        return previous_run >= self.promotion_threshold

    def is_promoted(self, pc: int, outcome) -> bool:
        entry = self._entries.get(pc)
        return (
            entry is not None
            and entry.last_outcome == outcome
            and entry.run_length >= self.promotion_threshold
        )


@dataclass
class ConstructorConfig:
    min_uops: int = 8
    max_uops: int = 256
    promotion_threshold: int = 16
    #: Close a frame at a backward taken branch once it holds at least
    #: this many uops: frames then end at loop heads and tile loops
    #: stably (the next frame starts exactly where this one ended)
    #: instead of drifting through iterations at the max-size limit.
    backedge_close_uops: int = 128


class FrameConstructor:
    """Synthesizes atomic frames from the retired instruction stream."""

    def __init__(self, config: ConstructorConfig | None = None) -> None:
        self.config = config or ConstructorConfig()
        self.bias = BranchBiasTable(self.config.promotion_threshold)
        self._pending: list[InjectedInstruction] = []
        self._pending_uops = 0
        self.frames_emitted = 0
        self.frames_discarded = 0

    def retire(
        self,
        instr: InjectedInstruction,
        wants: Callable[[tuple], bool] | None = None,
    ) -> Frame | None:
        """Feed one retired instruction; returns a frame when one completes.

        ``wants``, when given, is asked with a completed region's path key
        (:attr:`Frame.path_key`) before the region is frame-ified; a
        region it declines is dropped unbuilt and ``None`` is returned.
        """
        record = instr.record
        region = None
        # Would this instruction overflow the frame?  Close the current
        # region first (fall-through exit) and start fresh with it.
        if self._pending_uops + len(instr.uops) > self.config.max_uops:
            region = self._close(end_next_pc=record.pc)
        self._append(instr)
        if self._ends_region(instr):
            closed = self._close(end_next_pc=record.next_pc)
            # An overflow region already closed takes precedence; the
            # one-instruction leftover is discarded either way.
            region = region or closed
        if region is None:
            return None
        pending, end_next_pc = region
        if wants is not None and not wants(
            (pending[0].record.pc, tuple(i.record.pc for i in pending))
        ):
            return None
        self.frames_emitted += 1
        return self._frameify(pending, end_next_pc)

    # ------------------------------------------------------------ helpers

    def _append(self, instr: InjectedInstruction) -> None:
        self._pending.append(instr)
        self._pending_uops += len(instr.uops)

    def _ends_region(self, instr: InjectedInstruction) -> bool:
        """Does this instruction terminate the frame (unbiased control)?"""
        record = instr.record
        instruction = record.instruction
        if not instruction.is_branch:
            return False
        if instruction.is_conditional:
            matched = self.bias.observe(record.pc, record.branch_taken)
            if not matched:
                return True
        elif instruction.is_indirect:
            matched = self.bias.observe(record.pc, record.next_pc)
            if not matched:
                return True
        # Biased (or direct) transfer: normally continue through, but a
        # full-enough frame closes at a backward target so frames align
        # to loop iterations.
        return (
            self._pending_uops >= self.config.backedge_close_uops
            and record.next_pc <= self._pending[0].record.pc
        )

    def _close(
        self, end_next_pc: int
    ) -> tuple[list[InjectedInstruction], int] | None:
        """Close the pending region (None if too small to be a frame)."""
        pending = self._pending
        self._pending = []
        pending_uops = self._pending_uops
        self._pending_uops = 0
        if not pending or pending_uops < self.config.min_uops:
            self.frames_discarded += bool(pending)
            return None
        return pending, end_next_pc

    def _frameify(
        self, pending: list[InjectedInstruction], end_next_pc: int
    ) -> Frame:
        """Convert a region into frame form: mid-frame control becomes
        assertions (paper §2); the final control transfer stays the exit."""
        dyn_uops: list[Uop] = []
        x86_indices: list[int] = []
        mem_keys: list[tuple[int, int] | None] = []
        block_starts: list[int] = [0]
        x86_pcs: list[int] = []
        last_index = len(pending) - 1

        for x86_index, instr in enumerate(pending):
            record = instr.record
            x86_pcs.append(record.pc)
            if x86_index and pending[x86_index - 1].record.instruction.is_branch:
                block_starts.append(x86_index)
            is_exit_instr = x86_index == last_index
            mem_index = 0
            for uop in instr.uops:
                converted = uop.copy()
                key: tuple[int, int] | None = None
                if converted.is_mem:
                    key = (x86_index, mem_index)
                    mem_index += 1
                if converted.is_control and not is_exit_instr:
                    if self._degenerate_branch(converted, record):
                        # Taken target == fall-through: the direction
                        # cannot change the frame's path, so an assertion
                        # here could only fire spuriously (a rollback
                        # with no architectural cause).  Drop the uop.
                        continue
                    converted = self._convert_control(converted)
                dyn_uops.append(converted)
                x86_indices.append(x86_index)
                mem_keys.append(key)

        return Frame(
            start_pc=pending[0].record.pc,
            x86_pcs=x86_pcs,
            end_next_pc=end_next_pc,
            dyn_uops=dyn_uops,
            x86_indices=x86_indices,
            mem_keys=mem_keys,
            block_starts=block_starts,
        )

    def abandon(self) -> None:
        """Discard the pending region (its continuation won't be retired
        contiguously, e.g. because a frame covered the next instructions)."""
        self._pending = []
        self._pending_uops = 0

    def build_frame(
        self, instructions: list[InjectedInstruction], end_next_pc: int
    ) -> Frame:
        """Directly frame-ify a region (bypasses bias promotion).

        Used by examples, the verifier's unit tests, and the paper's
        Figure 2 walkthrough, where the region is chosen by hand.
        """
        return self._frameify(instructions, end_next_pc)

    @staticmethod
    def _degenerate_branch(uop: Uop, record) -> bool:
        """A conditional branch to its own fall-through address.

        Both directions retire the same successor, so path matching can
        never observe the direction and no assertion is needed;
        converting one was found (by differential fuzzing) to fire on
        path-matching instances whenever the condition flips.
        """
        return (
            uop.op is UopOp.BR
            and uop.target is not None
            and uop.target == record.pc + record.instruction.length
        )

    def _convert_control(self, uop: Uop) -> Uop:
        """Mid-frame control conversion: BR -> ASSERT, JMPI -> value assert."""
        if uop.op is UopOp.BR:
            assert uop.cond is not None and uop.taken is not None
            cond = uop.cond if uop.taken else uop.cond.inverse()
            return uop.copy(op=UopOp.ASSERT, cond=cond, target=None)
        if uop.op is UopOp.JMPI:
            assert uop.dyn_target is not None
            return uop.copy(
                op=UopOp.ASSERT_CMP,
                cond=Cond.Z,
                cmp_kind=UopOp.SUB,
                imm=uop.dyn_target,
                writes_flags=False,
            )
        return uop  # direct JMP: left for the NOP-removal pass
