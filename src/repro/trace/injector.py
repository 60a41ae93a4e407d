"""The Micro-Op Injector (paper §5.1.1).

Combines the trace reader and the x86-to-rePLay translator: each trace
record is decoded into uops, and the record's dynamic information (memory
addresses, branch direction, indirect targets) is attached to the
corresponding uops.  The result is the continuous micro-operation stream
the Timing Model and rePLay Engine consume.

The stream depends only on the trace, never on the configuration that
consumes it, so :func:`inject_once` keeps the last trace's stream and
hands it to every configuration of that trace (DESIGN.md §8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.record import TraceRecord
from repro.trace.stream import DynamicTrace
from repro.uops.translate import Translator
from repro.uops.uop import Uop, UopOp


class InjectionError(Exception):
    """Raised when a record's memory transactions don't match its decode flow."""


@dataclass
class InjectedInstruction:
    """One x86 instruction's worth of dynamically annotated uops."""

    record: TraceRecord
    uops: tuple[Uop, ...]

    @property
    def pc(self) -> int:
        return self.record.pc

    @property
    def uop_count(self) -> int:
        return len(self.uops)


class MicroOpInjector:
    """Translates trace records into dynamically annotated uop sequences."""

    def __init__(self) -> None:
        self.translator = Translator()
        self.x86_count = 0
        self.uop_count = 0

    def inject(self, record: TraceRecord) -> InjectedInstruction:
        """Decode one record; attaches mem addresses and branch outcomes."""
        static_uops = self.translator.translate(record.instruction)
        uops: list[Uop] = []
        mem_ops = list(record.mem_ops)
        mem_index = 0
        for static in static_uops:
            uop = static.copy()
            if uop.is_mem:
                if mem_index >= len(mem_ops):
                    raise InjectionError(
                        f"decode flow of {record.instruction} expects more "
                        f"memory transactions than the trace recorded"
                    )
                mem_op = mem_ops[mem_index]
                mem_index += 1
                if mem_op.is_store != uop.is_store:
                    raise InjectionError(
                        f"memory transaction kind mismatch in {record.instruction}"
                    )
                uop.mem_address = mem_op.address
            if uop.op is UopOp.BR:
                uop.taken = record.branch_taken
                uop.dyn_target = record.next_pc
            elif uop.op in (UopOp.JMP, UopOp.JMPI):
                uop.dyn_target = record.next_pc
            uops.append(uop)
        if mem_index != len(mem_ops):
            raise InjectionError(
                f"decode flow of {record.instruction} used {mem_index} memory "
                f"transactions but the trace recorded {len(mem_ops)}"
            )
        self.x86_count += 1
        self.uop_count += len(uops)
        return InjectedInstruction(record=record, uops=tuple(uops))

    def inject_trace(self, trace: DynamicTrace) -> list[InjectedInstruction]:
        """Inject a whole trace (convenience for tests and the harness)."""
        return [self.inject(record) for record in trace]

    @property
    def uops_per_x86(self) -> float:
        """Observed expansion ratio (paper reports 1.4)."""
        if not self.x86_count:
            return 0.0
        return self.uop_count / self.x86_count


#: The injected-stream memo: exactly one slot, ``(trace, stream,
#: uops_per_x86)`` for the last trace injected in this process.  Every
#: in-repo caller runs the configurations of one trace back to back, so
#: one slot catches every repeat; a slot per trace would keep a
#: 7-12 MB stream alive for each trace a process has seen.
_LAST_INJECTED: tuple[DynamicTrace, list[InjectedInstruction], float] | None = None


def inject_once(trace: DynamicTrace) -> tuple[list[InjectedInstruction], float]:
    """``trace``'s injected stream and its uops per x86 instruction.

    Injects only when ``trace`` (by identity) is not the last trace
    injected.  The stream is shared: every consumer reads it and copies
    a uop before changing it, and a trace must not change once injected.
    """
    global _LAST_INJECTED
    last = _LAST_INJECTED
    if last is not None and last[0] is trace:
        return last[1], last[2]
    # Drop the old stream before building the new one, so the memo never
    # holds two.
    drop_injected()
    stream = MicroOpInjector().inject_trace(trace)
    ratio = sum(len(i.uops) for i in stream) / len(stream) if stream else 0.0
    _LAST_INJECTED = (trace, stream, ratio)
    return stream, ratio


def drop_injected() -> None:
    """Empty the memo slot.

    Call before building another trace: the last trace's stream is dead
    weight while the next one is emulated or decoded, and would raise
    the process's peak memory by one stream.
    """
    global _LAST_INJECTED
    _LAST_INJECTED = None
