"""The differential oracle: optimized frames vs the unoptimized emulation.

One generated program flows through the full stack exactly once per
variant of the optimizer configuration:

    emulate → trace → inject → frame construction → optimize → check

and is checked two complementary ways:

* **verifier leg** — the first path-matching instance of every frame is
  handed to :class:`~repro.verify.verifier.StateVerifier`, which
  enforces the paper's three §5.1.3 rules (loads covered by the initial
  memory map, final memory map equal, register/flag state equal at the
  frame boundary) against the true architectural state;
* **replay leg** — the whole trace is re-executed by a *frame machine*:
  wherever a frame path-matches (same commit rule the sequencer uses —
  path match, not degenerate, no unsafe-store conflict) the optimized
  frame executes against the machine's live state via
  :func:`~repro.verify.frame_exec.execute_frame`; everywhere else the
  trace record applies directly.  The machine's final registers, flags,
  and store bytes must equal the emulator's.

Assertion fires are judged against the true trace.  Path match covers
every *internal* transfer (a deviating internal branch changes the next
PC inside ``x86_pcs``), but not the frame's **final** branch — its
divergent target lies outside the frame.  So a fire on a path-matching
instance is *legitimate recovery* when the true trace continues
somewhere other than ``frame.end_next_pc`` (e.g. the loop's final
iteration falls out of a backedge frame), and a divergence only when
the true trace did continue at ``end_next_pc`` — then every converted
branch went the frame's way and a correct frame cannot fire.

Each optimizer-pass subset ("variant") re-optimizes clones of the same
constructed frames, so a divergence report names the narrowest pass
combination that still miscompiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.optimizer.pipeline import FrameOptimizer, OptimizerConfig
from repro.replay.constructor import ConstructorConfig, FrameConstructor
from repro.replay.frame import Frame
from repro.replay.sequencer import unsafe_store_conflict
from repro.trace.injector import InjectedInstruction, MicroOpInjector
from repro.trace.record import TraceRecord
from repro.uops.uop import UReg
from repro.verify.frame_exec import FrameExecutionError, execute_frame
from repro.verify.state import ArchTracker
from repro.verify.verifier import StateVerifier, VerificationError
from repro.x86.emulator import Emulator
from repro.x86.registers import MASK32, Flag, Reg

from repro.fuzz.generator import FuzzProgram, render_program

#: Optimizer-pass subsets every program is checked under: the full
#: pipeline, each single-pass ablation (Figure 10's legend), speculation
#: off, both restricted scopes, and DCE alone.
VARIANTS = (
    "full",
    "no-asst",
    "no-cp",
    "no-cse",
    "no-nop",
    "no-ra",
    "no-sf",
    "no-spec",
    "block",
    "inter",
    "dce-only",
)

_ABLATIONS = ("asst", "cp", "cse", "nop", "ra", "sf")


def variant_config(name: str) -> OptimizerConfig:
    """Optimizer configuration for a named pass subset.

    Besides the fixed legend names, ``spec:<pass-spec>`` runs an
    explicit pass subset/order (e.g. ``spec:sf,cp,dce``) through
    :func:`repro.optimizer.pipeline.parse_pass_spec` — the tune
    subsystem's property tests drive sampled orderings through the
    differential oracle this way.
    """
    base = OptimizerConfig()
    if name.startswith("spec:"):
        from repro.optimizer.pipeline import parse_pass_spec

        spec = name[len("spec:"):]
        parse_pass_spec(spec)  # reject bad specs here, not mid-campaign
        return replace(base, pass_spec=spec)
    if name == "full":
        return base
    if name == "no-spec":
        return replace(base, speculation=False)
    if name in ("block", "inter"):
        return replace(base, scope=name)
    if name == "dce-only":
        for key in _ABLATIONS:
            base = base.disabled(key)
        return base
    if name.startswith("no-") and name[3:] in _ABLATIONS:
        return base.disabled(name[3:])
    raise ValueError(f"unknown variant {name!r}")


@dataclass(frozen=True)
class OracleConfig:
    """Oracle tuning: aggressive frame construction, all pass subsets."""

    #: Constructor knobs tuned for short fuzz loops: promote branches
    #: fast and close frames early so a 6-iteration loop already builds
    #: and dispatches frames.
    promotion_threshold: int = 4
    min_uops: int = 8
    max_uops: int = 96
    backedge_close_uops: int = 48
    variants: tuple[str, ...] = VARIANTS
    max_instructions: int = 50_000

    def constructor_config(self) -> ConstructorConfig:
        return ConstructorConfig(
            min_uops=self.min_uops,
            max_uops=self.max_uops,
            promotion_threshold=self.promotion_threshold,
            backedge_close_uops=self.backedge_close_uops,
        )


@dataclass
class Divergence:
    """One observed optimizer/frame/emulator disagreement."""

    kind: str  # verifier | assert-fired | frame-exec-error | optimizer-crash | final-state
    variant: str
    detail: str
    frame_pc: int | None = None
    instance_index: int | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "detail": self.detail,
            "frame_pc": self.frame_pc,
            "instance_index": self.instance_index,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Divergence":
        return cls(
            kind=payload["kind"],
            variant=payload["variant"],
            detail=payload["detail"],
            frame_pc=payload.get("frame_pc"),
            instance_index=payload.get("instance_index"),
        )


@dataclass
class ProgramReport:
    """Outcome of running one program through the oracle."""

    seed: int
    trace_length: int = 0
    frames_constructed: int = 0
    instances_committed: int = 0
    instances_verified: int = 0
    unsafe_skips: int = 0
    legit_fires: int = 0  # exit-direction fires (recovery, not divergence)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _unpack_flags(word: int) -> tuple[bool, bool, bool, bool]:
    return (
        bool(word & (1 << Flag.CF)),
        bool(word & (1 << Flag.ZF)),
        bool(word & (1 << Flag.SF)),
        bool(word & (1 << Flag.OF)),
    )


def _construct_frames(
    injected: list[InjectedInstruction], config: ConstructorConfig
) -> list[Frame]:
    """All distinct frames the constructor emits over the retired stream.

    A region whose path was already emitted is dropped before it is
    frame-ified, as the sequencer's queue does (DESIGN.md §5).
    """
    constructor = FrameConstructor(config)
    frames: list[Frame] = []
    seen: set[tuple] = set()

    def unseen(path_key: tuple) -> bool:
        return path_key not in seen

    for instr in injected:
        frame = constructor.retire(instr, unseen)
        if frame is not None:
            seen.add(frame.path_key)
            frames.append(frame)
    return frames


def _clone_frame(frame: Frame) -> Frame:
    """A fresh, unoptimized copy sharing the (immutable-in-practice)
    dynamic uops: ``OptimizationBuffer`` builds its own OptUops, so two
    clones optimized under different configs never interfere."""
    return Frame(
        start_pc=frame.start_pc,
        x86_pcs=list(frame.x86_pcs),
        end_next_pc=frame.end_next_pc,
        dyn_uops=frame.dyn_uops,
        x86_indices=frame.x86_indices,
        mem_keys=frame.mem_keys,
        block_starts=list(frame.block_starts),
    )


def _path_matches(
    frame: Frame, injected: list[InjectedInstruction], base: int
) -> bool:
    if base + frame.x86_count > len(injected):
        return False
    return all(
        injected[base + offset].record.pc == pc
        for offset, pc in enumerate(frame.x86_pcs)
    )


class _FrameMachine:
    """Architectural state advanced by frames where they commit and by
    raw trace records everywhere else (the replay leg's state)."""

    def __init__(self, initial_regs: tuple[int, ...], initial_flags: int,
                 initial_image: dict[int, int]) -> None:
        self.regs = list(initial_regs)
        self.flags = initial_flags
        self._image = initial_image
        self.overlay: dict[int, int] = {}

    def read_byte(self, address: int) -> int:
        # Total memory (unwritten bytes read as 0, like x86.memory.Memory),
        # so paper rule 1 cannot fire here; the verifier leg checks it.
        if address in self.overlay:
            return self.overlay[address]
        return self._image.get(address, 0)

    def live_in_regs(self) -> dict[UReg, int]:
        return {UReg(i): self.regs[i] for i in range(8)}

    def live_in_flags(self) -> tuple[bool, bool, bool, bool]:
        return _unpack_flags(self.flags)

    def apply_record(self, record: TraceRecord) -> None:
        for reg, value in record.reg_writes.items():
            self.regs[int(reg)] = value
        if record.flags_after is not None:
            self.flags = record.flags_after
        for mem_op in record.mem_ops:
            if mem_op.is_store:
                for i in range(mem_op.size):
                    address = (mem_op.address + i) & MASK32
                    self.overlay[address] = (mem_op.data >> (8 * i)) & 0xFF

    def apply_outcome(self, outcome) -> None:
        for reg, value in outcome.final_regs.items():
            self.regs[int(reg)] = value
        self.flags = outcome.final_flags
        for address, size, value in outcome.stores:
            for i in range(size):
                self.overlay[(address + i) & MASK32] = (value >> (8 * i)) & 0xFF


def _initial_image(program, emulator: Emulator) -> dict[int, int]:
    """Byte image of memory at program start (data + pushed exit address)."""
    image: dict[int, int] = {}
    for address, blob in program.data.items():
        for i, byte in enumerate(blob):
            image[(address + i) & MASK32] = byte
    esp = emulator.regs[Reg.ESP]  # after the exit-address push
    from repro.x86.emulator import EXIT_ADDRESS

    for i in range(4):
        image[(esp + i) & MASK32] = (EXIT_ADDRESS >> (8 * i)) & 0xFF
    return image


def run_differential(
    genome: FuzzProgram,
    config: OracleConfig | None = None,
    metrics=None,
) -> ProgramReport:
    """Run one program genome through every variant; report divergences."""
    config = config or OracleConfig()
    report = ProgramReport(seed=genome.seed)

    program = render_program(genome)
    emulator = Emulator(program)
    initial_regs = emulator.reg_snapshot()
    initial_flags = emulator.flags_word()
    image = _initial_image(program, emulator)
    records = emulator.run(max_instructions=config.max_instructions)
    if not emulator.halted:
        # A genome the generator should never produce (shrinker edits
        # can): treat as unrunnable, not as a divergence.
        raise ValueError(f"program (seed {genome.seed}) did not halt")
    report.trace_length = len(records)
    final_regs = emulator.reg_snapshot()
    final_flags = emulator.flags_word()

    injector = MicroOpInjector()
    injected = [injector.inject(record) for record in records]

    # Expected final memory: every store in trace order.
    expected_bytes: dict[int, int] = {}
    for record in records:
        for mem_op in record.mem_ops:
            if mem_op.is_store:
                for i in range(mem_op.size):
                    address = (mem_op.address + i) & MASK32
                    expected_bytes[address] = (mem_op.data >> (8 * i)) & 0xFF

    proto_frames = _construct_frames(injected, config.constructor_config())
    report.frames_constructed = len(proto_frames)
    if metrics is not None:
        metrics.counter("fuzz.programs").inc()
        metrics.counter("fuzz.trace_records").inc(len(records))
        metrics.counter("fuzz.frames_constructed").inc(len(proto_frames))

    for variant in config.variants:
        _run_variant(
            variant,
            proto_frames,
            injected,
            initial_regs,
            initial_flags,
            image,
            final_regs,
            final_flags,
            expected_bytes,
            report,
            metrics,
        )
    if metrics is not None and report.divergences:
        metrics.counter("fuzz.divergences").inc(len(report.divergences))
        for divergence in report.divergences:
            metrics.counter(f"fuzz.divergence.{divergence.kind}").inc()
    return report


def _run_variant(
    variant: str,
    proto_frames: list[Frame],
    injected: list[InjectedInstruction],
    initial_regs: tuple[int, ...],
    initial_flags: int,
    image: dict[int, int],
    final_regs: tuple[int, ...],
    final_flags: int,
    expected_bytes: dict[int, int],
    report: ProgramReport,
    metrics,
) -> None:
    optimizer = FrameOptimizer(variant_config(variant), metrics=metrics)
    frames: list[Frame] = []
    for proto in proto_frames:
        frame = _clone_frame(proto)
        try:
            frame.opt_result = optimizer.optimize(frame.build_buffer())
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            report.divergences.append(
                Divergence(
                    kind="optimizer-crash",
                    variant=variant,
                    detail=f"{type(exc).__name__}: {exc}",
                    frame_pc=frame.start_pc,
                )
            )
            continue
        frames.append(frame)

    by_pc: dict[int, list[Frame]] = {}
    for frame in frames:
        by_pc.setdefault(frame.start_pc, []).append(frame)

    verifier = StateVerifier()
    tracker = ArchTracker(
        {Reg(i): initial_regs[i] for i in range(8)}, flags=initial_flags
    )
    machine = _FrameMachine(initial_regs, initial_flags, image)
    verified_paths: set[tuple] = set()
    committed = 0

    index = 0
    total = len(injected)
    while index < total:
        record = injected[index].record
        dispatched = None
        for frame in by_pc.get(record.pc, ()):
            if not _path_matches(frame, injected, index):
                continue
            if frame.always_fires:
                continue
            if unsafe_store_conflict(frame, injected, index):
                report.unsafe_skips += 1
                continue
            dispatched = frame
            break
        if dispatched is None:
            tracker.apply(record)
            machine.apply_record(record)
            index += 1
            continue

        frame = dispatched
        region = [
            injected[index + k].record for k in range(frame.x86_count)
        ]
        # Where does the true trace go after this region?  The exit
        # branch is the one transfer path matching cannot check; an
        # instance that leaves the frame's path here is *expected* to
        # fire (recovery), so neither leg may call that a divergence.
        next_index = index + frame.x86_count
        actual_next_pc = (
            injected[next_index].record.pc if next_index < total else None
        )
        exit_matches = actual_next_pc == frame.end_next_pc
        # Verifier leg: first committing instance of each path (deferred
        # past exit-deviating instances, where a fire is legitimate).
        if exit_matches and frame.path_key not in verified_paths:
            verified_paths.add(frame.path_key)
            try:
                verifier.verify_frame_instance(frame, region, tracker)
                report.instances_verified += 1
            except VerificationError as exc:
                report.divergences.append(
                    Divergence(
                        kind="verifier",
                        variant=variant,
                        detail=str(exc),
                        frame_pc=frame.start_pc,
                        instance_index=index,
                    )
                )
        # Replay leg: execute the frame against the machine's live state.
        try:
            outcome = execute_frame(
                frame.buffer,
                machine.live_in_regs(),
                machine.live_in_flags(),
                machine.read_byte,
            )
        except FrameExecutionError as exc:
            report.divergences.append(
                Divergence(
                    kind="frame-exec-error",
                    variant=variant,
                    detail=str(exc),
                    frame_pc=frame.start_pc,
                    instance_index=index,
                )
            )
            outcome = None
        if outcome is not None and outcome.fired:
            if exit_matches:
                report.divergences.append(
                    Divergence(
                        kind="assert-fired",
                        variant=variant,
                        detail=(
                            f"assertion fired at slot {outcome.firing_slot} "
                            f"but the true trace continued at "
                            f"{frame.end_next_pc:#x} (the frame's own exit)"
                        ),
                        frame_pc=frame.start_pc,
                        instance_index=index,
                    )
                )
            else:
                report.legit_fires += 1
            if metrics is not None:
                metrics.counter("fuzz.asserts_fired").inc()
            outcome = None
        if outcome is None:
            # Divergent instance: fall back to the true records so later
            # instances are still checked from accurate state.
            for rec in region:
                machine.apply_record(rec)
        else:
            machine.apply_outcome(outcome)
            report.instances_committed += 1
            committed += 1
        for rec in region:
            tracker.apply(rec)
        index += frame.x86_count

    if metrics is not None:
        metrics.counter(f"fuzz.variant.{variant}.instances").inc(committed)

    # Final architectural state: registers, flags, and every stored byte.
    for i in range(8):
        if machine.regs[i] != final_regs[i]:
            report.divergences.append(
                Divergence(
                    kind="final-state",
                    variant=variant,
                    detail=(
                        f"register {Reg(i).name} mismatch: "
                        f"machine={machine.regs[i]:#x} "
                        f"emulator={final_regs[i]:#x}"
                    ),
                )
            )
    if machine.flags != final_flags:
        report.divergences.append(
            Divergence(
                kind="final-state",
                variant=variant,
                detail=(
                    f"flags mismatch: machine={machine.flags:#x} "
                    f"emulator={final_flags:#x}"
                ),
            )
        )
    if machine.overlay != expected_bytes:
        differing = {
            address: (machine.overlay.get(address), byte)
            for address, byte in expected_bytes.items()
            if machine.overlay.get(address) != byte
        }
        extra = {
            address: byte
            for address, byte in machine.overlay.items()
            if address not in expected_bytes
        }
        sample = dict(list(differing.items())[:4])
        report.divergences.append(
            Divergence(
                kind="final-state",
                variant=variant,
                detail=(
                    f"memory mismatch: {len(differing)} differing, "
                    f"{len(extra)} extra bytes, e.g. {sample}"
                ),
            )
        )
