"""Host-speed probe: scales measured times to a fixed reference host speed.

The benchmark runs on shared hosts whose speed for pure-Python code
drifts by a factor of two or more over tens of minutes, in phases of a
few seconds up to about half a minute.  A run therefore samples, between
its units of work and outside every timed span, how long a fixed
interpreter-bound kernel takes (:func:`probe`).  The run's end-to-end
times are multiplied by ``REFERENCE_S / mean(probe)``: they read as
host seconds on a host where the probe takes exactly ``REFERENCE_S``.
Rates are divided by the same factor.  The kernel is the benchmark's
own code, so a change to the program under test cannot move it, and it
allocates almost no objects: a probe that did set off garbage
collections that walked the program's heap, which tied its time to the
program.  In serve-mixed the probe runs in the process that also hosts
the gateway and the node, between jobs, when both are idle apart from
any bookkeeping still finishing.

Within a run the probe tracks the host only loosely (its correlation
with a fixed unit of program work, sampled every few tenths of a
second, was 0.3 to 0.8), so the factor uses the mean of every sample
of a run, not one sample per unit of work.
"""

from __future__ import annotations

import statistics
import time

#: Probe seconds of the reference host the scaled metrics refer to.
REFERENCE_S = 0.010
#: Kernel iterations of one probe (about ``REFERENCE_S`` on a 2-vCPU
#: container host running CPython 3.11).
PROBE_ITERATIONS = 25_000
#: Spacing of the samples :meth:`SpeedLog.maybe_sample` takes.
SAMPLE_INTERVAL_S = 0.2

_REGS = ("a", "b", "c", "d")


class _Op:
    """A toy register operation: attribute reads, dict traffic, branches."""

    __slots__ = ("kind", "dst", "src", "imm")

    def __init__(self, kind: int, dst: str, src: str, imm: int) -> None:
        self.kind, self.dst, self.src, self.imm = kind, dst, src, imm

    def apply(self, regs: dict) -> int:
        if self.kind == 0:
            regs[self.dst] = (regs[self.src] + self.imm) & 0xFFFF
        elif self.kind == 1:
            regs[self.dst] = regs[self.src] ^ self.imm
        else:
            regs[self.dst] = (regs[self.dst] << 1) & 0xFFFF
        return regs[self.dst]


_OPS = [_Op(i % 3, _REGS[i % 4], _REGS[(i * 7) % 4], i) for i in range(64)]


def _kernel(iterations: int) -> int:
    regs = {name: index + 1 for index, name in enumerate(_REGS)}
    seen: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        value = _OPS[i & 63].apply(regs)
        if value & 1:
            seen[value & 255] = seen.get(value & 255, 0) + 1
        else:
            acc ^= value
    return acc + len(seen)


def probe() -> float:
    """Seconds one fixed run of the kernel takes now."""
    start = time.perf_counter()
    _kernel(PROBE_ITERATIONS)
    return time.perf_counter() - start


class SpeedLog:
    """Probe samples of one run and the time spent taking them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self) -> float:
        """Take one sample; return the seconds it cost (probe included)."""
        start = time.perf_counter()
        self.samples.append(probe())
        end = time.perf_counter()
        self._last = end
        self.spent_s += end - start
        return end - start

    def maybe_sample(self) -> float:
        """One sample per ``SAMPLE_INTERVAL_S`` since the last; return their cost.

        Workloads call this between units of work.  Units longer than the
        interval get as many samples as they would have had at a finer
        grain, so every stretch of the run weighs in by its duration.
        """
        due = int((time.perf_counter() - self._last) / SAMPLE_INTERVAL_S)
        return sum(self.sample() for _ in range(min(due, 50)))

    def factor(self) -> float:
        """Multiply host seconds by this to get reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def summary(self) -> dict:
        return {
            "probe_mean_ms": statistics.fmean(self.samples) * 1000.0,
            "probe_samples": len(self.samples),
            "factor": self.factor(),
        }
