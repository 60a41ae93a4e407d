"""Persistent pool of warm simulation workers.

The whole point of a long-lived service is that the expensive per-
process warm-up — importing the simulator, registering the 14
workloads, opening the artifact store, building
``Frame.sched_template`` caches — happens once per worker, not once per
request.  Each worker is initialized with :func:`_init_worker` (which
pre-imports everything a cell touches) and then serves batches for its
whole lifetime; the in-worker trace memo
(:data:`repro.artifacts.runner._TRACE_MEMO`), the last trace's injected
uop stream (:func:`repro.trace.injector.inject_once`, so the configs of
one member arriving back to back inject it once) and the
schedule-template caches stay hot across jobs.

Crash isolation: a worker that dies (OOM kill, segfault in a bad
experiment) breaks the whole stdlib :class:`ProcessPoolExecutor`; the
scheduler calls :meth:`WorkerPool.restart` to stand up a fresh pool and
retries the in-flight batch once before failing its job.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor

from repro.artifacts.runner import MatrixTask, resolve_worker_store, run_cell
from repro.metrics.ledger import result_entry

log = logging.getLogger("repro.service")


def _init_worker(store_root: str | None) -> None:
    """Warm one worker: import the world, open the store.

    Runs once per worker process.  After this, the first real cell pays
    no import cost and the store is already resolved.
    """
    from repro.harness import experiment  # noqa: F401  (pulls the simulator)
    from repro.workloads import all_workloads

    all_workloads()  # force workload registration
    resolve_worker_store(store_root)


def _warmup() -> int:
    """No-op task used to force worker spawn; returns the worker pid."""
    return os.getpid()


def run_batch(payload: tuple[str | None, list[tuple[int, MatrixTask]]]) -> list[dict]:
    """Worker-side body: run one batch of compatible cells.

    A batch shares one workload (same trace), so after the first cell
    the in-process trace memo serves the rest without touching the
    store.  Each output carries the canonical ledger ``entry`` (built
    worker-side so the parent never unpickles an
    :class:`ExperimentResult` it doesn't need) plus telemetry and the
    cell's metrics snapshot for deterministic merging in the parent.
    """
    store_root, cells = payload
    outputs = []
    for index, task in cells:
        if isinstance(task, MatrixTask):
            result, telemetry, snapshot = run_cell(task, store_root)
            outputs.append(
                {
                    "index": index,
                    "workload": task.workload,
                    "config": task.config.name,
                    "entry": result_entry(task.workload, task.config.name, result),
                    "cached": telemetry.result_cache_hit,
                    "emulated": telemetry.emulated,
                    "seconds": telemetry.seconds,
                    "pid": os.getpid(),
                    "snapshot": snapshot,
                }
            )
        else:  # ConfigPairTask: regenerate the pair from its seeds
            from repro.fuzz.campaign import config_pair_summary
            from repro.metrics import MetricsRegistry

            registry = MetricsRegistry()
            start = time.perf_counter()
            summary = config_pair_summary(
                task.campaign_seed, task.index, metrics=registry
            )
            outputs.append(
                {
                    "index": index,
                    "workload": f"configfuzz-{task.campaign_seed}",
                    "config": f"pair-{task.index}",
                    "entry": summary,
                    "cached": False,
                    "emulated": True,
                    "seconds": time.perf_counter() - start,
                    "pid": os.getpid(),
                    "snapshot": registry.snapshot(),
                }
            )
    return outputs


class WorkerPool:
    """A restartable :class:`ProcessPoolExecutor` of warm workers."""

    def __init__(self, workers: int = 2, store_root: str | None = None) -> None:
        self.workers = max(1, workers)
        self.store_root = store_root
        self._executor: ProcessPoolExecutor | None = None
        self.generation = 0
        self.restarts = 0

    def start(self) -> None:
        if self._executor is not None:
            return
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(self.store_root,),
        )
        self.generation += 1

    def warm(self) -> list[int]:
        """Spawn every worker now (stdlib pools spawn lazily) and return pids.

        Called once at service startup so the first job is served by
        already-imported workers, and by tests that assert drain leaves
        no orphaned processes.
        """
        self.start()
        assert self._executor is not None
        futures = [self._executor.submit(_warmup) for _ in range(self.workers)]
        for future in futures:
            future.result()
        # One fast worker can serve several warmup tasks; the executor's
        # process table is the authoritative pid list.
        return self.worker_pids()

    def submit_batch(
        self, batch: list[tuple[int, MatrixTask]]
    ) -> Future:
        """Dispatch one batch; the future resolves to ``run_batch``'s list."""
        self.start()
        assert self._executor is not None
        return self._executor.submit(run_batch, (self.store_root, batch))

    def restart(self) -> None:
        """Tear down a broken pool and stand up a fresh one."""
        old = self._executor
        self._executor = None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)
        self.restarts += 1
        log.warning("worker pool restarting (restart #%d)", self.restarts)
        self.start()

    def worker_pids(self) -> list[int]:
        """Pids of currently live workers (empty before first spawn)."""
        if self._executor is None:
            return []
        processes = getattr(self._executor, "_processes", None) or {}
        return sorted(processes.keys())

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None
