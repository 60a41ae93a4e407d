"""The benchmark's three workloads, each run inside one fresh interpreter.

Every workload follows the same life cycle, driven by ``child.py``:

``setup()``   imports, an empty temporary artifact store and, for
              ``serve-mixed``, the gateway, node, pool and hot-set
              prefill (all of it counts as ``setup_s``);
``run()``     the timed phase: as much whole work as fits in
              ``seconds`` (untraced), or exactly ``work`` units
              (traced replay of an untraced run);
``check()``   output checks made outside the timed phase;
``close()``   stops every thread and process the workload started.

Inputs derive from the benchmark seed alone (:func:`derive`); the
program under test sees only the generated workload names, data seeds
and job shapes.  The notes in ``NOTES.md`` give each workload's reason.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import random
import resource
import statistics
import threading
import time

from hostspeed import SpeedLog

perf_counter = time.perf_counter

#: Trimmed fig6 set: two SPECint and two desktop workloads (Table 1
#: categories), chosen as the shortest of each group so one round of
#: 16 cells takes a few seconds and a run holds several whole rounds.
FIG6_WORKLOADS = ("eon", "vortex", "excel", "dream")
FIG6_CONFIGS = ("IC", "TC", "RP", "RPO")

#: Paper reference values (DESIGN.md §1): RPO-over-RP IPC gain, dynamic
#: uop reduction and dynamic load reduction.
PAPER_FIDELITY = {"rpo_over_rp_gain": 0.17, "uop_reduction": 0.21,
                  "load_reduction": 0.22}

SERVE_FAMILIES = ("loopy", "redund", "stacky", "branchy", "aliasy")
SERVE_CONFIGS = ("IC", "TC", "RP", "RPO")
#: Hot cells prefilled during set-up: one cell each of this many
#: members, configs cycling through SERVE_CONFIGS.  A chosen size, not a
#: measured one: the store keeps no results in memory, so it sets the
#: prefill's share of setup_s more than the cost of a read.
SERVE_HOT_MEMBERS = 40
#: Share of requested cells drawn from the hot set (store reads); the
#: rest are cells never requested before (simulate, then store writes).
#: Measured, not assumed: the README's three ``tune sweep`` commands
#: (grid, ``--search random --samples 12 --seed 1``, grid again), sent
#: through one node with an empty store (``--space smoke --scale 0``),
#: asked for 36 cells, of which 24 were store hits.
SERVE_HOT_SHARE = 24 / 36
#: Fresh members start here so they never collide with the hot set.
SERVE_FRESH_BASE = 100
SERVE_MAX_CELLS = 6
#: ``peak_rss_mb`` of serve-mixed is this process's high-water mark after
#: this many jobs (every run on a 2-vCPU host gets there), not at the end
#: of the run: the node keeps every job it ran, so a mark taken at the end
#: would grow with the host's speed.  The pool worker's peak is added at
#: the end, once it has been reaped.
SERVE_RSS_JOBS = 400
#: Served entries recomputed in-process after the timed phase.
SERVE_SAMPLE = 6


def derive(seed: int, domain: str, index: int = 0) -> int:
    """A 31-bit input seed for one (benchmark seed, domain, index)."""
    material = f"perfbench:{domain}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:4], "big") >> 1


def canonical(entry) -> str:
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 when nothing was served."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Outcome:
    """What one timed phase did and measured."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.work = 0  # rounds / jobs / programs: replayed by the traced run
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cells = 0
        self.programs = 0
        self.x86 = 0  # x86 instructions simulated in the timed phase
        self.simulated = 0  # cells or programs those instructions came from
        self.cell_ms: list[float] = []
        self.stats: list = []  # simulated statistics compared across runs
        self.counters: dict[str, float] = {}
        self.extra: dict = {}
        self.layer_rows: dict[str, float] | None = None
        #: Host-speed samples taken between units of work, never inside
        #: ``wall_s`` (see ``hostspeed.py``).
        self.speed = SpeedLog()
        #: This process's peak RSS (KB) when the workload fixed it early.
        self.own_rss_kb: int | None = None

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def end_to_end(self, scale: float = 1.0) -> dict[str, tuple[float, int]]:
        """``name -> (value, samples)`` for the untraced metrics.

        Times are multiplied by ``scale`` (host seconds to reference
        seconds), rates divided by it.
        """
        wall = self.wall_s * scale
        return {
            "sim_x86_per_s": (self.x86 / wall, self.simulated),
            "cells_per_s": (self.cells / wall, self.cells),
            "cell_p50_ms": (percentile(self.cell_ms, 50) * scale, len(self.cell_ms)),
            "cell_p99_ms": (percentile(self.cell_ms, 99) * scale, len(self.cell_ms)),
            "programs_per_s": (self.programs / wall, self.programs),
        }


# ------------------------------------------------------------- fig6-cold


class Fig6Cold:
    """Rounds of the fig6 matrix through ``run_matrix(jobs=1)``.

    Round ``r`` builds every workload of :data:`FIG6_WORKLOADS` with
    data seed ``derive(seed, "fig6", r)``, so no round can reuse a trace
    or result of another, and simulates it under IC/TC/RP/RPO into the
    run's empty store.  A run times whole rounds only, so every run
    measures the same mix of workloads.  Each workload's four cells are
    one ``run_matrix`` call, so that the host-speed probe samples between
    calls, outside the timed sum.  Between rounds,
    also untimed, the runner's trace memo is emptied and garbage
    collected, so every round starts from the heap a fresh ``fig6``
    process has and peak memory does not grow with the number of rounds.
    """

    name = "fig6-cold"

    def setup(self, seed: int, tmp) -> None:
        from repro.artifacts.store import ArtifactStore
        from repro.harness.experiment import CONFIGS
        from repro.metrics import MetricsRegistry
        from repro.workloads import all_workloads

        all_workloads()
        self.seed = seed
        self.configs = [CONFIGS[name] for name in FIG6_CONFIGS]
        self.store = ArtifactStore(tmp / "store")
        self.registry = MetricsRegistry()

    def run(self, seconds: float, work: int | None, tracer) -> Outcome:
        from repro.artifacts import runner
        from repro.artifacts.runner import MatrixTask, run_matrix

        out = Outcome()
        rows: dict[tuple[str, int], dict] = {}
        if tracer is not None:
            tracer.reset()
        rounds = 0
        out.speed.sample()
        while (work is None and out.wall_s < seconds) or (
            work is not None and rounds < work
        ):
            data_seed = derive(self.seed, "fig6", rounds)
            runs = []
            for workload in FIG6_WORKLOADS:
                tasks = [
                    MatrixTask(workload, config, seed=data_seed)
                    for config in self.configs
                ]
                start = perf_counter()
                runs.append(
                    run_matrix(tasks, jobs=1, store=self.store, metrics=self.registry)
                )
                out.wall_s += perf_counter() - start
                out.speed.maybe_sample()
            rounds += 1
            # Checks between rounds stay outside the timed sum and call no
            # wrapped boundary (the trace memo is a plain dict).
            cells = (
                cell for run in runs
                for cell in zip(run.tasks, run.results, run.telemetry)
            )
            for task, result, telemetry in cells:
                sim = result.sim
                out.attempted += 1
                out.cells += 1
                out.simulated += 1
                out.x86 += sim.x86_retired
                out.cell_ms.append(telemetry.seconds * 1000.0)
                trace = runner._TRACE_MEMO.get(
                    runner.trace_key(task.workload, None, data_seed)
                )
                if trace is None or sim.x86_retired != len(trace.records):
                    out.failed += 1
                    out.error(
                        f"{task.workload}/{task.config.name} seed {data_seed}: "
                        f"retired {sim.x86_retired}, trace "
                        f"{None if trace is None else len(trace.records)}"
                    )
                out.stats.append(
                    [task.workload, task.config.name, data_seed, sim.cycles,
                     sim.x86_retired, [sim.bins[b] for b in sorted(sim.bins)]]
                )
                rows.setdefault((task.workload, data_seed), {})[
                    task.config.name
                ] = result
            runner._TRACE_MEMO.clear()
            gc.collect()
        out.work = rounds
        out.programs = len(rows)
        out.counters = self.registry.counters()
        out.extra["fidelity"] = _fidelity(rows.values())
        out.extra["workloads"] = list(FIG6_WORKLOADS)
        return out

    def check(self, out: Outcome, traced: bool) -> None:
        pass  # every cell is checked as it completes, inside run()

    def close(self) -> None:
        pass


def _fidelity(rows) -> dict:
    gains, uops, loads = [], [], []
    for row in rows:
        rp, rpo = row["RP"], row["RPO"]
        gains.append(rpo.ipc_x86 / rp.ipc_x86 - 1.0 if rp.ipc_x86 else 0.0)
        uops.append(rpo.uop_reduction)
        loads.append(rpo.load_reduction)
    model = {
        "rpo_over_rp_gain": statistics.fmean(gains),
        "uop_reduction": statistics.fmean(uops),
        "load_reduction": statistics.fmean(loads),
    }
    return {
        "model": model,
        "paper": dict(PAPER_FIDELITY),
        "error": {k: model[k] - PAPER_FIDELITY[k] for k in model},
        "note": "the paper's averages (DESIGN.md section 1) are the only "
        "reference the repository holds; the model is otherwise unvalidated",
    }


# ----------------------------------------------------------- serve-mixed


class _LoopThread:
    """One gateway fronting one service node, on one background loop."""

    def __init__(self, store_dir: str) -> None:
        self.store_dir = store_dir
        self.loop: asyncio.AbstractEventLoop | None = None
        self.service = None
        self.gateway = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, name="serve-loop")

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # reported to the starting thread
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.cluster.gateway import Gateway, GatewayConfig
        from repro.metrics import MetricsRegistry
        from repro.service.server import Service, ServiceConfig

        self.loop = asyncio.get_running_loop()
        self.service = Service(
            ServiceConfig(port=0, workers=1, cache_dir=self.store_dir),
            registry=MetricsRegistry(),
        )
        try:
            await self.service.start()
            self.gateway = Gateway(
                GatewayConfig(nodes=(f"127.0.0.1:{self.service.port}",), port=0),
                registry=MetricsRegistry(),
            )
            await self.gateway.start()
            self._ready.set()
            await self.gateway.wait_closed()
        finally:
            await self.service.shutdown()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=120):
            raise TimeoutError("gateway and node did not start within 120 s")
        if self._error is not None:
            raise RuntimeError("gateway or node failed to start") from self._error

    def stop(self) -> None:
        if self.loop is not None and self._thread.is_alive():
            if self.gateway is not None:
                self.loop.call_soon_threadsafe(self.gateway.request_shutdown)
            else:
                self.loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=120)
        if self._thread.is_alive():
            raise TimeoutError("serve loop did not stop within 120 s")


class ServeMixed:
    """A closed loop of ``Client.submit`` jobs against gateway + node.

    One client, one connection at a time: each job is submitted only
    after the previous one finished.  Cells are hot-set repeats (store
    reads on the node) or cells never requested before (simulated by
    the node's single pool worker, then written to the store).
    """

    name = "serve-mixed"

    def setup(self, seed: int, tmp) -> None:
        from repro.service.client import Client
        from repro.workloads import all_workloads

        all_workloads()
        self.seed = seed
        self.stack = _LoopThread(str(tmp / "store"))
        self.stack.start()
        self.client = Client(
            port=self.stack.gateway.port, timeout=120.0, client_id="perfbench"
        )
        self.hot = [
            (self.member(index), SERVE_CONFIGS[index % len(SERVE_CONFIGS)])
            for index in range(SERVE_HOT_MEMBERS)
        ]
        prefill = self.client.submit(self.specs(self.hot))
        if not prefill.ok:
            raise RuntimeError(f"hot-set prefill failed: {prefill.error}")
        self.first_serving = {
            cell: canonical(entry) for cell, entry in zip(self.hot, prefill.entries)
        }

    def member(self, index: int) -> str:
        family = SERVE_FAMILIES[index % len(SERVE_FAMILIES)]
        return f"{family}-s{self.seed}-{index:03d}"

    @staticmethod
    def specs(cells):
        from repro.service.protocol import CellSpec

        return [CellSpec(workload, config) for workload, config in cells]

    def jobs(self):
        """The seed's endless, deterministic job sequence.

        Each job's count of fresh cells is its size times the fresh share,
        rounded, with the rounding error carried to the next job, so every
        stretch of jobs holds the hot share exactly.  Drawn cell by cell,
        the few jobs with four to six fresh cells, which the p99 is made
        of, came and went with the seed.
        """
        rng = random.Random(derive(self.seed, "serve"))
        fresh = self._fresh_cells(rng)
        carry = 0.0
        while True:
            size = rng.randint(1, SERVE_MAX_CELLS)
            due = carry + size * (1.0 - SERVE_HOT_SHARE)
            count = min(size, int(due + 0.5))
            carry = due - count
            fresh_slots = set(rng.sample(range(size), count))
            yield [
                next(fresh) if slot in fresh_slots else rng.choice(self.hot)
                for slot in range(size)
            ]

    def _fresh_cells(self, rng):
        index = SERVE_FRESH_BASE
        while True:
            configs = list(SERVE_CONFIGS)
            rng.shuffle(configs)
            for config in configs:
                yield (self.member(index), config)
            index += 1

    def _metrics(self) -> dict:
        response = self.client.metrics()
        return {"counters": response.counters, "histograms": response.histograms}

    def run(self, seconds: float, work: int | None, tracer) -> Outcome:
        from repro.service.client import ServiceError

        out = Outcome()
        before = self._metrics()
        # Only a digest per served cell is kept, so the benchmark's own
        # memory barely grows with the cells served and peak_rss_mb
        # tracks the program (whose node keeps every job it ran).
        served: list = []  # (cell, sha256 of its canonical entry) in job order
        served_digest = hashlib.sha256()
        job_seconds: list[float] = []
        fresh_cells = 0
        jobs = self.jobs()
        if tracer is not None:
            tracer.reset()
        probed = out.speed.sample()
        loop_start = perf_counter()
        done = 0
        while (work is None and perf_counter() - loop_start < seconds) or (
            work is not None and done < work
        ):
            if done == SERVE_RSS_JOBS:
                out.own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out.speed.maybe_sample()
            cells = next(jobs)
            done += 1
            out.attempted += len(cells)
            fresh_cells += sum(cell not in self.first_serving for cell in cells)
            arrivals: list[float] = []
            start = perf_counter()
            try:
                outcome = self.client.submit(
                    self.specs(cells),
                    on_cell=lambda cell: arrivals.append(perf_counter()),
                )
            except ServiceError as exc:  # shed, refused, disconnected
                out.failed += len(cells)
                out.error(f"job {done}: {exc}")
                continue
            job_seconds.append(perf_counter() - start)
            out.cell_ms.extend((t - start) * 1000.0 for t in arrivals)
            if not outcome.ok:
                out.error(f"job {done}: {outcome.state} {outcome.error}")
            for cell, entry in zip(cells, outcome.entries):
                if entry is None or not outcome.ok:
                    out.failed += 1
                    continue
                text = canonical(entry)
                served_digest.update(f"{cell}{text}\n".encode())
                served.append((cell, hashlib.sha256(text.encode()).digest()))
                first = self.first_serving.get(cell)
                if first is None:  # simulated in this run
                    out.simulated += 1
                    out.x86 += entry["x86_retired"]
                elif text != first:
                    out.failed += 1
                    out.error(f"{cell}: repeated entry differs from its first serving")
        out.wall_s = perf_counter() - loop_start - (out.speed.spent_s - probed)
        out.speed.sample()
        if tracer is not None:
            local_self, local_counts = tracer.local_totals()
        after = self._metrics()
        out.work = done
        out.programs = len(job_seconds)
        out.cells = len(served)
        out.counters = _delta(before["counters"], after["counters"])
        histograms = _histogram_delta(before["histograms"], after["histograms"])
        out.extra["histograms"] = histograms
        out.extra["fresh_cells"] = fresh_cells
        out.stats = [served_digest.hexdigest()]
        self.served = served
        if tracer is not None:
            out.layer_rows, out.extra["layer_values"] = _serve_layers(
                tracer, local_self, local_counts, histograms, sum(job_seconds)
            )
        return out

    def check(self, out: Outcome, traced: bool) -> None:
        computed = out.counters.get("service.cells_computed", 0)
        cached = out.counters.get("service.cells_cached", 0)
        fresh = out.extra["fresh_cells"]
        if computed != fresh or cached != out.attempted - fresh:
            out.error(
                f"node computed {computed} / cached {cached} cells; the job "
                f"mix asked for {fresh} fresh / {out.attempted - fresh} hot"
            )
        if traced:
            return  # the untraced run made the in-process recomputation
        from repro.artifacts.runner import MatrixTask, compute_cell
        from repro.harness.experiment import CONFIGS
        from repro.metrics.ledger import result_entry

        rng = random.Random(derive(self.seed, "sample"))
        sample = rng.sample(self.served, min(SERVE_SAMPLE, len(self.served)))
        for (workload, config), digest in sample:
            result, _, _ = compute_cell(MatrixTask(workload, CONFIGS[config]), store=None)
            expected = canonical(result_entry(workload, config, result))
            if hashlib.sha256(expected.encode()).digest() != digest:
                out.failed += 1
                out.error(f"{workload}/{config}: served entry differs from compute_cell")
        out.extra["sampled"] = len(sample)

    def close(self) -> None:
        stack = getattr(self, "stack", None)
        if stack is not None:
            stack.stop()


def _delta(before: dict, after: dict) -> dict:
    return {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if isinstance(value, (int, float))
    }


def _histogram_delta(before: dict, after: dict) -> dict:
    empty = {"count": 0, "sum": 0.0}
    return {
        name: {
            "count": data["count"] - before.get(name, empty)["count"],
            "sum": data["sum"] - before.get(name, empty)["sum"],
        }
        for name, data in after.items()
    }


def _serve_layers(tracer, local_self, local_counts, histograms, client_job_s):
    """Critical-path layer rows for the closed loop.

    One job is in flight at a time, so a job's wall time nests strictly:
    client latency = gateway overhead + node queue wait + node service;
    node service = node-side spans (``_serve_cached`` and its store
    reads) + worker batches + node self;
    worker batches = worker layer self times + batch self.
    """
    def total(name):
        return histograms.get(name, {"sum": 0.0})["sum"]

    node_wait = total("service.job_wait_seconds")
    node_service = total("service.job_service_seconds")
    node_side = sum(local_self.values())
    rows: dict[str, float] = dict(local_self)
    for name, value in tracer.remote_self.items():
        rows[name] = rows.get(name, 0.0) + value
    rows["service.batch_self_s"] = tracer.remote_batch_s - sum(
        tracer.remote_self.values()
    )
    rows["service.node_self_s"] = node_service - node_side - tracer.remote_batch_s
    rows["service.job_wait_seconds"] = node_wait
    rows["cluster.gateway_overhead_s"] = client_job_s - node_wait - node_service
    counts = dict(local_counts)
    for name, value in tracer.remote_counts.items():
        counts[name] = counts.get(name, 0) + value
    return rows, counts


# ----------------------------------------------------------- fuzz-oracle


class FuzzOracle:
    """``run_campaign(CampaignConfig(seed=S, jobs=1))`` for ``seconds``.

    ``chunk_size=1`` makes the campaign call its progress hook after
    every program, which gives per-program latencies; the campaign
    digest does not depend on the chunking.
    """

    name = "fuzz-oracle"

    def setup(self, seed: int, tmp) -> None:
        # Imported here so the import cost lands in setup_s, not the run.
        from repro.fuzz import campaign  # noqa: F401
        from repro.metrics import MetricsRegistry

        self.seed = seed
        self.registry = MetricsRegistry()

    def run(self, seconds: float, work: int | None, tracer) -> Outcome:
        from repro.fuzz.campaign import CampaignConfig, run_campaign

        if work is None:
            config = CampaignConfig(
                seed=self.seed, jobs=1, duration=seconds, chunk_size=1
            )
        else:
            config = CampaignConfig(
                seed=self.seed, jobs=1, iterations=work, chunk_size=1
            )
        out = Outcome()
        if tracer is not None:
            tracer.reset()
        probed = out.speed.sample()
        previous = start = perf_counter()

        def progress(done, total):
            # Per-program latency, then a host-speed sample that the
            # next program's latency and the wall time leave out.
            nonlocal previous
            out.cell_ms.append((perf_counter() - previous) * 1000.0)
            out.speed.maybe_sample()
            previous = perf_counter()

        result = run_campaign(config, metrics=self.registry, progress=progress)
        out.wall_s = perf_counter() - start - (out.speed.spent_s - probed)
        out.speed.sample()
        if work is not None:
            out.cell_ms = []  # one progress call for the whole replay
        out.work = out.programs = out.cells = out.attempted = result.programs
        out.failed = len(result.divergent)
        for divergent in result.divergent[:5]:
            out.error(f"program {divergent.index}: {divergent.divergences[0]}")
        out.x86 = result.trace_records
        out.simulated = result.programs
        out.counters = self.registry.counters()
        out.stats = [result.digest]
        out.extra["campaign_digest"] = result.digest
        return out

    def check(self, out: Outcome, traced: bool) -> None:
        if out.programs < 1:
            out.error("the campaign ran no program")

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Fig6Cold, ServeMixed, FuzzOracle)}
