"""One benchmark process: set up, run and check one workload.

``run.py`` starts this script in a fresh interpreter for every set-up
measurement, timed run and traced run, so no module state (the
runner's trace memo, schedule-template caches, warm imports) carries
over between runs.  It must be started from the root of a checkout; it
imports the program from that checkout's ``src/`` only.

Usage::

    python3 perfbench/child.py --workload fig6-cold --seed 1 --seconds 30 \
        --mode timed --tmp .bench_tmp/x --out .bench_tmp/x/result.json

``--mode setup`` stops after set-up, ``timed`` runs untraced for
``--seconds``, ``traced`` installs the layer wrappers and replays
exactly ``--work`` units.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

# The script's own directory is sys.path[0]; neither module imports the
# program at import time.
import tracer as tracing
from workloads import WORKLOADS


def _import_program(root: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {src}")


def _pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The host-speed probe then measures the CPU that does all the work.
    Unpinned, serve-mixed's client and pool worker ran on either vCPU,
    and four runs of one seed differed by up to 15 % in scaled cells
    served; pinned, by 6 %.  The closed loop keeps one process busy at a
    time, so one CPU serves it as fast as two.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work", type=int)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _pin_to_one_cpu()
    _import_program(root)
    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracing.install(tracer)
        if args.workload == "serve-mixed":
            tracing.install_service_hooks(tracer)

    workload = WORKLOADS[args.workload]()
    result: dict = {}
    try:
        workload.setup(args.seed, args.tmp)
        result["ready_at"] = time.perf_counter()
        if args.mode != "setup":
            out = workload.run(args.seconds, args.work, tracer)
            # Read before check(): its in-process recomputation is the
            # benchmark's work, not the program's footprint.
            own_kb = out.own_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            workload.check(out, tracer is not None)
    finally:
        workload.close()
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    result.update(
        wall_s=out.wall_s,
        work=out.work,
        attempted=out.attempted,
        failed=out.failed,
        errors=out.errors,
        stats=out.stats,
        counters=out.counters,
        extra=out.extra,
        speed=out.speed.summary(),
        # Peak RSS of this process plus that of its largest child (the
        # pool worker, reaped by close()).
        peak_rss_mb=(
            own_kb + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
    )
    if tracer is not None:
        result["layers"] = _traced_layers(out, tracer)
        trace_file = root / ".bench_out" / f"{args.workload}-seed{args.seed}.trace.json"
        trace_file.parent.mkdir(exist_ok=True)
        metadata = {"workload": args.workload, "seed": args.seed}
        spans = tracing.span_dicts(tracer)
        trace_file.write_text(json.dumps(tracing.chrome_trace(spans, metadata)))
        result["trace_file"] = str(trace_file.relative_to(root))
        result["spans"] = len(spans)
        result["spans_without_trace_id"] = sum(s["trace_id"] is None for s in spans)
    else:
        result["end_to_end"] = out.end_to_end(out.speed.factor())
        result["end_to_end_host"] = out.end_to_end()
    args.out.write_text(json.dumps(result))
    return 0


def _traced_layers(out, tracer) -> dict:
    """Layer table and per-layer values of the traced run."""
    if out.layer_rows is not None:  # serve-mixed: composed across processes
        rows, counts = out.layer_rows, out.extra.pop("layer_values")
    else:
        rows, counts = tracer.local_totals()
    table = tracing.layer_table(rows, out.wall_s)
    values = dict(rows)
    values["x86.instructions"] = counts.get("x86.instructions", 0)
    values["trace.inject_calls"] = counts.get("trace.inject_s", 0)
    values["replay.frames_built"] = counts.get("replay.frames_built", 0)
    hits = values["store.hits"] = counts.get("store.hits", 0)
    misses = values["store.misses"] = counts.get("store.misses", 0)
    values["store.writes"] = counts.get("store.writes", 0)
    values["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values.update(out.counters)
    for name, data in out.extra.get("histograms", {}).items():
        if name == "service.batch_size":
            values[name] = data["sum"] / data["count"] if data["count"] else 0.0
        else:
            values[name] = data["sum"]
    fidelity = out.extra.get("fidelity")
    if fidelity is not None:
        for name, value in fidelity["model"].items():
            values[f"fidelity.{name}"] = value
    values["unattributed_s"] = table["unattributed_s"]
    values["traced_wall_s"] = out.wall_s
    return {"table": table, "values": values}


if __name__ == "__main__":
    sys.exit(main())
