"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``
with its unit and sample count; ``--trace 1`` replays one untraced
run's work with layer wrappers installed and reports every per-layer
metric, the layer table (rows plus ``unattributed_s`` sum to the traced
wall time), the tracing overhead against the median of three untraced
runs of that work, and writes the spans as Chrome trace-event JSON under
``.bench_out/``.  Each measured run and each set-up measurement is a
fresh interpreter (``child.py``) with an empty temporary store under
``.bench_tmp/``, removed afterwards.  End-to-end times and rates are
scaled to a reference host speed (``hostspeed.py``); the host figures
are in the context line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command
exits non-zero without that line when it cannot run at all (no
``src/repro`` in the working directory, a crashed child).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("fig6-cold", "serve-mixed", "fuzz-oracle")
#: Set-ups measured per untraced run (the timed child's own included).
SETUP_REPEATS = 5
#: Runs made by ``--trace 1``: one traced, the rest untraced.
TRACED_RUNS = 4
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _child(root: Path, tmp: Path, workload: str, seed: int, seconds: float,
           mode: str, work: int | None = None) -> dict:
    """Run ``child.py`` once; return its result with ``setup_s`` added."""
    run_dir = tmp / f"{mode}-{time.perf_counter_ns()}"
    run_dir.mkdir(parents=True)
    out = run_dir / "result.json"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--tmp", str(run_dir), "--out", str(out),
    ]
    if work is not None:
        command += ["--work", str(work)]
    env = dict(os.environ)
    # Belt and braces: nothing may fall back to the user's cache.
    env["REPRO_UOPT_CACHE_DIR"] = str(run_dir / "default-cache")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=root, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload} {mode} run failed (exit {proc.returncode})")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready_at"] - start
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def run_untraced(root, tmp, workload, seed, seconds) -> dict:
    main = _child(root, tmp, workload, seed, seconds, "timed")
    setups = [main] + [
        _child(root, tmp, workload, seed, seconds, "setup")
        for _ in range(SETUP_REPEATS - 1)
    ]
    metrics = dict(main["end_to_end"])
    # Set-up is scaled with the timed run's host-speed factor: the set-ups
    # run within seconds of it, and a few probes around one set-up
    # tracked the host worse than the run's hundred or more samples.
    setup_host_s = statistics.median(s["setup_s"] for s in setups)
    metrics["setup_s"] = (setup_host_s * main["speed"]["factor"], len(setups))
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], 1)
    return {
        "metrics": metrics,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "errors": main["errors"],
        "details": {"work": main["work"], "wall_s": main["wall_s"],
                    "host_speed": main["speed"],
                    "end_to_end_host": main["end_to_end_host"],
                    "setups_host_s": [s["setup_s"] for s in setups],
                    **main["extra"]},
    }


def run_traced(root, tmp, workload, seed, seconds) -> dict:
    """Untraced runs of one amount of work around a traced replay of it.

    The first untraced run fixes the work; the traced run and the other
    untraced runs replay exactly that work, so the tracing overhead is
    the traced wall minus the median untraced wall.  Each run measures
    ``seconds / TRACED_RUNS`` so that all of them fit in one command.
    """
    share = seconds / TRACED_RUNS
    untraced = [_child(root, tmp, workload, seed, share, "timed")]
    work = untraced[0]["work"]
    traced = _child(root, tmp, workload, seed, share, "traced", work)
    untraced += [
        _child(root, tmp, workload, seed, share, "timed", work)
        for _ in range(TRACED_RUNS - 2)
    ]
    errors = [e for run in (*untraced, traced) for e in run["errors"]]
    for index, run in enumerate(untraced[1:], 2):
        if run["stats"] != untraced[0]["stats"]:
            errors.append(f"untraced run {index} of the same work differs from run 1")
    if traced["stats"] != untraced[0]["stats"]:
        mismatched = sum(
            a != b for a, b in zip(traced["stats"], untraced[0]["stats"])
        ) + abs(len(traced["stats"]) - len(untraced[0]["stats"]))
        errors.append(
            f"traced run's simulated statistics differ from the untraced run "
            f"in {mismatched} of {len(untraced[0]['stats'])} records"
        )
    untraced_walls = [run["wall_s"] for run in untraced]
    untraced_wall = statistics.median(untraced_walls)
    layers = traced["layers"]
    values = dict(layers["values"])
    values["untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    table = dict(layers["table"], overhead_s=values["trace.overhead_s"],
                 untraced_wall_s=untraced_wall, untraced_walls_s=untraced_walls)
    layers_file = root / ".bench_out" / f"{workload}-seed{seed}.layers.json"
    layers_file.write_text(json.dumps(table, indent=1))
    samples = {"untraced_wall_s": len(untraced), "trace.overhead_s": len(untraced)}
    return {
        "metrics": {name: (value, samples.get(name, 1))
                    for name, value in values.items()},
        "attempted": sum(run["attempted"] for run in (*untraced, traced)),
        "failed": sum(run["failed"] for run in (*untraced, traced)),
        "errors": errors,
        "details": {"work": work, "layer_table": table,
                    "trace_file": traced["trace_file"],
                    "spans": traced["spans"],
                    "spans_without_trace_id": traced["spans_without_trace_id"]},
    }


def _commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _print_table(workload: str, metrics: dict, units: dict) -> None:
    print(f"== {workload}")
    for name in units:
        if name in metrics:
            value, samples = metrics[name]
            print(f"  {name:32s} {value:16.6g} {units[name]:10s} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark.")
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    names = NAMES if args.workload == "all" else (args.workload,)

    tmp = root / ".bench_tmp" / f"run-{os.getpid()}"
    reports = {}
    try:
        for workload in names:
            runner = run_traced if args.trace else run_untraced
            reports[workload] = runner(root, tmp, workload, args.seed, seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = True
    attempted = failed = 0
    metrics = {}
    for workload, report in reports.items():
        _print_table(workload, report["metrics"], units)
        fidelity = report["details"].get("fidelity")
        if fidelity is not None:
            print("  fidelity (reported, not gated; " + fidelity["note"] + "):")
            for name, value in fidelity["model"].items():
                print(f"    {name:18s} model {value:+.3f}  paper "
                      f"{fidelity['paper'][name]:+.3f}  error {fidelity['error'][name]:+.3f}")
        for error in report["errors"]:
            print(f"  ERROR {error}")
        correct = correct and not report["errors"] and report["failed"] == 0
        attempted += report["attempted"]
        failed += report["failed"]
        prefix = "" if len(reports) == 1 else f"{workload}/"
        for name, unit in units.items():
            value, _ = report["metrics"].get(name, (0, 0))
            metrics[prefix + name] = {"value": value, "unit": unit}
    context = {
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "details": {w: r["details"] for w, r in reports.items()},
    }
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
