"""Pinned simulator output: a SHA-256 over paper-workload cells.

Every speed change to the simulator must keep ``SimResult``s cycle-
identical.  This digest pins two short paper workloads under the four
Figure 6 configurations; a change that moves a single cycle, retire,
bin count or reduction figure fails here.  Re-pin only for a deliberate
model change, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.harness import CONFIGS, run_experiment
from repro.workloads import build_workload

WORKLOADS = ("eon", "vortex")
CELL_CONFIGS = ("IC", "TC", "RP", "RPO")
SEED = 1

PINNED = "6481c0486c7713180e9b5c69178ebf3323f7e67a30c314c2ae6219724b6fe428"


def canonical_cell(workload: str, config_name: str, result) -> dict:
    """One cell as plain data: the whole ``SimResult`` plus the ratios."""
    return {
        "workload": workload,
        "config": config_name,
        "sim": asdict(result.sim),
        "uops_per_x86": result.uops_per_x86,
        "uop_reduction": result.uop_reduction,
        "load_reduction": result.load_reduction,
    }


def cells_digest(cells: list[dict]) -> str:
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_simulator_output_digest_is_pinned():
    cells = []
    for workload in WORKLOADS:
        trace = build_workload(workload, seed=SEED)
        for name in CELL_CONFIGS:
            result = run_experiment(trace, CONFIGS[name], workload_name=workload)
            cells.append(canonical_cell(workload, name, result))
    assert cells_digest(cells) == PINNED
