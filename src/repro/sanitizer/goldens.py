"""Golden-result regression gate for ``repro check``.

A golden file (``tools/goldens/<scale>.json``) pins the headline
architectural metrics of a small (benchmark × config) matrix.  The
simulator is deterministic, so any drift — an accidental timing change,
a broken eviction path, a stats regression — shows up as a golden
mismatch long before it would be visible in a figure.

The compare is tolerance-aware (relative, per file) so a future
intentionally-approximate metric can loosen its gate without losing it;
the shipped tolerance is effectively exact.  ``repro check
--update-goldens`` regenerates the file after a *reviewed, intentional*
result change — the diff of the golden file then documents the drift in
the PR itself.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

GOLDEN_KIND = "repro-goldens"
GOLDEN_VERSION = 1

#: RunResult fields pinned per cell (architectural, deterministic)
GOLDEN_METRICS = (
    "cycles",
    "l1_tlb_hits",
    "l1_tlb_accesses",
    "l2_tlb_hits",
    "l2_tlb_accesses",
    "walks",
    "far_faults",
    "tbs_completed",
)

#: default golden matrix: the paper's mechanism spine at minimal cost,
#: plus the spec-resolved translation-zoo mechanisms
GOLDEN_BENCHMARKS = ("bfs", "atax")
GOLDEN_CONFIGS = (
    "baseline",
    "sched",
    "partition",
    "partition_sharing",
    "compression",
    "comp_ours",
    "dead_entry",
    "contiguity",
    "mosaic",
)

#: relative tolerance written into fresh golden files (exact-ish: the
#: simulator is deterministic; this only absorbs float serialization)
DEFAULT_TOLERANCE = 1e-9


def default_golden_path(scale: str, root: Optional[str] = None) -> str:
    """``tools/goldens/<scale>.json`` relative to the repo root."""
    if root is None:
        root = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "..")
        )
    return os.path.join(root, "tools", "goldens", f"{scale}.json")


def collect_cells(
    scale: str,
    seed: int,
    benchmarks: Tuple[str, ...] = GOLDEN_BENCHMARKS,
    configs: Tuple[str, ...] = GOLDEN_CONFIGS,
) -> Dict[str, Dict[str, float]]:
    """Simulate the golden matrix and extract the pinned metrics."""
    from ..experiments.runner import ExperimentRunner

    runner = ExperimentRunner(
        scale=scale, seed=seed, benchmarks=benchmarks, sanitize="off"
    )
    cells: Dict[str, Dict[str, float]] = {}
    for benchmark in benchmarks:
        for config in configs:
            result = runner.run(benchmark, config)
            cells[f"{benchmark}:{config}"] = {
                metric: getattr(result, metric) for metric in GOLDEN_METRICS
            }
    return cells


def load_goldens(path: str) -> Dict:
    """Load + validate a golden file (ValueError on a foreign file).

    Reads through the storage shim (layer ``goldens``) so an injected
    EIO surfaces exactly like a real media error: the gate fails with
    a diagnostic instead of silently passing.
    """
    from ..engine.storage import get_storage

    payload = json.loads(
        get_storage().read_bytes(path, "goldens").decode("utf-8")
    )
    if payload.get("kind") != GOLDEN_KIND:
        raise ValueError(f"{path!r} is not a golden file (kind mismatch)")
    if payload.get("version") != GOLDEN_VERSION:
        raise ValueError(
            f"{path!r} has golden version {payload.get('version')}, "
            f"expected {GOLDEN_VERSION}"
        )
    return payload


def write_goldens(
    path: str, scale: str, seed: int, cells: Dict[str, Dict[str, float]]
) -> str:
    from ..engine.atomic import atomic_write

    payload = {
        "kind": GOLDEN_KIND,
        "version": GOLDEN_VERSION,
        "scale": scale,
        "seed": seed,
        "tolerance": DEFAULT_TOLERANCE,
        "cells": {key: cells[key] for key in sorted(cells)},
    }
    # atomic: the regression gate must never see a half-written pin file
    return atomic_write(
        path, json.dumps(payload, indent=2) + "\n", layer="goldens"
    )


def _within(current: float, golden: float, tolerance: float) -> bool:
    if current == golden:
        return True
    scale = max(abs(current), abs(golden))
    return abs(current - golden) <= tolerance * scale


def compare_goldens(
    cells: Dict[str, Dict[str, float]], payload: Dict
) -> List[str]:
    """Mismatch descriptions (empty list == gate passes)."""
    tolerance = float(payload.get("tolerance", DEFAULT_TOLERANCE))
    golden_cells = payload.get("cells", {})
    problems: List[str] = []
    for key in sorted(set(golden_cells) | set(cells)):
        if key not in cells:
            problems.append(f"{key}: golden cell not simulated")
            continue
        if key not in golden_cells:
            problems.append(f"{key}: no golden recorded (stale golden file?)")
            continue
        for metric in GOLDEN_METRICS:
            current = cells[key].get(metric)
            golden = golden_cells[key].get(metric)
            if golden is None:
                problems.append(f"{key}.{metric}: missing from golden file")
            elif current is None or not _within(current, golden, tolerance):
                problems.append(
                    f"{key}.{metric}: {current} != golden {golden} "
                    f"(tolerance {tolerance:g})"
                )
    return problems


def check_goldens(
    scale: str, seed: int, path: Optional[str] = None
) -> Tuple[bool, List[str]]:
    """Run the golden gate: (passed, human-readable lines).

    A missing golden file fails the gate with a pointer to
    ``--update-goldens`` — a silently-skipped gate is no gate.
    """
    path = path or default_golden_path(scale)
    if not os.path.exists(path):
        return False, [
            f"no golden file for scale {scale!r} at {path}",
            "record one with: repro check --update-goldens "
            f"--scale {scale}",
        ]
    try:
        payload = load_goldens(path)
    except (ValueError, OSError) as exc:
        return False, [f"unreadable golden file {path}: {exc}"]
    if payload.get("scale") != scale or payload.get("seed") != seed:
        return False, [
            f"golden file {path} pins scale={payload.get('scale')!r} "
            f"seed={payload.get('seed')}, but the gate ran with "
            f"scale={scale!r} seed={seed}"
        ]
    cells = collect_cells(scale, seed)
    problems = compare_goldens(cells, payload)
    if problems:
        return False, problems
    return True, [
        f"{len(cells)} cells x {len(GOLDEN_METRICS)} metrics match {path}"
    ]
