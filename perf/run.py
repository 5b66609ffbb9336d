"""End-to-end benchmark of the simulator, measured from outside it.

    python3 perf/run.py                       # 4 workloads x 5 interleaved reps
    python3 perf/run.py --trace               # + one cProfile'd rep per workload
    python3 perf/run.py --workload thrash_small --seed 0 --seconds 25 --trace 0
    python3 perf/run.py --seed 1 --pin        # (re)write perf/digests.json

Each (workload, rep) runs ``perf/worker.py`` in a fresh interpreter.  The
load is a closed loop from this single client: one child at a time, the
next starting when the previous exits, reps of the workloads interleaved
in rotating order.  Every child gets one BLAS thread, no
``REPRO_SANITIZE``/``REPRO_FAULT``, and its own empty ``REPRO_CACHE_DIR``,
so nothing cached on the host leaks into a measurement.

Host times are reported at a fixed reference speed: each raw timer is
divided by the slowdown that the child's ``HostSpeed`` thread measured
while it ran, which takes out most of the noise other tenants of a
shared machine add (see perf/README.md, "Host noise").

Every simulated result is checked against ``perf/digests.json`` (seeds
pinned there) or, for any other seed, against the other reps of the run.
A cell that raises, degrades to ``FAILED`` or changes its digest counts
as failed, and any failed cell makes the exit status 1.

With ``--workload`` naming one workload, the last line of stdout is one
JSON object: ``correct``, ``attempted``/``failed`` (cells) and
``metrics`` -- the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` its ``per_layer`` metrics.  ``--seconds`` bounds the timed
reps: another rep starts only while it is expected to end within the
budget, and at least one always runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
WORKER = PERF / "worker.py"
DIGESTS = PERF / "digests.json"
#: rep working directories (cache, TMPDIR, result file) live here, inside
#: the checkout, and are removed after each rep
SCRATCH = ROOT / ".perf_tmp"
REPS = 5
REP_TIMEOUT_S = 600


@dataclass(frozen=True)
class Workload:
    """What one rep runs: named cells through ``ExperimentRunner.run``,
    or (``report``) the whole ``run_all`` + ``render_markdown`` sweep."""

    name: str
    scale: str
    cells: tuple = ()
    report: bool = False


def _cells(*benches: str) -> tuple:
    return tuple(
        (bench, config)
        for bench in benches
        for config in ("baseline", "partition_sharing")
    )


# Why each workload exists is recorded in BENCHMARK.json and README.md:
# thrash_small is translation-bound (the paper's target), reuse_small the
# no-change control for TLB work, graph_cold_tiny workload generation,
# report_micro the full sweep's per-cell fixed costs.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("thrash_small", "small", _cells("atax", "mvt")),
        Workload("reuse_small", "small", _cells("gemm", "3dconv")),
        Workload("graph_cold_tiny", "tiny", _cells("bfs", "pagerank")),
        Workload("report_micro", "micro", report=True),
    )
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# One rep
# ---------------------------------------------------------------------- #
@dataclass
class Rep:
    """One child process: its wall time and the worker's report."""

    wall_s: float
    #: worker output (see perf/worker.py); None when the child failed
    data: Optional[dict]
    attempted: int
    error: str = ""
    #: cells that raised, degraded or mismatched a digest (check_digests)
    failed: int = 0

    @property
    def digests(self) -> dict:
        return self.data["digests"] if self.data is not None else {}

    def timers(self) -> Dict[str, float]:
        """Host seconds at the reference speed: each raw timer divided by
        the host's slowdown while it ran (see perf/worker.py HostSpeed)."""
        slowdown = self.data["slowdown"]
        timers = {
            key: self.data[key] / slowdown[key]
            for key in ("import_s", "generate_s", "build_s", "gpu_run_s")
        }
        timers["wall_s"] = self.wall_s / slowdown["rep"]
        return timers

    def end_to_end(self) -> Dict[str, float]:
        t = self.timers()
        return {
            "sim_cycles_per_s": self.data["cycles"] / t["gpu_run_s"],
            "sim_events_per_s": (
                self.data["counts"]["engine.events"] / t["gpu_run_s"]
            ),
            "wall_s": t["wall_s"],
            "setup_s": t["import_s"] + t["generate_s"] + t["build_s"],
            "peak_rss_mb": self.data["peak_rss_mb"],
        }


def _child_env(tmp: Path, tree: Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_SANITIZE", "REPRO_FAULT", "PYTHONPATH")
    }
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(tree / "src"),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        TMPDIR=str(tmp),
    )
    return env


def _spawn(job: dict, tree: Path):
    """Run the worker on ``job`` in a fresh scratch directory.

    Returns (wall seconds, worker output or None, error text)."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rep-", dir=SCRATCH))
    out = tmp / "result.json"
    if job:
        job = dict(job, out=str(out))
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=tmp,
            env=_child_env(tmp, tree),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return wall, None, f"worker exited {proc.returncode}: {tail[0]}"
        data = json.loads(out.read_text()) if job else None
        return wall, data, ""
    except subprocess.TimeoutExpired:
        return float(REP_TIMEOUT_S), None, f"worker timed out after {REP_TIMEOUT_S}s"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def warm_up(tree: Path = ROOT) -> None:
    """Untimed import-only child: compiles ``.pyc``, warms the file cache."""
    _, _, error = _spawn({}, tree)
    if error:
        raise RuntimeError(f"warm-up failed: {error}")


def run_rep(
    workload: Workload, seed: int, traced: bool = False, tree: Path = ROOT
) -> Rep:
    job = {"workload": asdict(workload), "seed": seed, "profile": traced}
    wall, data, error = _spawn(job, tree)
    attempted = data["attempted"] if data is not None else max(len(workload.cells), 1)
    return Rep(wall, data, attempted, error=error)


def check_digests(
    workload: Workload, reps: Sequence[Rep], expected: Optional[dict]
) -> None:
    """Set ``rep.failed`` for every rep.

    ``expected`` is the pinned ``{cell: sha256}`` of this (seed,
    workload); ``None`` means unpinned, and the first rep that ran
    becomes the reference every other rep must match.  For the report
    workload one markdown digest covers every cell, so a mismatch fails
    them all.
    """
    for rep in reps:
        if rep.data is None:
            rep.failed = rep.attempted
            continue
        if expected is None:
            expected = rep.digests
        mismatched = {
            key
            for key in expected.keys() | rep.digests.keys()
            if rep.digests.get(key) != expected.get(key)
        }
        if workload.report and mismatched:
            rep.failed = rep.attempted
        else:
            rep.failed = len(mismatched | set(rep.data["failed_cells"]))


# ---------------------------------------------------------------------- #
# A workload's reps and its metrics
# ---------------------------------------------------------------------- #
@dataclass
class WorkloadRun:
    workload: Workload
    #: untraced reps in the order they ran
    reps: List[Rep] = field(default_factory=list)
    traced: Optional[Rep] = None

    def all_reps(self) -> List[Rep]:
        return self.reps + ([self.traced] if self.traced is not None else [])

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.all_reps())

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.all_reps())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(not rep.error for rep in self.all_reps())

    def measured(self) -> List[Rep]:
        return [rep for rep in self.reps if rep.data is not None]

    def samples(self) -> Dict[str, List[float]]:
        """Per-rep end-to-end values, in run order."""
        out: Dict[str, List[float]] = {}
        for rep in self.measured():
            for name, value in rep.end_to_end().items():
                out.setdefault(name, []).append(value)
        return out

    def end_to_end(self) -> Dict[str, dict]:
        summary = {}
        for name, values in self.samples().items():
            q1, q3 = quartiles(values)
            summary[name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "n": len(values),
            }
        return summary

    def per_layer(self) -> Dict[str, float]:
        """Traced split, untraced boundary timers (medians) and counts."""
        reps, traced = self.measured(), self.traced
        if not reps or traced is None or traced.data is None:
            return {}

        def med(fn) -> float:
            return statistics.median(fn(rep.timers(), rep) for rep in reps)

        slowdown = traced.data["slowdown"]["rep"]
        layers = {k: v / slowdown for k, v in traced.data["layers"].items()}
        profiled = sum(layers.values())
        out: Dict[str, float] = {}
        for layer, self_s in layers.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.self_share"] = self_s / profiled
        out["trace_overhead"] = traced.timers()["wall_s"] / med(lambda t, r: t["wall_s"])
        out["host.slowdown"] = med(lambda t, r: r.data["slowdown"]["rep"])
        out["host.raw_wall_s"] = med(lambda t, r: r.wall_s)
        out["import_s"] = med(lambda t, r: t["import_s"])
        out["workloads.generate_s"] = med(lambda t, r: t["generate_s"])
        out["workloads.generate_calls"] = reps[0].data["generate_calls"]
        out["workloads.distinct_kernels"] = reps[0].data["distinct_kernels"]
        out["system.build_s"] = med(lambda t, r: t["build_s"])
        out["arch.gpu_run_s"] = med(lambda t, r: t["gpu_run_s"])
        counts = reps[0].data["counts"]
        out["engine.host_ns_per_event"] = (
            out["arch.gpu_run_s"] / counts["engine.events"] * 1e9
        )
        out["experiments.cells"] = reps[0].attempted
        out["experiments.orchestration_s"] = med(
            lambda t, r: t["wall_s"] - t["import_s"] - t["generate_s"]
            - t["build_s"] - t["gpu_run_s"]
        )
        out.update(counts)
        out["translation.host_ns_per_l1_access"] = (
            layers["translation"] / counts["translation.l1_tlb_accesses"] * 1e9
        )
        out["memory.host_ns_per_packet"] = (
            layers["memory"] / counts["memory.noc_packets"] * 1e9
        )
        return out

    def to_dict(self, units: Dict[str, str]) -> dict:
        e2e = self.end_to_end()
        for name, summary in e2e.items():
            summary["unit"] = units[name]
        layer = self.per_layer()
        first = next((rep for rep in self.all_reps() if rep.data is not None), None)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "cell_failure_rate": self.failed / self.attempted,
            "samples": self.samples(),
            "end_to_end": e2e,
            "per_layer": (
                {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
                if layer
                else None
            ),
            "digests": first.digests if first is not None else {},
            "errors": sorted(
                {rep.error for rep in self.all_reps() if rep.error}
                | {e for rep in self.all_reps() if rep.data for e in rep.data["errors"]}
            ),
        }


def measure(
    workloads: Sequence[Workload],
    seed: int,
    seconds: Optional[float] = None,
    trace: bool = False,
    tree: Path = ROOT,
    reps: int = REPS,
) -> Dict[str, WorkloadRun]:
    """Closed-loop, interleaved reps: ``reps`` rounds, or with ``seconds``
    as many rounds as are expected to fit in ``seconds`` per workload.
    Round r starts at workload r mod n.  Traced reps run last."""
    runs = {w.name: WorkloadRun(w) for w in workloads}
    budget = None if seconds is None else seconds * len(workloads)
    start = time.perf_counter()
    last_round = 0.0
    for r in itertools.count():
        elapsed = time.perf_counter() - start
        if budget is None and r == reps:
            break
        if budget is not None and r > 0 and elapsed + last_round > budget:
            break
        round_start = time.perf_counter()
        k = r % len(workloads)
        for workload in list(workloads[k:]) + list(workloads[:k]):
            rep = run_rep(workload, seed, tree=tree)
            log(f"[perf] {workload.name} rep {r + 1}: {rep.wall_s:.2f}s"
                + (f" ERROR {rep.error}" if rep.error else ""))
            runs[workload.name].reps.append(rep)
        last_round = time.perf_counter() - round_start
    if trace:
        for workload in workloads:
            rep = run_rep(workload, seed, traced=True, tree=tree)
            log(f"[perf] {workload.name} traced rep: {rep.wall_s:.2f}s"
                + (f" ERROR {rep.error}" if rep.error else ""))
            runs[workload.name].traced = rep
    return runs


# ---------------------------------------------------------------------- #
# Output
# ---------------------------------------------------------------------- #
def _git_sha(tree: Path) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_info(tree: Path = ROOT) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(tree),
    }


def document(runs: Dict[str, WorkloadRun], seed: int, units: Dict[str, str],
             tree: Path = ROOT) -> dict:
    """The ``--out`` JSON: every sample, summary and digest of a run."""
    return {
        "schema": "perf-run/1",
        "host": host_info(tree),
        "seed": seed,
        "workloads": {name: run.to_dict(units) for name, run in runs.items()},
    }


def format_table(doc: dict) -> str:
    lines = [
        f"{'workload':16s} {'metric':34s} {'unit':9s} {'median':>12s} "
        f"{'q1':>12s} {'q3':>12s} {'n':>3s}"
    ]
    for name, wl in doc["workloads"].items():
        for metric, s in wl["end_to_end"].items():
            lines.append(
                f"{name:16s} {metric:34s} {s['unit']:9s} {s['median']:12.6g} "
                f"{s['q1']:12.6g} {s['q3']:12.6g} {s['n']:3d}"
            )
        lines.append(
            f"{name:16s} {'cell_failure_rate':34s} {'fraction':9s} "
            f"{wl['cell_failure_rate']:12.6g} {'':>12s} {'':>12s} "
            f"{wl['attempted']:3d}  ({wl['failed']} of {wl['attempted']} cells failed)"
        )
        for metric, v in (wl["per_layer"] or {}).items():
            lines.append(
                f"{name:16s} {metric:34s} {v['unit']:9s} {v['value']:12.6g}"
            )
        for error in wl["errors"]:
            lines.append(f"{name:16s} ERROR {error}")
    return "\n".join(lines)


def chrome_trace(spans: Dict[str, list]) -> dict:
    events = []
    for pid, (workload, rows) in enumerate(spans.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": workload}})
        for name, start, end, parent, cell in rows:
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"cell": cell, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_spans(runs: Dict[str, WorkloadRun], prefix: Path) -> None:
    spans = {
        name: run.traced.data["spans"]
        for name, run in runs.items()
        if run.traced is not None and run.traced.data is not None
    }
    if not spans:
        return
    prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.spans.json").write_text(json.dumps(spans) + "\n")
    Path(f"{prefix}.chrome.json").write_text(json.dumps(chrome_trace(spans)) + "\n")


def load_digests(path: Path) -> dict:
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def pin_digests(path: Path, seed: int, runs: Dict[str, WorkloadRun]) -> None:
    pinned = load_digests(path)
    for name, run in runs.items():
        pinned.setdefault(str(seed), {})[name] = run.reps[0].digests
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def build_parser(workloads: Dict[str, Workload]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", action="append", choices=sorted(workloads),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"time budget per workload (default: {REPS} reps)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one cProfile'd rep per workload and report "
                             "the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every sample and summary as JSON here")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's digests for --seed in "
                             "perf/digests.json")
    return parser


def main(
    argv: Optional[Sequence[str]] = None,
    workloads: Dict[str, Workload] = WORKLOADS,
    digests_path: Path = DIGESTS,
) -> int:
    args = build_parser(workloads).parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"perf: no simulator source under {ROOT / 'src'}; "
            f"run from a full checkout")
        return 2
    spec = load_spec()
    units = metric_units(spec)
    selected = [workloads[name] for name in args.workload or workloads]
    pinned = {} if args.pin else load_digests(digests_path).get(str(args.seed), {})

    warm_up()
    runs = measure(selected, args.seed, args.seconds, bool(args.trace))
    for name, run in runs.items():
        check_digests(run.workload, run.all_reps(), pinned.get(name))
    correct = all(run.correct for run in runs.values())

    doc = document(runs, args.seed, units)
    print(format_table(doc))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.trace:
        prefix = args.out.with_suffix("") if args.out is not None else SCRATCH / "trace"
        write_spans(runs, prefix)
    if args.pin:
        if not correct:
            log("perf: not pinning: a cell failed or reps disagree")
        else:
            pin_digests(digests_path, args.seed, runs)
            log(f"perf: pinned seed {args.seed} in {digests_path}")
    if len(runs) == 1:
        (wl,) = doc["workloads"].values()
        metrics = (
            wl["per_layer"] or {}
            if args.trace
            else {k: {"value": s["median"], "unit": s["unit"]}
                  for k, s in wl["end_to_end"].items()}
        )
        print(json.dumps({
            "correct": correct,
            "attempted": wl["attempted"],
            "failed": wl["failed"],
            "metrics": metrics,
        }))
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # not empty (spans written there) or already gone
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
