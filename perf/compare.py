"""Verdicts on two benchmark runs, per (end-to-end metric, workload).

    python3 perf/compare.py BASE.json NEW.json
    python3 perf/compare.py --against <git-rev> [--pairs 10] [--workload W ...]

The first form compares two ``perf/run.py --out`` files, pairing their
reps in run order.  The second exports ``<git-rev>`` with ``git archive``
and measures it against this checkout on the same host, with this
checkout's benchmark code: ``--pairs`` rounds, each running one rep of
each side per workload, alternating which side runs first.

Verdicts follow the benchmark's rule:

* gain: the new side wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the base's IQR;
* unresolved: either side's IQR, as a share of its median, is wider than
  the metric's bound in ``BENCHMARK.json`` -- unless every new sample
  beats every base sample;
* regression: the new median is worse than the base median by more than
  the bound;
* no change: otherwise.

A workload where the new side fails more cells than the base is a
regression whatever its timings say.  Exit status: 0 when nothing
regressed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

import run as bench


def _spread(values: Sequence[float]) -> float:
    """IQR of ``values`` as a share of their median."""
    q1, q3 = bench.quartiles(values)
    return (q3 - q1) / abs(statistics.median(values))


def wins(base: Sequence[float], new: Sequence[float], better: str) -> int:
    """Pairs (in order) where the new sample is strictly better."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """The benchmark's rule for one (metric, workload); samples in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    q1, q3 = bench.quartiles(base)
    pairs = min(len(base), len(new))
    if (
        10 * wins(base, new, better) >= 9 * pairs
        and sign * (new_median - base_median) > q3 - q1
    ):
        return "gain"
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(_spread(base), _spread(new)) > bound and not all_better:
        return "unresolved"
    if sign * (base_median - new_median) > bound * abs(base_median):
        return "regression"
    return "no change"


def compare(base_doc: dict, new_doc: dict, spec: dict) -> List[dict]:
    rows = []
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            continue
        for metric in spec["end_to_end"]:
            b = base["samples"].get(metric["name"])
            n = new["samples"].get(metric["name"])
            if not b or not n:
                continue
            rows.append({
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "base": statistics.median(b),
                "new": statistics.median(n),
                "base_iqr": bench.quartiles(b),
                "new_iqr": bench.quartiles(n),
                "wins": wins(b, n, metric["better"]),
                "pairs": min(len(b), len(n)),
                "verdict": verdict(b, n, metric["better"], metric["bound"]),
            })
        rows.append({
            "workload": name,
            "metric": "failed_cells",
            "unit": "count",
            "base": base["failed"],
            "new": new["failed"],
            "verdict": "regression" if new["failed"] > base["failed"] else "no change",
        })
        if base["digests"] != new["digests"]:
            rows.append({"workload": name, "metric": "digests", "unit": "",
                         "base": "", "new": "", "verdict": "differ"})
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':>36s} "
        f"{'new median [q1, q3]':>36s} {'wins':>6s}  verdict"
    ]
    for row in rows:
        if "base_iqr" in row:
            base = "{:.6g} [{:.6g}, {:.6g}]".format(row["base"], *row["base_iqr"])
            new = "{:.6g} [{:.6g}, {:.6g}]".format(row["new"], *row["new_iqr"])
            won = f"{row['wins']}/{row['pairs']}"
        else:
            base, new, won = str(row["base"]), str(row["new"]), ""
        lines.append(
            f"{row['workload']:16s} {row['metric']:18s} {base:>36s} {new:>36s} "
            f"{won:>6s}  {row['verdict']}"
        )
    return "\n".join(lines)


def export(rev: str, dest: Path) -> Path:
    """Write the files of ``rev`` under ``dest`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(bench.ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def against(
    rev: str, workloads: Sequence[bench.Workload], pairs: int, seed: int,
    units: Dict[str, str],
) -> tuple:
    """Interleaved A/B reps of ``rev`` (base) and this checkout (new)."""
    bench.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rev-", dir=bench.SCRATCH))
    try:
        base_tree = export(rev, tmp)
        sides = {"base": base_tree, "new": bench.ROOT}
        runs = {side: {w.name: bench.WorkloadRun(w) for w in workloads}
                for side in sides}
        for tree in sides.values():
            bench.warm_up(tree)
        for i in range(pairs):
            order = ["base", "new"] if i % 2 == 0 else ["new", "base"]
            for workload in workloads:
                for side in order:
                    rep = bench.run_rep(workload, seed, tree=sides[side])
                    bench.log(f"[compare] pair {i + 1} {workload.name} {side}: "
                              f"{rep.wall_s:.2f}s"
                              + (f" ERROR {rep.error}" if rep.error else ""))
                    runs[side][workload.name].reps.append(rep)
        docs = []
        for side, tree in sides.items():
            for run in runs[side].values():
                bench.check_digests(run.workload, run.reps, None)
            docs.append(bench.document(runs[side], seed, units, tree))
        docs[0]["host"]["git_sha"] = rev
        return tuple(docs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf/compare.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("files", nargs="*", type=Path, metavar="BASE.json NEW.json")
    parser.add_argument("--against", metavar="REV",
                        help="measure git revision REV against this checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with --against: write both sides' runs here")
    args = parser.parse_args(argv)
    spec = bench.load_spec()
    if args.against:
        if args.files:
            parser.error("give either BASE.json NEW.json or --against")
        if args.pairs < 10:
            parser.error("--pairs must be at least 10")
        units = bench.metric_units(spec)
        workloads = [bench.WORKLOADS[n] for n in args.workload or bench.WORKLOADS]
        base_doc, new_doc = against(
            args.against, workloads, args.pairs, args.seed, units
        )
        if args.out is not None:
            args.out.write_text(json.dumps(
                {"base": base_doc, "new": new_doc}, indent=2, sort_keys=True
            ) + "\n")
    else:
        if len(args.files) != 2:
            parser.error("give BASE.json NEW.json, or --against REV")
        base_doc, new_doc = (json.loads(p.read_text()) for p in args.files)
    rows = compare(base_doc, new_doc, spec)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
