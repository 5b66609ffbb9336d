"""Tests of the benchmark itself, on micro workloads defined here.

Run with ``python3 -m pytest perf/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run as bench

MICRO = bench.Workload(
    "micro_test", "micro", (("nw", "baseline"), ("nw", "partition_sharing"))
)
#: bfs generates a power-law graph, which the workload cache stores on disk
GRAPH = bench.Workload("micro_graph", "micro", (("bfs", "baseline"),))


def _main(args, digests_path, capsys):
    """Run the CLI on MICRO; return (exit status, final JSON line)."""
    status = bench.main(
        ["--workload", MICRO.name, "--seconds", "1"] + args,
        workloads={MICRO.name: MICRO},
        digests_path=digests_path,
    )
    return status, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _names(kind):
    return {metric["name"] for metric in bench.load_spec()[kind]}


def test_every_named_metric_is_emitted_and_nothing_else(tmp_path, capsys):
    unpinned = tmp_path / "digests.json"
    status, line = _main(["--trace", "0"], unpinned, capsys)
    assert status == 0 and line["correct"]
    assert set(line["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())

    status, line = _main(["--trace", "1"], unpinned, capsys)
    assert status == 0 and line["correct"]
    assert set(line["metrics"]) == _names("per_layer")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_tampered_digest_fails_every_cell(tmp_path, capsys):
    digests = tmp_path / "digests.json"
    status, _ = _main(["--pin"], digests, capsys)
    assert status == 0
    pinned = json.loads(digests.read_text())
    assert set(pinned["0"][MICRO.name]) == {"nw:baseline", "nw:partition_sharing"}

    status, line = _main([], digests, capsys)
    assert status == 0 and line["failed"] == 0

    for cell in pinned["0"][MICRO.name]:
        pinned["0"][MICRO.name][cell] = "0" * 64
    digests.write_text(json.dumps(pinned))
    status, line = _main([], digests, capsys)
    assert status != 0
    assert not line["correct"]
    assert line["failed"] / line["attempted"] == 1.0


def test_traced_digests_equal_untraced():
    run = bench.measure([MICRO], seed=0, trace=True, reps=2)[MICRO.name]
    bench.check_digests(MICRO, run.all_reps(), None)
    assert run.traced.data["layers"] is not None
    assert len(run.reps[0].digests) == len(MICRO.cells)
    assert {json.dumps(rep.digests, sort_keys=True) for rep in run.all_reps()} == {
        json.dumps(run.reps[0].digests, sort_keys=True)
    }
    assert run.failed == 0


def test_reps_write_nothing_to_home_or_the_host_cache(tmp_path, monkeypatch):
    home, host_cache = tmp_path / "home", tmp_path / "host-cache"
    home.mkdir()
    host_cache.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(host_cache))
    rep = bench.run_rep(GRAPH, seed=0)
    assert rep.data is not None, rep.error
    assert rep.data["generate_calls"] == 1
    assert list(home.iterdir()) == []
    assert list(host_cache.iterdir()) == []
    assert not list(bench.SCRATCH.glob("rep-*"))


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "thrash_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


# ---------------------------------------------------------------------- #
# The A/B rule, on synthetic samples
# ---------------------------------------------------------------------- #
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_wins_in_ten():
    new = [b + 5 for b in BASE]
    assert compare.verdict(BASE, new, "higher", 0.10) == "gain"
    new[0] = BASE[0] - 1  # 9/10 still wins
    assert compare.verdict(BASE, new, "higher", 0.10) == "gain"
    new[1] = BASE[1] - 1  # 8/10 does not
    assert compare.verdict(BASE, new, "higher", 0.10) == "no change"


def test_ties_count_for_neither_side():
    new = [b + 5 for b in BASE]
    new[0], new[1] = BASE[0], BASE[1]
    assert compare.wins(BASE, new, "higher") == 8
    assert compare.verdict(BASE, new, "higher", 0.10) == "no change"


def test_gain_needs_a_gap_wider_than_the_base_iqr():
    base = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]
    new = [b + 0.5 for b in base]  # wins every pair, gap 0.5 < IQR
    assert compare.wins(base, new, "higher") == 10
    assert compare.verdict(base, new, "higher", 0.10) == "no change"


def test_lower_is_better_and_regressions_use_the_bound():
    slower = [b * 1.2 for b in BASE]
    assert compare.verdict(BASE, slower, "lower", 0.10) == "regression"
    assert compare.verdict(BASE, [b * 1.05 for b in BASE], "lower", 0.10) == "no change"
    assert compare.verdict(BASE, [b * 0.8 for b in BASE], "lower", 0.10) == "gain"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(BASE, noisy, "higher", 0.10) == "unresolved"
    assert compare.verdict(noisy, BASE, "higher", 0.10) == "unresolved"
    # ... unless every new sample beats every base sample
    wide = [1.0, 50.0, 60.0, 70.0, 100.0]
    above = [101.0, 102.0, 103.0, 104.0, 105.0]
    assert compare.verdict(wide, above, "higher", 0.10) != "unresolved"
