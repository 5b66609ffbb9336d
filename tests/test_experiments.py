"""Smoke tests for the experiment harness (micro scale).

The shape checks are judged at the calibrated ``small`` scale by
``repro report`` (CI holds EXPERIMENTS.md at every check passing); here
we verify the machinery: caching, table formats, check plumbing.
"""

import pytest
from conftest import figure

from repro.experiments import fig2, fig3, fig4, fig5, fig6, fig10, fig11, fig12
from repro.experiments import large_pages
from repro.experiments.configs import CONFIGS, get_config
from repro.experiments.runner import ExperimentRunner, geomean
from repro.experiments.tables import format_table3, run_table2, table3_checks


@pytest.fixture(scope="module")
def runner():
    # Two cheap benchmarks keep the module fast while covering both a
    # graph and a matrix generator.
    return ExperimentRunner(scale="micro", benchmarks=("gemm", "nw"))


def test_configs_all_resolvable():
    for name in CONFIGS:
        assert get_config(name) is CONFIGS[name]
    with pytest.raises(ValueError):
        get_config("bogus")


def test_runner_caches_runs(runner):
    r1 = runner.run("gemm", "baseline")
    r2 = runner.run("gemm", "baseline")
    assert r1 is r2


def test_runner_distinguishes_configs(runner):
    r1 = runner.run("gemm", "baseline")
    r2 = runner.run("gemm", "l1_256")
    assert r1 is not r2


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    with pytest.raises(ValueError):
        geomean([0.0, 1.0])


def test_fig2_structure(runner):
    result = figure(runner, fig2)
    assert set(result.hit_64) == {"gemm", "nw"}
    assert "64-entry" in result.format_table()
    assert result.shape_checks()


def test_fig3_fig4_bins_sum_to_one(runner):
    for mod in (fig3, fig4):
        result = mod.run(runner)
        for bins in result.bins.values():
            assert sum(bins.fractions) == pytest.approx(1.0)
        assert result.format_table()


def test_fig5_fig6_cdf(runner):
    f5 = figure(runner, fig5)
    f6 = figure(runner, fig6)
    for b in ("gemm", "nw"):
        assert f5.histograms[b].total > 0
        assert f6.histograms[b].total > 0
    assert f6.format_table()


def test_fig10_fig11_fig12(runner):
    f10 = figure(runner, fig10)
    assert set(f10.baseline) == {"gemm", "nw"}
    f11 = figure(runner, fig11)
    for value in f11.partition.values():
        assert value > 0
    f12 = figure(runner, fig12)
    for value in f12.speedup.values():
        assert value > 0
    assert f10.format_table() and f11.format_table() and f12.format_table()


def test_large_pages(runner):
    result = figure(runner, large_pages)
    for b in ("gemm", "nw"):
        assert 0 < result.utilization[b] <= 1.0
    assert result.format_table()


def test_tables():
    t2 = run_table2("micro")
    assert len(t2.traced_footprint_gb) == 10
    assert "bfs" in t2.format_table()
    assert all(c.passed for c in table3_checks())
    assert "16 SMs" in format_table3()


def test_timeseries_experiment(runner):
    from repro.experiments import timeseries

    result = figure(runner, timeseries)
    assert result.benchmark == runner.benchmarks[0]
    assert set(result.rates) == {"baseline", "partition_sharing"}
    for check in result.shape_checks():
        assert check.passed, check
    table = result.format_table()
    assert "miss rate" in table and "baseline" in table


def test_runner_telemetry_merges_cells(tmp_path):
    trace = str(tmp_path / "sweep.json")
    runner = ExperimentRunner(
        scale="micro", benchmarks=("nw",), trace_path=trace, sample_every=500
    )
    runner.run("nw", "baseline")
    runner.run("nw", "partition")
    runner.close()
    import json

    events = json.load(open(trace))["traceEvents"]
    assert {e["pid"] for e in events} == {0, 1}
    manifest = json.load(open(trace + ".manifest.json"))
    assert manifest["artifact_kind"] == "trace"
    assert manifest["cells_simulated"] == 2
    assert manifest["config_hashes"].keys() == {"baseline", "partition"}
    # part files were cleaned up after the merge
    assert not list(tmp_path.glob("*.part"))


def test_supervised_worker_writes_trace(tmp_path):
    """Telemetry survives the subprocess boundary: the worker writes the
    per-cell trace file and ships the timeseries through the pipe."""
    trace = str(tmp_path / "sup.json")
    runner = ExperimentRunner(
        scale="micro",
        benchmarks=("nw",),
        trace_path=trace,
        sample_every=500,
        timeout=600,
    )
    result = runner.run("nw", "baseline")
    assert result.timeseries is not None
    runner.close()
    import json

    payload = json.load(open(trace))
    assert payload["traceEvents"]
