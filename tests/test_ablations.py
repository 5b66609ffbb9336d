"""Smoke tests for the ablation and oversubscription experiments."""

import pytest

from repro.experiments import ablations, oversubscription
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale="micro", benchmarks=("nw", "gemm"))


def test_sharing_ablation_structure(runner):
    result = ablations.compute_sharing_ablation(
        runner, runner.execute(ablations.sharing_ablation_cells(runner))
    )
    for b in ("nw", "gemm"):
        assert set(result.times[b]) == {"one_bit", "counter", "all_to_all"}
        for t in result.times[b].values():
            assert t > 0
    assert "geomean" in result.format_table()
    assert len(result.shape_checks()) == 2


def test_geometry_sweep_structure(runner):
    geometries = ((64, 4), (256, 4))
    result = ablations.compute_geometry_sweep(
        runner,
        runner.execute(ablations.geometry_sweep_cells(runner, geometries)),
        geometries,
    )
    assert set(result.hit_rates) == {(64, 4), (256, 4)}
    assert result.hit_rates[(256, 4)] >= result.hit_rates[(64, 4)] - 0.02
    assert result.format_table()


def test_warp_reuse_structure(runner):
    result = ablations.run_warp_reuse(runner)
    for share in result.warp_share.values():
        assert 0.0 <= share <= 1.0
    assert result.shape_checks()


def test_warp_scheduler_ablation_structure(runner):
    result = ablations.compute_warp_scheduler_ablation(
        runner, runner.execute(ablations.warp_scheduler_cells(runner))
    )
    for b in ("nw", "gemm"):
        assert result.times[b] > 0
        assert 0 <= result.hits_aware[b] <= 1
    assert result.format_table()


def test_oversubscription_structure(runner):
    cells = oversubscription.cells(
        runner, capacity_fraction=0.3, benchmarks=("nw",)
    )
    result = oversubscription.compute(
        runner, runner.execute(cells), benchmarks=("nw",)
    )
    assert result.slowdown["nw"] > 0
    assert result.fault_rate["nw"] > 0
    assert result.ours_speedup["nw"] > 0
    assert result.mosaic_speedup["nw"] > 0
    assert 0 < result.mosaic_utilization["nw"] <= 1
    assert result.format_table()
    assert len(result.shape_checks()) == 3
