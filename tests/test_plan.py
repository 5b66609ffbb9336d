"""The report's declared cell plan: content dedupe, observer merge, one
executor, content-keyed checkpoints."""

import json

import pytest

from repro.cli import main
from repro.engine.faults import FaultKind, FaultPlan
from repro.experiments import (
    ablations,
    fig2,
    fig5,
    fig10,
    report,
    tenancy,
    zoo,
)
from repro.experiments.runner import ExperimentRunner, named_cell

#: sections that read nw's baseline cell when the sweep is nw alone
BASELINE_SECTIONS = (
    "Fig 2", "Fig 5", "Fig 6", "Fig 10", "Fig 11", "Large pages",
    "Ext: sharing ablation", "Ext: geometry sweep", "Ext: warp scheduling",
    "Ext: time-resolved",
)


def test_micro_plan_simulates_each_distinct_cell_once():
    runner = ExperimentRunner(scale="micro", strict=False)
    report.declare_figures(runner)
    planned, multi_tenant, done = runner.plan_status()
    assert (planned - multi_tenant, multi_tenant, done) == (164, 3, 0)
    assert runner.cells_simulated == 0  # declaring simulates nothing


def test_alias_tags_share_one_simulation():
    runner = ExperimentRunner(scale="micro", benchmarks=("bfs",))
    cells = (
        fig2.cells(runner)
        + fig10.cells(runner)
        + ablations.geometry_sweep_cells(runner, ((64, 4), (256, 4)))
        + ablations.sharing_ablation_cells(runner)
        + zoo.cells(runner)
    )
    results = runner.execute(cells)
    same = results["bfs", "baseline"]
    assert results["bfs", "geo_64x4"] is same
    assert results["bfs", "zoo_baseline"] is same
    assert results["bfs", "geo_256x4"] is results["bfs", "l1_256"]
    assert (
        results["bfs", "sharing_one_bit"]
        is results["bfs", "partition_sharing"]
    )
    assert results["bfs", "partition"] is not same
    # baseline, l1_256, partition, partition_sharing, 2 other sharing
    # policies, 4 other zoo mechanisms
    assert runner.cells_simulated == 10


def test_fig5_traces_come_from_the_fig2_cell():
    runner = ExperimentRunner(scale="micro", benchmarks=("nw",))
    runner.declare(fig2.cells(runner) + fig5.cells(runner))
    for_fig2 = runner.execute(fig2.cells(runner))
    for_fig5 = runner.execute(fig5.cells(runner))
    assert for_fig5["nw", "baseline"] is for_fig2["nw", "baseline"]
    assert for_fig2["nw", "baseline"].tlb_traces
    assert runner.cells_simulated == 2


def test_late_observer_request_resimulates_the_cell():
    runner = ExperimentRunner(scale="micro", benchmarks=("nw",))
    plain = runner.run("nw", "baseline")
    assert plain.tlb_traces is None
    traced = runner.execute(
        [named_cell("nw", "baseline", record_tlb_trace=True)]
    )["nw", "baseline"]
    assert traced.tlb_traces and traced.cycles == plain.cycles
    assert runner.run("nw", "baseline") is traced
    assert runner.cells_simulated == 2


@pytest.fixture(scope="module")
def checkpointed_nw_report(tmp_path_factory):
    """A sequential nw-only report, checkpointed: (markdown, store path)."""
    path = str(tmp_path_factory.mktemp("plan") / "ck.jsonl")
    reports, runner = report.run_all(
        scale="micro", benchmarks=("nw",), checkpoint_path=path
    )
    assert runner.cells_simulated == 23  # 20 single-tenant + 3 tenancy
    return report.render_markdown(reports, "micro", runner), path


def test_parallel_report_matches_sequential(checkpointed_nw_report):
    reports, runner = report.run_all(
        scale="micro", benchmarks=("nw",), parallel=2
    )
    markdown = report.render_markdown(reports, "micro", runner)
    assert markdown == checkpointed_nw_report[0]
    assert runner.cells_simulated == 23


def test_full_resume_simulates_nothing(checkpointed_nw_report):
    markdown, path = checkpointed_nw_report
    reports, runner = report.run_all(
        scale="micro", benchmarks=("nw",), checkpoint_path=path, resume=True
    )
    assert runner.cells_restored == 23
    assert runner.cells_simulated == 0  # tenancy cells restored too
    assert report.render_markdown(reports, "micro", runner) == markdown


def test_plan_flag_counts_without_simulating(checkpointed_nw_report, capsys):
    _, path = checkpointed_nw_report
    argv = ["report", "--scale", "micro", "--benchmarks", "nw", "--plan"]
    assert main(argv + ["--checkpoint", path]) == 0
    out = capsys.readouterr().out
    assert "plan             23 cells (20 single-tenant, 3 multi-tenant)" in out
    assert "to simulate      23 cells" in out
    # the call without --resume left the store intact: all 23 restore
    assert main(argv + ["--checkpoint", path, "--resume"]) == 0
    out = capsys.readouterr().out
    assert "restored         23 cells from checkpoint" in out
    assert "to simulate      0 cells" in out


def test_version_2_checkpoint_is_refused(tmp_path, capsys):
    path = tmp_path / "v2.jsonl"
    header = {"kind": "repro-checkpoint", "version": 2, "scale": "micro",
              "seed": 0}
    path.write_text(json.dumps(header) + "\n")
    assert main(["report", "--scale", "micro", "--benchmarks", "nw",
                 "--checkpoint", str(path), "--resume"]) == 8
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "checkpoint" and "version 2" in err["message"]


def test_fault_on_an_alias_tag_fails_the_shared_cell():
    """geo_64x4 is nw's baseline cell: a fault naming the alias fails
    the one simulation, and every section reading it says so."""
    plan = FaultPlan().add("nw", "geo_64x4", FaultKind.LIVELOCK)
    reports, runner = report.run_all(
        scale="micro", benchmarks=("nw",), fault_plan=plan
    )
    assert len(runner.failures) == 1
    [failure] = runner.failures.values()
    assert failure.marker == "FAILED(livelock)"
    # the one failure is reported under every tag that shares the cell
    [line] = runner.failure_summary()
    assert "baseline" in line and "geo_64x4" in line
    tables = {r.experiment_id: r.table for r in reports}
    for section in BASELINE_SECTIONS:
        assert "nw         FAILED(livelock)" in tables[section], section
    assert "FAILED" not in tables["Fig 12"]
    assert "FAILED" not in tables["Ext: tenancy"]
    summary = report.degradation_summary(reports, runner)
    assert any("geo_64x4" in line and "baseline" in line for line in summary)


def test_tenancy_cells_are_plan_cells():
    runner = ExperimentRunner(scale="micro", benchmarks=("bfs", "gemm"))
    cells = tenancy.cells(runner)
    results = runner.execute(cells)
    runner.close()
    multi = [c for c in cells if c.tenancy is not None]
    assert len(multi) == 3 and all(c.benchmark == "bfs+gemm" for c in multi)
    assert runner.cells_simulated == len(cells) == 5
    again = tenancy.compute(runner, runner.execute(cells))
    assert runner.cells_simulated == 5
    assert set(again.results) == {c.tenancy.mode.value for c in multi}
    assert results["bfs+gemm", "tenancy_exclusive"].cross_tenant_evictions == 0


def test_parallel_compare_prints_the_sequential_table(capsys):
    argv = ["compare", "nw", "--scale", "micro",
            "--configs", "baseline", "sched", "partition"]
    assert main(argv) == 0
    sequential = capsys.readouterr().out
    assert main(argv + ["--parallel", "2"]) == 0
    assert capsys.readouterr().out == sequential
