"""End-to-end degradation: a report survives injected cell failures."""

from conftest import figure

from repro.engine.faults import FaultKind, FaultPlan
from repro.experiments import fig2, fig11, report
from repro.experiments.runner import ExperimentRunner, failed_rows


def degraded_runner(kind=FaultKind.LIVELOCK, benchmarks=("bfs", "nw")):
    plan = FaultPlan().add("bfs", "*", kind)
    return ExperimentRunner(
        scale="micro", benchmarks=benchmarks, fault_plan=plan, strict=False
    )


class TestFigureDegradation:
    def test_fig2_marks_failed_cell(self):
        runner = degraded_runner()
        result = figure(runner, fig2)
        table = result.format_table()
        assert "FAILED(livelock)" in table
        assert "nw" in table  # the healthy benchmark still reports
        assert result.failures == {"bfs": "livelock"}

    def test_fig11_geomean_skips_failed_cell(self):
        runner = degraded_runner()
        result = figure(runner, fig11)
        assert "bfs" in result.failures
        # normalized times only exist for surviving benchmarks ...
        assert "bfs" not in result.sharing
        assert "nw" in result.sharing
        # ... and the table still renders with the failure marked
        assert "FAILED(livelock)" in result.format_table()

    def test_failed_rows_formatting(self):
        rows = failed_rows({"bfs": "timeout", "nw": "worker_crash"})
        assert rows == [
            "bfs        FAILED(timeout)",
            "nw         FAILED(worker_crash)",
        ]


class TestFullReportDegradation:
    def test_report_completes_with_injected_livelock(self):
        plan = FaultPlan().add("bfs", "*", FaultKind.LIVELOCK)
        reports, runner = report.run_all(
            scale="micro",
            benchmarks=("bfs", "nw"),
            fault_plan=plan,
            strict=False,
        )
        # every experiment produced a section despite the dead benchmark
        assert len(reports) == 19
        assert all(r.table for r in reports)
        rendered = report.render_markdown(reports, "micro", runner)
        assert "FAILED(livelock)" in rendered
        assert "Degraded run" in rendered
        assert runner.failures  # per-cell records survive for inspection

    def test_clean_report_has_no_degradation_banner(self):
        reports, runner = report.run_all(scale="micro", benchmarks=("nw",))
        rendered = report.render_markdown(reports, "micro", runner)
        assert "Degraded run" not in rendered
        assert report.degradation_summary(reports, runner) == []
