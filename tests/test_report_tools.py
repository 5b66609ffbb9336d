"""Tests for the markdown rendering behind ``repro report --write``."""

from repro.experiments.report import ExperimentReport, render_markdown
from repro.experiments.runner import ShapeCheck, summarize_checks


class TestReportRendering:
    def test_render_single_report(self):
        report = ExperimentReport(
            "Fig X", "A title", "col1 col2\n1 2",
            [ShapeCheck("claim holds", True, "x=1"),
             ShapeCheck("claim fails", False)],
        )
        text = report.render()
        assert "## Fig X — A title" in text
        assert "[PASS] claim holds (x=1)" in text
        assert "[FAIL] claim fails" in text
        assert "1/2 shape criteria hold" in text

    def test_render_markdown_totals(self):
        reports = [
            ExperimentReport("A", "t", "x", [ShapeCheck("ok", True)]),
            ExperimentReport("B", "t", "y", [ShapeCheck("no", False),
                                             ShapeCheck("yes", True)]),
        ]
        text = render_markdown(reports, "micro")
        assert "2/3 shape checks hold" in text
        assert "`micro`" in text

    def test_summarize(self):
        checks = [ShapeCheck("a", True), ShapeCheck("b", False)]
        assert summarize_checks(checks) == "1/2 shape criteria hold"
