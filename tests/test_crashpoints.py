"""Tests for the systematic crash-point explorer."""

import os

from repro.service.crashpoints import (
    SCRIPT_JOBS,
    _audit,
    canned_result,
    explore,
)


def test_full_exploration_holds_every_invariant(tmp_path):
    report = explore(base_dir=str(tmp_path))
    assert report.ok(), [o.problems for o in report.failures]
    # the scripted session is substantial: every journal append is two
    # mutating ops, plus cache writes and the snapshot compaction
    assert report.mutating_ops >= 20
    assert len(report.outcomes) == report.mutating_ops
    assert all(o.crashed for o in report.outcomes)


def test_torn_mode_holds_every_invariant(tmp_path):
    report = explore(base_dir=str(tmp_path), torn=True)
    assert report.ok(), [o.problems for o in report.failures]
    assert len(report.outcomes) == report.mutating_ops


def test_budget_bounds_and_brackets_exploration(tmp_path):
    report = explore(base_dir=str(tmp_path), budget=5)
    assert report.ok()
    indexes = [o.index for o in report.outcomes]
    assert len(indexes) == 5
    assert indexes[0] == 0
    assert indexes[-1] == report.mutating_ops - 1
    assert indexes == sorted(indexes)


def test_audit_catches_a_lost_done_record(tmp_path):
    """The audit has teeth: surgically removing the DONE records from
    a survivor journal is reported as a lost acked completion."""
    from repro.service import JOURNAL_NAME, Journal
    from repro.service.crashpoints import AckFact

    report = explore(base_dir=str(tmp_path))
    assert report.ok()
    # find a pre-compaction crash point whose log carries DONE records
    directory = None
    chosen = None
    for outcome in reversed(report.outcomes):
        candidate = os.path.join(
            str(tmp_path), f"point-{outcome.index:04d}"
        )
        journal = Journal(
            os.path.join(candidate, JOURNAL_NAME), scale="micro", seed=7
        )
        records = journal.replay()
        journal.close()
        types = [r["type"] for r in records]
        if "done" in types and "snapshot" not in types:
            directory, chosen = candidate, outcome.index
            break
    assert directory is not None, "no survivor log with DONE records"

    # rebuild the journal without its DONE records: every record is
    # re-appended under a fresh, strictly rising seq, so the log is
    # formally valid and only its semantics lie
    path = os.path.join(directory, JOURNAL_NAME)
    journal = Journal(path, scale="micro", seed=7)
    kept = [
        (r["type"], r["payload"])
        for r in journal.replay()
        if r["type"] != "done"
    ]
    journal.close()
    os.remove(path)
    rebuilt = Journal(path, scale="micro", seed=7)
    for rtype, payload in kept:
        rebuilt.append(rtype, payload)
    rebuilt.close()

    benchmark, config = SCRIPT_JOBS[0]
    facts = [
        AckFact(
            rtype="done",
            job_id=f"{benchmark}:{config}",
            mutating_ops=0,  # claim durability from the first boundary
            result=canned_result(benchmark, config),
        )
    ]
    problems = _audit(directory, chosen, facts, {}, "micro", 7)
    assert any("acked DONE" in p for p in problems), problems


def test_report_summary_lines(tmp_path):
    report = explore(base_dir=str(tmp_path), budget=2)
    lines = report.summary_lines()
    assert any("crash points" in line for line in lines)
    assert any("all invariants held" in line for line in lines)


def test_cli_crash_explore_smoke(tmp_path, capsys):
    from repro.cli import main

    code = main(
        ["crash-explore", "--budget", "3", "--dir", str(tmp_path / "x")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "all invariants held" in out
