"""Tests for the service WAL: CRCs, torn tails, compaction, and
journals written by older builds."""

import json
import zlib

import pytest

from repro.engine.errors import JournalError
from repro.service import Journal, SweepService


def make_journal(tmp_path, **kwargs):
    kwargs.setdefault("scale", "micro")
    kwargs.setdefault("seed", 0)
    return Journal(str(tmp_path / "journal.jsonl"), **kwargs)


def test_round_trip(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.append("lease", {"job_id": "a"})
    journal.close()

    replayed = make_journal(tmp_path).replay()
    assert [r["type"] for r in replayed] == ["submit", "lease"]
    assert replayed[0]["payload"] == {"job": {"job_id": "a"}}
    # header is seq 1, records follow strictly monotonic
    assert [r["seq"] for r in replayed] == [2, 3]


def test_replay_positions_append_after_tail(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()

    reopened = make_journal(tmp_path)
    reopened.replay()
    seq = reopened.append("lease", {"job_id": "a"})
    assert seq == 3


def test_torn_final_line_is_dropped(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.append("lease", {"job_id": "a"})
    journal.close()
    path = tmp_path / "journal.jsonl"
    text = path.read_text()
    # crash mid-append: the final record is half-written
    path.write_text(text[: len(text) - 10])

    replayed = make_journal(tmp_path).replay()
    assert [r["type"] for r in replayed] == ["submit"]


def test_torn_tail_can_be_overwritten(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()
    path = tmp_path / "journal.jsonl"
    with open(path, "a") as handle:
        handle.write('{"seq": 3, "type": "lea')  # torn append

    reopened = make_journal(tmp_path)
    assert [r["type"] for r in reopened.replay()] == ["submit"]
    reopened.append("lease", {"job_id": "a"})
    reopened.close()
    # the replacement record is appended after the torn garbage, and the
    # torn line plus the new record still replay to the same history
    replayed = make_journal(tmp_path).replay()
    assert [r["type"] for r in replayed][-1] == "lease"


def test_mid_file_corruption_raises(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.append("lease", {"job_id": "a"})
    journal.close()
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-6] + "junk}}"
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(JournalError, match="line 2"):
        make_journal(tmp_path).replay()


def test_crc_mismatch_raises(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.append("lease", {"job_id": "a"})
    journal.close()
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["payload"] = {"job": {"job_id": "tampered"}}
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(JournalError, match="checksum"):
        make_journal(tmp_path).replay()


def test_non_monotonic_seq_raises(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines()
    # duplicate the last record: same seq twice is a spliced log
    path.write_text("\n".join(lines + [lines[-1]]) + "\n")

    with pytest.raises(JournalError, match="advance"):
        make_journal(tmp_path).replay()


def test_foreign_scale_refused(tmp_path):
    journal = make_journal(tmp_path, scale="micro")
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()

    with pytest.raises(JournalError, match="scale"):
        make_journal(tmp_path, scale="small").replay()


def test_foreign_seed_refused(tmp_path):
    journal = make_journal(tmp_path, seed=0)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()

    with pytest.raises(JournalError, match="seed"):
        make_journal(tmp_path, seed=7).replay()


def test_missing_header_refused(tmp_path):
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")

    with pytest.raises(JournalError, match="header"):
        make_journal(tmp_path).replay()


def test_torn_lone_header_recovers_as_fresh(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"seq": 1, "type": "head')  # crash during creation

    journal = make_journal(tmp_path)
    assert journal.replay() == []
    # the unreadable file is gone; the journal can be recreated
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()
    assert [r["type"] for r in make_journal(tmp_path).replay()] == ["submit"]


def test_compaction_round_trip(tmp_path):
    journal = make_journal(tmp_path)
    for i in range(10):
        journal.append("submit", {"job": {"job_id": f"job{i}"}})
    snapshot = {"jobs": {}, "order": [], "counters": {}}
    journal.compact(snapshot)
    journal.close()

    reopened = make_journal(tmp_path)
    replayed = reopened.replay()
    assert [r["type"] for r in replayed] == ["snapshot"]
    assert replayed[0]["payload"] == snapshot
    # seq continues past the compacted prefix: no reuse, ever
    assert replayed[0]["seq"] == 13
    assert reopened.append("submit", {"job": {"job_id": "next"}}) == 14


def test_peek_header(tmp_path):
    journal = make_journal(tmp_path, scale="micro", seed=3)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.close()

    header = Journal.peek_header(str(tmp_path / "journal.jsonl"))
    assert header["scale"] == "micro"
    assert header["seed"] == 3


def test_peek_header_missing_or_foreign(tmp_path):
    assert Journal.peek_header(str(tmp_path / "nope.jsonl")) is None
    path = tmp_path / "other.jsonl"
    path.write_text('{"kind": "something-else"}\n')
    assert Journal.peek_header(str(path)) is None


def test_truncation_at_every_byte_of_final_record(tmp_path):
    """Property: tearing the final append at ANY byte boundary is
    equivalent to the append never happening — replay yields exactly
    the records before it, and the journal stays appendable."""
    journal = make_journal(tmp_path)
    journal.append("submit", {"job": {"job_id": "a"}})
    journal.append("lease", {"job_id": "a"})
    journal.close()
    path = tmp_path / "journal.jsonl"
    blob = path.read_bytes()
    intact = blob[: blob.rindex(b'{"crc"')]  # start of the final record

    for cut in range(len(intact), len(blob)):
        path.write_bytes(blob[:cut])
        replayed = make_journal(tmp_path).replay()
        expected = ["submit"] if cut < len(blob) else ["submit", "lease"]
        assert [r["type"] for r in replayed] == expected, f"cut at {cut}"
        # and the torn tail never blocks the next append
        reopened = make_journal(tmp_path)
        reopened.replay()
        reopened.append("retry", {"job_id": "a", "attempt": 1,
                                  "error_class": "transient"})
        reopened.close()
        final = make_journal(tmp_path).replay()
        assert [r["type"] for r in final] == expected + ["retry"]


# --------------------------------------------------------------------- #
# Journals written before the remote worker fleet was removed
# --------------------------------------------------------------------- #


def write_records(path, records):
    """Hand-write a journal: one canonical, CRC'd JSON line per record,
    seq counting from 1 (the header)."""
    lines = []
    for seq, (rtype, payload) in enumerate(records, start=1):
        body = {"seq": seq, "type": rtype, "payload": payload}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        body["crc"] = zlib.crc32(canonical.encode())
        lines.append(json.dumps(body, sort_keys=True, separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n")


HEADER = ("header", {"kind": "repro-journal", "version": 1,
                     "scale": "micro", "seed": 7})


def legacy_job(benchmark, **fields):
    """A job payload as older builds wrote it: with a ``fence`` key."""
    job = {
        "job_id": f"{benchmark}:baseline", "benchmark": benchmark,
        "config_name": "baseline", "scale": "micro", "seed": 7,
        "config_hash": "3541fe4c2a35deae", "state": "SUBMITTED",
        "attempts": 0, "error_class": "", "message": "", "result": None,
        "owner": "", "leased_unix": 0.0, "updated_seq": 0, "priority": 0,
        "deadline_unix": 0.0, "idempotency_key": benchmark[0] * 64,
        "fence": 0,
    }
    job.update(fields)
    return job


BFS_RESULT = {"benchmark": "bfs", "config": "baseline", "cycles": 1039.0}

#: a local ``repro serve`` session exactly as the fleet-era build
#: journaled it: every lease/done/fail payload carries a ``fence``
V1_LOCAL_LOG = [
    HEADER,
    ("submit", {"job": legacy_job("bfs")}),
    ("submit", {"job": legacy_job("atax")}),
    ("serve_start", {"incarnation": "serve-1", "pid": 1, "unix": 1.0}),
    ("lease", {"job_id": "bfs:baseline", "owner": "serve-1",
               "unix": 2.0, "fence": 5}),
    ("start", {"job_id": "bfs:baseline"}),
    ("done", {"job_id": "bfs:baseline", "result": BFS_RESULT,
              "attempts": 1, "fence": 5}),
    ("lease", {"job_id": "atax:baseline", "owner": "serve-1",
               "unix": 3.0, "fence": 8}),
    ("start", {"job_id": "atax:baseline"}),
    ("fail", {"job_id": "atax:baseline", "error_class": "livelock",
              "message": "no progress", "attempts": 3, "fence": 8}),
    ("shutdown", {"clean": True, "drained": False, "pending": 0}),
]

#: the same session after snapshot compaction: jobs keep their
#: ``fence``, the counters carry ``fenced``, the worker map is empty
V1_LOCAL_SNAPSHOT = [
    HEADER,
    ("snapshot", {
        "jobs": {
            "bfs:baseline": legacy_job(
                "bfs", state="DONE", attempts=1, result=BFS_RESULT,
                leased_unix=2.0, updated_seq=7, fence=5,
            ),
            "atax:baseline": legacy_job(
                "atax", state="FAILED", attempts=3,
                error_class="livelock", message="no progress",
                leased_unix=3.0, updated_seq=10, fence=8,
            ),
        },
        "order": ["bfs:baseline", "atax:baseline"],
        "counters": {"queued": 2, "shed": 0, "leased": 2, "retried": 0,
                     "reclaimed": 0, "done": 1, "failed": 1,
                     "quarantined": 0, "cancelled": 0, "fenced": 0},
        "workers": {},
        "breakers": {},
    }),
]


@pytest.mark.parametrize("records", [V1_LOCAL_LOG, V1_LOCAL_SNAPSHOT],
                         ids=["log", "snapshot"])
def test_v1_local_journal_replays_ignoring_legacy_fences(
    tmp_path, capsys, records
):
    from repro.cli import main

    svc = tmp_path / "svc"
    svc.mkdir()
    write_records(svc / "journal.jsonl", records)
    service = SweepService(str(svc), scale="micro", seed=7)
    service.recover()
    assert service.state.counters == {
        "queued": 2, "shed": 0, "leased": 2, "retried": 0,
        "reclaimed": 0, "done": 1, "failed": 1, "quarantined": 0,
        "cancelled": 0,
    }
    done = service.state.jobs["bfs:baseline"]
    assert (done.state, done.result, done.attempts) == (
        "DONE", BFS_RESULT, 1
    )
    failed = service.state.jobs["atax:baseline"]
    assert (failed.state, failed.error_class, failed.attempts) == (
        "FAILED", "livelock", 3
    )
    assert "fence" not in done.to_payload()
    # the old log stays appendable under this build
    service.submit("nw", "baseline")
    service.close()
    assert main(["status", "--service-dir", str(svc)]) == 0
    out = capsys.readouterr().out
    assert "done=1" in out and "fenced" not in out


FLEET_JOB = legacy_job("bfs")
FLEET_WORKER = {"worker_id": "w3", "benchmarks": [], "parallelism": 1,
                "state": "ALIVE", "registered_seq": 3, "updated_seq": 3,
                "reason": ""}


@pytest.mark.parametrize("records, rtype, seq", [
    ([HEADER, ("submit", {"job": FLEET_JOB}),
      ("worker_register", {"worker": FLEET_WORKER})],
     "worker_register", 3),
    ([HEADER, ("submit", {"job": FLEET_JOB}),
      ("lease", {"job_id": "bfs:baseline", "owner": "serve-1",
                 "unix": 1.0, "fence": 3}),
      ("start", {"job_id": "bfs:baseline"}),
      ("fenced", {"job_id": "bfs:baseline", "worker_id": "w9",
                  "presented": 1, "expected": 3})],
     "fenced", 5),
    ([HEADER, ("snapshot", {"jobs": {}, "order": [], "counters": {},
                            "workers": {"w3": FLEET_WORKER},
                            "breakers": {}})],
     "snapshot", 2),
], ids=["worker_register", "fenced", "snapshot-workers"])
def test_fleet_journal_is_refused_with_a_typed_error(
    tmp_path, capsys, records, rtype, seq
):
    from repro.cli import main

    svc = tmp_path / "svc"
    svc.mkdir()
    write_records(svc / "journal.jsonl", records)
    service = SweepService(str(svc), scale="micro", seed=7)
    with pytest.raises(JournalError) as excinfo:
        service.recover(readonly=True)
    service.close()
    message = str(excinfo.value)
    assert repr(rtype) in message
    assert f"seq {seq}" in message
    assert "fleet" in message
    assert main(["status", "--service-dir", str(svc)]) == 12
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "journal"
    assert "fleet" in payload["message"]
