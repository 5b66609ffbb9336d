"""Tests for the service WAL: CRCs, torn tails and compaction."""

import json

import pytest

from repro.engine.errors import JournalError
from repro.service import Journal


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
