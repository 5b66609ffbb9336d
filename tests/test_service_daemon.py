"""Daemon end-to-end tests: socket API, deadlines, cancel, preemption,
idempotent retries, malformed frames, stale clients, chaos recovery.

The in-process tests run a real :class:`SweepDaemon` on a thread and
talk to it through real Unix sockets; the chaos test SIGKILLs a real
``repro serve --daemon`` subprocess and proves a retried request is
answered byte-identically with no duplicate execution.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.errors import (
    AdmissionError,
    CancelledJobError,
    DeadlineError,
    ProtocolError,
)
from repro.engine.faults import FaultKind, FaultPlan
from repro.engine.supervision import RetryPolicy
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    AdmissionPolicy,
    DaemonClient,
    DaemonUnavailable,
    Journal,
    NetFaultKind,
    NetFaults,
    NetFaultSpec,
    SweepDaemon,
    SweepService,
    set_net_faults,
)
from repro.service.pool import PreemptRequest
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_pool(tmp_path, **kwargs):
    kwargs.setdefault("scale", "micro")
    kwargs.setdefault("seed", 0)
    pool = SweepService(str(tmp_path / "svc"), **kwargs)
    pool.recover()
    return pool


class DaemonHarness:
    """A live daemon on a background thread, torn down on exit."""

    def __init__(self, pool, **kwargs):
        kwargs.setdefault("idle_poll", 0.02)
        self.daemon = SweepDaemon(pool, **kwargs)
        self.pool = pool
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        client = DaemonClient(self.pool.directory, timeout=5.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                client.ping()
                break
            except Exception:
                time.sleep(0.02)
        else:
            raise RuntimeError("daemon never came up")
        self.client = client
        return self

    def __exit__(self, *exc_info):
        try:
            self.client.shutdown()
        except Exception:
            pass
        self.client.close()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "daemon failed to drain"


# --------------------------------------------------------------------- #
# Happy path + idempotent retries
# --------------------------------------------------------------------- #


def test_submit_wait_roundtrip_and_cached_retry(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        first = h.client.submit("nw", "baseline")
        assert first["cached"] is False
        done = h.client.wait(job_id=first["job_id"])
        assert done["state"] == DONE
        cycles = done["result"]["cycles"]
        # a timed-out-and-retried request carries the same content key:
        # it must be served from the cache, not simulated again
        retried = h.client.submit("nw", "baseline", key=first["key"])
        assert retried["cached"] is True
        assert retried["result"] == done["result"]
        # and the cache really holds one immutable byte string
        blob = pool.results.get_bytes(first["key"])
        assert blob == pool.results.get_bytes(first["key"])
        assert json.loads(blob)["result"]["cycles"] == cycles
    assert pool.state.counters["done"] == 1


def test_fresh_client_joins_in_flight_job_by_key(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        first = h.client.submit("nw", "baseline")
        second = DaemonClient(pool.directory, timeout=5.0)
        try:
            joined = second.submit("nw", "baseline", key=first["key"])
            assert joined["job_id"] == first["job_id"]
            done = second.wait(key=first["key"])
            assert done["state"] == DONE
        finally:
            second.close()
    assert pool.state.counters["queued"] == 1


def test_status_and_stats_ops(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        submitted = h.client.submit("nw", "baseline")
        h.client.wait(job_id=submitted["job_id"])
        status = h.client.status(submitted["job_id"])
        assert status["job"]["state"] == DONE
        stats = h.client.stats()
        assert stats["counters"]["done"] == 1
        assert stats["cache"]["entries"] == 1
        assert stats["requests_served"] > 0


# --------------------------------------------------------------------- #
# Malformed and oversized frames: rejected, daemon survives
# --------------------------------------------------------------------- #


def raw_connect(daemon):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(daemon.socket_path)
    return sock


def read_frame(sock):
    prefix = sock.recv(4)
    (length,) = struct.unpack(">I", prefix)
    blob = b""
    while len(blob) < length:
        chunk = sock.recv(length - len(blob))
        if not chunk:
            break
        blob += chunk
    return json.loads(blob)


def test_oversized_frame_rejected_connection_closed_daemon_up(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        sock = raw_connect(h.daemon)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"] == "protocol"
            # framing violation desynchronizes the stream: closed
            assert sock.recv(1) == b""
        finally:
            sock.close()
        # the daemon itself is unharmed and still serves
        assert h.client.ping()["ok"] is True
        assert h.client.stats()["rejected_frames"] == 1


def test_zero_length_frame_rejected(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        sock = raw_connect(h.daemon)
        try:
            sock.sendall(struct.pack(">I", 0) + b"junk that follows")
            response = read_frame(sock)
            assert response["ok"] is False and response["error"] == "protocol"
        finally:
            sock.close()
        assert h.client.ping()["ok"] is True


def test_well_framed_garbage_keeps_connection_open(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        sock = raw_connect(h.daemon)
        try:
            body = b"\xffnot json\xfe"
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = read_frame(sock)
            assert response["ok"] is False and response["error"] == "protocol"
            # the stream is still synchronized: a valid request on the
            # SAME connection must succeed
            ping = json.dumps({"op": "ping"}).encode()
            sock.sendall(struct.pack(">I", len(ping)) + ping)
            assert read_frame(sock)["ok"] is True
        finally:
            sock.close()


def test_unknown_op_and_missing_fields_rejected(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        bad_op = h.daemon.handle_request({"op": "rm -rf"})
        assert bad_op["ok"] is False and bad_op["error"] == "protocol"
        bad_submit = h.daemon.handle_request({"op": "submit"})
        assert bad_submit["ok"] is False and bad_submit["error"] == "protocol"
        bad_deadline = h.daemon.handle_request(
            {"op": "submit", "benchmark": "nw", "config": "baseline",
             "deadline": "tomorrow"}
        )
        assert bad_deadline["ok"] is False


def test_malformed_idempotency_key_rejected_daemon_up(tmp_path):
    # regression: a key with a path separator used to reach
    # ResultCache.path_for, whose ValueError unwound the event loop and
    # killed the daemon for every client
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        for bad in ("a/b", "../../etc/passwd", "", "Z" * 64, "abc"):
            for op in ("submit", "wait"):
                response = h.daemon.handle_request(
                    {"op": op, "benchmark": "nw", "config": "baseline",
                     "key": bad}
                )
                assert response["ok"] is False
                assert response["error"] == "protocol"
        # ... and over the wire: the daemon answers and stays up
        body = json.dumps(
            {"op": "submit", "benchmark": "nw", "config": "baseline",
             "key": "a/b"}
        ).encode()
        sock = raw_connect(h.daemon)
        try:
            sock.sendall(struct.pack(">I", len(body)) + body)
            response = read_frame(sock)
            assert response["ok"] is False
            assert response["error"] == "protocol"
        finally:
            sock.close()
        assert h.client.ping()["ok"] is True


def test_non_string_job_id_rejected_not_raised(tmp_path):
    # regression: a list/object job_id raised TypeError (unhashable)
    # out of the jobs dict lookup and crashed the daemon
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        for request in (
            {"op": "status", "job_id": []},
            {"op": "status", "job_id": {}},
            {"op": "wait", "job_id": []},
            {"op": "cancel", "job_id": 7},
        ):
            response = h.daemon.handle_request(request)
            assert response["ok"] is False
            assert response["error"] == "protocol"
        body = json.dumps({"op": "status", "job_id": []}).encode()
        sock = raw_connect(h.daemon)
        try:
            sock.sendall(struct.pack(">I", len(body)) + body)
            assert read_frame(sock)["ok"] is False
        finally:
            sock.close()
        assert h.client.ping()["ok"] is True


def test_unexpected_handler_error_is_contained(tmp_path):
    # belt-and-braces: even a bug in a handler must surface as an error
    # response on one connection, never unwind serve_forever
    pool = make_pool(tmp_path)
    daemon = SweepDaemon(pool)

    def boom(job_id):
        raise RuntimeError("handler bug")

    pool.cancel = boom
    response = daemon.handle_request({"op": "cancel", "job_id": "nw:x"})
    assert response["ok"] is False
    assert response["error"] == "protocol"
    assert "RuntimeError" in response["message"]
    pool.close()


def test_slow_reader_backpressured_not_dropped(tmp_path):
    # regression: sendall() on the non-blocking socket raised
    # BlockingIOError once the kernel buffer filled, and the slow (not
    # dead) reader was dropped mid-frame instead of back-pressured
    import selectors

    from repro.service.protocol import encode_frame
    from repro.service.server import _Client

    pool = make_pool(tmp_path)
    daemon = SweepDaemon(pool)
    daemon.selector = selectors.DefaultSelector()
    server_side, client_side = socket.socketpair()
    try:
        server_side.setblocking(False)
        server_side.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 8192)
        client = _Client(server_side, 0.0)
        daemon.clients[server_side.fileno()] = client
        daemon.selector.register(server_side, selectors.EVENT_READ)
        body = {"ok": True, "blob": "x" * 400_000}
        expected = encode_frame(body)
        daemon._send(client, body)
        # the kernel buffer filled: the remainder queues on the client,
        # which stays connected and selector-watched for writability
        assert client.out
        assert server_side.fileno() >= 0
        assert (
            daemon.selector.get_key(server_side).events
            & selectors.EVENT_WRITE
        )
        client_side.settimeout(5.0)
        received = b""
        while len(received) < len(expected):
            received += client_side.recv(65536)
            if client.out:
                daemon._flush(client)
        assert received == expected
        assert client.out == b""
        # fully drained: write interest is withdrawn again
        assert not (
            daemon.selector.get_key(server_side).events
            & selectors.EVENT_WRITE
        )
    finally:
        client_side.close()
        daemon._close_all()
        pool.close()


def test_shed_retry_sleeps_hint_instead_of_backoff(tmp_path):
    # regression: the client slept the server's retry_after hint AND
    # the next attempt's backoff, roughly doubling the standoff
    from repro.service.protocol import encode_frame, recv_frame

    server_side, client_side = socket.socketpair()
    responses = [
        {"ok": False, "error": "admission", "message": "shed",
         "retry_after": 7.5},
        {"ok": True},
    ]

    def responder():
        for response in responses:
            try:
                recv_frame(server_side, timeout=5.0)
            except Exception:
                return
            server_side.sendall(encode_frame(response))

    thread = threading.Thread(target=responder, daemon=True)
    thread.start()
    slept = []
    client = DaemonClient(str(tmp_path), sleep=slept.append)
    client._sock = client_side
    try:
        assert client.request({"op": "ping"})["ok"] is True
        # exactly one standoff for the shed retry — the hint, not
        # hint + backoff stacked
        assert slept == [7.5]
    finally:
        client.close()
        server_side.close()
        thread.join(timeout=5.0)


def test_client_discards_stale_rq_responses(tmp_path):
    client = DaemonClient(str(tmp_path), timeout=2.0)
    ours, theirs = socket.socketpair()
    try:
        client._sock = ours
        theirs.sendall(encode_frame({"ok": True, "rq": 1, "tag": "stale"}))
        theirs.sendall(encode_frame({"ok": True, "rq": 2, "tag": "fresh"}))
        assert client._recv_matching(2)["tag"] == "fresh"
    finally:
        ours.close()
        theirs.close()


def test_client_rejects_response_from_the_future(tmp_path):
    client = DaemonClient(str(tmp_path), timeout=2.0)
    ours, theirs = socket.socketpair()
    try:
        client._sock = ours
        theirs.sendall(encode_frame({"ok": True, "rq": 9}))
        with pytest.raises(ProtocolError):
            client._recv_matching(2)
    finally:
        ours.close()
        theirs.close()


def test_client_backoff_is_capped_by_the_deadline(tmp_path):
    sleeps = []
    client = DaemonClient(
        str(tmp_path), timeout=0.2, max_attempts=4,
        backoff_base=5.0, sleep=sleeps.append,
    )
    # nothing listens on the socket: every attempt fails instantly
    with pytest.raises((DaemonUnavailable, DeadlineError)):
        client.request({"op": "ping"}, deadline=0.5)
    assert sleeps, "connection refusals must be retried"
    # uncapped, the first standoff alone would be >= backoff_base
    assert client.backoff(0) > 0.5
    assert all(standoff <= 0.5 for standoff in sleeps)


def test_client_exhausted_deadline_raises_without_sleeping(tmp_path):
    sleeps = []
    client = DaemonClient(
        str(tmp_path), timeout=0.2, max_attempts=5, sleep=sleeps.append,
    )
    with pytest.raises(DeadlineError):
        client.request({"op": "ping"}, deadline=0.0)
    assert sleeps == []


# --------------------------------------------------------------------- #
# Injected network faults absorbed end to end (net: shim)
# --------------------------------------------------------------------- #


@pytest.fixture
def clean_net_faults(monkeypatch):
    """A pristine process-wide net-fault shim before and after."""
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    set_net_faults(None)
    yield
    set_net_faults(None)


def test_server_side_drop_is_absorbed_by_client_retry(
    tmp_path, clean_net_faults
):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        set_net_faults(NetFaults([
            NetFaultSpec("server", NetFaultKind.DROP, 1, "ping"),
        ]))
        h.client.timeout = 0.3
        # the first ping vanishes server-side; the retry is answered
        assert h.client.ping()["ok"] is True
    assert pool.state.counters["done"] == 0


def test_server_side_duplicate_is_absorbed_by_rq_discard(
    tmp_path, clean_net_faults
):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        set_net_faults(NetFaults([
            NetFaultSpec("server", NetFaultKind.DUPLICATE, 1, "ping"),
        ]))
        assert h.client.ping()["ok"] is True
        # the duplicated response is still in the stream; the next
        # exchange must discard it by its stale rq stamp, not deliver it
        stats = h.client.stats()
        assert stats["ok"] is True
        assert "cache" in stats


def test_client_disconnect_mid_stream_does_not_kill_daemon(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool) as h:
        sock = raw_connect(h.daemon)
        # half a frame, then vanish — the daemon must shrug it off
        sock.sendall(struct.pack(">I", 500) + b'{"op": "subm')
        sock.close()
        time.sleep(0.1)
        assert h.client.ping()["ok"] is True


def test_stale_clients_evicted_on_ttl(tmp_path):
    pool = make_pool(tmp_path)
    with DaemonHarness(pool, client_ttl=0.2) as h:
        sock = raw_connect(h.daemon)
        try:
            deadline = time.monotonic() + 5.0
            evicted = False
            while time.monotonic() < deadline:
                if h.client.stats()["evicted"] >= 1:
                    evicted = True
                    break
                time.sleep(0.05)
            assert evicted, "idle client never evicted"
            assert sock.recv(1) == b""  # server closed our end
        finally:
            sock.close()


# --------------------------------------------------------------------- #
# Load shedding carries retry-after; the client honors it
# --------------------------------------------------------------------- #


def test_shed_response_carries_retry_after_hint(tmp_path):
    pool = make_pool(
        tmp_path,
        admission=AdmissionPolicy(max_depth=2, high_watermark=1,
                                  low_watermark=1),
    )
    daemon = SweepDaemon(pool)
    pool.submit("nw", "baseline")
    shed = daemon.handle_request(
        {"op": "submit", "benchmark": "nw", "config": "sched"}
    )
    assert shed["ok"] is False
    assert shed["error"] == "admission"
    assert shed["retry_after"] > 0
    assert pool.state.counters["shed"] == 1
    pool.close()


def test_client_sleeps_retry_after_then_raises_admission(tmp_path):
    # the queued cell hangs (injected fault) so the daemon stays busy
    # and pending depth holds at the watermark while the client submits
    plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
    pool = make_pool(
        tmp_path,
        fault_plan=plan,
        timeout=6.0,  # long enough that both client attempts land
        retry=RetryPolicy(max_attempts=1),  # inside the hung cell
        admission=AdmissionPolicy(max_depth=2, high_watermark=1,
                                  low_watermark=1),
    )
    pool.submit("nw", "baseline")  # fills the queue to the watermark
    slept = []
    with DaemonHarness(pool) as h:
        # two attempts: both land inside the hung cell's 3s lifetime,
        # so the second shed is terminal and raises
        client = DaemonClient(
            pool.directory, timeout=5.0, max_attempts=2,
            sleep=slept.append,
        )
        try:
            with pytest.raises(AdmissionError) as excinfo:
                client.submit("nw", "sched")
            assert excinfo.value.retry_after > 0
            # every shed response's hint was slept before retrying
            hint = excinfo.value.retry_after
            assert slept.count(hint) >= 1
        finally:
            client.close()


# --------------------------------------------------------------------- #
# Deadlines: client -> queue -> worker lease, never silently kept
# --------------------------------------------------------------------- #


def test_pending_job_past_deadline_fails_without_running(tmp_path):
    now = [1000.0]
    pool = make_pool(tmp_path, wall_clock=lambda: now[0])
    pool.submit("nw", "baseline", deadline=5.0)
    now[0] += 10.0  # the deadline passes while the job is still queued
    pool.run()
    pool.close()
    job = pool.state.jobs["nw:baseline"]
    assert job.state == FAILED
    assert job.error_class == "deadline"
    assert pool.state.counters["done"] == 0
    # a deadline blow says nothing about the workload: no breaker food
    assert not pool.breakers or pool.breaker_for("nw").allow()[0]


def test_deadline_propagates_to_worker_lease_and_preempts_midrun(tmp_path):
    plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
    pool = make_pool(
        tmp_path,
        fault_plan=plan,
        retry=RetryPolicy(max_attempts=3),
    )
    pool.submit("nw", "baseline", deadline=1.2)
    job = pool.state.jobs["nw:baseline"]
    assert job.deadline_unix > 0
    pool.run()
    pool.close()
    job = pool.state.jobs["nw:baseline"]
    assert job.state == FAILED
    assert job.error_class == "deadline"
    assert "deadline" in job.message


def test_daemon_deadline_surfaces_as_exit_class_to_client(tmp_path):
    plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
    pool = make_pool(tmp_path, fault_plan=plan)
    with DaemonHarness(pool) as h:
        submitted = h.client.submit("nw", "baseline", deadline=1.2)
        with pytest.raises(DeadlineError):
            h.client.wait(job_id=submitted["job_id"])


# --------------------------------------------------------------------- #
# Cancel: pending cancels immediately, running is preempted
# --------------------------------------------------------------------- #


def test_cancel_pending_job(tmp_path):
    pool = make_pool(tmp_path)
    pool.submit("nw", "baseline")
    job = pool.cancel("nw:baseline")
    assert job.state == CANCELLED
    assert pool.state.counters["cancelled"] == 1
    # cancelled jobs never run
    pool.run()
    assert pool.state.counters["done"] == 0
    pool.close()


def test_cancel_terminal_job_is_a_noop(tmp_path):
    pool = make_pool(tmp_path)
    pool.submit("nw", "baseline")
    pool.run()
    job = pool.cancel("nw:baseline")
    assert job.state == DONE  # the cancel lost the race, honestly
    pool.close()


def test_cancel_running_job_preempts_worker(tmp_path):
    plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
    pool = make_pool(tmp_path, fault_plan=plan)
    pool.submit("nw", "baseline")
    # flag the cancel before the pool leases it: the first heartbeat
    # (~1s into the hung worker) must preempt and journal the cancel
    pool._cancel_requested.add("nw:baseline")
    started = time.monotonic()
    pool.run()
    elapsed = time.monotonic() - started
    pool.close()
    job = pool.state.jobs["nw:baseline"]
    assert job.state == CANCELLED
    assert pool.state.counters["reclaimed"] == 1
    assert pool.state.counters["cancelled"] == 1
    # the preempt kills the worker immediately — no 5s join stall
    assert elapsed < 4.0


def test_heartbeat_yield_decisions_are_deterministic(tmp_path):
    now = [1000.0]
    pool = make_pool(tmp_path, wall_clock=lambda: now[0])
    pool.submit("nw", "baseline", deadline=50.0)
    job = pool.state.jobs["nw:baseline"]
    # no cancel, no deadline, no rival: the heartbeat just renews
    pool.leases.grant(job.job_id, "test")
    pool._heartbeat(job, started_wall=1000.0)
    # a pending cancel wins over everything
    pool._cancel_requested.add(job.job_id)
    with pytest.raises(PreemptRequest, match="cancel"):
        pool._heartbeat(job, started_wall=1000.0)
    pool._cancel_requested.clear()
    # a blown deadline raises the taxonomy error
    now[0] = 1051.0
    with pytest.raises(DeadlineError):
        pool._heartbeat(job, started_wall=1000.0)
    pool.close()


def test_higher_priority_job_preempts_running_cell(tmp_path):
    plan = FaultPlan().add("nw", "baseline", FaultKind.TIMEOUT)
    pool = make_pool(
        tmp_path,
        fault_plan=plan,
        timeout=2.0,
        retry=RetryPolicy(max_attempts=1),
    )
    pool.submit("nw", "baseline", priority=0)
    submitted = []

    def rival_submit():
        if not submitted:
            submitted.append(True)
            pool.submit("nw", "sched", priority=5)

    pool.on_heartbeat = rival_submit
    pool.run()
    pool.close()
    rival = pool.state.jobs["nw:sched"]
    victim = pool.state.jobs["nw:baseline"]
    assert rival.state == DONE
    assert pool.state.counters["reclaimed"] >= 1
    # the preempted cell kept its attempts and ran again afterwards
    # (its injected fault then times it out terminally)
    assert victim.state == FAILED
    assert victim.error_class == "timeout"
    # the rival finished BEFORE the victim's final record
    assert rival.updated_seq < victim.updated_seq


# --------------------------------------------------------------------- #
# Chaos: SIGKILL the daemon mid-request; retried request is answered
# byte-identically with no duplicate execution
# --------------------------------------------------------------------- #


def spawn_daemon(svc_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--daemon",
            "--scale", "micro", "--service-dir", svc_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=REPO_ROOT,
    )


def wait_for_socket(svc_dir, timeout=30.0):
    client = DaemonClient(svc_dir, timeout=5.0)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            client.ping()
            return client
        except Exception:
            time.sleep(0.1)
    raise RuntimeError("daemon subprocess never served the socket")


def test_sigkill_daemon_then_retry_is_byte_identical(tmp_path):
    svc_dir = str(tmp_path / "svc")
    proc = spawn_daemon(svc_dir)
    try:
        client = wait_for_socket(svc_dir)
        first = client.submit("nw", "baseline")
        key = first["key"]
        client.close()
        # kill -9 the daemon mid-request: the submit is journaled, the
        # result may or may not be — either way recovery must converge
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    proc2 = spawn_daemon(svc_dir)
    try:
        client = wait_for_socket(svc_dir)
        # the retried request carries the SAME idempotency key
        retried = client.submit("nw", "baseline", key=key)
        assert retried["job_id"] == first["job_id"]
        done = client.wait(key=key)
        assert done["state"] == DONE
        result_one = done["result"]
        # retry again: now it must come from the cache, byte-identical
        again = client.submit("nw", "baseline", key=key)
        assert again["cached"] is True
        assert again["result"] == result_one
        client.shutdown()
        client.close()
        proc2.wait(timeout=30)
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait(timeout=10)
    # no duplicate cell execution: the journal holds exactly one DONE
    # record for the job across both incarnations
    journal = Journal(os.path.join(svc_dir, "journal.jsonl"))
    records = journal.replay()
    done_records = [
        r for r in records
        if r["type"] == "done" and r["payload"]["job_id"] == "nw:baseline"
    ]
    snapshots = [r for r in records if r["type"] == "snapshot"]
    if snapshots:
        # shutdown compacted the log: the snapshot must agree instead
        assert len(done_records) <= 1
    else:
        assert len(done_records) == 1
    # and the durable cache entry is intact and validates
    from repro.service import ResultCache, RESULTS_DIR

    cache = ResultCache(os.path.join(svc_dir, RESULTS_DIR))
    entry = cache.get(key)
    assert entry is not None
    assert entry["result"]["cycles"] == result_one["cycles"]
