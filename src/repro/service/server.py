"""The sweep daemon: a multi-client front door over one SweepService.

``repro serve --daemon`` binds a Unix-domain socket next to the journal
and serves the length-prefixed JSON protocol of :mod:`.protocol` to any
number of concurrent clients while the pool executes cells.  The intake
layer (this module) only parses requests and translates them into calls
on the policy layer (:mod:`.policy`) and the execution layer
(:mod:`.pool`); it owns no scheduling decisions and no queue state.

Design points:

* **single-threaded** — the daemon is one deterministic event loop.
  While a cell runs, the socket is *pumped from the supervisor's
  heartbeat hook* (``pool.on_heartbeat``), so clients keep getting
  answered mid-cell without threads; ``wait`` is client-side polling,
  never a server-side block.
* **failure containment** — a framing violation (bad length prefix,
  oversized frame) desynchronizes one connection's byte stream: that
  connection gets one error frame and is closed.  A well-framed but
  invalid body gets an error response on the still-open connection.
  Neither touches the WAL or the daemon's lifetime.
* **idempotent intake** — a ``submit`` whose content-derived key names
  a finished cell is answered from the result cache (byte-identical to
  the first answer); one naming an in-flight cell joins it.  A client
  that times out and retries can never enqueue a duplicate.
* **stale-client eviction** — connections idle past ``client_ttl``
  seconds are closed, so a dropped client cannot pin daemon resources.
* **load shedding** — admission refusals surface as error responses
  carrying the controller's deterministic ``retry_after`` hint.
"""

from __future__ import annotations

import os
import re
import selectors
import socket
import time
from typing import Any, Callable, Dict, Optional

from ..engine.errors import AdmissionError, ProtocolError, SimulationError
from ..engine.interrupt import GracefulInterrupt
from .invariants import check_service_invariants
from .pool import SweepService
from .protocol import (
    MAX_FRAME_BYTES,
    NET_DELAY_SECONDS,
    OPS,
    PROTOCOL_VERSION,
    SOCKET_NAME,
    _LEN,
    NetFaultKind,
    decode_body,
    encode_frame,
    error_response,
    frame_length,
    get_net_faults,
    ok_response,
)

#: shape of a content-derived idempotency key (sha256 hexdigest).  The
#: key names a file in the result cache, so anything else — path
#: separators above all — is rejected at intake before it can reach
#: the filesystem layer
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def _valid_key(key: str) -> bool:
    return _KEY_RE.fullmatch(key) is not None


class _Client:
    """One accepted connection and its partially-read frame."""

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.buffer = b""
        self.out = b""
        self.last_active = now
        #: response held back by an injected ``net:server:reorder``
        #: fault; emitted *after* the connection's next response
        self.held: Optional[Dict[str, Any]] = None


class SweepDaemon:
    """Socket front door for one :class:`SweepService` directory."""

    def __init__(
        self,
        pool: SweepService,
        socket_path: Optional[str] = None,
        client_ttl: float = 30.0,
        idle_poll: float = 0.2,
    ) -> None:
        self.pool = pool
        self.socket_path = socket_path or os.path.join(
            pool.directory, SOCKET_NAME
        )
        self.client_ttl = client_ttl
        self.idle_poll = idle_poll
        self.clock = pool.clock
        self.selector: Optional[selectors.BaseSelector] = None
        self.listener: Optional[socket.socket] = None
        self.clients: Dict[int, _Client] = {}
        self.requests_served = 0
        self.evicted = 0
        self.rejected_frames = 0
        self._shutdown_requested = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def serve_forever(
        self, interrupt: Optional[GracefulInterrupt] = None
    ) -> Dict[str, int]:
        """Run the daemon until a drain is requested.

        Unlike ``SweepService.run`` the daemon does *not* exit on an
        empty queue — it keeps the socket open for the next client.
        Exits on signal drain (``interrupt``) or a ``shutdown`` request;
        either way the current cell finishes, the queue survives in the
        WAL, and the pidfile + socket are removed.
        """
        self.pool._require_recovered()
        self.pool._acquire_pidfile()
        self._bind()
        self.pool.on_heartbeat = self.pump
        try:
            self.pool._journal(
                "serve_start",
                {
                    "incarnation": self.pool.incarnation,
                    "pid": os.getpid(),
                    "unix": time.time(),
                    "daemon": True,
                },
            )
            while not self._drain(interrupt):
                self.pump(wait=self.idle_poll)
                if self._drain(interrupt):
                    break
                job = self.pool.next_job()
                if job is not None:
                    self.pool._run_job(job)
                    if self.pool.sanitize:
                        check_service_invariants(
                            self.pool.state, self.pool.leases
                        )
            self.pool._shutdown(interrupt)
        finally:
            self.pool.on_heartbeat = None
            self._close_all()
            self.pool._release_pidfile()
        return self.pool.state.depths()

    def _drain(self, interrupt: Optional[GracefulInterrupt]) -> bool:
        if self._shutdown_requested:
            return True
        return interrupt is not None and interrupt.requested

    def _bind(self) -> None:
        # a dead daemon's socket file blocks bind(); the pidfile guard
        # already proved no live server owns this directory, so the
        # leftover inode is stale by construction
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.setblocking(False)
        self.listener.bind(self.socket_path)
        self.listener.listen(64)
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.listener, selectors.EVENT_READ)

    def _close_all(self) -> None:
        for client in list(self.clients.values()):
            self._drop(client)
        if self.selector is not None:
            self.selector.close()
            self.selector = None
        if self.listener is not None:
            self.listener.close()
            self.listener = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    # The pump: one pass over ready sockets (also runs mid-cell, from
    # the supervisor heartbeat, so clients stay served while we simulate)
    # ------------------------------------------------------------------ #
    def pump(self, wait: float = 0.0) -> None:
        if self.selector is None:
            return
        for key, mask in self.selector.select(timeout=wait):
            if key.fileobj is self.listener:
                self._accept()
                continue
            client = self.clients.get(key.fd)
            if client is None:
                continue  # dropped earlier in this same pass
            if mask & selectors.EVENT_WRITE:
                self._flush(client)
            if mask & selectors.EVENT_READ and client.sock.fileno() >= 0:
                self._read(client)
        self._evict_stale()

    def _accept(self) -> None:
        assert self.listener is not None and self.selector is not None
        try:
            sock, _ = self.listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        client = _Client(sock, self.clock())
        self.clients[sock.fileno()] = client
        self.selector.register(sock, selectors.EVENT_READ)

    def _read(self, client: _Client) -> None:
        try:
            chunk = client.sock.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop(client)
            return
        if not chunk:
            self._drop(client)  # client went away cleanly
            return
        client.last_active = self.clock()
        client.buffer += chunk
        # drain every complete frame in the buffer (a client may batch)
        while True:
            if len(client.buffer) < _LEN.size:
                return
            try:
                length = frame_length(client.buffer[: _LEN.size])
            except ProtocolError as exc:
                # the byte stream is desynchronized: one error frame,
                # then the connection dies — the daemon does not
                self.rejected_frames += 1
                self._send(client, error_response("protocol", str(exc)))
                self._drop(client)
                return
            if len(client.buffer) < _LEN.size + length:
                if len(client.buffer) > _LEN.size + MAX_FRAME_BYTES:
                    self._drop(client)  # unreachable belt-and-braces
                return
            blob = client.buffer[_LEN.size : _LEN.size + length]
            client.buffer = client.buffer[_LEN.size + length :]
            self._handle_frame(client, blob)
            if client.sock.fileno() < 0:
                return  # handler dropped the client

    def _handle_frame(self, client: _Client, blob: bytes) -> None:
        try:
            request = decode_body(blob)
        except ProtocolError as exc:
            # well-framed garbage: the stream is still synchronized, so
            # answer and keep the connection
            self.rejected_frames += 1
            self._send(client, error_response("protocol", str(exc)))
            return
        # server-side network chaos: the request is attacked *after*
        # decode, so a fault can be scoped to one op (net:server.<op>:…)
        spec = get_net_faults().decide(
            "server", op=str(request.get("op") or "")
        )
        if spec is not None:
            if spec.kind is NetFaultKind.DROP:
                return  # the request vanishes; the client's timeout fires
            if spec.kind is NetFaultKind.RESET:
                self._drop(client)
                return
            if spec.kind is NetFaultKind.DELAY:
                time.sleep(NET_DELAY_SECONDS)
            elif spec.kind is NetFaultKind.DUPLICATE:
                # the response frame is delivered twice; the client's
                # rq discard absorbs the extra copy
                response = self.handle_request(request)
                self._send(client, response)
                self._send(client, response)
                return
            elif spec.kind is NetFaultKind.REORDER:
                # hold this response until the connection's next one
                client.held = self.handle_request(request)
                return
        self._send(client, self.handle_request(request))
        if client.held is not None:
            held, client.held = client.held, None
            self._send(client, held)  # the reordered late arrival

    def _send(self, client: _Client, response: Dict[str, Any]) -> None:
        try:
            frame = encode_frame(response)
        except ProtocolError as exc:
            frame = encode_frame(
                error_response("protocol", f"response too large: {exc}")
            )
        client.out += frame
        self._flush(client)

    def _flush(self, client: _Client) -> None:
        """Write as much buffered output as the kernel will take.

        A full send buffer (slow reader draining a large result frame)
        is back-pressure, not an error: the remainder stays queued on
        the client and the selector watches ``EVENT_WRITE`` until it
        drains.  Only a real socket error drops the connection.
        """
        while client.out:
            try:
                sent = client.sock.send(client.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._drop(client)
                return
            if sent == 0:
                break
            client.out = client.out[sent:]
            client.last_active = self.clock()
        self._watch(client)

    def _watch(self, client: _Client) -> None:
        """Keep the selector interested in writes while output queues."""
        if self.selector is None or client.sock.fileno() < 0:
            return
        events = selectors.EVENT_READ
        if client.out:
            events |= selectors.EVENT_WRITE
        try:
            self.selector.modify(client.sock, events)
        except (KeyError, ValueError):
            pass

    def _drop(self, client: _Client) -> None:
        fd = client.sock.fileno()
        if fd >= 0:
            if self.selector is not None:
                try:
                    self.selector.unregister(client.sock)
                except (KeyError, ValueError):
                    pass
            self.clients.pop(fd, None)
            client.sock.close()

    def _evict_stale(self) -> None:
        """Close connections idle past the TTL (heartbeat loss)."""
        now = self.clock()
        for client in list(self.clients.values()):
            if now - client.last_active > self.client_ttl:
                self.evicted += 1
                self._drop(client)

    # ------------------------------------------------------------------ #
    # Request dispatch (pure: request dict in, response dict out)
    # ------------------------------------------------------------------ #
    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        response = self._dispatch(request)
        # echo the client's request stamp so it can discard stale
        # responses (duplicated/reordered frames from the net: shim)
        rq = request.get("rq")
        if isinstance(rq, int):
            response["rq"] = rq
        return response

    def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op not in OPS:
            return error_response(
                "protocol",
                f"unknown op {op!r}; expected one of {', '.join(OPS)}",
            )
        handler = getattr(self, f"_op_{op}")
        try:
            response = handler(request)
        except AdmissionError as exc:
            return error_response(
                "admission",
                str(exc),
                retry_after=getattr(exc, "retry_after", 0.0),
            )
        except SimulationError as exc:
            return error_response(exc.error_class, str(exc))
        except KeyError as exc:
            return error_response("protocol", f"unknown job {exc}")
        except Exception as exc:  # containment: one request can get a
            # wrong answer; it must never unwind the event loop and
            # take the daemon down for every other client
            return error_response(
                "protocol",
                f"internal error handling {op!r}: "
                f"{type(exc).__name__}: {exc}",
            )
        self.requests_served += 1
        return response

    def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            version=PROTOCOL_VERSION,
            incarnation=self.pool.incarnation,
            pid=os.getpid(),
        )

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        benchmark = request.get("benchmark")
        config_name = request.get("config")
        if not isinstance(benchmark, str) or not isinstance(config_name, str):
            return error_response(
                "protocol", "submit needs string 'benchmark' and 'config'"
            )
        priority = request.get("priority", 0)
        deadline = request.get("deadline")
        if not isinstance(priority, int):
            return error_response("protocol", "'priority' must be an int")
        if deadline is not None and not isinstance(deadline, (int, float)):
            return error_response(
                "protocol", "'deadline' must be seconds (number) or absent"
            )
        key = request.get("key")
        if key is not None and (
            not isinstance(key, str) or not _valid_key(key)
        ):
            return error_response(
                "protocol",
                "'key' must be a 64-char hex idempotency key",
            )
        # a retried request whose cell already finished is answered
        # straight from the content-addressed cache — no re-simulation,
        # byte-identical result payload
        if key:
            cached = self.pool.cached_result(key)
            if cached is not None:
                return ok_response(
                    job_id=cached.get("job_id", ""),
                    key=key,
                    state="DONE",
                    cached=True,
                    result=cached["result"],
                )
        job = self.pool.submit(
            benchmark,
            config_name,
            priority=priority,
            deadline=float(deadline) if deadline is not None else None,
            idempotency_key=key,
        )
        response = ok_response(
            job_id=job.job_id,
            key=job.idempotency_key,
            state=job.state,
            cached=False,
        )
        if job.result is not None:
            cached = self.pool.cached_result(job.idempotency_key)
            if cached is not None:
                response["cached"] = True
                response["result"] = cached["result"]
            else:
                response["result"] = job.result
        return response

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id")
        if job_id is None:
            return ok_response(
                depths=self.pool.state.depths(),
                counters=dict(self.pool.state.counters),
            )
        if not isinstance(job_id, str):
            return error_response(
                "protocol", "'job_id' must be a string or absent"
            )
        job = self.pool.state.jobs[job_id]
        return ok_response(job=job.to_payload())

    def _op_wait(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One nonblocking poll of a job; clients loop with backoff.

        Server-side blocking would let one slow job starve every other
        client of the single-threaded daemon, so ``wait`` is a status
        probe that also carries the result once terminal.
        """
        job_id = request.get("job_id")
        key = request.get("key")
        if key is not None and (
            not isinstance(key, str) or not _valid_key(key)
        ):
            return error_response(
                "protocol",
                "'key' must be a 64-char hex idempotency key",
            )
        job = None
        if isinstance(job_id, str):
            job = self.pool.state.jobs.get(job_id)
        if job is None and isinstance(key, str):
            mapped = self.pool.state.by_key.get(key)
            if mapped is not None:
                job = self.pool.state.jobs.get(mapped)
        if job is None and isinstance(key, str):
            cached = self.pool.cached_result(key)
            if cached is not None:
                return ok_response(
                    job_id=cached.get("job_id", ""),
                    key=key,
                    state="DONE",
                    done=True,
                    cached=True,
                    result=cached["result"],
                )
        if job is None:
            return error_response(
                "protocol", f"unknown job (job_id={job_id!r}, key={key!r})"
            )
        done = job.state in ("DONE", "FAILED", "QUARANTINED", "CANCELLED")
        response = ok_response(
            job_id=job.job_id,
            key=job.idempotency_key,
            state=job.state,
            done=done,
        )
        if job.state == "DONE":
            cached = (
                self.pool.cached_result(job.idempotency_key)
                if job.idempotency_key
                else None
            )
            if cached is not None:
                response["cached"] = True
                response["result"] = cached["result"]
            else:
                response["result"] = job.result
        elif done:
            response["error"] = job.error_class
            response["message"] = job.message
        return response

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            return error_response("protocol", "cancel needs string 'job_id'")
        job = self.pool.cancel(job_id)
        return ok_response(job_id=job.job_id, state=job.state)

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            depths=self.pool.state.depths(),
            counters=dict(self.pool.state.counters),
            cache=self.pool.results.stats(),
            clients=len(self.clients),
            requests_served=self.requests_served,
            evicted=self.evicted,
            rejected_frames=self.rejected_frames,
        )

    def _op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self._shutdown_requested = True
        return ok_response(draining=True)
