"""Wire protocol for the sweep daemon: length-prefixed JSON frames.

Clients talk to ``repro serve --daemon`` over a Unix-domain socket.
Every message — request or response — is one *frame*::

    ┌────────────────┬──────────────────────────────┐
    │ 4-byte length  │  UTF-8 JSON object (body)    │
    │ (big-endian)   │  exactly `length` bytes      │
    └────────────────┴──────────────────────────────┘

The length prefix covers the body only and must be in
``(0, MAX_FRAME_BYTES]``; anything else is a framing violation.  A
framing violation desynchronizes the byte stream, so the daemon answers
with one error frame and closes the connection.  A frame that decodes
but is semantically invalid (not a JSON object, missing ``op``, unknown
``op``) is rejected with an error response on the still-synchronized
connection.  Neither case touches the WAL or takes the daemon down —
malformed input is the *client's* failure, never the service's.

Requests are JSON objects ``{"op": <str>, ...}``; responses are
``{"ok": true, ...}`` or ``{"ok": false, "error": <taxonomy class>,
"message": <str>[, "retry_after": <seconds>]}``.  Load-shed responses
carry ``retry_after`` hints the client library honors before
resubmitting.

Idempotency keys are content-derived — sha256 over the canonical
``(benchmark, config-hash, scale, seed)`` tuple — so a client that
times out and retries can never enqueue a duplicate: the retried
submission carries the same key, joins the in-flight job, or is
answered from the result cache byte-identically.

Network faults
--------------
The ``REPRO_FAULT`` grammar gains a ``net:`` family mirroring the PR 8
``disk:`` grammar, so chaos tests can lose, delay, duplicate, reorder,
and reset frames deterministically::

    net:<side>[.<op>]:<kind>[:<nth>|:*]

``side`` names *where* the fault fires: ``client`` attacks frames as
the client *sends* them (a ``drop`` is a request lost in flight);
``server`` attacks requests as the daemon *receives* them (after
decode, so ``.<op>`` can scope the fault to one operation, e.g.
``net:server.submit:drop:*`` loses every submission while status
traffic flows).  ``nth`` counts matching frames 1-based and the
fault fires exactly once (single-shot, like disk faults); ``*`` fires
on *every* matching frame, which is how a sustained partition is
spelled.  ``reorder`` only makes sense where requests are processed and
is rejected at parse time for the client side.  Decisions are
made by one process-wide :class:`NetFaults` instance that re-reads the
environment whenever it changes — byte-identical pass-through when no
``net:`` spec is configured.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..engine.errors import ConfigError, ProtocolError

#: protocol version spoken by this build (``ping`` reports it)
#: (2 = request-sequence echo; 3 = the worker-fleet ops are gone)
PROTOCOL_VERSION = 3

#: hard cap on one frame's body; larger prefixes are rejected unread
MAX_FRAME_BYTES = 1 << 20

#: daemon socket file name inside a service directory
SOCKET_NAME = "daemon.sock"

#: request operations the daemon understands
OPS = (
    "ping", "submit", "status", "wait", "cancel", "stats", "shutdown",
)

_LEN = struct.Struct(">I")

# --------------------------------------------------------------------- #
# Deterministic network-fault shim (net:<side>[.<op>]:<kind>[:<nth>|:*])
# --------------------------------------------------------------------- #
#: reserved REPRO_FAULT prefix for network faults
NET_PREFIX = "net"

#: environment variable carrying fault plans (same as disk/process)
NET_FAULT_ENV_VAR = "REPRO_FAULT"

#: sides a net fault can attach to
NET_SIDES = ("client", "server")

#: how long an injected ``delay`` stalls a frame
NET_DELAY_SECONDS = 0.25


class NetFaultKind(enum.Enum):
    """What happens to the matched frame."""

    #: the frame is lost in flight (sender: never sent; server: the
    #: request vanishes without a response — the client's timeout fires)
    DROP = "drop"
    #: the frame is stalled ``NET_DELAY_SECONDS`` then proceeds
    DELAY = "delay"
    #: the frame is delivered twice (at-least-once delivery; the
    #: duplicate must be absorbed by idempotency, never re-executed)
    DUPLICATE = "duplicate"
    #: the frame is held and processed after the connection's next one
    REORDER = "reorder"
    #: the connection is torn down mid-exchange (ECONNRESET)
    RESET = "reset"


#: kinds that only make sense where requests are *processed*
_SERVER_ONLY_KINDS = frozenset({NetFaultKind.REORDER})


@dataclass(frozen=True)
class NetFaultSpec:
    """One parsed ``net:`` fault: where, what, and which frame."""

    side: str
    kind: NetFaultKind
    #: 1-based index of the matching frame to attack; 0 means ``*``
    #: (every matching frame — a sustained partition, never retired)
    nth: int = 1
    #: restrict matching to one request op ("" matches any op)
    op: str = ""

    def to_part(self) -> str:
        scope = self.side + (f".{self.op}" if self.op else "")
        part = f"{NET_PREFIX}:{scope}:{self.kind.value}"
        if self.nth == 0:
            part += ":*"
        elif self.nth != 1:
            part += f":{self.nth}"
        return part


def parse_net_spec(part: str) -> NetFaultSpec:
    """Parse ``net:<side>[.<op>]:<kind>[:<nth>|:*]`` (ConfigError on garbage)."""
    fields = part.split(":")
    if fields[0] != NET_PREFIX or len(fields) not in (3, 4):
        raise ConfigError(
            f"bad net fault spec {part!r}; expected "
            "net:<side>[.<op>]:<kind>[:<nth>|:*]",
            field=NET_FAULT_ENV_VAR,
        )
    scope, kind_name = fields[1], fields[2]
    side, _, op = scope.partition(".")
    if side not in NET_SIDES:
        raise ConfigError(
            f"unknown net fault side {side!r}; choose from {list(NET_SIDES)}",
            field=NET_FAULT_ENV_VAR,
        )
    try:
        kind = NetFaultKind(kind_name)
    except ValueError:
        raise ConfigError(
            f"unknown net fault kind {kind_name!r}; choose from "
            f"{[k.value for k in NetFaultKind]}",
            field=NET_FAULT_ENV_VAR,
        ) from None
    if kind in _SERVER_ONLY_KINDS and side != "server":
        raise ConfigError(
            f"net fault kind {kind.value!r} is only valid on the server "
            f"side (got {part!r})",
            field=NET_FAULT_ENV_VAR,
        )
    nth = 1
    if len(fields) == 4:
        if fields[3] == "*":
            nth = 0
        else:
            try:
                nth = int(fields[3])
            except ValueError:
                raise ConfigError(
                    f"bad net fault frame index {fields[3]!r} in {part!r}",
                    field=NET_FAULT_ENV_VAR,
                ) from None
            if nth < 1:
                raise ConfigError(
                    f"net fault frame index must be >= 1 or '*' in {part!r}",
                    field=NET_FAULT_ENV_VAR,
                )
    return NetFaultSpec(side, kind, nth, op)


class NetFaults:
    """Deterministic, single-shot network-fault decisions.

    Mirrors the storage shim's discipline: the environment plan is
    re-read whenever the variable's text changes (frame counts reset
    with it), each spec fires on exactly the ``nth`` frame matching its
    (side, op) scope — or on every one for ``*`` — and everything is
    counted so tests can assert *which* frame was attacked.
    """

    def __init__(self, specs: Optional[List[NetFaultSpec]] = None) -> None:
        #: programmatically installed specs (tests); env specs add on
        self.specs: List[NetFaultSpec] = list(specs or [])
        #: single-shot specs that already fired
        self.fired: List[NetFaultSpec] = []
        #: every (spec, side, op) decision, in order (for assertions)
        self.decisions: List[Tuple[NetFaultSpec, str, str]] = []
        self._env_text: Optional[str] = None
        self._env_specs: List[NetFaultSpec] = []
        self._counts: Dict[Tuple[str, str], int] = {}

    def _refresh_env(self) -> None:
        text = os.environ.get(NET_FAULT_ENV_VAR, "")
        if text == self._env_text:
            return
        self._env_text = text
        self._env_specs = [
            parse_net_spec(part.strip())
            for part in text.split(";")
            if part.strip().startswith(NET_PREFIX + ":")
        ]
        # a new plan starts a new experiment: counts and shots reset
        self._counts = {}
        self.fired = [spec for spec in self.fired if spec in self.specs]

    def decide(self, side: str, op: str = "") -> Optional[NetFaultSpec]:
        """Count one frame at ``side`` and return the fault to fire."""
        self._refresh_env()
        candidates = self.specs + self._env_specs
        if not candidates:
            return None
        self._counts[(side, "")] = self._counts.get((side, ""), 0) + 1
        if op:
            self._counts[(side, op)] = self._counts.get((side, op), 0) + 1
        for spec in candidates:
            if spec.side != side:
                continue
            if spec.op and spec.op != op:
                continue
            if spec.nth == 0:
                self.decisions.append((spec, side, op))
                return spec
            if spec in self.fired:
                continue
            if self._counts.get((side, spec.op), 0) == spec.nth:
                self.fired.append(spec)
                self.decisions.append((spec, side, op))
                return spec
        return None


#: the process-wide decision maker (replaceable by tests)
_NET_FAULTS = NetFaults()


def get_net_faults() -> NetFaults:
    return _NET_FAULTS


def set_net_faults(net: Optional[NetFaults]) -> NetFaults:
    """Install a :class:`NetFaults` (tests); ``None`` resets to fresh."""
    global _NET_FAULTS
    _NET_FAULTS = net if net is not None else NetFaults()
    return _NET_FAULTS


def idempotency_key(
    benchmark: str, config_hash: str, scale: str, seed: int
) -> str:
    """Content-derived idempotency key for one sweep cell.

    A pure function of the cell's *content identity* — what would be
    simulated — so every client that asks for the same cell derives the
    same key without coordination.
    """
    token = f"{benchmark}\x00{config_hash}\x00{scale}\x00{seed}"
    return hashlib.sha256(token.encode()).hexdigest()


def encode_frame(body: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _LEN.pack(len(blob)) + blob


def decode_body(blob: bytes) -> Dict[str, Any]:
    """Parse one frame body; raise :class:`ProtocolError` if invalid."""
    try:
        body = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(body).__name__}"
        )
    return body


def frame_length(prefix: bytes) -> int:
    """Validate a 4-byte length prefix; raise on framing violations."""
    if len(prefix) != _LEN.size:
        raise ProtocolError(
            f"truncated frame length prefix ({len(prefix)} of "
            f"{_LEN.size} bytes)"
        )
    (length,) = _LEN.unpack(prefix)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return length


def send_frame(
    sock: socket.socket, body: Dict[str, Any], side: Optional[str] = None
) -> None:
    """Send one frame over a connected socket.

    ``side`` tags the sender for the net-fault shim (``"client"``);
    without it the send is never attacked.  A ``drop``
    loses the request in flight (the caller's read times out), a
    ``duplicate`` delivers it twice, a ``reset`` tears the connection
    down, and a ``delay`` stalls it — all decided deterministically.
    """
    frame = encode_frame(body)
    if side is not None:
        spec = get_net_faults().decide(side, op=str(body.get("op") or ""))
        if spec is not None:
            if spec.kind is NetFaultKind.DROP:
                return
            if spec.kind is NetFaultKind.DELAY:
                time.sleep(NET_DELAY_SECONDS)
            elif spec.kind is NetFaultKind.DUPLICATE:
                sock.sendall(frame)
            elif spec.kind is NetFaultKind.RESET:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                raise ConnectionResetError(
                    f"injected {spec.to_part()}: connection reset by peer"
                )
    sock.sendall(frame)


def recv_frame(
    sock: socket.socket, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """Receive exactly one frame; raise :class:`ProtocolError` on EOF
    mid-frame, framing violations, or undecodable bodies.

    ``socket.timeout`` propagates to the caller (the client's retry
    loop treats it like a dropped connection).
    """
    sock.settimeout(timeout)
    prefix = _recv_exact(sock, _LEN.size)
    length = frame_length(prefix)
    return decode_body(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                f"bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# --------------------------------------------------------------------- #
# Response constructors (one shape each, so clients can branch safely)
# --------------------------------------------------------------------- #
def ok_response(**fields: Any) -> Dict[str, Any]:
    body: Dict[str, Any] = {"ok": True}
    body.update(fields)
    return body


def error_response(
    error_class: str, message: str, retry_after: float = 0.0
) -> Dict[str, Any]:
    body: Dict[str, Any] = {
        "ok": False,
        "error": error_class,
        "message": message,
    }
    if retry_after:
        body["retry_after"] = retry_after
    return body
