"""Wire-protocol unit tests: framing, validation, idempotency keys,
and the ``net:`` fault grammar."""

import socket
import struct

import pytest

from repro.engine.errors import ConfigError, ProtocolError
from repro.engine.faults import FaultPlan
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    NetFaultKind,
    NetFaults,
    NetFaultSpec,
    decode_body,
    encode_frame,
    error_response,
    frame_length,
    idempotency_key,
    ok_response,
    parse_net_spec,
    recv_frame,
    send_frame,
)


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        send_frame(a, {"op": "ping", "n": 1})
        body = recv_frame(b, timeout=2.0)
        assert body == {"op": "ping", "n": 1}
    finally:
        a.close()
        b.close()


def test_encode_is_canonical_and_deterministic():
    one = encode_frame({"b": 1, "a": 2})
    two = encode_frame({"a": 2, "b": 1})
    assert one == two  # sorted keys: key order cannot change the bytes


def test_oversized_body_refused_at_encode():
    with pytest.raises(ProtocolError, match="frame cap"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_frame_length_validation():
    assert frame_length(struct.pack(">I", 17)) == 17
    with pytest.raises(ProtocolError, match="truncated"):
        frame_length(b"\x00\x00")
    with pytest.raises(ProtocolError, match="zero-length"):
        frame_length(struct.pack(">I", 0))
    with pytest.raises(ProtocolError, match="exceeds"):
        frame_length(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_decode_body_rejects_garbage_and_non_objects():
    with pytest.raises(ProtocolError, match="not valid JSON"):
        decode_body(b"\xff\xfe{{{")
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_body(b"[1, 2, 3]")
    assert decode_body(b'{"op": "ping"}') == {"op": "ping"}


def test_recv_frame_raises_on_eof_mid_frame():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">I", 100) + b"{\"half\": tru")
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b, timeout=2.0)
    finally:
        b.close()


def test_idempotency_key_is_content_derived():
    key = idempotency_key("bfs", "abc123", "micro", 0)
    assert key == idempotency_key("bfs", "abc123", "micro", 0)
    assert len(key) == 64 and int(key, 16) >= 0
    # every component of the content identity changes the key
    assert key != idempotency_key("nw", "abc123", "micro", 0)
    assert key != idempotency_key("bfs", "def456", "micro", 0)
    assert key != idempotency_key("bfs", "abc123", "small", 0)
    assert key != idempotency_key("bfs", "abc123", "micro", 1)


def test_response_constructors():
    assert ok_response(x=1) == {"ok": True, "x": 1}
    shed = error_response("admission", "full", retry_after=2.5)
    assert shed == {
        "ok": False,
        "error": "admission",
        "message": "full",
        "retry_after": 2.5,
    }
    plain = error_response("protocol", "bad")
    assert "retry_after" not in plain


# --------------------------------------------------------------------- #
# net:<side>[.<op>]:<kind>[:<nth>|:*] grammar
# --------------------------------------------------------------------- #


def test_parse_net_spec_forms_and_roundtrip():
    spec = parse_net_spec("net:client:drop")
    assert (spec.side, spec.kind, spec.nth, spec.op) == (
        "client", NetFaultKind.DROP, 1, ""
    )
    spec = parse_net_spec("net:client.status:drop:*")
    assert (spec.side, spec.kind, spec.nth, spec.op) == (
        "client", NetFaultKind.DROP, 0, "status"
    )
    spec = parse_net_spec("net:server.submit:delay:3")
    assert (spec.side, spec.kind, spec.nth, spec.op) == (
        "server", NetFaultKind.DELAY, 3, "submit"
    )
    for text in (
        "net:client:drop",
        "net:client.status:drop:*",
        "net:server.submit:delay:3",
        "net:server:reorder",
        "net:client:reset:2",
    ):
        assert parse_net_spec(text).to_part() == text


def test_parse_net_spec_rejects_garbage():
    for text in (
        "net:client",                 # missing kind
        "net:client:drop:1:extra",    # too many fields
        "net:mars:drop",              # unknown side
        "net:worker:drop",            # the worker side is gone
        "net:client:teleport",        # unknown kind
        "net:client:reorder",         # reorder is server-only
        "net:client.submit:reorder:*",  # reorder is server-only
        "net:client:drop:0",          # nth must be >= 1 or '*'
        "net:client:drop:soon",       # nth not an int
    ):
        with pytest.raises(ConfigError):
            parse_net_spec(text)


def test_fault_plan_carries_net_specs_and_roundtrips():
    plan = FaultPlan.parse(
        "nw:baseline:crash:2;net:client.status:drop:*;net:server:reorder"
    )
    assert len(plan.net) == 2
    assert plan.net[0].op == "status"
    assert bool(plan)
    again = FaultPlan.parse(plan.to_env())
    assert again.net == plan.net
    assert again.specs == plan.specs
    with pytest.raises(ConfigError):
        FaultPlan.parse("bfs:baseline:crash;net:client:reorder")


def test_net_faults_single_shot_and_sustained():
    net = NetFaults([
        NetFaultSpec("client", NetFaultKind.DROP, 2),
        NetFaultSpec("server", NetFaultKind.RESET, 0),
    ])
    assert net.decide("client", "ping") is None
    fired = net.decide("client", "ping")
    assert fired is not None and fired.kind is NetFaultKind.DROP
    # single-shot: the third matching frame passes clean
    assert net.decide("client", "ping") is None
    # '*' never retires: every server frame is attacked
    for _ in range(3):
        assert net.decide("server", "status").kind is NetFaultKind.RESET
    assert len(net.decisions) == 4


def test_net_faults_op_scope_counts_only_matching_frames():
    net = NetFaults([
        NetFaultSpec("client", NetFaultKind.DROP, 2, "status"),
    ])
    assert net.decide("client", "submit") is None
    assert net.decide("client", "status") is None   # status #1
    assert net.decide("client", "wait") is None
    fired = net.decide("client", "status")          # status #2
    assert fired is not None and fired.op == "status"


def test_net_faults_env_refresh_resets_counts(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "net:client:drop")
    net = NetFaults()
    assert net.decide("client", "ping").kind is NetFaultKind.DROP
    assert net.decide("client", "ping") is None
    # a new plan is a new experiment: frame counts start over
    monkeypatch.setenv("REPRO_FAULT", "net:client:drop:2")
    assert net.decide("client", "ping") is None
    assert net.decide("client", "ping").kind is NetFaultKind.DROP
