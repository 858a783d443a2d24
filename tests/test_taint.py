"""Bidirectional dataflow: backward payload recovery and forward dispatch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rilmine import oracle, taint
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.channel import filter_commands
from rilmine.fixtures import (
    C,
    I,
    R,
    S,
    U,
    block,
    build_program,
    db_signatures,
    func,
    gen_fig2,
    gen_fig5,
    gen_hybrid,
    ret_stub,
)
from rilmine.taint import (
    LengthSource,
    PayloadBytes,
    backward_taint,
    canonical_api,
    concretize_payload,
    find_sources,
    forward_taint,
    parse_payload_hex,
    payload_hex,
)


def _cg(p):
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    return cg


# ---------------------------------------------------------------------------
# API table

def test_modeled_apis_are_frozen():
    assert taint.TAINT_APIS == {
        "write": {"direction": "backward", "tainted": (0, 1, 2),
                  "fd": 0, "payload": 1, "length": 2},
        "__write_chk": {"direction": "backward", "tainted": (0, 1, 2),
                        "fd": 0, "payload": 1, "length": 2},
        "ioctl": {"direction": "backward", "tainted": (1,),
                  "fd": 0, "payload": 1, "length": None},
        "sendto": {"direction": "backward", "tainted": (1, 2),
                   "fd": 0, "payload": 1, "length": 2},
        "read": {"direction": "forward", "tainted": (0, 1, 2),
                 "fd": 0, "payload": 1, "length": 2},
        "__read_chk": {"direction": "forward", "tainted": (0, 1, 2),
                       "fd": 0, "payload": 1, "length": 2},
    }


def test_fortified_variants_canonicalize():
    assert canonical_api("__write_chk") == "write"
    assert canonical_api("__read_chk") == "read"
    assert canonical_api("ioctl") == "ioctl"


def test_find_sources_lists_io_calls_sorted():
    p, _ = gen_fig2()
    qs = find_sources(p)
    assert [(q.api, q.site[0]) for q in qs] == [("write", "IoChannel::Write")]
    assert find_sources(p, direction="forward") == []
    p5, _ = gen_fig5()
    assert [q.api for q in find_sources(p5, direction="forward")] == ["read"]


# ---------------------------------------------------------------------------
# Backward walks

def test_backward_walk_crosses_both_virtual_hops():
    p, _ = gen_fig2()
    q = find_sources(p)[0]
    traces = backward_taint(p, _cg(p), q)
    assert len(traces) == 1
    t = traces[0]
    assert t.complete
    assert [fn for fn, _ in t.frames] == [
        "IoChannel::Write", "IpcModem::DoIoChannelRoutingTx",
        "IpcModem::SendMessage", "IpcTxCallGetCallList",
    ]
    assert t.root == "IpcTxCallGetCallList"
    assert t.terminator == ("stack", "IpcTxCallGetCallList", 16, 7)


def test_backward_walk_stops_without_virtual_edges():
    p, _ = gen_fig2()
    q = find_sources(p)[0]
    traces = backward_taint(p, build_direct_cg(p), q)  # no vcall recovery
    assert len(traces) == 1
    assert not traces[0].complete
    assert traces[0].reason == "no-callers"


def test_backward_fans_in_across_every_caller():
    leaf = func("tx", params=(("buf", "bytes"),), blocks=[block(0, [
        I("CALL", None, (C(3), R(0), C(4)), callee="write"), I("RETURN"),
    ])])

    def caller(name, addr):
        return func(name, blocks=[block(0, [
            I("CALL", None, (C(addr),), callee="tx"), I("RETURN"),
        ])])

    p = build_program("fanin", functions=[
        leaf, caller("a", 0x2000), caller("b", 0x2010)],
        data=[(0x2000, b"one\x00"), (0x2010, b"two\x00")],
        externals=["write"])
    traces = backward_taint(p, _cg(p), find_sources(p)[0])
    assert sorted(t.terminator for t in traces) == [
        ("ram", 0x2000), ("ram", 0x2010)]
    assert all(t.complete for t in traces)


# ---------------------------------------------------------------------------
# Concretization

def test_stack_payload_concretizes_to_static_bytes():
    p, _ = gen_fig2()
    t = backward_taint(p, _cg(p), find_sources(p)[0])[0]
    pb = concretize_payload(p, t)
    assert pb.data == bytes([0x07, 0, 0, 0, 0x02, 0x01, 0x02])
    assert pb.mask == "sssssss"
    assert pb.is_static
    assert pb.length_source == LengthSource("constant-arg", 7)
    assert payload_hex(pb) == "07 00 00 00 02 01 02"


def test_caller_controlled_byte_stays_dynamic():
    p, _ = gen_hybrid("direct")
    t = backward_taint(p, _cg(p), find_sources(p)[0])[0]
    pb = concretize_payload(p, t)
    assert len(pb.data) == 8
    assert pb.mask == "sssssssd"
    assert not pb.is_static
    assert pb.data[7] == 0
    assert payload_hex(pb).endswith(" ..")


def test_strlen_guard_bounds_derived_length():
    p, _ = gen_hybrid("derived")
    t = backward_taint(p, _cg(p), find_sources(p)[0])[0]
    pb = concretize_payload(p, t)
    assert pb.length_source == LengthSource("strlen-bounded", 255)
    assert pb.data[:7] == bytes([0x17, 0, 0, 0, 0x10, 0x03, 0x03])


def test_data_segment_payload_reads_program_bytes():
    f = func("tx", blocks=[block(0, [
        I("CALL", None, (C(3), C(0x2000), C(5)), callee="write"), I("RETURN"),
    ])])
    p = build_program("ram", functions=[f],
                      data=[(0x2000, b"hello\x00")], externals=["write"])
    t = backward_taint(p, _cg(p), find_sources(p)[0])[0]
    assert t.terminator == ("ram", 0x2000)
    pb = concretize_payload(p, t)
    assert pb.data == b"hello"
    assert pb.mask == "sssss"
    assert pb.length_source == LengthSource("constant-arg", 5)


def test_stack_payload_longer_than_the_frame_is_truncated_to_it():
    # The length comes from the IR; no byte lies past the 16-byte frame, so
    # a length of 2**40 must not be built up byte by byte.
    tx = func("tx", stack=16, blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(0)), callee="open"),
        I("STORE", None, (S(8, 1), C(7, 1))),
        I("CALL", None, (U(0), S(8, 1), C(2 ** 40)), callee="write"),
        I("RETURN"),
    ])])
    p = build_program("long", functions=[tx], data=[(0x2000, b"/dev/umts_ipc0\x00")],
                      externals=["open", "write"])
    cg = _cg(p)
    pb = concretize_payload(p, backward_taint(p, cg, find_sources(p)[0])[0])
    assert payload_hex(pb) == "07 .. .. .. .. .. .. .."
    assert pb.length_source == LengthSource("constant-arg", 2 ** 40)
    assert pb.notes[0] == f"length {2 ** 40} exceeds frame; truncated to 8"
    db, _ = filter_commands(p, cg)
    want = {("solicited", "write", "tx", "07 .. .. .. .. .. .. ..", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_immediate_request_code_becomes_word_payload():
    f = func("req", blocks=[block(0, [
        I("CALL", None, (C(3), C(0x55501)), callee="ioctl"), I("RETURN"),
    ])])
    p = build_program("imm", functions=[f], externals=["ioctl"])
    t = backward_taint(p, _cg(p), find_sources(p)[0])[0]
    assert t.terminator == ("const", 0x55501)
    pb = concretize_payload(p, t)
    assert pb.data == (0x55501).to_bytes(8, "little")
    assert pb.mask == "s" * 8
    assert pb.length_source == LengthSource("constant-arg", 8)


# ---------------------------------------------------------------------------
# Forward walks

def test_forward_taint_recovers_dispatch_table():
    p, m = gen_fig5(n_handlers=3)
    q = find_sources(p, direction="forward")[0]
    t = forward_taint(p, _cg(p), q)
    assert t.complete
    got = {(s.constant, s.handler) for s in t.sinks}
    assert got == {(0x11, "Nv::ProcessOpenFile"), (0x12, "Nv::ProcessNvRead"),
                   (0x13, "Nv::ProcessNvWrite")}
    assert all(s.fn == "Nv::ProcessRfsPacket" for s in t.sinks)
    assert t.root == "Nv::ProcessRfsPacket"


def test_notequal_guard_dispatches_on_fallthrough_successor():
    main = func("poll", blocks=[block(0, [
        I("CALL", U(1), (C(3), S(16, 32), C(32)), callee="read"),
        I("CALL", None, (S(16, 32),), callee="disp"),
        I("RETURN"),
    ])])
    disp = func("disp", params=(("pkt", "bytes"),), blocks=[
        block(0, [
            I("INT_ADD", U(0), (R(0), C(2))),
            I("LOAD", U(1, 1), (U(0),)),
            I("INT_NOTEQUAL", U(2, 1), (U(1, 1), C(7, 1))),
            I("CBRANCH", None, (U(2, 1),)),
        ], succ=(1, 2)),
        block(1, [I("RETURN")]),
        block(2, [I("CALL", None, (R(0),), callee="handle7"), I("RETURN")]),
    ])
    p = build_program("ne", functions=[main, disp, ret_stub("handle7", params=(("pkt", "bytes"),))],
                      externals=["read"])
    t = forward_taint(p, _cg(p), find_sources(p, direction="forward")[0])
    assert [(s.constant, s.handler) for s in t.sinks] == [(7, "handle7")]


def test_literal_arguments_do_not_seed_forward_taint():
    main = func("poll", blocks=[block(0, [
        I("CALL", U(1), (C(3), S(16, 32), C(32)), callee="read"),
        I("INT_EQUAL", U(2, 1), (C(32), C(9))),
        I("CBRANCH", None, (U(2, 1),)),
    ], succ=(1, 2)),
        block(1, [I("CALL", None, (), callee="lucky"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])
    p = build_program("lit", functions=[main, ret_stub("lucky")], externals=["read"])
    t = forward_taint(p, _cg(p), find_sources(p, direction="forward")[0])
    assert t.sinks == []


def test_store_taints_the_width_of_the_stored_value():
    # An 8-byte value stored through a 1-byte address operand covers
    # S(40, 8), so the compare at S(44, 1) reads tainted bytes.
    poll = func("poll", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(0)), callee="open"),
        I("CALL", U(1), (U(0), S(64, 16), C(16)), callee="read"),
        I("LOAD", U(2), (S(64, 8),)),
        I("STORE", None, (S(40, 1), U(2))),
        I("INT_EQUAL", U(3, 1), (S(44, 1), C(5, 1))),
        I("CBRANCH", None, (U(3, 1),)),
    ], succ=(1, 2)),
        block(1, [I("CALL", None, (), callee="handle5"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])
    p = build_program("wide", functions=[poll, ret_stub("handle5")],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"])
    cg = _cg(p)
    t = forward_taint(p, cg, find_sources(p, direction="forward")[0])
    assert [(s.constant, s.handler) for s in t.sinks] == [(5, "handle5")]
    db, _ = filter_commands(p, cg)
    want = {("unsolicited", "read", "poll", 5, "handle5", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


# ---------------------------------------------------------------------------
# Payload text form

@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), min_size=0, max_size=24))
def test_payload_hex_round_trip(cells):
    data = bytes(0 if dyn else v for v, dyn in cells)
    mask = "".join("d" if dyn else "s" for _, dyn in cells)
    pb = PayloadBytes(data, mask, LengthSource("unknown"))
    again = parse_payload_hex(payload_hex(pb))
    assert again.data == pb.data
    assert again.mask == pb.mask


def test_dynamic_bytes_must_be_zeroed():
    with pytest.raises(AssertionError):
        PayloadBytes(b"\x41", "d", LengthSource("unknown"))
