"""Bidirectional dataflow: backward payload recovery and forward dispatch."""

import pytest
from hypothesis import example, given
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
from rilmine.fixtures import _ladder
from rilmine.ir import ClassInfo, load_program, serialize
from rilmine.taint import (
    LengthSource,
    PayloadBytes,
    backward_taint,
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
    assert taint.IO_APIS == {
        "write": ("backward", 0, 1, 2),
        "__write_chk": ("backward", 0, 1, 2),
        "ioctl": ("backward", 0, 1, None),
        "sendto": ("backward", 0, 1, 2),
        "read": ("forward", 0, 1, 2),
        "__read_chk": ("forward", 0, 1, 2),
        "open": ("open", 0, None, None),
        "__open_2": ("open", 0, None, None),
        "fopen": ("open", 0, None, None),
        "pipe": ("pipe", None, None, None),
        "socket": ("socket", None, None, None),
    }


def test_find_sources_lists_io_calls_sorted():
    p, _ = gen_fig2()
    qs = find_sources(p)
    assert [(q.api, q.site[0], q.direction) for q in qs] == [
        ("write", "IoChannel::Write", "backward")]
    p5, _ = gen_fig5()
    assert [(q.api, q.direction) for q in find_sources(p5)] == [("read", "forward")]


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


def test_backward_walk_cuts_a_recursive_caller():
    # Send calls itself with its own buffer: that caller is already on the
    # path, so only IpcTxPing's frame is a root.
    send = func("Send", params=(("buf", "bytes"),), blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(2)), callee="open"),
        I("CALL", None, (U(0), R(0), C(4)), callee="write"),
        I("CALL", None, (R(0),), callee="Send"), I("RETURN"),
    ])])
    ping = func("IpcTxPing", blocks=[block(0, [
        *[I("COPY", S(16 + i, 1), (C(b, 1),)) for i, b in enumerate([7, 0, 0, 1])],
        I("CALL", None, (S(16, 4),), callee="Send"), I("RETURN"),
    ])])
    p = build_program("recursive", functions=[send, ping],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "write"])
    db, _ = filter_commands(p, _cg(p))
    want = {("solicited", "write", "IpcTxPing", "07 00 00 01", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


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


def _device_writer(*body, data=()):
    """A program whose function ``tx`` opens the device into ``U(0)`` and
    then runs ``body``."""
    tx = func("tx", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(0)), callee="open"), *body, I("RETURN"),
    ])])
    return build_program("tx", functions=[tx], externals=["open", "write"],
                         data=[(0x2000, b"/dev/umts_ipc0\x00"), *data])


def test_negative_constant_length_reads_the_string_not_a_wrapped_slice():
    # 2 - 9 is -7: read as a size_t, that runs past the segment's end, so
    # the payload is the string at the buffer, as for any overlong length.
    p = _device_writer(
        I("INT_SUB", U(1), (C(2), C(9))),
        I("CALL", None, (U(0), C(0x3000), U(1)), callee="write"),
        data=[(0x3000, bytes(range(1, 17)))],
    )
    cg = _cg(p)
    pb = concretize_payload(p, backward_taint(p, cg, find_sources(p)[0])[0])
    assert pb.data == bytes(range(1, 17))
    assert pb.length_source == LengthSource("constant-arg", -7)
    assert pb.notes == ("length exceeds data segment; truncated to string",)
    db, _ = filter_commands(p, cg)
    want = {("solicited", "write", "tx", payload_hex(pb), "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_constant_buffer_and_length_are_folded():
    p = _device_writer(
        I("INT_ADD", U(1), (C(0x3000), C(0))),
        I("INT_ADD", U(2), (C(4), C(3))),
        I("CALL", None, (U(0), U(1), U(2)), callee="write"),
        data=[(0x3000, bytes(range(9, 0, -1)))],
    )
    db, _ = filter_commands(p, _cg(p))
    want = {("solicited", "write", "tx", "09 08 07 06 05 04 03", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


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


def test_payload_is_read_at_the_call_that_sends_it():
    # tx writes 07 01, then stores 02 over byte 1 and writes 07 02.
    p = _device_writer(
        I("STORE", None, (S(16, 1), C(7, 1))), I("STORE", None, (S(17, 1), C(1, 1))),
        I("CALL", None, (U(0), S(16, 2), C(2)), callee="write"),
        I("STORE", None, (S(17, 1), C(2, 1))),
        I("CALL", None, (U(0), S(16, 2), C(2)), callee="write"),
    )
    db, _ = filter_commands(p, _cg(p))
    want = {("solicited", "write", "tx", hexs, "/dev/umts_ipc0") for hexs in ("07 01", "07 02")}
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
    (q,) = find_sources(p)
    sinks = forward_taint(p, _cg(p), q)
    got = {(s.constant, s.handler) for s in sinks}
    assert got == {(0x11, "Nv::ProcessOpenFile"), (0x12, "Nv::ProcessNvRead"),
                   (0x13, "Nv::ProcessNvWrite")}
    assert all(s.fn == "Nv::ProcessRfsPacket" for s in sinks)
    assert sinks == sorted(sinks, key=lambda s: (s.fn, s.loc))


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
    sinks = forward_taint(p, _cg(p), find_sources(p)[0])
    assert [(s.constant, s.handler) for s in sinks] == [(7, "handle7")]


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
    assert forward_taint(p, _cg(p), find_sources(p)[0]) == []


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
    sinks = forward_taint(p, cg, find_sources(p)[0])
    assert [(s.constant, s.handler) for s in sinks] == [(5, "handle5")]
    db, _ = filter_commands(p, cg)
    want = {("unsolicited", "read", "poll", 5, "handle5", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def _poll(*blocks):
    """A program whose function ``poll`` opens the device into ``U(0)``
    in block 0 and then runs ``blocks``."""
    poll = func("poll", blocks=[
        block(0, [I("CALL", U(0), (C(0x2000), C(0)), callee="open")], succ=(1,)),
        *blocks,
    ])
    p = build_program("fwd", functions=[poll, ret_stub("h")],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"])
    db, _ = filter_commands(p, _cg(p))
    return db_signatures(db), oracle.analyze(p).commands


def test_forward_taint_runs_to_a_fixpoint_over_a_loop():
    # Each pass over block 1 moves the count read in block 3 one COPY
    # further down the chain U10 <- U11 <- ... <- U16.
    copies = [I("COPY", U(10 + k), (U(11 + k),)) for k in range(6)]
    got, ref = _poll(
        block(1, [*copies, I("INT_EQUAL", U(20, 1), (U(10), C(0x42))),
                  I("CBRANCH", None, (U(20, 1),))], succ=(2, 3)),
        block(2, [I("CALL", None, (), callee="h"), I("RETURN")]),
        block(3, [I("CALL", U(16), (U(0), S(16, 32), C(32)), callee="read"),
                  I("BRANCH")], succ=(1,)),
    )
    assert got == ref == {("unsolicited", "read", "poll", 0x42, "h", "/dev/umts_ipc0")}


def test_dispatch_walk_follows_any_number_of_branch_blocks():
    hops = [block(k, [I("BRANCH")], succ=(k + 1,)) for k in range(2, 10)]
    got, ref = _poll(
        block(1, [I("CALL", U(1), (U(0), S(16, 32), C(32)), callee="read"),
                  I("INT_EQUAL", U(2, 1), (U(1), C(0x42))),
                  I("CBRANCH", None, (U(2, 1),))], succ=(2, 11)),
        *hops,
        block(10, [I("CALL", None, (), callee="h"), I("RETURN")]),
        block(11, [I("RETURN")]),
    )
    assert got == ref == {("unsolicited", "read", "poll", 0x42, "h", "/dev/umts_ipc0")}


def _guard_42(fid, cls=None, before=()):
    """``fid(pkt)`` runs ``before``, then calls ``Nv::Handle42(pkt)`` when
    byte 1 of ``pkt`` is 0x42."""
    pkt = R(0 if cls is None else 1)
    return func(fid, cls=cls, params=(("pkt", "bytes"),), blocks=[
        block(0, [*before, I("INT_ADD", U(0), (pkt, C(1))), I("LOAD", U(1, 1), (U(0),)),
                  I("INT_EQUAL", U(2, 1), (U(1, 1), C(0x42, 1))),
                  I("CBRANCH", None, (U(2, 1),))], succ=(1, 2)),
        block(1, [I("CALL", None, (pkt,), callee="Nv::Handle42"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])


def _read_frame(fid, cls=None, then=()):
    """``fid`` opens the device, reads 32 bytes into its frame at
    ``S(16, 32)`` and runs ``then``."""
    return func(fid, cls=cls, blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(0)), callee="open"),
        I("CALL", U(1), (U(0), S(16, 32), C(32)), callee="read"),
        *then, I("RETURN"),
    ])])


def _unsolicited_42(fns, classes=()):
    """The pipeline's and the reference analyzer's signatures for ``fns``
    plus a ``Nv::Handle42`` stub, and the pipeline's call graph."""
    p = build_program("fwd", classes=classes,
                      functions=[*fns, ret_stub("Nv::Handle42", params=(("pkt", "bytes"),))],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"])
    cg = _cg(p)
    db, _ = filter_commands(p, cg)
    return db_signatures(db), oracle.analyze(p).commands, cg


def test_forward_taint_follows_a_recovered_virtual_call():
    # Rx::Poll passes its buffer through slot 0 of the Handler at this+0x10.
    ctor = func("Rx::Rx", cls="Rx", params=(("h", "class:Handler"),), blocks=[block(0, [
        I("INT_ADD", U(0), (R(0), C(0x10))), I("STORE", None, (U(0), R(1))), I("RETURN"),
    ])])
    poll = _read_frame("Rx::Poll", cls="Rx", then=[
        I("INT_ADD", U(2), (R(0), C(0x10))), I("LOAD", U(3), (U(2),)),
        I("INT_ADD", U(4), (U(3), C(0))), I("LOAD", U(5), (U(4),)),
        I("CALLIND", None, (U(5), U(3), S(16, 32))),
    ])
    classes = [
        ClassInfo("Rx", constructors=["Rx::Rx"], members=["Rx::Poll"]),
        ClassInfo("Handler", vtable_addr=0x3200, vtable=["Handler::OnPacket"],
                  members=["Handler::OnPacket"]),
    ]
    got, ref, cg = _unsolicited_42([ctor, poll, _guard_42("Handler::OnPacket", cls="Handler")],
                                   classes)
    assert {(e.caller, e.callee) for e in cg.virtual_edges()} == {("Rx::Poll", "Handler::OnPacket")}
    want = {("unsolicited", "read", "Handler::OnPacket", 0x42, "Nv::Handle42", "/dev/umts_ipc0")}
    assert got == ref == want


def test_ladder_sinks_come_out_once_each_in_site_order():
    # Every round of the fixpoint finds each guard's sink again; it is kept
    # once, and the output is sorted by site. Guards repeat constants.
    k = 60
    consts = [0x10 + j % 7 for j in range(k)]
    handlers = [f"Nv::H{j}" for j in range(k)]
    p = build_program("ladder", functions=[
        _read_frame("poll", then=[I("CALL", None, (S(16, 32),), callee="Nv::Dispatch")]),
        func("Nv::Dispatch", params=(("pkt", "bytes"),), blocks=_ladder(consts, handlers, 1)),
        *(ret_stub(h, params=(("pkt", "bytes"),)) for h in handlers),
    ], data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"])
    (q,) = find_sources(p)
    got = [(s.fn, s.loc, s.constant, s.handler) for s in forward_taint(p, _cg(p), q)]
    assert got == [("Nv::Dispatch", (2 * j, 2 if j == 0 else 0), consts[j], handlers[j])
                   for j in range(k)]


def test_a_recomputed_compare_leaves_the_first_without_a_handler():
    # Block 1 computes U2 = (U1 == 0x42) twice before its CBRANCH, so the
    # walk from the first compare stops at the second. The loader makes
    # the two compares one object, which must not change that.
    text = serialize(build_program("fwd", functions=[
        func("poll", blocks=[
            block(0, [I("CALL", U(0), (C(0x2000), C(0)), callee="open")], succ=(1,)),
            block(1, [I("CALL", U(1), (U(0), S(16, 32), C(32)), callee="read"),
                      I("INT_EQUAL", U(2, 1), (U(1), C(0x42))),
                      I("INT_EQUAL", U(2, 1), (U(1), C(0x42))),
                      I("CBRANCH", None, (U(2, 1),))], succ=(2, 3)),
            block(2, [I("CALL", None, (), callee="h"), I("RETURN")]),
            block(3, [I("RETURN")]),
        ]),
        ret_stub("h"),
    ], data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"]))
    p = load_program(text)
    f = p.fn("poll")
    first, second = f.block(1).instructions[1:3]
    (q,) = find_sources(p)
    sinks = forward_taint(p, _cg(p), q)
    assert [(s.loc, s.constant, s.handler) for s in sinks] == [((1, 1), 0x42, None),
                                                              ((1, 2), 0x42, "h")]
    ref = oracle._Oracle(p)
    assert ref._handler_of(f, 1, 1, first) is None
    assert ref._handler_of(f, 1, 2, second) == "h"


def test_forward_taint_ends_on_a_recursive_dispatcher():
    # Nv::Dispatch calls itself twice before its guard: both calls ask the
    # question still open, (Nv::Dispatch, pkt tainted), which reads as
    # untainted, so the walk ends instead of branching 2**depth.
    recurse = [I("CALL", None, (R(0),), callee="Nv::Dispatch")] * 2
    got, ref, _ = _unsolicited_42([
        _read_frame("IpcRxPoll", then=[I("CALL", None, (S(16, 32),), callee="Nv::Dispatch")]),
        _guard_42("Nv::Dispatch", before=recurse),
    ])
    assert got == ref == {("unsolicited", "read", "Nv::Dispatch", 0x42, "Nv::Handle42",
                           "/dev/umts_ipc0")}


def test_forward_taint_walks_a_callee_first_met_inside_a_recursion():
    # Nv::Dispatch calls itself and then Nv::Guard. Guard's question is
    # first asked in the outermost Dispatch, so it is answered there, not
    # past the depth bound at the bottom of a chain of recursive calls.
    recurse = [I("CALL", None, (R(0),), callee="Nv::Dispatch"),
               I("CALL", None, (R(0),), callee="Nv::Guard")]
    dispatch = func("Nv::Dispatch", params=(("pkt", "bytes"),),
                    blocks=[block(0, [*recurse, I("RETURN")])])
    got, ref, _ = _unsolicited_42([
        _read_frame("IpcRxPoll", then=[I("CALL", None, (S(16, 32),), callee="Nv::Dispatch")]),
        dispatch, _guard_42("Nv::Guard"),
    ])
    assert got == ref == {("unsolicited", "read", "Nv::Guard", 0x42, "Nv::Handle42",
                           "/dev/umts_ipc0")}


def test_a_later_round_with_more_tainted_arguments_walks_the_callee_again():
    # U3 = COPY U2 comes after the call in linear order, so only the second
    # round passes Nv::Dispatch a tainted parameter 1, the one it guards.
    dispatch = func("Nv::Dispatch", params=(("a", "int"), ("b", "int")), blocks=[
        block(0, [I("INT_EQUAL", U(0, 1), (R(1), C(0x42))),
                  I("CBRANCH", None, (U(0, 1),))], succ=(1, 2)),
        block(1, [I("CALL", None, (R(1),), callee="Nv::Handle42"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])
    got, ref, _ = _unsolicited_42([
        _read_frame("IpcRxPoll", then=[
            I("COPY", U(2), (U(1),)),
            I("CALL", None, (U(2), U(3)), callee="Nv::Dispatch"),
            I("COPY", U(3), (U(2),)),
        ]),
        dispatch,
    ])
    assert got == ref == {("unsolicited", "read", "Nv::Dispatch", 0x42, "Nv::Handle42",
                           "/dev/umts_ipc0")}


def test_mutual_recursion_is_where_summaries_and_re_walks_differ():
    # A(pkt) calls B(pkt) and returns pkt; B(pkt) guards on A(pkt). The
    # pipeline answers B's question inside A, where A's is open and reads
    # untainted, and keeps that answer for poll's call of B; the reference
    # analyzer walks B again from poll, where A returns tainted data.
    poll = _read_frame("poll", then=[I("CALL", None, (S(16, 32),), callee=c) for c in "AB"])
    a = func("A", params=(("pkt", "bytes"),), ret="int", blocks=[block(0, [
        I("CALL", None, (R(0),), callee="B"), I("RETURN", None, (R(0),))])])
    b = func("B", params=(("pkt", "bytes"),), blocks=[
        block(0, [I("CALL", U(5), (R(0),), callee="A"),
                  I("INT_EQUAL", U(6, 1), (U(5), C(0x42))),
                  I("CBRANCH", None, (U(6, 1),))], succ=(1, 2)),
        block(1, [I("CALL", None, (R(0),), callee="Nv::Handle42"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])
    got, ref, _ = _unsolicited_42([poll, a, b])
    assert got == set()
    assert ref == {("unsolicited", "read", "B", 0x42, "Nv::Handle42", "/dev/umts_ipc0")}


@pytest.mark.parametrize("calls", [1, 2])
def test_an_internal_callee_returning_tainted_data_taints_each_call(calls):
    # U2 is byte 1 of the packet and ident returns its parameter; the guard
    # reads the result of the last of ``calls`` calls ident(U2).
    poll = func("poll", blocks=[
        block(0, [I("CALL", U(0), (C(0x2000), C(0)), callee="open"),
                  I("CALL", U(1), (U(0), S(16, 32), C(32)), callee="read"),
                  I("COPY", U(2, 1), (S(17, 1),)),
                  *[I("CALL", out, (U(2, 1),), callee="ident")
                    for out in (U(10), U(11))[-calls:]],
                  I("INT_EQUAL", U(20, 1), (U(11), C(0x42))),
                  I("CBRANCH", None, (U(20, 1),))], succ=(1, 2)),
        block(1, [I("CALL", None, (), callee="h"), I("RETURN")]),
        block(2, [I("RETURN")]),
    ])
    ident = func("ident", params=(("x", "int"),), ret="int",
                 blocks=[block(0, [I("RETURN", None, (R(0),))])])
    p = build_program("ident", functions=[poll, ident, ret_stub("h")],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read"])
    db, _ = filter_commands(p, _cg(p))
    want = {("unsolicited", "read", "poll", 0x42, "h", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def _dispatcher_sinks(blocks, handlers, externals=()):
    """The pipeline's and the reference analyzer's signatures for a poller
    that reads a packet and passes it to ``Nv::Dispatch`` (``blocks``),
    with ``handlers`` as stubs."""
    stubs = [ret_stub(h, params=(("pkt", "bytes"),)) for h in handlers]
    p = build_program("dispatch", functions=[
        _read_frame("IpcRxPoll", then=[I("CALL", None, (S(16, 32),), callee="Nv::Dispatch")]),
        func("Nv::Dispatch", params=(("pkt", "bytes"),), blocks=blocks), *stubs],
        data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "read", *externals])
    db, _ = filter_commands(p, _cg(p))
    return db_signatures(db), oracle.analyze(p).commands


def test_forward_taint_through_a_stack_cell_and_an_external_call():
    # Byte 1 goes through stack cell 8 before 0x42 == byte, with the
    # constant on the left; ntohs(byte) == 0x43 taints the external's result.
    got, ref = _dispatcher_sinks([
        block(0, [I("INT_ADD", U(0), (R(0), C(1))), I("LOAD", U(1, 1), (U(0),)),
                  I("COPY", S(8, 1), (U(1, 1),)), I("COPY", U(2, 1), (S(8, 1),)),
                  I("INT_EQUAL", U(3, 1), (C(0x42, 1), U(2, 1))),
                  I("CBRANCH", None, (U(3, 1),))], succ=(1, 2)),
        block(1, [I("CALL", None, (R(0),), callee="Nv::H42"), I("RETURN")]),
        block(2, [I("CALL", U(4, 2), (U(2, 1),), callee="ntohs"),
                  I("INT_EQUAL", U(5, 1), (U(4, 2), C(0x43, 2))),
                  I("CBRANCH", None, (U(5, 1),))], succ=(3, 4)),
        block(3, [I("CALL", None, (R(0),), callee="Nv::H43"), I("RETURN")]),
        block(4, [I("RETURN")]),
    ], ["Nv::H42", "Nv::H43"], externals=["ntohs"])
    assert got == ref == {
        ("unsolicited", "read", "Nv::Dispatch", 0x42, "Nv::H42", "/dev/umts_ipc0"),
        ("unsolicited", "read", "Nv::Dispatch", 0x43, "Nv::H43", "/dev/umts_ipc0"),
    }


def test_a_guard_names_the_first_call_on_its_straight_path_or_none():
    # 0x44's path falls through a block without a call into one with a
    # call; 0x45's loops on itself, 0x46's forks without a branch and
    # 0x47's returns first: no handler.
    def guard(bid, const, taken, fallthrough, load=()):
        return block(bid, [*load, I("INT_EQUAL", U(10 + bid, 1), (U(1, 1), C(const, 1))),
                           I("CBRANCH", None, (U(10 + bid, 1),))], succ=(taken, fallthrough))

    got, ref = _dispatcher_sinks([
        guard(0, 0x44, 1, 3, load=[I("INT_ADD", U(0), (R(0), C(1))),
                                   I("LOAD", U(1, 1), (U(0),))]),
        block(1, [I("COPY", U(20), (C(0),))], succ=(2,)),
        block(2, [I("CALL", None, (R(0),), callee="Nv::H44"), I("RETURN")]),
        guard(3, 0x45, 4, 5),
        block(4, [I("COPY", U(21), (C(0),))], succ=(4,)),
        guard(5, 0x46, 6, 7),
        block(6, [I("COPY", U(22), (C(0),))], succ=(2, 8)),
        guard(7, 0x47, 8, 8),
        block(8, [I("RETURN")]),
    ], ["Nv::H44"])
    assert got == ref == {
        ("unsolicited", "read", "Nv::Dispatch", 0x44, "Nv::H44", "/dev/umts_ipc0"),
        *{("unsolicited", "read", "Nv::Dispatch", c, None, "/dev/umts_ipc0")
          for c in (0x45, 0x46, 0x47)},
    }


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


@given(st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=40))
def test_payload_hex_matches_the_per_byte_form(cells):
    pb = PayloadBytes(bytes(0 if dyn else v for v, dyn in cells),
                      "".join("d" if dyn else "s" for _, dyn in cells), LengthSource("unknown"))
    per_byte = " ".join(".." if m == "d" else f"{b:02x}" for b, m in zip(pb.data, pb.mask))
    assert payload_hex(pb) == per_byte


def _parse_token_by_token(text):
    """The payload reader as one loop over ``str.split`` tokens, the
    reference that ``parse_payload_hex`` must agree with on every text."""
    data, mask = bytearray(), []
    for tok in text.split():
        if tok == "..":
            data.append(0)
            mask.append("d")
        elif len(tok) == 2 and all(c in "0123456789abcdefABCDEF" for c in tok):
            data.append(int(tok, 16))
            mask.append("s")
        else:
            raise ValueError(f"bad payload byte {tok!r}")
    return PayloadBytes(bytes(data), "".join(mask), LengthSource("unknown"))


def _read(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return f"ValueError: {e}"


_PAYLOAD_CHARS = "0123456789abcdefABCDEF. \u00a0\x0bg\u0663"
_PAYLOAD_TEXT = st.one_of(
    st.text(st.sampled_from(_PAYLOAD_CHARS), max_size=24),
    # near the written form: tokens of two characters, mostly single spaces
    st.lists(st.text(st.sampled_from(_PAYLOAD_CHARS), min_size=2, max_size=2), max_size=8)
    .flatmap(lambda toks: st.tuples(st.just(toks), st.lists(
        st.sampled_from([" ", " ", " ", "  ", "\u00a0", "\x0b"]),
        min_size=len(toks), max_size=len(toks))))
    .map(lambda t: "".join(tok + sep for tok, sep in zip(*t))[:-1]),
)


@given(_PAYLOAD_TEXT)
@example("")
@example(" ")
@example("..")
@example("0708")
@example("07  00")
@example("07 ")
@example("0A 0b .. ff")
def test_parse_payload_hex_agrees_with_the_token_loop(text):
    assert _read(parse_payload_hex, text) == _read(_parse_token_by_token, text)


def test_dynamic_bytes_must_be_zeroed():
    # ValueErrors, not asserts, so that python -O keeps the checks
    with pytest.raises(ValueError, match="dynamic payload bytes must be 00: 41 d"):
        PayloadBytes(b"\x41", "d", LengthSource("unknown"))
    with pytest.raises(ValueError, match="payload has 2 bytes but its mask 1"):
        PayloadBytes(b"\x41\x00", "s", LengthSource("unknown"))


def test_payload_bytes_is_a_checked_value_type():
    pb = PayloadBytes(b"\x07\x00", "sd", LengthSource("constant-arg", 2), ("n",))
    # _replace makes its copy through _make, which checks like the constructor
    with pytest.raises(ValueError, match="dynamic payload bytes must be 00: 0700 dd"):
        pb._replace(mask="dd")
    with pytest.raises(ValueError, match="payload has 2 bytes but its mask 3"):
        pb._replace(mask="sds")
    assert pb._replace(mask="ss").mask == "ss"
    with pytest.raises(AttributeError):
        pb.mask = "ss"
    with pytest.raises(AttributeError):
        pb.length_source.value = 3
    same = PayloadBytes(bytes([7, 0]), "sd", LengthSource("constant-arg", 2), ("n",))
    assert same == pb and hash(same) == hash(pb)
    assert str(LengthSource("constant-arg", 7)) == "constant-arg(7)"
    assert str(LengthSource("unknown")) == "unknown"


# ---------------------------------------------------------------------------
# Incomplete backward traces: one tiny program per walk edge branch

def _payload(*body, params=(), extra=()):
    """A program whose function ``tx`` runs ``body`` and then writes
    4 bytes of the buffer ``U(0)``."""
    tx = func("tx", params=params, blocks=[block(0, [
        *body, I("CALL", None, (C(3), U(0), C(4)), callee="write"), I("RETURN"),
    ])])
    return build_program("reasons", functions=[tx, *extra], externals=["write"])


def _relay_chain(n):
    """tx(buf) at the bottom of ``n`` relays, each passing its buffer on."""
    relays = [func(f"r{i}", params=(("buf", "bytes"),), blocks=[block(0, [
        I("CALL", None, (R(0),), callee=f"r{i - 1}" if i else "tx"), I("RETURN"),
    ])]) for i in range(n)]
    top = func("top", blocks=[block(0, [
        I("CALL", None, (C(0x2000),), callee=f"r{n - 1}"), I("RETURN"),
    ])])
    return _payload(I("COPY", U(0), (R(0),)), params=(("buf", "bytes"),),
                    extra=[*relays, top])


_TAINT_REASONS = {
    "arg-missing": lambda: build_program("reasons", functions=[func("tx", blocks=[
        block(0, [I("CALL", None, (C(3),), callee="write"), I("RETURN")])])],
        externals=["write"]),
    "arg-mismatch": lambda: _payload(
        I("COPY", U(0), (R(0),)), params=(("buf", "bytes"),),
        extra=[func("top", blocks=[block(0, [I("CALL", None, (), callee="tx"), I("RETURN")])])]),
    "no-def": lambda: _payload(I("COPY", U(0), (U(5),))),
    "unmodeled-load": lambda: _payload(I("LOAD", U(0), (C(0x2000),))),
    "unmodeled-call": lambda: _payload(I("CALL", U(0), (), callee="mkbuf"),
                                       extra=[ret_stub("mkbuf")]),
    "depth-bound": lambda: _relay_chain(taint.MAX_FRAMES + 4),
}


@pytest.mark.parametrize("reason", sorted(_TAINT_REASONS))
def test_each_backward_walk_branch_gives_its_reason(reason):
    p = _TAINT_REASONS[reason]()
    traces = backward_taint(p, _cg(p), find_sources(p)[0])
    assert [(t.complete, t.reason, t.root) for t in traces] == [(False, reason, None)]
    assert traces[0].frames[0] == ("tx", find_sources(p)[0].site)
    with pytest.raises(ValueError, match=f"stopped by {reason}"):
        concretize_payload(p, traces[0])
