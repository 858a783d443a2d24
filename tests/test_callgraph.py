"""Call graph construction and vtable dispatch recovery."""

import pytest

from rilmine import callgraph as cgmod
from rilmine import oracle
from rilmine.callgraph import (
    CallEdge,
    TargetExpr,
    VCallSite,
    build_direct_cg,
    dump,
    recover_vcalls,
)
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
    gen_fig4,
    ret_stub,
)
from rilmine.ir import ClassInfo


def _recovered(p):
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    return cg


def _vedges(cg):
    return {(e.caller, e.callee) for e in cg.virtual_edges()}


# ---------------------------------------------------------------------------
# Direct edges

def test_direct_cg_covers_every_call_instruction():
    p, _ = gen_fig2()
    cg = build_direct_cg(p)
    pairs = {(e.caller, e.callee) for e in cg.edges}
    assert ("IpcModem::SendMessage", "IpcModem::DoIoChannelRoutingTx") in pairs
    assert ("IoChannel::IoChannel", "open") in pairs
    assert ("IoChannel::Write", "write") in pairs
    assert all(e.kind == "direct" for e in cg.edges)


def test_add_edge_dedupes():
    p, _ = gen_fig2()
    cg = build_direct_cg(p)
    e = cg.edges[0]
    assert cg.add_edge(e) is False
    assert cg.add_edge(CallEdge(e.caller, e.callee, e.site, "virtual")) is True


def test_caller_args_gives_each_callers_argument_and_call_position():
    tx = ret_stub("tx", params=(("x", "int"),))
    b = func("b", blocks=[block(0, [
        I("COPY", U(0), (C(7),)), I("CALL", None, (U(0),), callee="tx"), I("RETURN"),
    ])])
    a = func("a", blocks=[block(0, [I("CALL", None, (), callee="tx"), I("RETURN")])])
    p = build_program("callers", functions=[tx, b, a])
    cg = build_direct_cg(p)
    got = [(e.caller, cf.id, arg, pos) for e, cf, arg, pos in cgmod.caller_args(p, cg, tx, 0)]
    assert got == [("a", "a", None, 0), ("b", "b", U(0), 1)]


def test_callers_of_is_sorted():
    p, _ = gen_fig2()
    cg = _recovered(p)
    callers = cg.callers_of("IoChannel::Write")
    assert callers == sorted(callers, key=lambda e: (e.caller, e.site))


# ---------------------------------------------------------------------------
# Dispatch recovery on the solicited chain

def test_two_hop_chain_resolves_both_dispatch_sites():
    p, m = gen_fig2()
    cg = _recovered(p)
    assert _vedges(cg) == m.edge_set()
    assert cg.unresolved == []
    by_callee = {e.callee: e for e in cg.virtual_edges()}
    assert by_callee["IpcModem::SendMessage"].via == ("IpcModem", "this+0x10", 0x30)
    assert by_callee["IoChannel::Write"].via == ("IoChannel", "this+0x18", 0x20)


def test_subclass_fans_out_to_both_overrides():
    p, m = gen_fig4(with_subclass=True)
    cg = _recovered(p)
    assert _vedges(cg) == m.edge_set()
    site_edges = [e for e in cg.virtual_edges()
                  if e.site[0] == "IpcTxCallGetCallList"]
    assert {e.callee for e in site_edges} == {
        "IpcModem::SendMessage", "IpcModem5G::SendMessage",
    }
    assert len(cg.edges_at(site_edges[0].site)) == 2


def test_collect_vcall_sites_extracts_table_expressions():
    p, _ = gen_fig2()
    got = {(e.caller, e.via[1], e.via[2]) for e in _recovered(p).virtual_edges()}
    assert got == {
        ("IpcTxCallGetCallList", "this+0x10", 0x30),
        ("IpcModem::DoIoChannelRoutingTx", "this+0x18", 0x20),
    }


# ---------------------------------------------------------------------------
# Inference memoization

def _holder_program(slot_offset=0x00, vtable=("Obj::Hit",), twin=True):
    obj_hit = ret_stub("Obj::Hit", cls="Obj")
    ctor = func(
        "Holder::Holder", cls="Holder", params=(("o", "class:Obj"),),
        blocks=[block(0, [
            I("INT_ADD", U(0), (R(0), C(0x10))),
            I("STORE", None, (U(0), R(1))),
            I("RETURN"),
        ])],
    )

    def body():
        return [block(0, [
            I("INT_ADD", U(0), (R(0), C(0x10))),
            I("LOAD", U(1), (U(0),)),
            I("INT_ADD", U(2), (U(1), C(slot_offset))),
            I("LOAD", U(3), (U(2),)),
            I("CALLIND", None, (U(3), U(1))),
            I("RETURN"),
        ])]

    members = ["Holder::Go"]
    fns = [obj_hit, ctor, func("Holder::Go", cls="Holder", blocks=body())]
    if twin:
        members.append("Holder::GoAgain")
        fns.append(func("Holder::GoAgain", cls="Holder", blocks=body()))
    classes = [
        ClassInfo("Obj", vtable_addr=0x3000, vtable=list(vtable),
                  members=["Obj::Hit"]),
        ClassInfo("Holder", constructors=["Holder::Holder"], members=members),
    ]
    return build_program("holder", classes=classes, functions=fns)


def test_identical_sites_share_one_inference_run(monkeypatch):
    p = _holder_program()
    calls = []
    real = cgmod.class_inference

    def counted(*args, **kwargs):
        calls.append(args[2].id)
        return real(*args, **kwargs)

    monkeypatch.setattr(cgmod, "class_inference", counted)
    cg = _recovered(p)
    assert _vedges(cg) == {("Holder::Go", "Obj::Hit"), ("Holder::GoAgain", "Obj::Hit")}
    # Both sites key to (Holder, this+0x10, 0); the ctor answers on the
    # first search-list probe and the twin site reuses the memo.
    assert calls == ["Holder::Holder"]


# ---------------------------------------------------------------------------
# Unresolved reasons

def test_target_without_table_shape_is_flagged():
    f = func("jump", params=(("cb", "ptr"),),
             blocks=[block(0, [I("CALLIND", None, (R(0),)), I("RETURN")])])
    p = build_program("p", functions=[f])
    cg = _recovered(p)
    assert [s.reason for s in cg.unresolved] == ["no-vtable-pattern"]


def test_misaligned_vtable_offset_is_flagged():
    p = _holder_program(slot_offset=0x0C, twin=False)
    cg = _recovered(p)
    assert [s.reason for s in cg.unresolved] == ["no-vtable-pattern"]


def test_free_function_dispatch_is_flagged():
    f = func("freestanding", params=(("obj", "ptr"),),
             blocks=[block(0, [
                 I("LOAD", U(1), (R(0),)),
                 I("INT_ADD", U(2), (U(1), C(0x08))),
                 I("LOAD", U(3), (U(2),)),
                 I("CALLIND", None, (U(3), U(1))),
                 I("RETURN"),
             ])])
    p = build_program("p", functions=[f])
    cg = _recovered(p)
    assert [s.reason for s in cg.unresolved] == ["no-enclosing-class"]
    assert cg.virtual_edges() == []


def test_member_without_defining_store_is_flagged():
    obj_hit = ret_stub("Obj::Hit", cls="Obj")
    lone = func("Lone::Go", cls="Lone", blocks=[block(0, [
        I("INT_ADD", U(0), (R(0), C(0x10))),
        I("LOAD", U(1), (U(0),)),
        I("INT_ADD", U(2), (U(1), C(0x00))),
        I("LOAD", U(3), (U(2),)),
        I("CALLIND", None, (U(3), U(1))),
        I("RETURN"),
    ])])
    p = build_program("p", classes=[
        ClassInfo("Obj", vtable=["Obj::Hit"], members=["Obj::Hit"]),
        ClassInfo("Lone", members=["Lone::Go"]),
    ], functions=[obj_hit, lone])
    cg = _recovered(p)
    assert [s.reason for s in cg.unresolved] == ["no-class-inferred"]


def test_slot_beyond_vtable_is_flagged():
    p = _holder_program(slot_offset=0x40, twin=False)
    cg = _recovered(p)
    assert [s.reason for s in cg.unresolved] == ["vtable-offset-out-of-range"]


def _dispatch(t, slot_offset):
    """Call through slot ``slot_offset`` of the table behind U(1), in
    temporaries U(t) and U(t + 1)."""
    return [I("INT_ADD", U(t), (U(1), C(slot_offset))),
            I("LOAD", U(t + 1), (U(t),)),
            I("CALLIND", None, (U(t + 1), U(1)))]


def test_each_site_gets_edges_or_one_reason_in_program_order():
    # A no-vtable-pattern site after sites that matched the pattern: the
    # reasons still come in program order.
    obj_hit = ret_stub("Obj::Hit", cls="Obj")
    ctor = func("Holder::Holder", cls="Holder", params=(("o", "class:Obj"),),
                blocks=[block(0, [I("INT_ADD", U(0), (R(0), C(0x10))),
                                  I("STORE", None, (U(0), R(1))), I("RETURN")])])
    table = [I("INT_ADD", U(0), (R(0), C(0x10))), I("LOAD", U(1), (U(0),))]
    go = func("Holder::Go", cls="Holder", blocks=[block(0, [
        *table, *_dispatch(2, 0x40), *_dispatch(4, 0x00), *_dispatch(6, 0x0C), I("RETURN"),
    ])])
    lone = func("Lone::Go", cls="Lone", blocks=[block(0, [*table, *_dispatch(2, 0), I("RETURN")])])
    free = func("freestanding", params=(("obj", "ptr"),), blocks=[block(0, [
        I("LOAD", U(1), (R(0),)), *_dispatch(2, 0x08), I("RETURN"),
    ])])
    p = build_program("order", classes=[
        ClassInfo("Obj", vtable_addr=0x3000, vtable=["Obj::Hit"], members=["Obj::Hit"]),
        ClassInfo("Holder", constructors=["Holder::Holder"], members=["Holder::Go"]),
        ClassInfo("Lone", members=["Lone::Go"]),
    ], functions=[obj_hit, ctor, go, lone, free])
    cg = _recovered(p)
    assert [(e.site, e.callee, e.via) for e in cg.virtual_edges()] == [
        (("Holder::Go", 0, 7), "Obj::Hit", ("Obj", "this+0x10", 0)),
    ]
    assert cg.unresolved == [
        VCallSite("Holder::Go", 0, 4, "vtable-offset-out-of-range"),
        VCallSite("Holder::Go", 0, 10, "no-vtable-pattern"),
        VCallSite("Lone::Go", 0, 4, "no-class-inferred"),
        VCallSite("freestanding", 0, 3, "no-enclosing-class"),
    ]


# ---------------------------------------------------------------------------
# Inference plumbing details

def test_inference_types_value_through_constructor_param():
    p = _holder_program(twin=False)
    classes = cgmod.class_inference(
        p, TargetExpr("this", 0x10), p.fn("Holder::Holder"))
    assert classes == ["Obj"]


@pytest.mark.parametrize("via", ["load", "add"])
def test_inference_follows_an_object_through_stack_cells(via):
    # IpcTxHello dispatches through the pointer in cell 16, copied there
    # from cell 8, which holds MakeChannel()'s result as loaded back from
    # cell 24 after a store. Through an INT_ADD instead of that load, the
    # object has no class.
    make = func("MakeChannel", ret="class:IoChannel", blocks=[block(0, [I("RETURN")])])
    frame = [I("COPY", S(40 + i, 1), (C(b, 1),)) for i, b in enumerate([5, 0, 0, 0, 9, 1])]
    reload = (I("LOAD", U(1), (S(24, 8),)) if via == "load"
              else I("INT_ADD", U(1), (U(0), C(0))))
    hello = func("Proto::IpcTxHello", cls="Proto", blocks=[block(0, [
        *frame,
        I("CALL", U(0), (), callee="MakeChannel"),
        I("STORE", None, (S(24, 8), U(0))), reload,
        I("COPY", S(8, 8), (U(1),)), I("COPY", S(16, 8), (S(8, 8),)),
        I("COPY", U(2), (S(16, 8),)), I("LOAD", U(3), (U(2),)),
        I("INT_ADD", U(4), (U(3), C(0))), I("LOAD", U(5), (U(4),)),
        I("CALLIND", None, (U(5), U(2), S(40, 6), C(6))), I("RETURN"),
    ])])
    chan_ctor = func("IoChannel::IoChannel", cls="IoChannel", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(2)), callee="open"),
        I("INT_ADD", U(1), (R(0), C(0x08))), I("STORE", None, (U(1), U(0))), I("RETURN"),
    ])])
    write = func("IoChannel::Write", cls="IoChannel",
                 params=(("buf", "bytes"), ("len", "int")), blocks=[block(0, [
                     I("INT_ADD", U(0), (R(0), C(0x08))), I("LOAD", U(1), (U(0),)),
                     I("CALL", None, (U(1), R(1), R(2)), callee="write"), I("RETURN"),
                 ])])
    classes = [
        ClassInfo("Proto", constructors=["Proto::Proto"], members=["Proto::IpcTxHello"]),
        ClassInfo("IoChannel", vtable_addr=0x3100, vtable=["IoChannel::Write"],
                  constructors=["IoChannel::IoChannel"], members=["IoChannel::Write"]),
    ]
    p = build_program("cells", classes=classes,
                      functions=[make, ret_stub("Proto::Proto", cls="Proto"), hello,
                                 chan_ctor, write],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "write"])
    cg = _recovered(p)
    db, _ = filter_commands(p, cg)
    if via == "add":
        assert not _vedges(cg) and [s.reason for s in cg.unresolved] == ["no-class-inferred"]
        assert db_signatures(db) == oracle.analyze(p).commands == set()
        return
    assert _vedges(cg) == {("Proto::IpcTxHello", "IoChannel::Write")}
    want = {("solicited", "write", "Proto::IpcTxHello", "05 00 00 00 09 01", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


@pytest.mark.parametrize("ret", ["class:IoChannel", "int"])
def test_inference_types_member_through_factory_return_type(ret):
    # Proto::Proto stores MakeChannel()'s result at this+0x10; IpcTxHello
    # sends its frame through slot 0 of that member. Only a factory typed
    # class:IoChannel tells which table that slot is in.
    make = func("MakeChannel", ret=ret, blocks=[block(0, [I("RETURN")])])
    proto_ctor = func("Proto::Proto", cls="Proto", blocks=[block(0, [
        I("CALL", U(0), (), callee="MakeChannel"),
        I("INT_ADD", U(1), (R(0), C(0x10))), I("STORE", None, (U(1), U(0))), I("RETURN"),
    ])])
    frame = [I("COPY", S(16 + i, 1), (C(b, 1),)) for i, b in enumerate([5, 0, 0, 0, 9, 1])]
    hello = func("Proto::IpcTxHello", cls="Proto", blocks=[block(0, [
        *frame,
        I("INT_ADD", U(0), (R(0), C(0x10))), I("LOAD", U(1), (U(0),)),
        I("INT_ADD", U(2), (U(1), C(0))), I("LOAD", U(3), (U(2),)),
        I("CALLIND", None, (U(3), U(1), S(16, 6), C(6))), I("RETURN"),
    ])])
    chan_ctor = func("IoChannel::IoChannel", cls="IoChannel", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(2)), callee="open"),
        I("INT_ADD", U(1), (R(0), C(0x08))), I("STORE", None, (U(1), U(0))), I("RETURN"),
    ])])
    write = func("IoChannel::Write", cls="IoChannel",
                 params=(("buf", "bytes"), ("len", "int")), blocks=[block(0, [
                     I("INT_ADD", U(0), (R(0), C(0x08))), I("LOAD", U(1), (U(0),)),
                     I("CALL", None, (U(1), R(1), R(2)), callee="write"), I("RETURN"),
                 ])])
    classes = [
        ClassInfo("Proto", constructors=["Proto::Proto"], members=["Proto::IpcTxHello"]),
        ClassInfo("IoChannel", vtable_addr=0x3100, vtable=["IoChannel::Write"],
                  constructors=["IoChannel::IoChannel"], members=["IoChannel::Write"]),
    ]
    p = build_program("factory", classes=classes,
                      functions=[make, proto_ctor, hello, chan_ctor, write],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "write"])
    cg = _recovered(p)
    db, _ = filter_commands(p, cg)
    if ret == "int":
        assert not _vedges(cg) and [s.reason for s in cg.unresolved] == ["no-class-inferred"]
        assert db_signatures(db) == oracle.analyze(p).commands == set()
        return
    assert _vedges(cg) == {("Proto::IpcTxHello", "IoChannel::Write")}
    want = {("solicited", "write", "Proto::IpcTxHello", "05 00 00 00 09 01", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_dump_renders_stable_edge_listing():
    p, _ = gen_fig2()
    text = dump(_recovered(p))
    assert ("IpcModem::DoIoChannelRoutingTx -> IoChannel::Write "
            "[virtual via (IoChannel, this+0x18, 0x20)]") in text
    assert "IpcModem::SendMessage -> IpcModem::DoIoChannelRoutingTx [direct]" in text
    assert text == dump(_recovered(gen_fig2()[0]))


# ---------------------------------------------------------------------------
# Indexed queries answer as a scan of every edge does

def _callers_scan(cg, fid):
    return sorted((e for e in cg.edges if e.callee == fid), key=lambda e: (e.caller, e.site))


def _edges_at_scan(cg, site):
    return [e for e in cg.edges if e.site == site]


def test_indexed_queries_match_a_scan_of_every_edge(ir_corpus):
    for label, p in ir_corpus:
        cg = _recovered(p)  # virtual edges arrive after construction
        for fid in [f.id for f in p.functions] + p.externals:
            assert cg.callers_of(fid) == _callers_scan(cg, fid), (label, fid)
        for f in p.functions:
            for bid, idx, ins in f.linear():
                if ins.op in ("CALL", "CALLIND"):
                    site = (f.id, bid, idx)
                    assert cg.edges_at(site) == _edges_at_scan(cg, site), (label, site)


def test_graph_built_from_an_edge_list_indexes_every_given_edge():
    a1 = CallEdge("b", "t", ("b", 0, 1), "direct")
    a0 = CallEdge("b", "t", ("b", 0, 0), "direct")
    v = CallEdge("a", "t", ("a", 2, 0), "virtual", via=("K", "this", 0))
    d = CallEdge("a", "u", ("a", 2, 0), "direct")
    tie = CallEdge("b", "t", ("b", 0, 1), "virtual", via=("K", "this", 8))
    cg = cgmod.CallGraph()
    assert [cg.add_edge(e) for e in (a1, v, tie, a0, d, a1)] == [True] * 5 + [False]
    # equal (caller, site) keys keep the order the edges were added in
    assert cg.callers_of("t") == [v, a0, a1, tie] == _callers_scan(cg, "t")
    assert cg.callers_of("nobody") == []
    assert cg.edges_at(("a", 2, 0)) == [v, d]
    assert cg.add_edge(a0) is False
    e = CallEdge("c", "t", ("c", 0, 0), "direct")
    assert cg.add_edge(e) is True
    assert cg.callers_of("t") == [v, a0, a1, tie, e] == _callers_scan(cg, "t")


def test_edges_at_returns_a_copy():
    p, _ = gen_fig4(with_subclass=True)
    cg = _recovered(p)
    site = cg.virtual_edges()[0].site
    cg.edges_at(site).clear()
    assert cg.edges_at(site) == _edges_at_scan(cg, site) != []
