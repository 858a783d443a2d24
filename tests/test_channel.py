"""Channel filtering: device-path matching and fd-origin tracing."""

import json
import re
import time
from dataclasses import asdict, replace
from itertools import product

import pytest

from rilmine import channel, oracle
from rilmine.channel import (
    FilterConfig,
    filter_commands,
    resolve_channel,
)
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
    gen_fig6,
    ret_stub,
)
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.ir import ClassInfo
from rilmine.taint import payload_hex


def _run(p, config=None):
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    return cg, *filter_commands(p, cg, config=config)


# ---------------------------------------------------------------------------
# Device path pattern

def test_device_pattern_literal_is_frozen():
    assert channel.DEVICE_PATH_PATTERN == r"^/dev/([^/ ]*)+(/[^/ ]*)*?$"


@pytest.mark.parametrize("path,ok", [
    ("/dev/umts_ipc0", True),
    ("/dev/block/sda", True),
    ("/dev/a/b/c", True),
    ("/dev/", True),
    ("/dev/umts ipc0", False),
    ("dev/x", False),
    ("/devx", False),
    ("/dev", False),
    ("/efs/imei/selective", False),
    ("", False),
])
def test_device_path_match_cases(path, ok):
    assert (FilterConfig().pattern().fullmatch(path) is not None) is ok


def test_device_path_match_agrees_with_the_oracle_pattern():
    # Every string over a small alphabet after each of a few prefixes.
    tails = ["".join(t) for n in range(7) for t in product("/ a\n", repeat=n)]
    match = FilterConfig().pattern().fullmatch
    for head in ("", "/", "/de", "/dev", "/dev/", "dev/", "/dev/a", "/dev//"):
        for tail in tails:
            path = head + tail
            assert bool(match(path)) is bool(oracle._DEV_RE.fullmatch(path)), path


def test_long_non_device_path_is_discarded_at_once():
    # The frozen pattern backtracks exponentially on such a path, 4x longer
    # for every 2 more characters; on this one it would run for hours.
    path = "/dev/" + "a" * 34 + " "
    p, _ = gen_fig6("efs")
    p = replace(p, data=[(0x2000, path.encode() + b"\0"), (0x2100, b"true\0")])
    start = time.perf_counter()
    _, _, report = _run(p)
    assert time.perf_counter() - start < 1.0
    assert report.discards == [("StoreStringToFile@0:0", "non-dev-path", path)]


def test_oracle_device_pattern_keeps_the_language_of_the_nested_one():
    nested = re.compile(r"^/dev/([^/ ]*)+(/[^/ ]*)*?$")  # the oracle's old pattern
    for n in range(8):
        for t in product("/a dev", repeat=n):
            path = "".join(t)
            assert bool(oracle._DEV_RE.fullmatch(path)) is bool(nested.fullmatch(path)), path


def test_oracle_discards_a_long_non_device_path_at_once():
    # The nested pattern took seconds on this path in the reference analyzer.
    path = "/dev/" + "a" * 24 + " "
    p, _ = gen_fig6("efs")
    p = replace(p, data=[(0x2000, path.encode() + b"\0"), (0x2100, b"true\0")])
    start = time.perf_counter()
    res = oracle.analyze(p)
    assert time.perf_counter() - start < 1.0
    assert res.discards == {("StoreStringToFile@0:0", "non-dev-path", path)}


# ---------------------------------------------------------------------------
# fd verdicts drive the pipeline

def test_non_device_path_discards_site_before_taint():
    p, m = gen_fig6("efs")
    _, db, report = _run(p)
    assert db.records == []
    assert report.discards == [
        ("StoreStringToFile@0:0", "non-dev-path", "/efs/imei/selective")]
    assert report.backward_runs == 0  # taint never ran on the discard
    assert report.sites_total == 1 and report.kept == 0
    assert [d["reason"] for d in m.discards] == ["non-dev-path"]


def test_pipe_fd_discards_site():
    p, m = gen_fig6("pipe")
    _, db, report = _run(p)
    assert db.records == []
    assert report.discards == [("StoreStringToFile@0:0", "pipe", None)]
    assert report.backward_runs == 0
    assert m.discards[0]["path"] is None


def test_device_fd_keeps_site_and_records_command():
    p, m = gen_fig6("dev")
    _, db, report = _run(p)
    assert report.kept == 1 and report.backward_runs == 1
    assert db_signatures(db) == m.command_signatures()
    (rec,) = db.records
    assert rec.root_function == "SelectiveWriter::Persist"
    assert rec.channel_path == "/dev/umts_ipc1"
    assert payload_hex(rec.payload) == "74 72 75 65"  # "true"


def test_member_held_fd_resolves_through_constructor_store():
    p, _ = gen_fig2()
    cg, db, _ = _run(p)
    site = ("IoChannel::Write", 0, 2)
    res = resolve_channel(p, cg, site, fd_arg_index=0)
    assert (res.reason, res.path) == (None, "/dev/umts_ipc0")
    assert db.records[0].channel_path == "/dev/umts_ipc0"


# ---------------------------------------------------------------------------
# Socket policy

def _socket_program():
    f = func("OemNetReport", blocks=[block(0, [
        I("CALL", U(0), (C(2), C(1), C(0)), callee="socket"),
        I("CALL", None, (U(0), C(0x2000), C(3)), callee="sendto"),
        I("RETURN"),
    ])])
    return build_program("net", functions=[f], data=[(0x2000, b"abc\x00")],
                         externals=["socket", "sendto"])


def test_socket_fd_discarded_by_default():
    _, db, report = _run(_socket_program())
    assert db.records == []
    assert [r for _, r, _ in report.discards] == ["socket"]


def test_keep_socket_flag_retains_network_sites():
    _, db, report = _run(_socket_program(), config=FilterConfig(keep_socket=True))
    assert report.discards == []
    (rec,) = db.records
    assert rec.api == "sendto"
    assert rec.channel_path is None
    assert payload_hex(rec.payload) == "61 62 63"


# ---------------------------------------------------------------------------
# Origin tracing edge cases

def _fan_in_program(second_origin_pipe: bool):
    leaf = func("tx", params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0), C(0x2000), C(3)), callee="write"), I("RETURN"),
    ])])
    a = func("a", blocks=[block(0, [
        I("CALL", U(0), (C(0x2010), C(0)), callee="open"),
        I("CALL", None, (U(0),), callee="tx"),
        I("RETURN"),
    ])])
    if second_origin_pipe:
        b_open = I("CALL", U(0), (S(8, 8),), callee="pipe")
        ext = ["write", "open", "pipe"]
    else:
        b_open = I("CALL", U(0), (C(0x2010), C(0)), callee="open")
        ext = ["write", "open"]
    b = func("b", blocks=[block(0, [
        b_open,
        I("CALL", None, (U(0),), callee="tx"),
        I("RETURN"),
    ])])
    return build_program("fan", functions=[leaf, a, b],
                         data=[(0x2000, b"abc\x00"), (0x2010, b"/dev/umts_ipc0\x00")],
                         externals=ext)


def test_conflicting_fd_origins_are_ambiguous():
    _, db, report = _run(_fan_in_program(second_origin_pipe=True))
    assert db.records == []
    assert [r for _, r, _ in report.discards] == ["fd-ambiguous"]


def test_identical_fd_origins_collapse_and_keep():
    _, db, report = _run(_fan_in_program(second_origin_pipe=False))
    assert report.discards == []
    assert {r.channel_path for r in db.records} == {"/dev/umts_ipc0"}


def test_unresolvable_open_path_is_discarded():
    f = func("tx", params=(("path", "ptr"),), blocks=[block(0, [
        I("CALL", U(0), (R(0), C(0)), callee="open"),
        I("CALL", None, (U(0), C(0x2000), C(3)), callee="write"),
        I("RETURN"),
    ])])
    p = build_program("unres", functions=[f], data=[(0x2000, b"abc\x00")],
                      externals=["write", "open"])
    _, db, report = _run(p)
    assert db.records == []
    assert [r for _, r, _ in report.discards] == ["path-unresolved"]


def _path_lattice(levels):
    """``tx(path)`` opens ``path`` and writes to the fd. Above it sit
    ``levels`` levels of two helpers each: a helper passes its path to each
    helper of the level below, the lowest to ``tx``, and ``main`` calls both
    helpers of the top level with a device path. So ``tx`` is reached along
    2^levels call paths."""
    fns = [func("tx", params=(("path", "str"),), blocks=[block(0, [
        I("CALL", U(0), (R(0), C(0)), callee="open"),
        I("CALL", None, (U(0), C(0x2000), C(3)), callee="write"),
        I("RETURN"),
    ])])]
    below = ["tx"]
    for level in range(levels, 0, -1):
        here = [f"h{level}a", f"h{level}b"]
        fns += [func(fid, params=(("path", "str"),), blocks=[block(0, [
            *(I("CALL", None, (R(0),), callee=c) for c in below), I("RETURN"),
        ])]) for fid in here]
        below = here
    fns.append(func("main", blocks=[block(0, [
        *(I("CALL", None, (C(0x2010),), callee=c) for c in below), I("RETURN"),
    ])]))
    return build_program("lattice", functions=fns,
                         data=[(0x2000, b"abc\x00"), (0x2010, b"/dev/umts_ipc0\x00")],
                         externals=["write", "open"])


def test_path_walk_takes_each_caller_once(monkeypatch):
    p = _path_lattice(12)
    calls = []
    real = channel._trace_path

    def counted(*args):
        calls.append(args[2].id)
        return real(*args)

    monkeypatch.setattr(channel, "_trace_path", counted)
    _, db, report = _run(p)
    assert report.discards == []
    assert {r.channel_path for r in db.records} == {"/dev/umts_ipc0"}
    # Linear in the functions; one walk per call path would be 2^13 calls.
    assert len(calls) < 4 * len(p.functions)


def test_fd_walk_answers_each_question_once(monkeypatch):
    # The fd lattice of _path_lattice: ``main`` opens the device and passes
    # the fd down 12 levels of two helpers each to ``tx``, which writes.
    fns = [func("tx", params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0), C(0x2000), C(3)), callee="write"), I("RETURN")])])]
    below = ["tx"]
    for level in range(12, 0, -1):
        here = [f"h{level}a", f"h{level}b"]
        fns += [func(fid, params=(("fd", "int"),), blocks=[block(0, [
            *(I("CALL", None, (R(0),), callee=c) for c in below), I("RETURN")])])
            for fid in here]
        below = here
    fns.append(func("main", blocks=[block(0, [
        I("CALL", U(0), (C(0x2010), C(0)), callee="open"),
        *(I("CALL", None, (U(0),), callee=c) for c in below), I("RETURN")])]))
    p = build_program("fd-lattice", functions=fns, externals=["write", "open"],
                      data=[(0x2000, b"abc\x00"), (0x2010, b"/dev/umts_ipc0\x00")])
    cg, _, _ = _run(p)
    walks = []
    real = channel._fd_walk

    def counted(*args):
        walks.append(args[2].id)
        return real(*args)

    monkeypatch.setattr(channel, "_fd_walk", counted)
    tx = p.fn("tx")
    fd, pos = tx.arg_at(0, 0, 0)
    # One question per call site, and the origins as a set: one walk per
    # call path, or a list of them, would be 2^13.
    assert channel._trace_fd(p, cg, tx, fd, pos, 16, {}) == {("open", "open", "/dev/umts_ipc0")}
    assert len(walks) < 4 * len(p.functions)


def test_fd_trace_depth_is_bounded():
    p, _ = gen_fig2()
    cg, _, _ = _run(p)
    res = resolve_channel(p, cg, ("IoChannel::Write", 0, 2), 0,
                          config=FilterConfig(fd_depth=1))
    assert res.reason == "depth-bound"


def test_fd_returned_by_an_internal_helper_is_traced_to_its_open():
    # The fd walk continues at the helper's RETURN instead of stopping at
    # the call that made the fd.
    open_modem = func("OpenModem", ret="int", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(2)), callee="open"),
        I("RETURN", None, (U(0),)),
    ])])
    frame = [I("COPY", S(16 + i, 1), (C(b, 1),)) for i, b in enumerate([7, 0, 0, 0, 1, 2, 3])]
    ping = func("IpcTxPing", blocks=[block(0, [
        I("CALL", U(0), (), callee="OpenModem"),
        *frame,
        I("CALL", None, (U(0), S(16, 7), C(7)), callee="write"),
        I("RETURN"),
    ])])
    p = build_program("helper-fd", functions=[open_modem, ping],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "write"])
    _, db, _ = _run(p)
    want = {("solicited", "write", "IpcTxPing", "07 00 00 00 01 02 03", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_fd_kept_in_a_stack_cell_by_a_store_is_traced_to_its_open():
    # The STORE names the cell it writes as its output, so the cell's
    # reaching def is the STORE, and the walk goes on with the stored value.
    frame = [I("COPY", S(16 + i, 1), (C(b, 1),)) for i, b in enumerate([7, 0, 0, 1])]
    ping = func("IpcTxPing", blocks=[block(0, [
        I("CALL", U(0), (C(0x2000), C(2)), callee="open"),
        I("STORE", S(24, 8), (S(24, 8), U(0))),
        *frame,
        I("CALL", None, (S(24, 8), S(16, 4), C(4)), callee="write"),
        I("RETURN"),
    ])])
    p = build_program("stored-fd", functions=[ping],
                      data=[(0x2000, b"/dev/umts_ipc0\x00")], externals=["open", "write"])
    _, db, _ = _run(p)
    want = {("solicited", "write", "IpcTxPing", "07 00 00 01", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_an_fd_helper_called_twice_keeps_its_site():
    # X calls W(fd) twice, so the walk from W's write goes up through both
    # calls, and each meets Root's open.
    w = func("W", params=(("fd", "int"),), blocks=[block(0, [
        I("COPY", S(16, 1), (C(42, 1),)),
        I("CALL", None, (R(0), S(16, 1), C(1)), callee="write"), I("RETURN"),
    ])])
    x = func("X", params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0),), callee="W"), I("CALL", None, (R(0),), callee="W"),
        I("RETURN"),
    ])])
    root = func("Root", blocks=[block(0, [
        I("CALL", U(0), (C(0x2010), C(0)), callee="open"),
        I("CALL", None, (U(0),), callee="X"), I("RETURN"),
    ])])
    p = build_program("twice", functions=[w, x, root], data=[(0x2010, b"/dev/umts_ipc0\x00")],
                      externals=["open", "write"])
    _, db, report = _run(p)
    ref = oracle.analyze(p)
    assert set(report.discards) == ref.discards == set()
    want = {("solicited", "write", "W", "2a", "/dev/umts_ipc0")}
    assert db_signatures(db) == ref.commands == want


def _relay(fid, callee):
    return func(fid, params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0),), callee=callee), I("RETURN")])])


@pytest.mark.parametrize("short,reason", [("a", None), ("z", "depth-bound")])
def test_an_fd_question_keeps_the_answer_of_the_path_that_reached_it_first(short, reason):
    # Y passes its fd to W by one relay, ``short``, and by two, m0 and m1;
    # twelve relays above Y lead to Root's open. Callers are walked in id
    # order. Within fd_depth (16) of W's write, only the short path reaches
    # the open from the question at Y's caller. The pipeline keeps the
    # answer of the first path; the reference analyzer walks both paths.
    w = func("W", params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0), C(0x2000), C(3)), callee="write"), I("RETURN")])])
    y = func("Y", params=(("fd", "int"),), blocks=[block(0, [
        I("CALL", None, (R(0),), callee=short), I("CALL", None, (R(0),), callee="m1"),
        I("RETURN")])])
    up = [_relay(f"u{k:02d}", f"u{k - 1:02d}" if k else "Y") for k in range(12)]
    root = func("Root", blocks=[block(0, [
        I("CALL", U(0), (C(0x2010), C(0)), callee="open"),
        I("CALL", None, (U(0),), callee="u11"), I("RETURN")])])
    p = build_program("depth", functions=[
        w, _relay(short, "W"), _relay("m0", "W"), _relay("m1", "m0"), y, *up, root],
        data=[(0x2000, b"abc\x00"), (0x2010, b"/dev/umts_ipc0\x00")],
        externals=["open", "write"])
    cg, _, _ = _run(p)
    res = resolve_channel(p, cg, ("W", 0, 0), 0)
    assert (res.reason, res.path) == (reason, None if reason else "/dev/umts_ipc0")
    assert oracle.analyze(p).discards == {("W@0:0", "fd-ambiguous", None)}


# ---------------------------------------------------------------------------
# Config plumbing

def test_custom_device_pattern_changes_the_verdict():
    p, _ = gen_fig6("efs")
    cfg = FilterConfig(device_pattern=r"^/efs/.*$")
    _, db, report = _run(p, config=cfg)
    assert report.kept == 1
    assert db.records[0].channel_path == "/efs/imei/selective"


def test_filter_config_round_trips_and_hashes():
    cfg = FilterConfig(keep_socket=True, fd_depth=4)
    again = FilterConfig.from_json(json.dumps(asdict(cfg)))
    assert again == cfg
    assert cfg.hash() == again.hash()
    assert cfg.hash() != FilterConfig().hash()
    assert len(FilterConfig().hash()) == 12


# ---------------------------------------------------------------------------
# Discard reasons: one tiny program per fd-walk edge branch

_DEV = (0x2010, b"/dev/umts_ipc0\x00")


def _tx(*body, params=(), cls=None, extra=(), classes=(), externals=("write",)):
    """A program whose function ``tx`` runs ``body`` and then writes
    3 bytes through the fd ``U(0)``."""
    tx = func("tx", cls=cls, params=params, stack=32, blocks=[block(0, [
        *body, I("CALL", None, (U(0), C(0x2000), C(3)), callee="write"), I("RETURN"),
    ])])
    return build_program("reasons", classes=classes, functions=[tx, *extra],
                         data=[(0x2000, b"abc\x00"), _DEV], externals=list(externals))


def _member_fd(*ctor_body):
    """Class Chan whose member ``tx`` loads its fd from this+8; the
    constructor runs ``ctor_body``."""
    ctor = func("Chan::Chan", cls="Chan", blocks=[block(0, [*ctor_body, I("RETURN")])])
    return _tx(I("INT_ADD", U(1), (R(0), C(8))), I("LOAD", U(0), (U(1),)),
               cls="Chan", extra=[ctor],
               classes=[ClassInfo("Chan", constructors=["Chan::Chan"], members=["tx"])],
               externals=("write", "open"))


_CHANNEL_REASONS = {
    "constant-fd": lambda: _tx(I("COPY", U(0), (C(3),))),
    "uninit-slot": lambda: _tx(I("COPY", U(0), (S(8, 8),))),
    "slot-call": lambda: _tx(
        I("CALL", S(8, 8), (C(0x2010), C(0)), callee="open"),
        I("COPY", U(0), (S(8, 8),)), externals=("write", "open")),
    "no-def": lambda: _tx(I("COPY", U(0), (U(5),))),
    "arith": lambda: _tx(I("INT_ADD", U(0), (R(0), R(1))),
                         params=(("a", "int"), ("b", "int"))),
    "no-callers": lambda: _tx(I("COPY", U(0), (R(0),)), params=(("fd", "int"),)),
    "opaque-return": lambda: _tx(I("CALL", U(0), (), callee="mkfd"),
                                 extra=[ret_stub("mkfd")]),
    "ext:dup": lambda: _tx(I("CALL", U(0), (C(1),), callee="dup"),
                           externals=("write", "dup")),
    "callind": lambda: _tx(I("CALLIND", U(0), (U(3),))),
    "member-undefined": lambda: _member_fd(),
    "load-base": lambda: _tx(I("INT_ADD", U(1), (R(0), C(8))), I("LOAD", U(0), (U(1),)),
                             params=(("obj", "bytes"),)),
    "load": lambda: _tx(I("LOAD", U(0), (C(0x3000),))),
    "fd-arg-missing": lambda: build_program("reasons", functions=[func("tx", blocks=[
        block(0, [I("CALL", None, (), callee="write"), I("RETURN")])])], externals=["write"]),
    # this->fd = this->fd: the walk meets its own defining store again
    "fd-unresolved": lambda: _member_fd(
        I("INT_ADD", U(1), (R(0), C(8))),
        I("LOAD", U(0), (U(1),)),
        I("STORE", None, (U(1), U(0))),
    ),
}


@pytest.mark.parametrize("api", ["open", "__open_2", "fopen"])
def test_each_open_call_keeps_a_device_fd(api):
    p = _tx(I("CALL", U(0), (C(0x2010), C(0)), callee=api), externals=("write", api))
    cg, db, report = _run(p)
    res = resolve_channel(p, cg, ("tx", 0, 1), 0)
    assert (res.reason, res.path) == (None, "/dev/umts_ipc0")
    want = {("solicited", "write", "tx", "61 62 63", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


def test_fd_loaded_from_a_slot_takes_the_slot_value_before_the_load():
    # The slot is written again by pipe after the LOAD; the loaded fd
    # still comes from open.
    tx = func("tx", stack=32, blocks=[block(0, [
        I("CALL", U(2), (C(0x2010), C(0)), callee="open"),
        I("COPY", S(8, 8), (U(2),)),
        I("LOAD", U(0), (S(8, 8),)),
        I("CALL", U(3), (S(16, 8),), callee="pipe"),
        I("COPY", S(8, 8), (U(3),)),
        I("COPY", S(24, 1), (C(7, 1),)),
        I("CALL", None, (U(0), S(24, 1), C(1)), callee="write"),
        I("RETURN"),
    ])])
    p = build_program("slot", functions=[tx], data=[_DEV],
                      externals=["open", "pipe", "write"])
    _, db, report = _run(p)
    assert report.discards == []
    want = {("solicited", "write", "tx", "07", "/dev/umts_ipc0")}
    assert db_signatures(db) == oracle.analyze(p).commands == want


@pytest.mark.parametrize("reason", sorted(_CHANNEL_REASONS))
def test_each_fd_walk_branch_gives_its_discard_reason(reason):
    p = _CHANNEL_REASONS[reason]()
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    res = resolve_channel(p, cg, ("tx", 0, len(p.fn("tx").blocks[0].instructions) - 2), 0)
    assert (res.reason, res.path) == (reason, None)
    _, report = filter_commands(p, cg)
    assert reason in {r for _, r, _ in report.discards}


@pytest.mark.parametrize("text,named", [
    ('[]', "JSON object"),
    ('{"open_apis": {"open": 1}}', "'open_apis'"),
    ('{"keep_socket": "no"}', "'keep_socket'"),
    ('{"keep_socket": 1}', "'keep_socket'"),
    ('{"fd_depth": "x"}', "'fd_depth'"),
    ('{"fd_depth": 0}', "'fd_depth'"),
    ('{"fd_depth": true}', "'fd_depth'"),
    ('{"device_pattern": "("}', "'device_pattern'"),
    ('{"device_pattern": 7}', "'device_pattern'"),
    ('{"filter_tokens": "Ipc"}', "'filter_tokens'"),
    ('{"filter_tokens": ["Ipc", 3]}', "'filter_tokens'"),
])
def test_filter_config_rejects_bad_json_naming_the_key(text, named):
    with pytest.raises(ValueError, match=named):
        FilterConfig.from_json(text)


def test_filter_config_reads_a_partial_object():
    cfg = FilterConfig.from_json('{"fd_depth": 3, "filter_tokens": ["Ipc"]}')
    assert cfg == FilterConfig(fd_depth=3, filter_tokens=("Ipc",))
