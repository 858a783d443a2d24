"""Modem simulator: behavior rows, crash latches, and the Nv file sandbox."""

import os
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rilmine.sim import (
    EFFECTS,
    BehaviorRow,
    IN_SERVICE,
    NvRequest,
    OUT_OF_SERVICE,
    RSP_OK,
    RSP_UNKNOWN,
    Response,
    SimConfig,
    SimConfigError,
    SimWorld,
    load_sim_config,
    nv_handle,
    parse_sim_config,
)


def row(matcher, effect, prefix=False, args=()):
    return BehaviorRow(tuple(matcher), prefix, effect, args)


def world(*rows, **kw):
    return SimWorld(SimConfig(rows=list(rows), **kw))


# ---------------------------------------------------------------------------
# Row matching

def test_exact_matcher_requires_equal_length():
    r = row([1, 2, 3], "ok")
    assert r.matches(bytes([1, 2, 3]))
    assert not r.matches(bytes([1, 2]))
    assert not r.matches(bytes([1, 2, 3, 4]))


def test_prefix_matcher_accepts_longer_payloads():
    r = row([1, 2], "ok", prefix=True)
    assert r.matches(bytes([1, 2]))
    assert r.matches(bytes([1, 2, 0xFF]))
    assert not r.matches(bytes([1]))
    assert not r.matches(bytes([1, 3, 4]))


def test_wildcard_byte_matches_anything():
    r = row([1, None, 3], "ok")
    assert r.matches(bytes([1, 0x55, 3]))
    assert not r.matches(bytes([1, 0x55, 4]))


def test_first_matching_row_wins():
    w = world(row([8], "recoverable_crash", prefix=True),
              row([8, 1], "ok"))
    assert w.inject(bytes([8, 1])).state == OUT_OF_SERVICE


def _first_row(rows, payload):
    return next((i for i, r in enumerate(rows) if r.matches(payload)), None)


# A small byte alphabet so that random payloads hit rows and matchers repeat.
_BYTE = st.sampled_from([0x00, 0x01, 0x08, 0xFF])
_ROWS = st.lists(
    st.builds(BehaviorRow,
              matcher=st.lists(st.one_of(_BYTE, st.none()), min_size=1, max_size=12).map(tuple),
              prefix=st.booleans(),
              effect=st.sampled_from(("ok", "temporary_crash", "recoverable_crash",
                                      "permanent_crash"))),
    min_size=1, max_size=24)


@st.composite
def _table_and_payloads(draw):
    rows = draw(_ROWS)
    # repeat some rows' matchers further down with other effects
    for _ in range(draw(st.integers(0, 4))):
        src = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))),
                    BehaviorRow(src.matcher, draw(st.booleans()), draw(st.sampled_from(EFFECTS))))
    payloads = []
    for _ in range(draw(st.integers(1, 16))):
        if draw(st.booleans()):
            r = draw(st.sampled_from(rows))
            data = [draw(_BYTE) if m is None else m for m in r.matcher]
            if r.prefix:
                data += draw(st.lists(_BYTE, max_size=3))
        else:
            data = draw(st.lists(_BYTE, max_size=13))
        payloads.append(bytes(data))
    return rows, payloads


@settings(max_examples=400, deadline=None)
@given(_table_and_payloads())
# an all-wildcard row (mask 0 matches any payload of its length)
@example(([row([None, None], "ok", args=(0x21,)), row([None], "permanent_crash", prefix=True)],
          [b"\x01\x02", b"\x00\x00", b"\x05", b"\x01\x02\x03"]))
# fixed leading 00 bytes: they vanish from the row's integer value, so only
# its mask and the payload length keep them
@example(([row([0, 0, None], "temporary_crash"), row([0, 0], "ok", prefix=True),
           row([0], "recoverable_crash")],
          [b"\x00\x00\x07", b"\x00\x01\x07", b"\x01\x00\x07", b"\x00\x00",
           b"\x00", b"\x00\x00\x00\x00", b"\x07"]))
# payloads shorter than a prefix row
@example(([row([1, 2, 3], "ok", prefix=True), row([1, None], "permanent_crash")],
          [b"\x01\x02", b"\x01", b"\x01\x02\x03", b"\x01\x02\x03\x04"]))
# the empty payload
@example(([row([None], "ok", prefix=True), row([1], "permanent_crash")], [b""]))
def test_row_index_agrees_with_a_linear_scan(case):
    rows, payloads = case
    w = world(*rows)
    for p in payloads + payloads:  # second pass reads the per-length lists built by the first
        assert w.row_for(p) == _first_row(rows, p)


def test_row_index_prefix_row_shadows_a_later_exact_row():
    rows = [row([9, 9], "ok"), row([8], "ok", prefix=True, args=(0x33,)),
            row([8, 1], "permanent_crash"), row([8, 1], "ok")]
    w = world(*rows)
    assert w.row_for(bytes([8, 1])) == 1
    assert w.inject(bytes([8, 1])) == Response(0x33, IN_SERVICE)
    assert w.row_for(bytes([9, 9])) == 0
    assert w.row_for(bytes([7, 1])) is None


def test_row_index_duplicate_exact_matchers_keep_the_first():
    w = world(row([1, None], "ok", args=(0x10,)), row([1, 2], "ok", args=(0x20,)),
              row([1, 2], "permanent_crash"))
    assert w.row_for(bytes([1, 2])) == 0
    w = world(row([1, 3], "ok"), row([1, 2], "ok", args=(0x20,)),
              row([1, 2], "permanent_crash"), row([1, None], "ok"))
    assert w.row_for(bytes([1, 2])) == 1
    assert w.row_for(bytes([1, 5])) == 3


def test_world_reads_rows_when_built():
    cfg = SimConfig(rows=[row([1], "ok")])
    w = SimWorld(cfg)
    cfg.rows.append(row([2], "permanent_crash"))
    assert w.inject(bytes([2])) == Response(RSP_UNKNOWN, IN_SERVICE)
    assert SimWorld(cfg).inject(bytes([2])).state == OUT_OF_SERVICE


# ---------------------------------------------------------------------------
# Injection and latches

def test_unmatched_payload_gets_unknown_code():
    w = world(row([1], "ok"))
    r = w.inject(bytes([9]))
    assert (r.code, r.state) == (RSP_UNKNOWN, IN_SERVICE)


def test_ok_row_returns_valid_code():
    w = world(row([1], "ok"), row([2], "ok", args=(0x44,)))
    assert w.inject(bytes([1])).code == RSP_OK
    assert w.inject(bytes([2])).code == 0x44


def test_crash_rows_silence_the_modem():
    for effect in ("temporary_crash", "recoverable_crash", "permanent_crash"):
        w = world(row([7], effect))
        r = w.inject(bytes([7]))
        assert r.code is None and r.state == OUT_OF_SERVICE


def test_out_of_service_swallows_further_commands():
    w = world(row([7], "permanent_crash"), row([1], "ok"))
    w.inject(bytes([7]))
    r = w.inject(bytes([1]))
    assert r.code is None and r.state == OUT_OF_SERVICE
    assert w.tick == 2  # each injection takes a tick, swallowed or not


def test_latch_dominance_orders_severity():
    w = world()
    w._down_until = w.tick + 100
    assert w.active_latch() == "temporary"
    w._recoverable = True
    assert w.active_latch() == "recoverable"
    w._permanent = True
    assert w.active_latch() == "permanent"
    w.reboot()  # drops the recoverable latch only
    w._permanent = False
    assert w.active_latch() == "temporary"


def test_temporary_crash_expires_on_its_own():
    w = world(row([7], "temporary_crash"), default_recover_after=3)
    w.inject(bytes([7]))
    assert w.query_state() == OUT_OF_SERVICE
    w.advance(2)
    assert w.query_state() == OUT_OF_SERVICE
    w.advance(1)
    assert w.query_state() == IN_SERVICE


def test_temporary_duration_argument_overrides_default():
    w = world(row([7], "temporary_crash", args=(1,)), default_recover_after=50)
    w.inject(bytes([7]))
    w.advance(1)
    assert w.query_state() == IN_SERVICE


def test_reboot_clears_recoverable_but_not_permanent():
    w = world(row([1], "recoverable_crash"), row([2], "permanent_crash"))
    w.inject(bytes([1]))
    w.reboot()
    assert w.query_state() == IN_SERVICE
    w.inject(bytes([2]))
    w.reboot()
    assert w.query_state() == OUT_OF_SERVICE


def test_reboot_takes_time_so_short_temporaries_expire():
    w = world(row([7], "temporary_crash"), default_recover_after=3, reboot_ticks=6)
    w.inject(bytes([7]))
    t0 = w.tick
    w.reboot()
    assert w.tick == t0 + 6
    assert w.query_state() == IN_SERVICE


def test_reflash_clears_everything():
    w = world(row([1], "temporary_crash", args=(999,)), row([2], "permanent_crash"))
    w.inject(bytes([1]))
    w.reflash()
    assert w.query_state() == IN_SERVICE
    w.inject(bytes([2]))
    w.reflash()
    assert w.query_state() == IN_SERVICE


def test_advance_rejects_a_negative_step():
    # a ValueError, not an assert, so that python -O keeps the check
    w = world(row([7], "temporary_crash", args=(3,)))
    w.inject(bytes([7]))
    w.advance(2)
    with pytest.raises(ValueError, match="advance needs n >= 0, not -10"):
        w.advance(-10)
    w.advance(3)
    assert w.tick == 6
    assert w.query_state() == IN_SERVICE


class _QueryStateWorld:
    """Reference model of the latch rules. It keeps the expiry tick of every
    temporary crash in a list, finds rows by a scan of ``BehaviorRow.matches``,
    and decides each injection with query_state() before anything else: the
    answers SimWorld's one expiry tick and inline latch check must give."""

    def __init__(self, config):
        self.config = config
        self.tick = 0
        self.temporaries: list[int] = []  # expiry ticks
        self.recoverable = False
        self.permanent = False

    def active_latch(self):
        if self.permanent:
            return "permanent"
        if self.recoverable:
            return "recoverable"
        if any(t > self.tick for t in self.temporaries):
            return "temporary"
        return None

    def query_state(self):
        return OUT_OF_SERVICE if self.active_latch() else IN_SERVICE

    def advance(self, n):
        self.tick += n

    def reboot(self):
        self.tick += self.config.reboot_ticks
        self.recoverable = False

    def reflash(self):
        self.tick += self.config.reboot_ticks
        self.temporaries.clear()
        self.recoverable = self.permanent = False

    def inject(self, payload):
        self.tick += 1
        if self.query_state() == OUT_OF_SERVICE:
            return Response(None, OUT_OF_SERVICE)
        r = next((r for r in self.config.rows if r.matches(payload)), None)
        if r is None:
            return Response(RSP_UNKNOWN, IN_SERVICE)
        if r.effect == "ok":
            return Response(r.args[0] if r.args else RSP_OK, IN_SERVICE)
        if r.effect == "temporary_crash":
            self.temporaries.append(
                self.tick + (r.args[0] if r.args else self.config.default_recover_after))
        elif r.effect == "recoverable_crash":
            self.recoverable = True
        else:
            self.permanent = True
        return Response(None, self.query_state())


_LATCH_ROWS = st.lists(
    st.one_of(
        st.builds(BehaviorRow, st.tuples(st.integers(1, 4)), st.just(False), st.just("ok"),
                  st.sampled_from([(), (0x21,)])),
        st.builds(BehaviorRow, st.tuples(st.integers(1, 4)), st.just(False),
                  st.just("temporary_crash"), st.one_of(st.just(()), st.tuples(st.integers(0, 6)))),
        st.builds(BehaviorRow, st.tuples(st.integers(1, 4)), st.just(False),
                  st.sampled_from(["recoverable_crash", "permanent_crash"]))),
    max_size=6)
_LATCH_OPS = st.lists(
    st.one_of(st.tuples(st.just("inject"), st.integers(0, 4)),
              st.tuples(st.just("advance"), st.integers(0, 5)),
              st.tuples(st.sampled_from(["reboot", "reflash"]), st.just(0))),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(_LATCH_ROWS, _LATCH_OPS, st.integers(0, 4), st.integers(0, 4))
# a pending temporary under a permanent latch, then reboot and reflash
@example([row([1], "temporary_crash", args=(5,)), row([2], "permanent_crash"),
          row([3], "recoverable_crash"), row([4], "ok")],
         [("inject", 1), ("inject", 2), ("inject", 4), ("advance", 5), ("inject", 4),
          ("reboot", 0), ("inject", 3), ("inject", 1), ("reboot", 0), ("inject", 4),
          ("reflash", 0), ("inject", 1), ("advance", 0), ("inject", 4)], 3, 2)
def test_inline_latch_check_agrees_with_query_state(rows, ops, recover_after, reboot_ticks):
    cfg = SimConfig(rows=rows, default_recover_after=recover_after, reboot_ticks=reboot_ticks)
    fast, ref = SimWorld(cfg), _QueryStateWorld(cfg)
    for op, arg in ops:
        if op == "inject":
            assert fast.inject(bytes([arg])) == ref.inject(bytes([arg]))
        elif op == "advance":
            fast.advance(arg)
            ref.advance(arg)
        else:
            getattr(fast, op)()
            getattr(ref, op)()
        assert fast.tick == ref.tick
        assert fast.query_state() == ref.query_state()
        assert fast.active_latch() == ref.active_latch()


# ---------------------------------------------------------------------------
# Config text format

def test_config_text_round_trip():
    cfg = SimConfig(
        rows=[row([8, None, 2], "temporary_crash", args=(4,)),
              row([8], "ok", prefix=True)],
        default_recover_after=5, reboot_ticks=9,
        sandbox_root="/tmp/nv", dotdot_check=False, symlink_check=True,
    )
    again = parse_sim_config(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


def test_config_file_loader(tmp_path):
    cfg = SimConfig(rows=[row([1], "ok")])
    path = tmp_path / "modem.simcfg"
    path.write_text(cfg.to_text())
    assert load_sim_config(str(path)) == cfg


def test_parse_rows_and_comments():
    cfg = parse_sim_config(
        "# comment\n"
        "recover_after = 7\n"
        "\n"
        "07 .. 02 * -> temporary_crash(4)\n"
        "08 -> ok(68)\n"
    )
    assert cfg.default_recover_after == 7
    assert cfg.rows == [
        BehaviorRow((0x07, None, 0x02), True, "temporary_crash", (4,)),
        BehaviorRow((0x08,), False, "ok", (68,)),
    ]


@pytest.mark.parametrize("text,msg", [
    ("zz -> ok", "bad byte"),
    ("1ff -> ok", "out of range"),
    ("* -> ok", "empty matcher"),
    ("07 -> explode", "unknown effect"),
    ("07 -> ok(3", "unclosed args"),
    ("just words", "expected key"),
    ("warp = 9", "unknown key"),
    ("07 -> ok(zz)", "line 1: bad effect argument 'zz'"),
    ("07 -> ok(256)", "line 1: effect argument out of range '256'"),
    ("07 -> ok(-1)", "line 1: effect argument out of range '-1'"),
    ("07 -> temporary_crash(-2)", "line 1: effect argument out of range '-2'"),
    ("# codes\nvalid_codes = 01", "line 2: unknown key 'valid_codes'"),
    ("recover_after = soon", "line 1: bad recover_after 'soon'"),
    ("recover_after = -3", "line 1: recover_after out of range '-3'"),
    ("\nreboot_ticks = 1.5", "line 2: bad reboot_ticks '1.5'"),
    ("reboot_ticks = -6", "line 1: reboot_ticks out of range '-6'"),
    # a 0-tick latch expires inside its own injection, a 0-tick window
    # ends before a temporary crash could recover
    ("\n07 -> temporary_crash(0)", "line 2: effect argument out of range '0'"),
    ("recover_after = 0", "line 1: recover_after out of range '0'"),
    # bytes are exactly two hex digits, as to_text writes them
    ("0x41 -> ok", "line 1: bad byte '0x41'"),
    ("07 1_0 -> ok", "line 1: bad byte '1_0'"),
    ("+7 * -> ok", "line 1: bad byte '+7'"),
    ("07 \u0663 -> ok", "line 1: bad byte '\u0663'"),
    # an empty root would put the Nv sandbox at the working directory
    ("# nv\nsandbox_root =", "line 2: sandbox_root must not be empty"),
])
def test_parse_rejects_malformed_lines(text, msg):
    with pytest.raises(SimConfigError, match=re.escape(msg)):
        parse_sim_config(text)


def test_decimal_values_are_ascii_digits_only():
    # int() reads each of these, and to_text would write it back in another form
    text = "recover_after = +7\nreboot_ticks = 1_0\n07 -> temporary_crash(\u0663)\n08 -> ok( 9)\n"
    lines = text.splitlines()
    for n, what in enumerate(["recover_after '+7'", "reboot_ticks '1_0'",
                              "effect argument '\u0663'", "effect argument ' 9'"], 1):
        with pytest.raises(SimConfigError, match=re.escape(f"line {n}: bad {what}")):
            parse_sim_config("\n" * (n - 1) + lines[n - 1])


@pytest.mark.parametrize("key", ["dotdot_check", "symlink_check"])
@pytest.mark.parametrize("val", ["yes", "ture", ""])
def test_parse_rejects_non_boolean_checks(key, val):
    with pytest.raises(SimConfigError, match=re.escape(
            f"line 2: {key} must be true or false, not {val!r}")):
        parse_sim_config(f"# checks\n{key} = {val}\n")


@pytest.mark.parametrize("key", ["dotdot_check", "symlink_check"])
def test_parse_reads_booleans_in_any_case(key):
    for text, want in (("TRUE", True), ("True", True), ("false", False), ("FALSE", False)):
        assert getattr(parse_sim_config(f"{key} = {text}"), key) is want


def test_parse_accepts_the_range_ends():
    cfg = parse_sim_config("recover_after = 1\nreboot_ticks = 0\n"
                           "01 -> ok(0)\n02 -> ok(255)\n03 -> temporary_crash(1)\n")
    assert (cfg.default_recover_after, cfg.reboot_ticks) == (1, 0)
    assert [r.args for r in cfg.rows] == [(0,), (255,), (1,)]


# ---------------------------------------------------------------------------
# Nv file sandbox

@pytest.fixture
def sandbox(tmp_path):
    root = tmp_path / "nv"
    root.mkdir()
    (root / "imei").mkdir()
    (root / "imei" / "serial").write_bytes(b"0042")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret").write_bytes(b"keymaterial")
    os.symlink(outside, root / "esc")
    return root, outside


def _cfg(root, **kw):
    return SimConfig(sandbox_root=str(root), **kw)


def test_nv_read_and_write_inside_root(sandbox):
    root, _ = sandbox
    cfg = _cfg(root)
    assert nv_handle(cfg, NvRequest("read", "imei/serial")).data == b"0042"
    assert nv_handle(cfg, NvRequest("read", "missing")).status == "not-found"
    assert nv_handle(cfg, NvRequest("write", "imei/new", data=b"x")).status == "ok"
    assert (root / "imei" / "new").read_bytes() == b"x"


def test_nv_dotdot_is_rejected_as_substring(sandbox):
    root, _ = sandbox
    cfg = _cfg(root)
    for path in ("../secret", "a/../../secret", "weird..name"):
        res = nv_handle(cfg, NvRequest("read", path))
        assert (res.status, res.reason) == ("rejected", "dotdot")


def test_nv_default_config_follows_symlinks_out(sandbox):
    root, outside = sandbox
    cfg = _cfg(root)  # symlink_check defaults to False
    res = nv_handle(cfg, NvRequest("read", "esc/secret"))
    assert res.status == "ok" and res.data == b"keymaterial"
    assert nv_handle(cfg, NvRequest("write", "esc/leak", data=b"oops")).status == "ok"
    assert (outside / "leak").read_bytes() == b"oops"


def test_nv_symlink_check_blocks_escape(sandbox):
    root, outside = sandbox
    cfg = _cfg(root, symlink_check=True)
    res = nv_handle(cfg, NvRequest("read", "esc/secret"))
    assert (res.status, res.reason) == ("rejected", "symlink-escape")
    assert nv_handle(cfg, NvRequest("write", "esc/leak2", data=b"x")).status == "rejected"
    assert not (outside / "leak2").exists()
    # in-root traffic still works
    assert nv_handle(cfg, NvRequest("read", "imei/serial")).status == "ok"


def test_nv_symlink_check_accepts_paths_under_the_filesystem_root(sandbox, tmp_path):
    root, _ = sandbox
    cfg = SimConfig(sandbox_root="/", symlink_check=True)
    res = nv_handle(cfg, NvRequest("read", os.path.relpath(root / "imei" / "serial", "/")))
    assert (res.status, res.data) == ("ok", b"0042")
    # a root is a whole path component: a sibling that shares its prefix is outside
    (tmp_path / "nvx").mkdir()
    (tmp_path / "nvx" / "secret").write_bytes(b"keymaterial")
    os.symlink(tmp_path / "nvx", root / "sib")
    cfg = _cfg(root, symlink_check=True)
    for path in ("esc/secret", "sib/secret"):
        res = nv_handle(cfg, NvRequest("read", path))
        assert (res.status, res.reason) == ("rejected", "symlink-escape"), path


def test_nv_error_paths(sandbox):
    root, _ = sandbox
    assert nv_handle(SimConfig(), NvRequest("read", "x")).reason == "no-sandbox-root"
    assert nv_handle(_cfg(root), NvRequest("chmod", "x")).reason == "bad-op:chmod"
    assert nv_handle(_cfg(root), NvRequest("write", "x")).reason == "write-without-data"


def test_nv_empty_sandbox_root_is_no_root(tmp_path, monkeypatch):
    # "" joined with a path is that path, relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "serial").write_bytes(b"0042")
    res = nv_handle(SimConfig(sandbox_root=""), NvRequest("read", "serial"))
    assert (res.status, res.reason) == ("error", "no-sandbox-root")
    res = nv_handle(SimConfig(sandbox_root=""), NvRequest("write", "leak", data=b"x"))
    assert (res.status, res.reason) == ("error", "no-sandbox-root")
    assert not (tmp_path / "leak").exists()
