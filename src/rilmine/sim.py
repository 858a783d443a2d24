"""Modem simulator: payload-matched crash behavior on a logical clock.

The world holds crash latches rather than a process model. A latch is
temporary (expires at a tick), recoverable (cleared by reboot), or
permanent (cleared only by reflash); the modem reports OUT_OF_SERVICE
while any latch is active. Dominance for introspection is
permanent > recoverable > temporary.

Behavior is table-driven: the first matching row decides the effect of an
injected payload. Matchers are byte sequences with ``..`` wildcards and an
optional trailing ``*`` for prefix matches. ``BehaviorRow.matches`` defines
a match and stays the reference the tests compare against; a world indexes
its table when it is built (exact rows in a dict keyed by their bytes,
wildcard and prefix rows as integer masks in per-length lists) and picks
the same row a scan in table order would. The harness builds one world per
campaign. The world reads ``config.rows`` only when built.
"""

from __future__ import annotations

import os
import string
from dataclasses import dataclass, field, replace

from .taint import HEX_BYTES

IN_SERVICE = "IN_SERVICE"
OUT_OF_SERVICE = "OUT_OF_SERVICE"

RSP_OK = 0x01
RSP_UNKNOWN = 0x7E

EFFECTS = ("ok", "temporary_crash", "recoverable_crash", "permanent_crash")


@dataclass(frozen=True)
class BehaviorRow:
    matcher: tuple  # int per byte, None = wildcard
    prefix: bool
    effect: str
    args: tuple = ()

    def matches(self, payload: bytes) -> bool:
        if self.prefix:
            if len(payload) < len(self.matcher):
                return False
        elif len(payload) != len(self.matcher):
            return False
        return all(m is None or payload[i] == m for i, m in enumerate(self.matcher))

    def to_text(self) -> str:
        toks = [".." if m is None else f"{m:02x}" for m in self.matcher]
        if self.prefix:
            toks.append("*")
        eff = self.effect
        if self.args:
            eff += "(" + ",".join(str(a) for a in self.args) + ")"
        return " ".join(toks) + " -> " + eff


@dataclass
class SimConfig:
    rows: list = field(default_factory=list)
    default_recover_after: int = 3
    reboot_ticks: int = 6
    sandbox_root: str | None = None
    dotdot_check: bool = True
    symlink_check: bool = False

    def to_text(self) -> str:
        lines = [
            "# rilmine sim config v1",
            f"recover_after = {self.default_recover_after}",
            f"reboot_ticks = {self.reboot_ticks}",
            f"dotdot_check = {'true' if self.dotdot_check else 'false'}",
            f"symlink_check = {'true' if self.symlink_check else 'false'}",
        ]
        if self.sandbox_root is not None:
            lines.append(f"sandbox_root = {self.sandbox_root}")
        lines.append("")
        lines += [r.to_text() for r in self.rows]
        return "\n".join(lines) + "\n"


class SimConfigError(ValueError):
    pass


def _int_at(lineno: int, what: str, tok: str, base: int = 10, lo: int = 0,
            hi: int | None = None) -> int:
    """``tok`` as an int in ``lo..hi`` (no upper bound when ``hi`` is None):
    ASCII digits of ``base`` after an optional ``-``, as ``to_text`` writes."""
    digits = tok[1:] if tok.startswith("-") else tok
    allowed = string.hexdigits if base == 16 else string.digits
    if not digits or any(c not in allowed for c in digits):
        raise SimConfigError(f"line {lineno}: bad {what} {tok!r}")
    v = int(tok, base)
    if v < lo or (hi is not None and v > hi):
        raise SimConfigError(f"line {lineno}: {what} out of range {tok!r}")
    return v


def _byte_at(lineno: int, tok: str) -> int:
    """``tok`` as a matcher byte: exactly two hex digits, as ``to_text``
    writes them."""
    if tok in HEX_BYTES:
        return HEX_BYTES[tok]
    _int_at(lineno, "byte", tok, base=16, hi=0xFF)  # names a non-number or a value past ff
    raise SimConfigError(f"line {lineno}: bad byte {tok!r}")


def _bool_at(lineno: int, what: str, tok: str) -> bool:
    """``tok`` as ``true`` or ``false``, in any case."""
    v = tok.lower()
    if v not in ("true", "false"):
        raise SimConfigError(f"line {lineno}: {what} must be true or false, not {tok!r}")
    return v == "true"


def parse_sim_config(text: str) -> SimConfig:
    cfg = SimConfig()
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            toks = left.split()
            prefix = False
            if toks and toks[-1] == "*":
                prefix = True
                toks = toks[:-1]
            if not toks:
                raise SimConfigError(f"line {lineno}: empty matcher")
            matcher = [None if t == ".." else _byte_at(lineno, t) for t in toks]
            eff = right.strip()
            args: tuple = ()
            if "(" in eff:
                name, _, rest = eff.partition("(")
                if not rest.endswith(")"):
                    raise SimConfigError(f"line {lineno}: unclosed args")
                eff = name
                # ok(code) is a response byte; temporary_crash(n) a tick count,
                # and a latch of 0 ticks would expire inside its own injection
                hi = 0xFF if eff == "ok" else None
                lo = 1 if eff == "temporary_crash" else 0
                args = tuple(_int_at(lineno, "effect argument", a, lo=lo, hi=hi)
                             for a in rest[:-1].split(",") if a.strip())
            if eff not in EFFECTS:
                raise SimConfigError(f"line {lineno}: unknown effect {eff!r}")
            rows.append(BehaviorRow(tuple(matcher), prefix, eff, args))
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise SimConfigError(f"line {lineno}: expected key = value or matcher -> effect")
        key, val = key.strip(), val.strip()
        if key == "recover_after":
            cfg = replace(cfg, default_recover_after=_int_at(lineno, "recover_after", val, lo=1))
        elif key == "reboot_ticks":
            cfg = replace(cfg, reboot_ticks=_int_at(lineno, "reboot_ticks", val))
        elif key == "sandbox_root":
            if not val:
                raise SimConfigError(f"line {lineno}: sandbox_root must not be empty")
            cfg = replace(cfg, sandbox_root=val)
        elif key == "dotdot_check":
            cfg = replace(cfg, dotdot_check=_bool_at(lineno, key, val))
        elif key == "symlink_check":
            cfg = replace(cfg, symlink_check=_bool_at(lineno, key, val))
        else:
            raise SimConfigError(f"line {lineno}: unknown key {key!r}")
    cfg = replace(cfg, rows=rows)
    return cfg


def load_sim_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sim_config(fh.read())


@dataclass(frozen=True)
class Response:
    code: int | None  # None = modem gave no response
    state: str


_UNKNOWN_REPLY = Response(RSP_UNKNOWN, IN_SERVICE)
_DOWN_REPLY = Response(None, OUT_OF_SERVICE)


class SimWorld:
    """One modem instance on a logical tick counter.

    The behavior table is indexed when the world is built: ``config.rows``
    is read once, so rows added to the config afterwards are not seen by
    this world. Build a new world for a changed table. Built once per
    world: the exact-row dict, each wildcard or prefix row's integer mask
    and value, and the reply of each ``ok`` row. Built on first use, once
    per payload length: the list of loose rows that can match it.

    The temporary latch is one expiry tick, active while ahead of the clock:
    a crash sets it only while no latch is active, so it is the latest. No
    work expires it. ``inject`` checks the latches inline, the decision
    ``query_state`` gives, without its calls on every injection.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.tick = 0
        self._down_until = 0  # temporary latch: active while > tick
        self._recoverable = False
        self._permanent = False
        self._rows = tuple(config.rows)
        # exact matcher bytes -> position of the first row with that matcher
        self._exact: dict[bytes, int] = {}
        # (position, length, prefix, mask, value) of every wildcard or prefix
        # row, in table order: a payload of the row's length matches when
        # its big-endian integer ANDed with mask equals value
        self._loose: list[tuple[int, int, bool, int, int]] = []
        for i, r in enumerate(self._rows):
            if r.prefix or None in r.matcher:
                mask = int.from_bytes(bytes(0 if m is None else 0xFF for m in r.matcher), "big")
                value = int.from_bytes(bytes(0 if m is None else m for m in r.matcher), "big")
                self._loose.append((i, len(r.matcher), r.prefix, mask, value))
            else:
                self._exact.setdefault(bytes(r.matcher), i)
        # the reply of each ok row (None for a crash row); Response is frozen,
        # so injections share it
        self._ok_replies = tuple(
            Response(r.args[0] if r.args else RSP_OK, IN_SERVICE) if r.effect == "ok" else None
            for r in self._rows)
        # payload length n -> (position, mask, value) of the loose rows that
        # can match length n, with a prefix row's mask and value shifted to
        # the payload's leading bytes
        self._loose_by_len: dict[int, list[tuple[int, int, int]]] = {}

    # -- state ----------------------------------------------------------

    def active_latch(self) -> str | None:
        if self._permanent:
            return "permanent"
        if self._recoverable:
            return "recoverable"
        if self._down_until > self.tick:
            return "temporary"
        return None

    def query_state(self) -> str:
        return OUT_OF_SERVICE if self.active_latch() else IN_SERVICE

    # -- time -----------------------------------------------------------

    def advance(self, n: int = 1):
        if n < 0:
            raise ValueError(f"advance needs n >= 0, not {n}")
        self.tick += n

    def reboot(self):
        self.tick += self.config.reboot_ticks
        self._recoverable = False

    def reflash(self):
        self.tick += self.config.reboot_ticks
        self._down_until = 0
        self._recoverable = False
        self._permanent = False

    # -- injection ------------------------------------------------------

    def row_for(self, payload: bytes) -> int | None:
        """Position of the first row that matches ``payload``, or None:
        the row a scan of ``BehaviorRow.matches`` in table order finds."""
        n = len(payload)
        loose = self._loose_by_len.get(n)
        if loose is None:
            loose = [(i, mask << 8 * (n - size), value << 8 * (n - size))
                     for i, size, prefix, mask, value in self._loose
                     if (size <= n if prefix else size == n)]
            self._loose_by_len[n] = loose
        hit = self._exact.get(bytes(payload))
        if loose:
            whole = int.from_bytes(payload, "big")
            for i, mask, value in loose:
                if hit is not None and i > hit:
                    break
                if whole & mask == value:
                    return i
        return hit

    def inject(self, payload: bytes) -> Response:
        self.tick += 1
        if self._permanent or self._recoverable or self._down_until > self.tick:
            return _DOWN_REPLY
        # No latch is active, and neither an unmatched payload nor an ok row
        # sets one: those replies are IN_SERVICE, built once.
        i = self.row_for(payload)
        if i is None:
            return _UNKNOWN_REPLY
        reply = self._ok_replies[i]
        if reply is not None:
            return reply
        row = self._rows[i]
        if row.effect == "temporary_crash":
            after = row.args[0] if row.args else self.config.default_recover_after
            self._down_until = self.tick + after
        elif row.effect == "recoverable_crash":
            self._recoverable = True
        elif row.effect == "permanent_crash":
            self._permanent = True
        return Response(None, self.query_state())


# ---------------------------------------------------------------------------
# Nv file sandbox

@dataclass(frozen=True)
class NvRequest:
    op: str  # "read" | "write"
    path: str
    data: bytes | None = None


@dataclass(frozen=True)
class NvResult:
    status: str  # "ok" | "rejected" | "not-found" | "error"
    data: bytes | None = None
    reason: str | None = None


def nv_handle(config: SimConfig, req: NvRequest) -> NvResult:
    """File request against the sandbox root. The dotdot check is a bare
    substring test; containment of symlink targets is enforced only when
    symlink_check is set, so the default config follows planted links out
    of the sandbox."""
    root = config.sandbox_root
    if not root:  # "" would resolve paths against the working directory
        return NvResult("error", reason="no-sandbox-root")
    if req.op not in ("read", "write"):
        return NvResult("error", reason=f"bad-op:{req.op}")
    if config.dotdot_check and ".." in req.path:
        return NvResult("rejected", reason="dotdot")
    full = os.path.join(root, req.path.lstrip("/"))
    if config.symlink_check:
        real_root = os.path.realpath(root)
        real = os.path.realpath(full)
        if real != real_root and not real.startswith(os.path.join(real_root, "")):
            return NvResult("rejected", reason="symlink-escape")
    try:
        if req.op == "read":
            if not os.path.exists(full):
                return NvResult("not-found")
            with open(full, "rb") as fh:
                return NvResult("ok", data=fh.read())
        if req.data is None:
            return NvResult("error", reason="write-without-data")
        with open(full, "wb") as fh:
            fh.write(req.data)
        return NvResult("ok")
    except OSError as e:
        return NvResult("error", reason=type(e).__name__)
