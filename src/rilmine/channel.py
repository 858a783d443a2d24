"""Communication-channel filtering for modem I/O sites.

Before any taint runs, each write/read/ioctl/sendto site has its fd
argument traced to the call that produced it. Descriptors from pipe are
IPC noise, sockets are network I/O (discarded by default, configurable),
and open-family descriptors qualify only when their path argument resolves
to a constant device-node string. Only surviving sites are taint-traced,
which is the main scalability lever of the whole pipeline.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, asdict

from . import callgraph as cgmod
from .callgraph import CallGraph, caller_args
from .commands import CommandDB, config_hash, make_record, DEFAULT_FILTER_TOKENS
from .ir import NONCONST_SPACES, Function, IRProgram, Varnode, def_step
from .taint import (
    IO_APIS,
    backward_taint,
    concretize_payload,
    find_sources,
    forward_taint,
)

# Kept verbatim, as configs and their provenance hash carry it: a path
# under /dev/ without spaces. Its nested quantifiers backtrack exponentially
# on a long path that fails to match, so the default is matched with the
# same language written without them.
DEVICE_PATH_PATTERN = r"^/dev/([^/ ]*)+(/[^/ ]*)*?$"
_DEVICE_RE = re.compile(r"/dev/[^ ]*")


@dataclass
class FilterConfig:
    keep_socket: bool = False
    fd_depth: int = 16
    device_pattern: str = DEVICE_PATH_PATTERN
    filter_tokens: tuple = DEFAULT_FILTER_TOKENS

    def pattern(self):
        if self.device_pattern == DEVICE_PATH_PATTERN:
            return _DEVICE_RE
        return re.compile(self.device_pattern)

    @classmethod
    def from_json(cls, text: str) -> "FilterConfig":
        """The config in ``text``, a JSON object with any of the fields as
        keys. Raises ValueError naming the key on an unknown key or a value
        of the wrong kind, and on a device pattern that does not compile."""
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"filter config must be a JSON object, not {type(d).__name__}")
        for key, value in d.items():
            if key not in _CONFIG_VALUES:
                raise ValueError(f"unknown filter config key {key!r}")
            ok, want = _CONFIG_VALUES[key]
            if not ok(value):
                raise ValueError(f"filter config key {key!r} must be {want}, not {value!r}")
        if "filter_tokens" in d:
            d["filter_tokens"] = tuple(d["filter_tokens"])
        return cls(**d)

    def hash(self) -> str:
        return config_hash(asdict(self))


def _compiles(pattern) -> bool:
    try:
        re.compile(pattern)
    except re.error:
        return False
    return True


# FilterConfig key -> (test of a value from JSON, what the value must be)
_CONFIG_VALUES = {
    "keep_socket": (lambda x: type(x) is bool, "true or false"),
    "fd_depth": (lambda x: type(x) is int and x > 0, "a positive integer"),
    "device_pattern": (lambda x: type(x) is str and _compiles(x),
                       "a string holding a regular expression"),
    "filter_tokens": (lambda x: type(x) is list and all(type(t) is str for t in x),
                      "a list of strings"),
}


@dataclass(frozen=True)
class ChannelResolution:
    """A site is kept when ``reason`` is None; ``path`` is the constant path
    its open-family fd resolved to, if one did."""

    reason: str | None
    path: str | None = None


# The fd and path walks follow COPY through every space but const.
def _trace_path(p: IRProgram, cg: CallGraph, f: Function, v: Varnode, pos: int, depth: int,
                memo: dict) -> set[str]:
    """Resolve a path argument to constant data-segment strings. ``memo``
    keeps the answer for each caller's argument by (function, varnode,
    position, depth), so a caller reached along many call paths is walked
    once."""
    if depth <= 0:
        return set()
    v, pos, d = def_step(f, v, pos, NONCONST_SPACES)
    if v.is_const:
        s = p.read_cstring(v.offset)
        return {s} if s is not None else set()
    k = f.param_index(v)
    if d is not None or k is None:
        return set()
    out: set[str] = set()
    for _, cf, a, apos in caller_args(p, cg, f, k):
        if a is not None:
            key = (cf.id, a, apos, depth - 1)
            if key not in memo:
                memo[key] = _trace_path(p, cg, cf, a, apos, depth - 1, memo)
            out |= memo[key]
    return out


def _trace_fd(p: IRProgram, cg: CallGraph, f: Function, v: Varnode, pos: int,
              depth: int, memo: dict) -> set[tuple]:
    """Backward walk of an fd value to its producing call.

    Returns origin tuples: ("pipe",), ("socket",), ("open", api, path|None)
    or ("unknown", why). Member loads follow the defining store through the
    owning class's constructor/member list; params fan out to all callers.
    """
    if depth <= 0:
        return {("unknown", "depth-bound")}
    key = (f.id, v, pos)
    if key not in memo:
        memo[key] = set()  # open: a cycle back to this question adds no origin
        memo[key] = _fd_walk(p, cg, f, v, pos, depth, memo)
    return memo[key]


def _fd_walk(p, cg, f: Function, v: Varnode, pos: int, depth: int, memo: dict) -> set[tuple]:
    while True:
        v, pos, d = def_step(f, v, pos, NONCONST_SPACES)
        if v.is_const:
            return {("unknown", "constant-fd")}
        if v.space == "stack":
            if d is None:
                return {("unknown", "uninit-slot")}
            if d[1].op == "STORE":
                v, pos = d[1].inputs[1], d[0]
                continue
            return {("unknown", f"slot-{d[1].op.lower()}")}
        if d is None:
            k = f.param_index(v)
            if k is None:
                return {("unknown", "no-def")}
            out: set[tuple] = set()
            for _, cf, a, apos in caller_args(p, cg, f, k):
                if a is not None:
                    out |= _trace_fd(p, cg, cf, a, apos, depth - 1, memo)
            return out or {("unknown", "no-callers")}
        pos2, ins = d
        if ins.op in ("INT_ADD", "INT_SUB"):
            nc = [x for x in ins.inputs if not x.is_const]
            if len(nc) == 1:
                v, pos = nc[0], pos2
                continue
            return {("unknown", "arith")}
        if ins.op == "CALL":
            callee = ins.callee
            role, path_arg, _buf, _length = IO_APIS.get(callee, (None,) * 4)
            if role in ("pipe", "socket"):
                return {(role,)}
            if role == "open":
                paths = set()
                if path_arg < len(ins.inputs):
                    paths = _trace_path(p, cg, f, ins.inputs[path_arg], pos2, depth, {})
                if len(paths) == 1:
                    return {("open", callee, paths.pop())}
                return {("open", callee, None)}
            if callee and p.has_fn(callee):
                # fd produced by an internal helper: continue at its returns
                out: set[tuple] = set()
                callee_fn = p.fn(callee)
                for rpos, rins in enumerate(callee_fn.code):
                    if rins.op == "RETURN" and rins.inputs:
                        out |= _trace_fd(p, cg, callee_fn, rins.inputs[0], rpos, depth - 1, memo)
                return out or {("unknown", "opaque-return")}
            return {("unknown", f"ext:{callee}")}
        if ins.op == "LOAD":
            canon = cgmod._canon_store_addr(f, ins.inputs[0], pos2)
            if canon is None:
                return {("unknown", "load")}
            if canon.base == "this" and f.owning_class is not None:
                # the first store to this+off along the class's search list
                for fid in cgmod._search_list(p, f.owning_class):
                    g = p.fn(fid)
                    found = cgmod.defining_store(g, canon)
                    if found is not None:
                        return _trace_fd(p, cg, g, found[1], found[0], depth - 1, memo)
                return {("unknown", "member-undefined")}
            if canon.base.startswith("stack:"):
                off = int(canon.base.split(":")[1])
                # the slot's value as the LOAD read it, not at the later use
                v, pos = Varnode("stack", off, v.size), pos2
                continue
            return {("unknown", "load-base")}
        return {("unknown", ins.op.lower())}


def resolve_channel(p: IRProgram, cg: CallGraph, site: tuple[str, int, int],
                    fd_arg_index: int, config: FilterConfig | None = None) -> ChannelResolution:
    """Classify the channel behind one I/O site's fd argument."""
    config = config or FilterConfig()
    f = p.fn(site[0])
    fd, pos = f.arg_at(site[1], site[2], fd_arg_index)
    if fd is None:
        return ChannelResolution("fd-arg-missing")
    origins = _trace_fd(p, cg, f, fd, pos, config.fd_depth, {})
    distinct = sorted(origins)
    if not distinct:
        return ChannelResolution("fd-unresolved")
    if len(distinct) > 1:
        return ChannelResolution("fd-ambiguous")
    o = distinct[0]
    if o[0] == "pipe":
        return ChannelResolution("pipe")
    if o[0] == "socket":
        return ChannelResolution(None if config.keep_socket else "socket")
    if o[0] == "open":
        path = o[2]
        if path is None:
            return ChannelResolution("path-unresolved")
        if config.pattern().fullmatch(path):
            return ChannelResolution(None, path)
        return ChannelResolution("non-dev-path", path)
    return ChannelResolution(o[1])


@dataclass
class AnalysisReport:
    """What ``filter_commands`` did with each I/O site. Every site is either
    discarded or traced in one direction, so the kept and total site counts
    are derived from the discards and the per-direction taint runs."""

    backward_runs: int = 0
    forward_runs: int = 0
    incomplete_traces: int = 0
    records: int = 0
    discards: list[tuple[str, str, str | None]] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def kept(self) -> int:
        return self.backward_runs + self.forward_runs

    @property
    def sites_total(self) -> int:
        return self.kept + len(self.discards)

    def to_text(self) -> str:
        lines = [
            f"sites_total={self.sites_total}",
            f"kept={self.kept}",
            f"taint_runs={self.kept}",
            f"incomplete_traces={self.incomplete_traces}",
            f"records={self.records}",
        ]
        for site, reason, path in self.discards:
            lines.append(f"discard\t{site}\t{reason}" + (f"\t{path}" if path else ""))
        for d in self.diagnostics:
            lines.append(f"diag\t{d}")
        return "\n".join(lines) + "\n"


def filter_commands(p: IRProgram, cg: CallGraph, binary: str | None = None,
                    config: FilterConfig | None = None) -> tuple[CommandDB, AnalysisReport]:
    """Run the full site pipeline: find I/O sites, filter each by channel,
    taint-trace the survivors and assemble the command database. Filtering
    strictly precedes taint: discarded sites never spawn a trace."""
    config = config or FilterConfig()
    binary = binary if binary is not None else p.name
    db = CommandDB(binary, provenance=config.hash())
    report = AnalysisReport()
    for q in find_sources(p):
        _role, fd, _buf, _length = IO_APIS[q.api]
        res = resolve_channel(p, cg, q.site, fd, config)
        if res.reason is not None:
            report.discards.append((q.site_str, res.reason, res.path))
            continue
        if q.direction == "backward":
            report.backward_runs += 1
            for t in backward_taint(p, cg, q):
                if not t.complete:
                    report.incomplete_traces += 1
                    report.diagnostics.append(
                        f"incomplete backward trace at {q.site_str}: {t.reason}"
                    )
                    continue
                payload = concretize_payload(p, t)
                for n in payload.notes:
                    report.diagnostics.append(f"{q.site_str}: {n}")
                db.add(make_record(
                    binary, "solicited", q.api, q.site_str, t.root,
                    payload=payload, channel_path=res.path,
                    filter_tokens=config.filter_tokens,
                ))
        else:
            report.forward_runs += 1
            for sink in forward_taint(p, cg, q):
                db.add(make_record(
                    binary, "unsolicited", q.api, q.site_str, sink.fn,
                    constant=sink.constant, handler=sink.handler,
                    channel_path=res.path, filter_tokens=config.filter_tokens,
                ))
    report.records = len(db.records)
    return db, report
