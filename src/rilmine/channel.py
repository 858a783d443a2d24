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
from .callgraph import CallGraph
from .commands import CommandDB, config_hash, make_record, DEFAULT_FILTER_TOKENS
from .ir import Function, IRProgram, Varnode, reaching_def
from .taint import (
    TAINT_APIS,
    backward_taint,
    concretize_payload,
    find_sources,
    forward_taint,
)

# Kept verbatim; device nodes live directly under /dev or one level deeper.
DEVICE_PATH_PATTERN = r"^/dev/([^/ ]*)+(/[^/ ]*)*?$"
_DEVICE_RE = re.compile(DEVICE_PATH_PATTERN)

# Filtering APIs and their tainted argument index, as shipped. Path tracing
# always follows the first parameter, which is the path for all three.
OPEN_APIS = {"open": 1, "__open_2": 1, "fopen": 0}
PATH_ARG_INDEX = 0


def match_device_path(path: str) -> bool:
    return _DEVICE_RE.fullmatch(path) is not None


@dataclass
class FilterConfig:
    keep_socket: bool = False
    fd_depth: int = 16
    open_apis: dict = field(default_factory=lambda: dict(OPEN_APIS))
    device_pattern: str = DEVICE_PATH_PATTERN
    filter_tokens: tuple = DEFAULT_FILTER_TOKENS

    def pattern(self):
        if self.device_pattern == DEVICE_PATH_PATTERN:
            return _DEVICE_RE
        return re.compile(self.device_pattern)

    def to_json(self) -> str:
        d = asdict(self)
        d["filter_tokens"] = list(self.filter_tokens)
        return json.dumps(d, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FilterConfig":
        d = json.loads(text)
        if "filter_tokens" in d:
            d["filter_tokens"] = tuple(d["filter_tokens"])
        return cls(**d)

    def hash(self) -> str:
        d = asdict(self)
        d["filter_tokens"] = list(self.filter_tokens)
        return config_hash(d)


@dataclass
class ChannelResolution:
    verdict: str  # "keep" | "discard"
    origin: str  # "open" | "pipe" | "socket" | "unknown"
    path: str | None = None
    reason: str | None = None  # discard reason


def _trace_path(p: IRProgram, cg: CallGraph, f: Function, v: Varnode, pos: int, depth: int) -> set[str]:
    """Resolve a path argument to constant data-segment strings."""
    if depth <= 0:
        return set()
    while True:
        if v.is_const:
            s = p.read_cstring(v.offset)
            return {s} if s is not None else set()
        d = reaching_def(f, v, pos)
        if d is None:
            k = f.param_index(v)
            if k is None:
                return set()
            out: set[str] = set()
            for e in cg.callers_of(f.id):
                cf = p.fn(e.caller)
                a, apos = cf.arg_at(e.site[1], e.site[2], k)
                if a is not None:
                    out |= _trace_path(p, cg, cf, a, apos, depth - 1)
            return out
        pos2, ins = d
        if ins.op == "COPY":
            v, pos = ins.inputs[0], pos2
            continue
        return set()


def _trace_fd(p: IRProgram, cg: CallGraph, f: Function, v: Varnode, pos: int,
              depth: int, visited: set) -> list[tuple]:
    """Backward walk of an fd value to its producing call.

    Returns origin tuples: ("pipe",), ("socket",), ("open", api, path|None)
    or ("unknown", why). Member loads follow the defining store through the
    owning class's constructor/member list; params fan out to all callers.
    """
    if depth <= 0:
        return [("unknown", "depth-bound")]
    key = (f.id, v, pos)
    if key in visited:
        return []
    visited.add(key)
    while True:
        if v.is_const:
            return [("unknown", "constant-fd")]
        if v.space == "stack":
            d = reaching_def(f, v, pos)
            if d is None:
                return [("unknown", "uninit-slot")]
            pos2, ins = d
            if ins.op in ("COPY", "STORE"):
                v, pos = ins.inputs[-1], pos2
                continue
            return [("unknown", f"slot-{ins.op.lower()}")]
        d = reaching_def(f, v, pos)
        if d is None:
            k = f.param_index(v)
            if k is None:
                return [("unknown", "no-def")]
            out: list[tuple] = []
            for e in cg.callers_of(f.id):
                cf = p.fn(e.caller)
                a, apos = cf.arg_at(e.site[1], e.site[2], k)
                if a is not None:
                    out.extend(_trace_fd(p, cg, cf, a, apos, depth - 1, visited))
            return out or [("unknown", "no-callers")]
        pos2, ins = d
        if ins.op == "COPY":
            v, pos = ins.inputs[0], pos2
            continue
        if ins.op in ("INT_ADD", "INT_SUB"):
            nc = [x for x in ins.inputs if not x.is_const]
            if len(nc) == 1:
                v, pos = nc[0], pos2
                continue
            return [("unknown", "arith")]
        if ins.op == "CALL":
            callee = ins.callee
            if callee == "pipe":
                return [("pipe",)]
            if callee == "socket":
                return [("socket",)]
            if callee in OPEN_APIS:
                args = ins.inputs
                if PATH_ARG_INDEX < len(args):
                    paths = _trace_path(p, cg, f, args[PATH_ARG_INDEX], pos2, depth)
                else:
                    paths = set()
                if len(paths) == 1:
                    return [("open", callee, paths.pop())]
                return [("open", callee, None)]
            if callee and p.has_fn(callee):
                # fd produced by an internal helper: continue at its returns
                out: list[tuple] = []
                callee_fn = p.fn(callee)
                for bid, idx, rins in callee_fn.linear():
                    if rins.op == "RETURN" and rins.inputs:
                        out.extend(
                            _trace_fd(
                                p, cg, callee_fn, rins.inputs[0],
                                callee_fn.linear_pos(bid, idx),
                                depth - 1, visited,
                            )
                        )
                return out or [("unknown", "opaque-return")]
            return [("unknown", f"ext:{callee}")]
        if ins.op == "LOAD":
            canon = cgmod._canon_store_addr(f, ins.inputs[0], pos2)
            if canon is None:
                return [("unknown", "load")]
            if canon.base == "this" and f.owning_class is not None:
                # the first store to this+off along the class's search list
                for fid in cgmod._search_list(p, f.owning_class):
                    g = p.fn(fid)
                    found = cgmod.defining_store(g, canon)
                    if found is not None:
                        return _trace_fd(p, cg, g, found[1], found[0], depth - 1, visited)
                return [("unknown", "member-undefined")]
            if canon.base.startswith("stack:"):
                off = int(canon.base.split(":")[1])
                v = Varnode("stack", off, v.size)
                continue
            return [("unknown", "load-base")]
        return [("unknown", ins.op.lower())]


def resolve_channel(p: IRProgram, cg: CallGraph, site: tuple[str, int, int],
                    fd_arg_index: int, config: FilterConfig | None = None) -> ChannelResolution:
    """Classify the channel behind one I/O site's fd argument."""
    config = config or FilterConfig()
    f = p.fn(site[0])
    fd, pos = f.arg_at(site[1], site[2], fd_arg_index)
    if fd is None:
        return ChannelResolution("discard", "unknown", reason="fd-arg-missing")
    origins = _trace_fd(p, cg, f, fd, pos, config.fd_depth, set())
    distinct = sorted(set(origins))
    if not distinct:
        return ChannelResolution("discard", "unknown", reason="fd-unresolved")
    if len(distinct) > 1:
        return ChannelResolution("discard", "unknown", reason="fd-ambiguous")
    o = distinct[0]
    if o[0] == "pipe":
        return ChannelResolution("discard", "pipe", reason="pipe")
    if o[0] == "socket":
        if config.keep_socket:
            return ChannelResolution("keep", "socket")
        return ChannelResolution("discard", "socket", reason="socket")
    if o[0] == "open":
        path = o[2]
        if path is None:
            return ChannelResolution("discard", "open", reason="path-unresolved")
        if config.pattern().fullmatch(path):
            return ChannelResolution("keep", "open", path=path)
        return ChannelResolution("discard", "open", path=path, reason="non-dev-path")
    return ChannelResolution("discard", "unknown", reason=o[1])


@dataclass
class AnalysisReport:
    sites_total: int = 0
    kept: int = 0
    backward_runs: int = 0
    forward_runs: int = 0
    incomplete_traces: int = 0
    records: int = 0
    discards: list[tuple[str, str, str | None]] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def discard_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, reason, _path in self.discards:
            out[reason] = out.get(reason, 0) + 1
        return out

    def discard_paths(self) -> set[str]:
        return {path for _, _, path in self.discards if path is not None}

    def to_text(self) -> str:
        lines = [
            f"sites_total={self.sites_total}",
            f"kept={self.kept}",
            f"taint_runs={self.backward_runs + self.forward_runs}",
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
        report.sites_total += 1
        res = resolve_channel(p, cg, q.site, TAINT_APIS[q.api]["fd"], config)
        if res.verdict == "discard":
            report.discards.append((q.site_str, res.reason, res.path))
            continue
        report.kept += 1
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
                rec = make_record(
                    binary, "solicited", q.api, q.site_str, t.root,
                    payload=payload, channel_path=res.path,
                    filter_tokens=config.filter_tokens,
                )
                if db.add(rec):
                    report.records += 1
        else:
            report.forward_runs += 1
            t = forward_taint(p, cg, q)
            for sink in t.sinks:
                rec = make_record(
                    binary, "unsolicited", q.api, q.site_str, sink.fn,
                    constant=sink.constant, handler=sink.handler,
                    channel_path=res.path, filter_tokens=config.filter_tokens,
                )
                if db.add(rec):
                    report.records += 1
    return db, report
