"""Bidirectional taint over the IR, anchored at the modem I/O APIs.

Solicited commands (AP -> CP) are recovered by walking the written buffer
backward from write/ioctl/sendto sites to the frame that builds it, then
emulating that frame to concretize payload bytes. Unsolicited commands
(CP -> AP) are recovered by pushing taint forward from read sites into the
comparison ladder that dispatches on command bytes.

The libc calls the pipeline models, for both taint directions and for the
channel filter, are the rows of the one table ``IO_APIS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import CallGraph, caller_args
from .ir import NONCONST_SPACES, Function, IRProgram, Varnode, def_step, format_site

# name -> (role, fd-or-path arg, buffer arg, length arg). Backward calls
# anchor payload recovery at their buffer; forward calls seed taint with
# their fd, buffer and length. open, pipe and socket are where the channel
# filter's fd walk ends, and an open call's path argument is its second
# field.
IO_APIS: dict[str, tuple[str, int | None, int | None, int | None]] = {
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

# Fortified variants fold into their plain siblings in reports.
API_ALIASES = {"__write_chk": "write", "__read_chk": "read"}

MAX_FRAMES = 32  # inter-procedural depth bound per trace


def canonical_api(name: str) -> str:
    return API_ALIASES.get(name, name)


@dataclass(frozen=True)
class TaintQuery:
    site: tuple[str, int, int]
    api: str
    direction: str

    @property
    def site_str(self) -> str:
        return format_site(*self.site)


@dataclass(frozen=True)
class Sink:
    """Comparison of tainted data against a constant, plus the call the
    equal path dispatches into (when one exists)."""

    fn: str
    loc: tuple[int, int]
    constant: int
    handler: str | None


@dataclass(frozen=True)
class LengthSource:
    kind: str  # "constant-arg" | "strlen-bounded" | "unknown"
    value: int | None = None

    def __str__(self) -> str:
        return self.kind if self.value is None else f"{self.kind}({self.value})"


@dataclass(frozen=True)
class PayloadBytes:
    """Concrete payload image. mask[i] is 's' when byte i is statically
    known, 'd' when it is attacker/caller-controlled (byte value 0x00)."""

    data: bytes
    mask: str
    length_source: LengthSource
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        assert len(self.data) == len(self.mask)
        assert all(self.data[i] == 0 for i, m in enumerate(self.mask) if m == "d")

    @property
    def is_static(self) -> bool:
        return "d" not in self.mask


def payload_hex(pb: PayloadBytes) -> str:
    """Hex dump with dynamic bytes masked: ``07 00 00 00 08 01 .. ..``"""
    return " ".join(
        ".." if m == "d" else f"{b:02x}" for b, m in zip(pb.data, pb.mask)
    )


def parse_payload_hex(text: str, length_source: LengthSource | None = None) -> PayloadBytes:
    data = bytearray()
    mask = []
    for tok in text.split():
        if tok == "..":
            data.append(0)
            mask.append("d")
        else:
            try:
                data.append(int(tok, 16))
            except ValueError:
                raise ValueError(f"bad payload byte {tok!r}") from None
            mask.append("s")
    return PayloadBytes(bytes(data), "".join(mask), length_source or LengthSource("unknown"))


@dataclass
class TaintTrace:
    query: TaintQuery
    # (fn, site-in-that-frame) leaf-first; site of frame 0 is the query site,
    # later entries carry the call site into the previous frame.
    frames: list[tuple[str, tuple[str, int, int]]] = field(default_factory=list)
    terminator: tuple | None = None
    sinks: list[Sink] = field(default_factory=list)
    complete: bool = False
    reason: str | None = None

    @property
    def root(self) -> str | None:
        if self.query.direction == "forward":
            return self.sinks[0].fn if self.sinks else None
        return self.frames[-1][0] if self.complete and self.frames else None


def find_sources(p: IRProgram, direction: str | None = None) -> list[TaintQuery]:
    """Every CALL to a backward or forward API, as a TaintQuery."""
    wanted = ("backward", "forward") if direction is None else (direction,)
    out = []
    for f in p.functions:
        for bid, idx, ins in f.linear():
            if ins.op != "CALL" or ins.callee not in IO_APIS:
                continue
            role = IO_APIS[ins.callee][0]
            if role in wanted:
                out.append(TaintQuery(site=(f.id, bid, idx), api=ins.callee, direction=role))
    out.sort(key=lambda q: q.site)
    return out


def _fold_const(op: str, a: Varnode, b: Varnode) -> int:
    return a.offset + b.offset if op == "INT_ADD" else a.offset - b.offset


# ---------------------------------------------------------------------------
# Backward

def backward_taint(p: IRProgram, cg: CallGraph, q: TaintQuery) -> list[TaintTrace]:
    """Trace the payload argument backward from the query site. Fan-in at
    function entries follows every caller, so one site may terminate in
    several root frames; each root yields its own trace. Incomplete walks
    are returned too (complete=False) so callers can surface diagnostics.
    """
    f = p.fn(q.site[0])
    _role, _fd, buf, _length = IO_APIS[q.api]
    v, start = f.arg_at(q.site[1], q.site[2], buf)
    if v is None:
        return [
            TaintTrace(q, frames=[(f.id, q.site)], complete=False, reason="arg-missing")
        ]
    results: list[TaintTrace] = []
    _walk_back(p, cg, q, f, v, start, [(f.id, q.site)], frozenset([f.id]), results)
    return results


# The payload walk follows COPY through registers, temporaries and ram. It
# stops at stack cells: the frame buffer there is what concretization reads.
_BUFFER_WALK = frozenset(("reg", "ram", "unique"))


def _walk_back(p, cg, q, f: Function, v: Varnode, pos: int, frames, visited, results):
    def end(term=None, reason=None):
        results.append(TaintTrace(q, list(frames), term, complete=reason is None, reason=reason))

    while True:
        v, pos, d = def_step(f, v, pos, _BUFFER_WALK)
        if v.is_const:
            in_data = p.read_bytes(v.offset, 1) is not None
            return end(("ram" if in_data else "const", v.offset))
        if v.space == "stack":
            return end(("stack", f.id, v.offset, v.size))
        if d is None:
            k = f.param_index(v)
            if k is None:
                return end(reason="no-def")
            callers = list(caller_args(p, cg, f, k))
            if not callers:
                return end(reason="no-callers")
            for e, cf, a, cpos in callers:
                if e.caller in visited:
                    continue  # cycle cut
                if len(frames) >= MAX_FRAMES:
                    end(reason="depth-bound")
                elif a is None:
                    end(reason="arg-mismatch")
                else:
                    _walk_back(p, cg, q, cf, a, cpos, frames + [(e.caller, e.site)],
                               visited | {e.caller}, results)
            return
        pos, dins = d
        if dins.op not in ("INT_ADD", "INT_SUB"):
            return end(reason=f"unmodeled-{dins.op.lower()}")
        a, b = dins.inputs
        if a.is_const and b.is_const:
            v = Varnode("const", _fold_const(dins.op, a, b), dins.output.size)
        else:
            v = b if a.is_const else a


# ---------------------------------------------------------------------------
# Forward

def forward_taint(p: IRProgram, cg: CallGraph, q: TaintQuery) -> TaintTrace:
    """Push taint from a read-family site into comparison sinks. Calls are
    followed (direct and recovered virtual), each function analyzed at most
    once per trace, depth bounded."""
    f = p.fn(q.site[0])
    ins = f.block(q.site[1]).instructions[q.site[2]]
    args = ins.args
    trace = TaintTrace(q, frames=[(f.id, q.site)])
    visited: set[str] = set()
    sinks: list[Sink] = []

    seeds = set()
    regions: set[tuple[int, int]] = set()
    _role, fd, buf, length = IO_APIS[q.api]
    for k in (fd, buf, length):
        if k is not None and k < len(args):
            v = args[k]
            if v.space == "stack":
                regions.add((v.offset, v.size))
            elif not v.is_const:  # a literal cannot carry CP data
                seeds.add(v)
    if ins.output is not None:
        seeds.add(ins.output)  # bytes-read count carries CP data length

    _flow_forward(p, cg, f, seeds, regions, visited, sinks, depth=0)
    sinks.sort(key=lambda s: (s.fn, s.loc))
    trace.sinks = sinks
    trace.complete = True
    return trace


def _overlaps(v: Varnode, regions) -> bool:
    return any(v.offset < off + size and off < v.offset + v.size for off, size in regions)


def _flow_forward(p, cg, f: Function, seeds, regions, visited, sinks, depth) -> bool:
    if f.id in visited or depth > MAX_FRAMES:
        return False
    visited.add(f.id)
    tainted: set[Varnode] = set(seeds)
    regions = set(regions)
    ret_tainted = False

    def is_t(v: Varnode) -> bool:
        if v in tainted:
            return True
        return v.space == "stack" and _overlaps(v, regions)

    # Runs to a fixpoint: tainted varnodes and regions only grow, and both
    # are drawn from the function's finitely many operands.
    changed = True
    while changed:
        changed = False
        for bid, idx, ins in f.linear():
            if ins.op in ("COPY", "LOAD", "INT_ADD", "INT_SUB"):
                if ins.output is not None and any(is_t(v) for v in ins.inputs):
                    if ins.output.space == "stack":
                        r = (ins.output.offset, ins.output.size)
                        if r not in regions:
                            regions.add(r)
                            changed = True
                    elif ins.output not in tainted:
                        tainted.add(ins.output)
                        changed = True
            elif ins.op == "STORE":
                addr, val = ins.inputs[0], ins.inputs[1]
                if is_t(val) and addr.space == "stack":
                    r = (addr.offset, val.size)
                    if r not in regions:
                        regions.add(r)
                        changed = True
            elif ins.op in ("INT_EQUAL", "INT_NOTEQUAL"):
                a, b = ins.inputs
                const = None
                if is_t(a) and b.is_const:
                    const = b.offset
                elif is_t(b) and a.is_const:
                    const = a.offset
                if const is not None:
                    handler = _dispatch_target(f, bid, idx, ins)
                    s = Sink(f.id, (bid, idx), const, handler)
                    if s not in sinks:
                        sinks.append(s)
            elif ins.op in ("CALL", "CALLIND"):
                t_idx = [k for k, v in enumerate(ins.args) if is_t(v)]
                if not t_idx:
                    continue
                targets = []
                if ins.op == "CALL" and ins.callee:
                    targets = [ins.callee]
                else:
                    targets = [e.callee for e in cg.edges_at((f.id, bid, idx))]
                out_t = False
                for t in targets:
                    if p.has_fn(t):
                        child_fn = p.fn(t)
                        # Param varnodes are word sized regardless of the
                        # width of the value passed at the call.
                        child_seeds = {
                            Varnode("reg", k, p.word_size)
                            for k in t_idx
                            if k < len(child_fn.params)
                        }
                        child_regions = set()
                        if _flow_forward(
                            p, cg, child_fn, child_seeds, child_regions,
                            visited, sinks, depth + 1,
                        ):
                            out_t = True
                    else:
                        out_t = True  # external consuming tainted data
                if out_t and ins.output is not None and ins.output not in tainted:
                    tainted.add(ins.output)
                    changed = True
            elif ins.op == "RETURN":
                if ins.inputs and is_t(ins.inputs[0]):
                    ret_tainted = True
    return ret_tainted


def _dispatch_target(f: Function, bid: int, idx: int, cmp_ins) -> str | None:
    """First CALL on the path guarded by the comparison being true. The
    CBRANCH consuming the comparison takes successor[0] when its condition
    holds, so INT_EQUAL guards succ[0] and INT_NOTEQUAL guards succ[1]."""
    blk = f.block(bid)
    cb = None
    for j in range(idx + 1, len(blk.instructions)):
        nxt = blk.instructions[j]
        if nxt.output == cmp_ins.output and nxt is not cmp_ins:
            break
        if nxt.op == "CBRANCH" and nxt.inputs and nxt.inputs[0] == cmp_ins.output:
            cb = nxt
            break
    if cb is None or len(blk.successors) != 2:
        return None
    succ = blk.successors[0] if cmp_ins.op == "INT_EQUAL" else blk.successors[1]
    seen = set()
    while succ not in seen:
        seen.add(succ)
        b = f.block(succ)
        for ins in b.instructions:
            if ins.op == "CALL" and ins.callee:
                return ins.callee
            if ins.op in ("CBRANCH", "RETURN"):
                return None
        if len(b.successors) == 1:
            succ = b.successors[0]
        else:
            return None
    return None


# ---------------------------------------------------------------------------
# Concretization

def concretize_payload(p: IRProgram, trace: TaintTrace) -> PayloadBytes:
    """Turn a complete backward trace into payload bytes with a static/
    dynamic mask, by abstract interpretation of the root frame in block
    order. Constant stores become static bytes; values derived from
    parameters or call results become dynamic placeholders (0x00)."""
    assert trace.complete and trace.query.direction == "backward"
    term = trace.terminator
    _role, _fd, _buf, length_arg = IO_APIS[trace.query.api]
    ws = p.word_size

    if term[0] == "const":
        val = term[1] & (2 ** (8 * ws) - 1)
        return PayloadBytes(
            val.to_bytes(ws, "little"), "s" * ws, LengthSource("constant-arg", ws)
        )

    length_abs = _length_along_trace(p, trace, length_arg)

    if term[0] == "ram":
        addr = term[1]
        if length_abs[0] == "const":
            n = length_abs[1]
            blob = p.read_bytes(addr, n)
            notes = ()
            if blob is None:
                blob = (p.read_cstring(addr) or "").encode()
                notes = ("length exceeds data segment; truncated to string",)
            return PayloadBytes(bytes(blob), "s" * len(blob), LengthSource("constant-arg", n), notes)
        s = (p.read_cstring(addr) or "").encode()
        return PayloadBytes(bytes(s), "s" * len(s), LengthSource("unknown"),
                            ("non-constant length for data-segment payload",))

    _, root_id, off, size = term
    root = p.fn(root_id)
    emu = _FrameEmu(p, root)
    emu.run()

    notes: list[str] = []
    length_source = LengthSource("unknown")
    length = size
    if length_abs[0] == "const":
        length_source = LengthSource("constant-arg", length_abs[1])
        length = length_abs[1]
    elif length_abs[0] == "root-varnode":
        kind, bound = emu.classify_length(length_abs[1], length_abs[2])
        if kind == "const":
            length_source = LengthSource("constant-arg", bound)
            length = bound
        elif kind == "strlen":
            length_source = LengthSource("strlen-bounded", bound)
        # else unknown: fall back to the buffer extent
    if length > root.stack_size - off:
        # validate bounds every stack varnode, so no byte lies past the frame
        notes.append(f"length {length} exceeds frame; truncated to {root.stack_size - off}")
        length = root.stack_size - off

    data = bytearray()
    mask = []
    for o in range(off, off + length):
        cell = emu.byte_map.get(o)
        if cell is None:
            if length_source.kind == "constant-arg":
                notes.append(f"byte {o - off} uninitialized; marked dynamic")
            data.append(0)
            mask.append("d")
        else:
            val, static = cell
            data.append(val if static else 0)
            mask.append("s" if static else "d")
    return PayloadBytes(bytes(data), "".join(mask), length_source, tuple(notes))


def _length_along_trace(p, trace, len_idx):
    """Map the length argument from the query site up the recorded frames.
    Returns ("const", n), ("root-varnode", varnode, pos) or ("unknown",)."""
    if len_idx is None:
        return ("unknown",)
    frames = trace.frames
    f = p.fn(frames[0][0])
    site = frames[0][1]
    v, pos = f.arg_at(site[1], site[2], len_idx)
    fi = 0
    while v is not None:
        v, pos, d = _fold_within(f, v, pos)
        if v.is_const:
            return ("const", v.offset)
        if fi == len(frames) - 1:
            return ("root-varnode", v, pos)
        k = f.param_index(v)
        if k is None or d is not None:
            return ("unknown",)
        fi += 1
        fid, csite = frames[fi]
        f = p.fn(fid)
        v, pos = f.arg_at(csite[1], csite[2], k)
    return ("unknown",)


def _fold_within(f: Function, v: Varnode, pos: int) -> tuple[Varnode, int, tuple | None]:
    """Follow COPY chains within ``f`` and fold a constant INT_ADD/INT_SUB
    at their end. Returns the varnode reached, its position and, unless it
    was folded to a constant, its reaching def."""
    v, pos, d = def_step(f, v, pos, NONCONST_SPACES)
    if not v.is_const and d is not None and d[1].op in ("INT_ADD", "INT_SUB") \
            and all(x.is_const for x in d[1].inputs):
        v = Varnode("const", _fold_const(d[1].op, *d[1].inputs), d[1].output.size)
    return v, pos, d


class _FrameEmu:
    """Block-order abstract interpretation of one frame.

    Tracks a byte map for the stack (value + static flag per byte), an
    abstract value per temporary, every write to each stack cell (the
    clamp idiom needs the full def list, not just the last), and the
    constants that strlen-derived values get compared against.
    """

    def __init__(self, p: IRProgram, f: Function):
        self.p = p
        self.f = f
        self.byte_map: dict[int, tuple[int, bool]] = {}
        self.env: dict[Varnode, tuple] = {}
        self.cell_defs: dict[tuple[int, int], list[tuple]] = {}
        self.strlen_bounds: list[int] = []

    def run(self):
        for bid, idx, ins in self.f.linear():
            self._step(ins)

    def _value(self, v: Varnode) -> tuple:
        if v.is_const:
            return ("const", v.offset)
        if v.space == "stack":
            defs = self.cell_defs.get((v.offset, v.size))
            if defs:
                consts = {d for d in defs if d[0] == "const"}
                if len(defs) == 1:
                    return defs[0]
                if any(d[0] == "strlen" for d in defs) and consts:
                    return ("strlen-clamped", min(c[1] for c in consts))
                return ("dyn", "mixed-defs")
            # Partial reads of initialized cells: rebuild from the byte map.
            bs = []
            static = True
            for o in range(v.offset, v.offset + v.size):
                cell = self.byte_map.get(o)
                if cell is None:
                    return ("dyn", "uninit")
                bs.append(cell[0])
                static = static and cell[1]
            if static:
                return ("const", int.from_bytes(bytes(bs), "little"))
            return ("dyn", "mixed-bytes")
        k = self.f.param_index(v)
        got = self.env.get(v)
        if got is not None:
            return got
        if k is not None:
            return ("dyn", f"param:{k}")
        return ("dyn", "undef")

    def _write_cell(self, off: int, size: int, val: tuple):
        self.cell_defs.setdefault((off, size), []).append(val)
        if val[0] == "const":
            for i, b in enumerate((val[1] & (2 ** (8 * size) - 1)).to_bytes(size, "little")):
                self.byte_map[off + i] = (b, True)
        else:
            for i in range(size):
                self.byte_map[off + i] = (0, False)

    def _step(self, ins):
        op = ins.op
        if op == "COPY":
            val = self._value(ins.inputs[0])
            self._assign(ins.output, val)
        elif op in ("INT_ADD", "INT_SUB"):
            a, b = self._value(ins.inputs[0]), self._value(ins.inputs[1])
            if a[0] == "const" and b[0] == "const":
                n = a[1] + b[1] if op == "INT_ADD" else a[1] - b[1]
                self._assign(ins.output, ("const", n))
            elif "strlen" in a[0] or "strlen" in b[0]:
                self._assign(ins.output, ("strlen-derived",))
            else:
                self._assign(ins.output, ("dyn", "arith"))
        elif op == "LOAD":
            addr = ins.inputs[0]
            if addr.space == "stack":
                self._assign(ins.output, self._value(addr))
            elif addr.is_const:
                blob = self.p.read_bytes(addr.offset, ins.output.size)
                if blob is not None:
                    self._assign(ins.output, ("const", int.from_bytes(blob, "little")))
                else:
                    self._assign(ins.output, ("dyn", "ram"))
            else:
                self._assign(ins.output, ("dyn", "deref"))
        elif op == "STORE":
            addr, v = ins.inputs[0], ins.inputs[1]
            if addr.space == "stack":
                self._write_cell(addr.offset, v.size, self._value(v))
        elif op == "CALL":
            if ins.output is not None:
                if ins.callee == "strlen":
                    self.env[ins.output] = ("strlen",)
                else:
                    self.env[ins.output] = ("dyn", f"call:{ins.callee}")
        elif op == "CALLIND":
            if ins.output is not None:
                self.env[ins.output] = ("dyn", "callind")
        elif op in ("INT_EQUAL", "INT_NOTEQUAL"):
            a, b = self._value(ins.inputs[0]), self._value(ins.inputs[1])
            if "strlen" in a[0] and b[0] == "const":
                self.strlen_bounds.append(b[1])
            elif "strlen" in b[0] and a[0] == "const":
                self.strlen_bounds.append(a[1])
            if ins.output is not None:
                self.env[ins.output] = ("dyn", "cmp")

    def _assign(self, out: Varnode | None, val: tuple):
        if out is None:
            return
        if out.space == "stack":
            self._write_cell(out.offset, out.size, val)
        else:
            self.env[out] = val

    def classify_length(self, v: Varnode, pos: int) -> tuple[str, int | None]:
        """Classify the root-frame length expression: constant, strlen with
        a clamp bound, or unknown."""
        val = self._eval_expr(v, pos)
        if val[0] == "const":
            return ("const", val[1])
        if "strlen" in val[0]:
            if val[0] == "strlen-clamped":
                return ("strlen", val[1])
            if self.strlen_bounds:
                return ("strlen", min(self.strlen_bounds))
        return ("unknown", None)

    def _eval_expr(self, v: Varnode, pos: int) -> tuple:
        return self._value(_fold_within(self.f, v, pos)[0])
