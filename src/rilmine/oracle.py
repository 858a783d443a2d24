"""Brute-force reference analyzer.

Recomputes everything the pipeline produces (virtual edges, channel
verdicts, command signatures) by exhaustive enumeration: no memoization,
no per-key caching, no early exits beyond cycle guards, and its own copies
of the API table, device regex and pattern matcher. Agreement between this
module and the pipeline is what the randomized tests check; the two must
not share analysis code.

Slow by design. Use only in tests and verification scripts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .ir import Function, IRProgram, Varnode, class_of_type, format_site

# Independent copy of the shipped API table (direction, fd, payload, length).
ORACLE_APIS = {
    "write": ("backward", 0, 1, 2),
    "__write_chk": ("backward", 0, 1, 2),
    "ioctl": ("backward", 0, 1, None),
    "sendto": ("backward", 0, 1, 2),
    "read": ("forward", 0, 1, 2),
    "__read_chk": ("forward", 0, 1, 2),
}
ORACLE_FORWARD_TAINTED = {"read": (0, 1, 2), "__read_chk": (0, 1, 2)}

ORACLE_DEVICE_PATTERN = r"^/dev/([^/ ]*)+(/[^/ ]*)*?$"
_DEV_RE = re.compile(ORACLE_DEVICE_PATTERN)

_OPEN_PATH_ARG = {"open": 0, "__open_2": 0, "fopen": 0}


@dataclass
class OracleResult:
    virtual_edges: set = field(default_factory=set)  # (caller, callee)
    direct_edges: set = field(default_factory=set)
    commands: set = field(default_factory=set)  # signature tuples
    unresolved: set = field(default_factory=set)  # (site, reason)
    discards: set = field(default_factory=set)  # (site, reason, path|None)


def _hex_masked(data: bytes, mask: str) -> str:
    return " ".join(".." if m == "d" else f"{b:02x}" for b, m in zip(data, mask))


class _Oracle:
    def __init__(self, p: IRProgram, keep_socket: bool = False):
        self.p = p
        self.keep_socket = keep_socket
        self.res = OracleResult()
        # callee -> [(caller fn id, (bid, idx), args)]
        self.callers: dict[str, list] = {}

    # -- plain def-use plumbing (recomputed every call on purpose) -------

    def _lin(self, f: Function):
        out = []
        for b in f.blocks:
            for i, ins in enumerate(b.instructions):
                out.append((b.id, i, ins))
        return out

    def _pos(self, f: Function, bid: int, idx: int) -> int:
        for n, (b, i, _) in enumerate(self._lin(f)):
            if (b, i) == (bid, idx):
                return n
        raise KeyError((f.id, bid, idx))

    def _def(self, f: Function, v: Varnode, before: int):
        lin = self._lin(f)
        for n in range(before - 1, -1, -1):
            if lin[n][2].output == v:
                return n, lin[n][2]
        return None

    def _follow(self, f: Function, v: Varnode, pos: int):
        while v.space in ("reg", "unique"):
            d = self._def(f, v, pos)
            if d is None or d[1].op != "COPY":
                break
            src = d[1].inputs[0]
            if src.space == "stack":
                return src, d[0]
            v, pos = src, d[0]
        return v, pos

    def _args(self, ins):
        return ins.inputs[1:] if ins.op == "CALLIND" else ins.inputs

    def _symbol(self, f: Function, v: Varnode, pos: int):
        v, pos = self._follow(f, v, pos)
        if v.space == "stack":
            return ("stack", v.offset)
        k = f.param_index(v)
        if k is not None and self._def(f, v, pos) is None:
            if k == 0 and f.owning_class is not None:
                return ("this",)
            return ("param", k)
        return None

    def _split_add(self, f: Function, v: Varnode, pos: int):
        v, pos = self._follow(f, v, pos)
        d = self._def(f, v, pos)
        if d is None or d[1].op != "INT_ADD":
            return None
        a, b = d[1].inputs
        if b.is_const and not a.is_const:
            return a, b.offset, d[0]
        if a.is_const and not b.is_const:
            return b, a.offset, d[0]
        return None

    # -- dispatch shape --------------------------------------------------

    def _match_dispatch(self, f: Function, target: Varnode, pos: int):
        """Returns ((v_t base tuple, k_t), v_o) or None."""
        v, pos = self._follow(f, target, pos)
        d = self._def(f, v, pos)
        if d is None or d[1].op != "LOAD":
            return None
        outer = self._split_add(f, d[1].inputs[0], d[0])
        if outer is None:
            return None
        obj, v_o, opos = outer
        obj, opos = self._follow(f, obj, opos)
        if obj.space == "stack":
            return (("stack", obj.offset), 0), v_o
        d2 = self._def(f, obj, opos)
        if d2 is None or d2[1].op != "LOAD":
            return None
        addr = d2[1].inputs[0]
        av, apos = self._follow(f, addr, d2[0])
        if av.space == "stack":
            return (("stack", av.offset), 0), v_o
        inner = self._split_add(f, addr, d2[0])
        if inner is not None:
            base, k_t, bpos = inner
            sym = self._symbol(f, base, bpos)
            if sym is not None and sym[0] != "stack":
                return (sym, k_t), v_o
            return None
        sym = self._symbol(f, av, apos)
        if sym is None or sym[0] == "stack":
            return None
        return (sym, 0), v_o

    def _canon_addr(self, f: Function, addr: Varnode, pos: int):
        av, apos = self._follow(f, addr, pos)
        if av.space == "stack":
            return (("stack", av.offset), 0)
        add = self._split_add(f, addr, pos)
        if add is not None:
            base, k, bpos = add
            sym = self._symbol(f, base, bpos)
            if sym is not None and sym[0] != "stack":
                return (sym, k)
            return None
        sym = self._symbol(f, av, apos)
        return None if sym is None else (sym, 0)

    # -- class inference -------------------------------------------------

    def _search_order(self, v_c: str):
        out = []
        for anc in self.p.ancestors(v_c):
            out.extend(self.p.cls(anc).constructors)
        c = self.p.cls(v_c)
        out.extend(c.constructors)
        out.extend(c.members)
        seen, uniq = set(), []
        for fid in out:
            if fid not in seen:
                seen.add(fid)
                uniq.append(fid)
        return uniq

    def _with_subs(self, cname: str):
        if cname is None or not self.p.has_cls(cname):
            return []
        return [cname] + self.p.subclasses(cname)

    def _stores_typing(self, fid: str, v_t, seen):
        if (fid, v_t) in seen or not self.p.has_fn(fid):
            return []
        seen = seen | {(fid, v_t)}
        f = self.p.fn(fid)
        for pos, (bid, idx, ins) in enumerate(self._lin(f)):
            if ins.op == "STORE":
                if self._canon_addr(f, ins.inputs[0], pos) != v_t:
                    continue
                value = ins.inputs[1]
            elif (ins.op == "COPY" and ins.output is not None
                  and ins.output.space == "stack"
                  and v_t == (("stack", ins.output.offset), 0)):
                value = ins.inputs[0]
            else:
                continue
            return self._type_value(f, value, pos, seen)
        return []

    def _type_value(self, f: Function, v: Varnode, pos: int, seen):
        v, pos = self._follow(f, v, pos)
        if v.space == "stack":
            return self._stores_typing(f.id, (("stack", v.offset), 0), seen)
        d = self._def(f, v, pos)
        if d is None:
            k = f.param_index(v)
            if k is not None:
                return self._with_subs(class_of_type(f.params[k].type))
            return []
        ins = d[1]
        if ins.op == "CALL" and ins.callee and self.p.has_fn(ins.callee):
            return self._with_subs(class_of_type(self.p.fn(ins.callee).return_type))
        if ins.op == "LOAD":
            canon = self._canon_addr(f, ins.inputs[0], d[0])
            if canon is not None and canon[0][0] == "stack":
                return self._stores_typing(f.id, canon, seen)
        return []

    def _resolve_calls(self):
        ws = self.p.word_size
        for f in self.p.functions:
            for bid, idx, ins in self._lin(f):
                site = format_site(f.id, bid, idx)
                if ins.op == "CALL" and ins.callee:
                    self.res.direct_edges.add((f.id, ins.callee))
                    self.callers.setdefault(ins.callee, []).append(
                        (f.id, (bid, idx), self._args(ins))
                    )
                elif ins.op == "CALLIND":
                    pos = self._pos(f, bid, idx)
                    m = self._match_dispatch(f, ins.inputs[0], pos)
                    if m is None or m[1] < 0 or m[1] % ws != 0:
                        self.res.unresolved.add((site, "no-vtable-pattern"))
                        continue
                    v_t, v_o = m
                    if f.owning_class is None:
                        self.res.unresolved.add((site, "no-enclosing-class"))
                        continue
                    classes = []
                    for fid in self._search_order(f.owning_class):
                        classes = self._stores_typing(fid, v_t, set())
                        if classes:
                            break
                    if not classes:
                        self.res.unresolved.add((site, "no-class-inferred"))
                        continue
                    slot = v_o // ws
                    hit = False
                    for c in classes:
                        vt = self.p.cls(c).vtable
                        if slot < len(vt):
                            hit = True
                            self.res.virtual_edges.add((f.id, vt[slot]))
                            self.callers.setdefault(vt[slot], []).append(
                                (f.id, (bid, idx), self._args(ins))
                            )
                    if not hit:
                        self.res.unresolved.add((site, "vtable-offset-out-of-range"))
        for lst in self.callers.values():
            lst.sort(key=lambda t: (t[0], t[1]))

    # -- channel ----------------------------------------------------------

    def _path_strings(self, f: Function, v: Varnode, pos: int, depth: int):
        if depth <= 0:
            return set()
        while True:
            if v.is_const:
                s = self.p.read_cstring(v.offset)
                return {s} if s is not None else set()
            d = self._def(f, v, pos)
            if d is None:
                k = f.param_index(v)
                if k is None:
                    return set()
                out = set()
                for cfid, csite, cargs in self.callers.get(f.id, []):
                    if k < len(cargs):
                        cf = self.p.fn(cfid)
                        out |= self._path_strings(
                            cf, cargs[k], self._pos(cf, *csite), depth - 1
                        )
                return out
            pos2, ins = d
            if ins.op == "COPY":
                v, pos = ins.inputs[0], pos2
                continue
            return set()

    def _member_store(self, cls_name: str, expr):
        for fid in self._search_order(cls_name):
            if not self.p.has_fn(fid):
                continue
            g = self.p.fn(fid)
            for pos, (bid, idx, ins) in enumerate(self._lin(g)):
                if ins.op != "STORE":
                    continue
                if self._canon_addr(g, ins.inputs[0], pos) == expr:
                    return g, pos, ins.inputs[1]
        return None

    def _fd_origins(self, f: Function, v: Varnode, pos: int, depth: int, visited):
        if depth <= 0:
            return {("unknown", "depth-bound")}
        key = (f.id, v, pos)
        if key in visited:
            return set()
        visited.add(key)
        while True:
            if v.is_const:
                return {("unknown", "constant-fd")}
            if v.space == "stack":
                d = self._def(f, v, pos)
                if d is None:
                    return {("unknown", "uninit-slot")}
                pos2, ins = d
                if ins.op in ("COPY", "STORE"):
                    v, pos = ins.inputs[-1], pos2
                    continue
                return {("unknown", f"slot-{ins.op.lower()}")}
            d = self._def(f, v, pos)
            if d is None:
                k = f.param_index(v)
                if k is None:
                    return {("unknown", "no-def")}
                out = set()
                for cfid, csite, cargs in self.callers.get(f.id, []):
                    if k < len(cargs):
                        cf = self.p.fn(cfid)
                        out |= self._fd_origins(
                            cf, cargs[k], self._pos(cf, *csite), depth - 1, visited
                        )
                return out or {("unknown", "no-callers")}
            pos2, ins = d
            if ins.op == "COPY":
                v, pos = ins.inputs[0], pos2
                continue
            if ins.op in ("INT_ADD", "INT_SUB"):
                nc = [x for x in ins.inputs if not x.is_const]
                if len(nc) == 1:
                    v, pos = nc[0], pos2
                    continue
                return {("unknown", "arith")}
            if ins.op == "CALL":
                callee = ins.callee
                if callee == "pipe":
                    return {("pipe",)}
                if callee == "socket":
                    return {("socket",)}
                if callee in _OPEN_PATH_ARG:
                    pa = _OPEN_PATH_ARG[callee]
                    paths = set()
                    if pa < len(ins.inputs):
                        paths = self._path_strings(f, ins.inputs[pa], pos2, depth)
                    if len(paths) == 1:
                        return {("open", paths.pop())}
                    return {("open", None)}
                if callee and self.p.has_fn(callee):
                    out = set()
                    g = self.p.fn(callee)
                    for bid, idx, rins in self._lin(g):
                        if rins.op == "RETURN" and rins.inputs:
                            out |= self._fd_origins(
                                g, rins.inputs[0], self._pos(g, bid, idx),
                                depth - 1, visited,
                            )
                    return out or {("unknown", "opaque-return")}
                return {("unknown", f"ext:{callee}")}
            if ins.op == "LOAD":
                canon = self._canon_addr(f, ins.inputs[0], pos2)
                if canon is None:
                    return {("unknown", "load")}
                if canon[0] == ("this",) and f.owning_class is not None:
                    found = self._member_store(f.owning_class, canon)
                    if found is None:
                        return {("unknown", "member-undefined")}
                    g, gpos, gv = found
                    return self._fd_origins(g, gv, gpos, depth - 1, visited)
                if canon[0][0] == "stack":
                    v = Varnode("stack", canon[0][1], v.size)
                    continue
                return {("unknown", "load-base")}
            return {("unknown", ins.op.lower())}

    def _channel(self, f: Function, site, fd_idx):
        ins = f.block(site[1]).instructions[site[2]]
        args = self._args(ins)
        if fd_idx >= len(args):
            return ("discard", "fd-arg-missing", None)
        origins = self._fd_origins(
            f, args[fd_idx], self._pos(f, site[1], site[2]), 16, set()
        )
        distinct = sorted(origins)
        if not distinct:
            return ("discard", "fd-unresolved", None)
        if len(distinct) > 1:
            return ("discard", "fd-ambiguous", None)
        o = distinct[0]
        if o[0] == "pipe":
            return ("discard", "pipe", None)
        if o[0] == "socket":
            if self.keep_socket:
                return ("keep", None, None)
            return ("discard", "socket", None)
        if o[0] == "open":
            if o[1] is None:
                return ("discard", "path-unresolved", None)
            if _DEV_RE.fullmatch(o[1]):
                return ("keep", None, o[1])
            return ("discard", "non-dev-path", o[1])
        return ("discard", o[1], None)

    # -- backward ----------------------------------------------------------

    def _back_paths(self, f: Function, v: Varnode, pos: int, frames, fseen, out):
        while True:
            if v.is_const:
                if self.p.read_bytes(v.offset, 1) is not None:
                    out.append((("ram", v.offset), frames))
                else:
                    out.append((("const", v.offset), frames))
                return
            if v.space == "stack":
                out.append((("stack", f.id, v.offset, v.size), frames))
                return
            d = self._def(f, v, pos)
            if d is None:
                k = f.param_index(v)
                if k is None:
                    return
                for cfid, csite, cargs in self.callers.get(f.id, []):
                    if cfid in fseen or k >= len(cargs):
                        continue
                    cf = self.p.fn(cfid)
                    self._back_paths(
                        cf, cargs[k], self._pos(cf, *csite),
                        frames + [(cfid, csite)], fseen | {cfid}, out,
                    )
                return
            pos2, ins = d
            if ins.op == "COPY":
                v, pos = ins.inputs[0], pos2
                continue
            if ins.op in ("INT_ADD", "INT_SUB"):
                a, b = ins.inputs
                if a.is_const and b.is_const:
                    n = a.offset + b.offset if ins.op == "INT_ADD" else a.offset - b.offset
                    v = Varnode("const", n, ins.output.size)
                elif b.is_const:
                    v = a
                elif a.is_const:
                    v = b
                else:
                    v = a
                pos = pos2
                continue
            return

    # -- root frame interpretation ------------------------------------------

    def _interp_root(self, f: Function):
        """(stack byte map, varnode values, cell writes, strlen bounds)."""
        bytes_map: dict[int, tuple[int, bool]] = {}
        vals: dict[Varnode, tuple] = {}
        writes: dict[tuple[int, int], list] = {}
        bounds: list[int] = []

        def value(v: Varnode):
            if v.is_const:
                return ("c", v.offset)
            if v.space == "stack":
                ws = writes.get((v.offset, v.size))
                if ws:
                    if len(ws) == 1:
                        return ws[0]
                    consts = [w[1] for w in ws if w[0] == "c"]
                    if consts and any("strlen" in w[0] for w in ws):
                        return ("strlen-clamped", min(consts))
                    return ("d",)
                acc = []
                static = True
                for o in range(v.offset, v.offset + v.size):
                    cell = bytes_map.get(o)
                    if cell is None:
                        return ("d",)
                    acc.append(cell[0])
                    static = static and cell[1]
                return ("c", int.from_bytes(bytes(acc), "little")) if static else ("d",)
            if v in vals:
                return vals[v]
            return ("d",)

        def write_cell(off, size, val):
            writes.setdefault((off, size), []).append(val)
            if val[0] == "c":
                blob = (val[1] & (2 ** (8 * size) - 1)).to_bytes(size, "little")
                for i, bb in enumerate(blob):
                    bytes_map[off + i] = (bb, True)
            else:
                for i in range(size):
                    bytes_map[off + i] = (0, False)

        def assign(out, val):
            if out is None:
                return
            if out.space == "stack":
                write_cell(out.offset, out.size, val)
            else:
                vals[out] = val

        for bid, idx, ins in self._lin(f):
            op = ins.op
            if op == "COPY":
                assign(ins.output, value(ins.inputs[0]))
            elif op in ("INT_ADD", "INT_SUB"):
                a, b = value(ins.inputs[0]), value(ins.inputs[1])
                if a[0] == "c" and b[0] == "c":
                    n = a[1] + b[1] if op == "INT_ADD" else a[1] - b[1]
                    assign(ins.output, ("c", n))
                elif "strlen" in a[0] or "strlen" in b[0]:
                    assign(ins.output, ("strlen-derived",))
                else:
                    assign(ins.output, ("d",))
            elif op == "LOAD":
                addr = ins.inputs[0]
                if addr.space == "stack":
                    assign(ins.output, value(addr))
                elif addr.is_const:
                    blob = self.p.read_bytes(addr.offset, ins.output.size)
                    assign(ins.output,
                           ("c", int.from_bytes(blob, "little")) if blob else ("d",))
                else:
                    assign(ins.output, ("d",))
            elif op == "STORE":
                addr = ins.inputs[0]
                if addr.space == "stack":
                    write_cell(addr.offset, ins.inputs[1].size, value(ins.inputs[1]))
            elif op == "CALL":
                if ins.output is not None:
                    vals[ins.output] = ("strlen",) if ins.callee == "strlen" else ("d",)
            elif op == "CALLIND":
                if ins.output is not None:
                    vals[ins.output] = ("d",)
            elif op in ("INT_EQUAL", "INT_NOTEQUAL"):
                a, b = value(ins.inputs[0]), value(ins.inputs[1])
                if "strlen" in a[0] and b[0] == "c":
                    bounds.append(b[1])
                elif "strlen" in b[0] and a[0] == "c":
                    bounds.append(a[1])
                if ins.output is not None:
                    vals[ins.output] = ("d",)
        return bytes_map, value, bounds

    def _length_at_root(self, frames, len_idx):
        """("const", n) | ("root", varnode) | ("unknown",) by mapping the
        length argument leaf to root."""
        if len_idx is None:
            return ("unknown",)
        f = self.p.fn(frames[0][0])
        site = frames[0][1]  # (bid, idx)
        ins = f.block(site[0]).instructions[site[1]]
        args = self._args(ins)
        if len_idx >= len(args):
            return ("unknown",)
        v = args[len_idx]
        pos = self._pos(f, *site)
        fi = 0
        while True:
            # fold copies and const arithmetic
            while not v.is_const:
                d = self._def(f, v, pos)
                if d is None:
                    break
                if d[1].op == "COPY":
                    v, pos = d[1].inputs[0], d[0]
                elif d[1].op in ("INT_ADD", "INT_SUB") and all(
                    x.is_const for x in d[1].inputs
                ):
                    a, b = d[1].inputs
                    n = a.offset + b.offset if d[1].op == "INT_ADD" else a.offset - b.offset
                    v = Varnode("const", n, d[1].output.size)
                else:
                    break
            if v.is_const:
                return ("const", v.offset)
            if fi == len(frames) - 1:
                return ("root", v)
            k = f.param_index(v)
            if k is None or self._def(f, v, pos) is not None:
                return ("unknown",)
            fi += 1
            fid, csite = frames[fi]
            f = self.p.fn(fid)
            cins = f.block(csite[0]).instructions[csite[1]]
            cargs = self._args(cins)
            if k >= len(cargs):
                return ("unknown",)
            v = cargs[k]
            pos = self._pos(f, *csite)

    def _payload_for(self, term, frames, api):
        ws = self.p.word_size
        if term[0] == "const":
            val = term[1] & (2 ** (8 * ws) - 1)
            return _hex_masked(val.to_bytes(ws, "little"), "s" * ws)
        length = self._length_at_root(frames, ORACLE_APIS[api][3])
        if term[0] == "ram":
            if length[0] == "const":
                blob = self.p.read_bytes(term[1], length[1])
                if blob is None:
                    blob = (self.p.read_cstring(term[1]) or "").encode()
            else:
                blob = (self.p.read_cstring(term[1]) or "").encode()
            return _hex_masked(bytes(blob), "s" * len(blob))
        _, root_id, off, size = term
        root = self.p.fn(root_id)
        bytes_map, value, bounds = self._interp_root(root)
        n = size
        if length[0] == "const":
            n = length[1]
        elif length[0] == "root":
            lv = value(length[1])
            if lv[0] == "c":
                n = lv[1]
            # strlen-shaped lengths keep the buffer extent
        n = min(n, root.stack_size - off)  # no byte lies past the frame
        data, mask = bytearray(), []
        for o in range(off, off + n):
            cell = bytes_map.get(o)
            if cell is None or not cell[1]:
                data.append(0)
                mask.append("d")
            else:
                data.append(cell[0])
                mask.append("s")
        return _hex_masked(bytes(data), "".join(mask))

    # -- forward -------------------------------------------------------------

    def _forward_sinks(self, f: Function, seeds, regions, visited, sinks):
        if f.id in visited:
            return
        visited.add(f.id)
        tainted = set(seeds)
        regions = set(regions)

        def is_t(v: Varnode) -> bool:
            if v in tainted:
                return True
            return v.space == "stack" and any(
                v.offset < o + s and o < v.offset + v.size for o, s in regions
            )

        changed = True
        while changed:
            changed = False
            for bid, idx, ins in self._lin(f):
                if ins.op in ("COPY", "LOAD", "INT_ADD", "INT_SUB"):
                    if ins.output is not None and any(is_t(x) for x in ins.inputs):
                        if ins.output.space == "stack":
                            r = (ins.output.offset, ins.output.size)
                            if r not in regions:
                                regions.add(r)
                                changed = True
                        elif ins.output not in tainted:
                            tainted.add(ins.output)
                            changed = True
                elif ins.op == "STORE":
                    if is_t(ins.inputs[1]) and ins.inputs[0].space == "stack":
                        r = (ins.inputs[0].offset, ins.inputs[1].size)
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
                        h = self._handler_of(f, bid, idx, ins)
                        sinks.add((f.id, const, h))
                elif ins.op in ("CALL", "CALLIND"):
                    args = self._args(ins)
                    t_idx = [k for k, x in enumerate(args) if is_t(x)]
                    if not t_idx:
                        continue
                    names = []
                    if ins.op == "CALL" and ins.callee:
                        names = [ins.callee]
                    elif ins.op == "CALLIND":
                        names = [
                            callee for callee, lst in self.callers.items()
                            for (cfid, csite, _) in lst
                            if cfid == f.id and csite == (bid, idx)
                        ]
                    ext = False
                    for nm in names:
                        if self.p.has_fn(nm):
                            g = self.p.fn(nm)
                            seeds2 = {
                                Varnode("reg", k, self.p.word_size)
                                for k in t_idx if k < len(g.params)
                            }
                            self._forward_sinks(g, seeds2, set(), visited, sinks)
                        else:
                            ext = True
                    if ext and ins.output is not None and ins.output not in tainted:
                        tainted.add(ins.output)
                        changed = True

    def _handler_of(self, f: Function, bid, idx, cmp_ins):
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

    # -- top level -------------------------------------------------------------

    def run(self) -> OracleResult:
        self._resolve_calls()
        sites = []
        for f in self.p.functions:
            for bid, idx, ins in self._lin(f):
                if ins.op == "CALL" and ins.callee in ORACLE_APIS:
                    sites.append((f.id, bid, idx, ins.callee))
        sites.sort()
        seen_keys = set()
        for fid, bid, idx, api in sites:
            f = self.p.fn(fid)
            site_str = format_site(fid, bid, idx)
            direction, fd_idx, payload_idx, _len_idx = ORACLE_APIS[api]
            verdict, reason, path = self._channel(f, (fid, bid, idx), fd_idx)
            if verdict == "discard":
                self.res.discards.add((site_str, reason, path))
                continue
            if direction == "backward":
                ins = f.block(bid).instructions[idx]
                args = self._args(ins)
                if payload_idx >= len(args):
                    continue
                paths: list = []
                self._back_paths(
                    f, args[payload_idx], self._pos(f, bid, idx),
                    [(fid, (bid, idx))], frozenset([fid]), paths,
                )
                for term, frames in paths:
                    root = frames[-1][0]
                    hexs = self._payload_for(term, frames, api)
                    key = ("solicited", hexs, root)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    self.res.commands.add(("solicited", api, root, hexs, path))
            else:
                ins = f.block(bid).instructions[idx]
                args = self._args(ins)
                seeds, regions = set(), set()
                for k in ORACLE_FORWARD_TAINTED[api]:
                    if k < len(args):
                        v = args[k]
                        if v.space == "stack":
                            regions.add((v.offset, v.size))
                        elif not v.is_const:
                            seeds.add(v)
                if ins.output is not None:
                    seeds.add(ins.output)
                sinks: set = set()
                self._forward_sinks(f, seeds, regions, set(), sinks)
                for sfn, const, handler in sinks:
                    key = ("unsolicited", f"const:{const:#x}", sfn)
                    if key in seen_keys:
                        continue
                    seen_keys.add(key)
                    self.res.commands.add(
                        ("unsolicited", api, sfn, const, handler, path)
                    )
        return self.res


def analyze(p: IRProgram, keep_socket: bool = False) -> OracleResult:
    return _Oracle(p, keep_socket=keep_socket).run()
