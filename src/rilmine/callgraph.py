"""Call graph construction and virtual-call target recovery.

Direct edges fall out of CALL instructions. CALLIND sites are matched
against the two vtable dispatch shapes

    LOAD(INT_ADD(LOAD(INT_ADD(base, k_t)), k_o))
    LOAD(INT_ADD(LOAD(base), k_o))

where base canonicalizes to ``this``, ``param:k`` or a stack slot. The
object class behind the table expression is inferred by scanning an
ordered search list (parent constructors root-most first, then own
constructors, then members) for the store that defines the expression,
then typing the stored value. Results are memoized per (v_c, v_t, v_o).

CallGraph is built once per program; ``edges`` only grows, through
``add_edge``, which also keeps the callee and call-site indexes behind
``callers_of`` and ``edges_at`` current, so each query is a lookup rather
than a scan of every edge. recover_vcalls is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (
    Function,
    IRProgram,
    Varnode,
    class_of_type,
    format_site,
    reaching_def,
)


@dataclass(frozen=True)
class TargetExpr:
    """Canonical memory expression holding the object pointer: a base
    symbol plus a constant byte offset."""

    base: str  # "this" | "param:<k>" | "stack:<off>"
    offset: int

    def __str__(self) -> str:
        return f"{self.base}+{self.offset:#x}" if self.offset else self.base


@dataclass
class VCallSite:
    fn: str
    bid: int
    idx: int
    v_c: str | None = None  # class of the enclosing function
    v_t: TargetExpr | None = None
    v_o: int | None = None  # constant byte offset into the vtable
    reason: str | None = None  # set when the site could not be resolved

    @property
    def loc(self) -> tuple[str, int, int]:
        return (self.fn, self.bid, self.idx)

    @property
    def site_str(self) -> str:
        return format_site(self.fn, self.bid, self.idx)


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    site: tuple[str, int, int]
    kind: str  # "direct" | "virtual"
    via: tuple[str, str, int] | None = None  # (class, v_t, v_o) for virtual


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    edges: list[CallEdge] = field(default_factory=list)
    unresolved: list[VCallSite] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        self._edge_keys = {(e.caller, e.callee, e.site, e.kind) for e in self.edges}
        self._done_sites: set[tuple[str, int, int]] = set()
        # Edges in ``edges`` order, per callee and per call site.
        self._by_callee: dict[str, list[CallEdge]] = {}
        self._by_site: dict[tuple[str, int, int], list[CallEdge]] = {}
        for e in self.edges:
            self._index(e)

    def _index(self, e: CallEdge) -> None:
        self._by_callee.setdefault(e.callee, []).append(e)
        self._by_site.setdefault(e.site, []).append(e)

    def add_edge(self, e: CallEdge) -> bool:
        key = (e.caller, e.callee, e.site, e.kind)
        if key in self._edge_keys:
            return False
        self._edge_keys.add(key)
        self.edges.append(e)
        self._index(e)
        self.nodes.add(e.caller)
        self.nodes.add(e.callee)
        return True

    def callers_of(self, fid: str) -> list[CallEdge]:
        """Edges into ``fid`` by (caller, site); ties keep ``edges`` order."""
        return sorted(self._by_callee.get(fid, ()), key=lambda e: (e.caller, e.site))

    def edges_at(self, site: tuple[str, int, int]) -> list[CallEdge]:
        return list(self._by_site.get(site, ()))

    def virtual_edges(self) -> list[CallEdge]:
        return [e for e in self.edges if e.kind == "virtual"]


def dump(cg: CallGraph) -> str:
    """Debug listing, one line per edge, sorted for stable output."""
    lines = []
    for e in sorted(cg.edges, key=lambda e: (e.caller, e.callee, e.site)):
        if e.kind == "virtual" and e.via:
            cls, vt, vo = e.via
            lines.append(f"{e.caller} -> {e.callee} [virtual via ({cls}, {vt}, {vo:#x})]")
        else:
            lines.append(f"{e.caller} -> {e.callee} [{e.kind}]")
    for s in sorted(cg.unresolved, key=lambda s: s.loc):
        lines.append(f"{s.site_str} [unresolved: {s.reason}]")
    return "\n".join(lines) + ("\n" if lines else "")


def build_direct_cg(p: IRProgram) -> CallGraph:
    """Nodes for every function (externals become synthetic leaf nodes),
    one edge per CALL instruction."""
    cg = CallGraph(nodes={f.id for f in p.functions})
    for f in p.functions:
        for bid, idx, ins in f.linear():
            if ins.op == "CALL" and ins.callee:
                cg.add_edge(CallEdge(f.id, ins.callee, (f.id, bid, idx), "direct"))
    return cg


def _walk_copy(f: Function, v: Varnode, pos: int) -> tuple[Varnode, int]:
    """Follow COPY chains through value temporaries (reg/unique). Stops at
    stack cells: those are memory, and walking past them would jump the
    def the inference step is meant to find."""
    while v.space in ("reg", "unique"):
        d = reaching_def(f, v, pos)
        if d is None or d[1].op != "COPY":
            break
        src = d[1].inputs[0]
        if src.space == "stack":
            return src, d[0]
        v, pos = src, d[0]
    return v, pos


def _split_add(f: Function, v: Varnode, pos: int) -> tuple[Varnode, int, int] | None:
    """Resolve v as INT_ADD(base, const); returns (base, k, base_pos)."""
    v, pos = _walk_copy(f, v, pos)
    d = reaching_def(f, v, pos)
    if d is None or d[1].op != "INT_ADD":
        return None
    a, b = d[1].inputs
    if b.is_const and not a.is_const:
        return a, b.offset, d[0]
    if a.is_const and not b.is_const:
        return b, a.offset, d[0]
    return None


def _base_symbol(f: Function, v: Varnode, pos: int) -> str | None:
    v, pos = _walk_copy(f, v, pos)
    if v.space == "stack":
        return f"stack:{v.offset}"
    k = f.param_index(v)
    if k is not None and reaching_def(f, v, pos) is None:
        if k == 0 and f.owning_class is not None:
            return "this"
        return f"param:{k}"
    return None


def _match_vtable_expr(f: Function, target: Varnode, pos: int) -> tuple[TargetExpr, int] | None:
    """Match the supported dispatch shapes against the computed call
    target; returns (v_t, v_o) or None."""
    v, pos = _walk_copy(f, target, pos)
    d = reaching_def(f, v, pos)
    if d is None or d[1].op != "LOAD":
        return None
    outer = _split_add(f, d[1].inputs[0], d[0])
    if outer is None:
        return None
    objptr, v_o, opos = outer
    objptr, opos = _walk_copy(f, objptr, opos)
    # Object pointer read straight out of a stack slot.
    if objptr.space == "stack":
        return TargetExpr(f"stack:{objptr.offset}", 0), v_o
    d2 = reaching_def(f, objptr, opos)
    if d2 is None or d2[1].op != "LOAD":
        return None
    v_t = _canon_store_addr(f, d2[1].inputs[0], d2[0])
    return None if v_t is None else (v_t, v_o)


def _scan_callinds(p: IRProgram) -> tuple[list[VCallSite], list[VCallSite]]:
    matched, failed = [], []
    for f in p.functions:
        for bid, idx, ins in f.linear():
            if ins.op != "CALLIND":
                continue
            pos = f.linear_pos(bid, idx)
            m = _match_vtable_expr(f, ins.inputs[0], pos)
            if m is None:
                failed.append(VCallSite(f.id, bid, idx, reason="no-vtable-pattern"))
                continue
            v_t, v_o = m
            if v_o < 0 or v_o % p.word_size != 0:
                failed.append(VCallSite(f.id, bid, idx, reason="no-vtable-pattern"))
                continue
            matched.append(VCallSite(f.id, bid, idx, v_c=f.owning_class, v_t=v_t, v_o=v_o))
    return matched, failed


def collect_vcall_sites(p: IRProgram) -> list[VCallSite]:
    """CALLIND sites whose target expression matches a dispatch shape."""
    return _scan_callinds(p)[0]


def _canon_store_addr(f: Function, addr: Varnode, pos: int) -> TargetExpr | None:
    """The memory expression ``addr`` points at: the stack slot ``addr`` is
    copied from, or ``this`` or a parameter plus a constant; else None."""
    av, apos = _walk_copy(f, addr, pos)
    if av.space == "stack":
        return TargetExpr(f"stack:{av.offset}", 0)
    add = _split_add(f, addr, pos)
    if add is not None:
        base, k, bpos = add
        sym = _base_symbol(f, base, bpos)
        if sym is not None and not sym.startswith("stack:"):
            return TargetExpr(sym, k)
        return None
    sym = _base_symbol(f, av, apos)
    if sym is None:
        return None
    return TargetExpr(sym, 0)


def class_inference(p: IRProgram, v_t: TargetExpr, f: Function, _seen=None) -> list[str]:
    """Infer the classes the object behind ``v_t`` may have, by finding the
    store in ``f`` that defines the expression and typing the stored value.
    Returns the declared class plus all transitive subclasses; empty list
    when no definition is found here."""
    if _seen is None:
        _seen = set()
    key = (f.id, v_t)
    if key in _seen:
        return []
    _seen.add(key)

    found = defining_store(f, v_t)
    if found is None:
        return []
    return _classes_of_value(p, f, found[1], found[0], _seen)


def defining_store(f: Function, expr: TargetExpr) -> tuple[int, Varnode] | None:
    """The first write in ``f`` to the memory ``expr`` names: a STORE whose
    address canonicalizes to it, or a COPY into that stack slot. Returns
    (linear position, stored varnode)."""
    for pos, (_, _, ins) in enumerate(f.linear()):
        if ins.op == "STORE":
            if _canon_store_addr(f, ins.inputs[0], pos) == expr:
                return pos, ins.inputs[1]
        elif ins.op == "COPY" and ins.output is not None and ins.output.space == "stack":
            if expr == TargetExpr(f"stack:{ins.output.offset}", 0):
                return pos, ins.inputs[0]
    return None


def _classes_of_value(p: IRProgram, f: Function, v: Varnode, pos: int, _seen) -> list[str]:
    v, pos = _walk_copy(f, v, pos)
    if v.space == "stack":
        return class_inference(p, TargetExpr(f"stack:{v.offset}", 0), f, _seen)
    d = reaching_def(f, v, pos)
    if d is None:
        k = f.param_index(v)
        if k is not None:
            cname = class_of_type(f.params[k].type)
            if cname is not None and p.has_cls(cname):
                return [cname] + p.subclasses(cname)
        return []
    ins = d[1]
    if ins.op == "CALL" and ins.callee and p.has_fn(ins.callee):
        cname = class_of_type(p.fn(ins.callee).return_type)
        if cname is not None and p.has_cls(cname):
            return [cname] + p.subclasses(cname)
        return []
    if ins.op == "LOAD":
        canon = _canon_store_addr(f, ins.inputs[0], d[0])
        if canon is not None and canon.base.startswith("stack:"):
            return class_inference(p, canon, f, _seen)
    return []


def _search_list(p: IRProgram, v_c: str) -> list[str]:
    """Algorithm search order: parent constructors root-most first, own
    constructors, then member functions in declaration order; each of the
    program's functions once, others left out."""
    out: list[str] = []
    for anc in p.ancestors(v_c):
        out.extend(p.cls(anc).constructors)
    c = p.cls(v_c)
    out.extend(c.constructors)
    out.extend(c.members)
    return [fid for fid in dict.fromkeys(out) if p.has_fn(fid)]


def recover_vcalls(p: IRProgram, cg: CallGraph) -> CallGraph:
    """Resolve matched CALLIND sites to vtable entries and add virtual
    edges. Unresolvable sites land in cg.unresolved with a reason. Safe to
    call again: already-processed sites are skipped."""
    matched, failed = _scan_callinds(p)
    solved: dict[tuple, tuple[list[tuple[str, str]], str | None]] = {}
    inference_calls = cg.stats.setdefault("inference_calls", 0)

    for s in failed:
        if s.loc in cg._done_sites:
            continue
        cg._done_sites.add(s.loc)
        cg.unresolved.append(s)

    for s in matched:
        if s.loc in cg._done_sites:
            continue
        cg._done_sites.add(s.loc)
        if s.v_c is None:
            s.reason = "no-enclosing-class"
            cg.unresolved.append(s)
            continue
        key = (s.v_c, s.v_t, s.v_o)
        if key in solved:
            targets, reason = solved[key]
        else:
            classes: list[str] = []
            for fid in _search_list(p, s.v_c):
                inference_calls += 1
                classes = class_inference(p, s.v_t, p.fn(fid))
                if classes:
                    break
            targets = []
            reason = None
            if not classes:
                reason = "no-class-inferred"
            else:
                slot = s.v_o // p.word_size
                for c in classes:
                    vt = p.cls(c).vtable
                    if slot < len(vt):
                        targets.append((c, vt[slot]))
                if not targets:
                    reason = "vtable-offset-out-of-range"
            solved[key] = (targets, reason)
        if targets:
            for cls_name, callee in targets:
                cg.add_edge(
                    CallEdge(
                        s.fn,
                        callee,
                        s.loc,
                        "virtual",
                        via=(cls_name, str(s.v_t), s.v_o),
                    )
                )
        else:
            s.reason = reason
            cg.unresolved.append(s)
    cg.stats["inference_calls"] = inference_calls
    return cg
