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

A CallGraph starts empty; ``edges`` only grows, through ``add_edge``, which
also keeps the callee and call-site indexes behind ``callers_of`` and
``edges_at`` current, so each query is a lookup rather than a scan of every
edge. recover_vcalls makes one pass over the program; call it once per
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Function,
    IRProgram,
    Varnode,
    class_of_type,
    def_step,
    format_site,
)


@dataclass(frozen=True)
class TargetExpr:
    """Canonical memory expression holding the object pointer: a base
    symbol plus a constant byte offset."""

    base: str  # "this" | "param:<k>" | "stack:<off>"
    offset: int

    def __str__(self) -> str:
        return f"{self.base}+{self.offset:#x}" if self.offset else self.base


@dataclass(frozen=True)
class VCallSite:
    """A CALLIND site that got no virtual edge, and why."""

    fn: str
    bid: int
    idx: int
    reason: str

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


class CallGraph:
    def __init__(self):
        self.edges: list[CallEdge] = []
        self.unresolved: list[VCallSite] = []
        # Edges in ``edges`` order, per callee and per call site.
        self._by_callee: dict[str, list[CallEdge]] = {}
        self._by_site: dict[tuple[str, int, int], list[CallEdge]] = {}

    def add_edge(self, e: CallEdge) -> bool:
        at = self._by_site.setdefault(e.site, [])
        for o in at:
            if o.caller == e.caller and o.callee == e.callee and o.kind == e.kind:
                return False
        at.append(e)
        self.edges.append(e)
        self._by_callee.setdefault(e.callee, []).append(e)
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
    """One edge per CALL instruction."""
    cg = CallGraph()
    for f in p.functions:
        for b in f.blocks:
            for idx, ins in enumerate(b.instructions):
                if ins.op == "CALL" and ins.callee:
                    cg.add_edge(CallEdge(f.id, ins.callee, (f.id, b.id, idx), "direct"))
    return cg


def caller_args(p: IRProgram, cg: CallGraph, f: Function, k: int):
    """The caller walk: for each edge of ``cg.callers_of(f.id)``, in that
    order, yield the edge, the calling function, the call's argument ``k``
    (None when the call passes fewer) and the call's linear position."""
    for e in cg.callers_of(f.id):
        cf = p.fn(e.caller)
        a, pos = cf.arg_at(e.site[1], e.site[2], k)
        yield e, cf, a, pos


# The vtable matcher follows COPY through value temporaries only. It stops
# at stack cells: those are memory, and walking past them would jump the
# def the inference step is meant to find.
_TEMPS = frozenset(("reg", "unique"))


def _split_add(d) -> tuple[Varnode, int, int] | None:
    """(base, k, base_pos) when the def ``d`` is INT_ADD(base, const)."""
    if d is None or d[1].op != "INT_ADD":
        return None
    a, b = d[1].inputs
    if b.is_const and not a.is_const:
        return a, b.offset, d[0]
    if a.is_const and not b.is_const:
        return b, a.offset, d[0]
    return None


def _base_symbol(f: Function, v: Varnode, d) -> str | None:
    """The base symbol of ``v``, where a step ended with the def ``d``."""
    if v.space == "stack":
        return f"stack:{v.offset}"
    k = f.param_index(v)
    if k is not None and d is None:
        if k == 0 and f.owning_class is not None:
            return "this"
        return f"param:{k}"
    return None


def _match_vtable_expr(f: Function, target: Varnode, pos: int) -> tuple[TargetExpr, int] | None:
    """Match the supported dispatch shapes against the computed call
    target; returns (v_t, v_o) or None."""
    d = def_step(f, target, pos, _TEMPS)[2]
    if d is None or d[1].op != "LOAD":
        return None
    outer = _split_add(def_step(f, d[1].inputs[0], d[0], _TEMPS)[2])
    if outer is None:
        return None
    objptr, v_o, opos = outer
    objptr, opos, d2 = def_step(f, objptr, opos, _TEMPS)
    # Object pointer read straight out of a stack slot.
    if objptr.space == "stack":
        return TargetExpr(f"stack:{objptr.offset}", 0), v_o
    if d2 is None or d2[1].op != "LOAD":
        return None
    v_t = _canon_store_addr(f, d2[1].inputs[0], d2[0])
    return None if v_t is None else (v_t, v_o)


def _canon_store_addr(f: Function, addr: Varnode, pos: int) -> TargetExpr | None:
    """The memory expression ``addr`` points at: the stack slot ``addr`` is
    copied from, or ``this`` or a parameter plus a constant; else None."""
    av, _, d = def_step(f, addr, pos, _TEMPS)
    if av.space == "stack":
        return TargetExpr(f"stack:{av.offset}", 0)
    add = _split_add(d)
    if add is not None:
        base, k, bpos = add
        bv, _, bd = def_step(f, base, bpos, _TEMPS)
        sym = _base_symbol(f, bv, bd)
        if sym is not None and not sym.startswith("stack:"):
            return TargetExpr(sym, k)
        return None
    sym = _base_symbol(f, av, d)
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
    for pos, ins in enumerate(f.code):
        if ins.op == "STORE":
            if _canon_store_addr(f, ins.inputs[0], pos) == expr:
                return pos, ins.inputs[1]
        elif ins.op == "COPY" and ins.output is not None and ins.output.space == "stack":
            if expr == TargetExpr(f"stack:{ins.output.offset}", 0):
                return pos, ins.inputs[0]
    return None


def _classes_of_value(p: IRProgram, f: Function, v: Varnode, pos: int, _seen) -> list[str]:
    v, _, d = def_step(f, v, pos, _TEMPS)
    if v.space == "stack":
        return class_inference(p, TargetExpr(f"stack:{v.offset}", 0), f, _seen)
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
    constructors, then member functions in declaration order; each function
    once."""
    out: list[str] = []
    for anc in p.ancestors(v_c):
        out.extend(p.cls(anc).constructors)
    c = p.cls(v_c)
    out.extend(c.constructors)
    out.extend(c.members)
    return list(dict.fromkeys(out))


def _resolve(p: IRProgram, v_c: str, v_t: TargetExpr,
             v_o: int) -> tuple[list[tuple[str, str]], str | None]:
    """The (class, callee) targets of a dispatch through slot ``v_o`` of the
    object behind ``v_t`` in class ``v_c``, or no targets and the reason."""
    for fid in _search_list(p, v_c):
        classes = class_inference(p, v_t, p.fn(fid))
        if classes:
            break
    else:
        return [], "no-class-inferred"
    slot = v_o // p.word_size
    targets = [(c, p.cls(c).vtable[slot]) for c in classes if slot < len(p.cls(c).vtable)]
    return targets, None if targets else "vtable-offset-out-of-range"


def recover_vcalls(p: IRProgram, cg: CallGraph) -> CallGraph:
    """Add the virtual edges of every CALLIND site, in one pass over each
    function's linear order. A site that gets none lands in cg.unresolved
    with its reason, in the same order. Call once per graph."""
    solved: dict[tuple, tuple[list[tuple[str, str]], str | None]] = {}
    for f in p.functions:
        for b in f.blocks:
            for idx, ins in enumerate(b.instructions):
                if ins.op != "CALLIND":
                    continue
                m = _match_vtable_expr(f, ins.inputs[0], f.linear_pos(b.id, idx))
                if m is None or m[1] < 0 or m[1] % p.word_size != 0:
                    reason = "no-vtable-pattern"
                elif f.owning_class is None:
                    reason = "no-enclosing-class"
                else:
                    v_t, v_o = m
                    key = (f.owning_class, v_t, v_o)
                    if key not in solved:
                        solved[key] = _resolve(p, *key)
                    targets, reason = solved[key]
                    for cls_name, callee in targets:
                        cg.add_edge(CallEdge(f.id, callee, (f.id, b.id, idx), "virtual",
                                             via=(cls_name, str(v_t), v_o)))
                if reason is not None:
                    cg.unresolved.append(VCallSite(f.id, b.id, idx, reason))
    return cg
