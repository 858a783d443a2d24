"""Register-transfer IR for lifted vendor RIL binaries.

Programs arrive as JSON text (``ir_version: 1``, see docs/ir_format.md).
The model is a small P-Code-style language: varnodes addressed by
(space, offset, size) and twelve opcodes. Class metadata (hierarchy,
vtables, constructor/member lists) rides alongside the code because the
downstream analyses need it to resolve virtual calls.

IRProgram and everything hanging off it is immutable after load; analyses
only read, so a program can be shared across worker threads freely.

``load_program`` is built for large binaries:

* Varnodes are interned per load. Equal varnodes in one program are one
  shared (frozen) object, whichever instructions use them; two loads
  share nothing.
* It pauses the cyclic garbage collector while it builds the program,
  and restores the collector's previous state on the way out, whether
  the load succeeds or raises.
"""

from __future__ import annotations

import gc
import json
import threading
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field

SPACES = ("const", "reg", "stack", "ram", "unique")

OPCODES = (
    "COPY",
    "LOAD",
    "STORE",
    "INT_ADD",
    "INT_SUB",
    "INT_EQUAL",
    "INT_NOTEQUAL",
    "CALL",
    "CALLIND",
    "BRANCH",
    "CBRANCH",
    "RETURN",
)

# Operand counts the analyses unpack without checking: op -> (inputs, whether
# an output is required).
_OPERAND_SHAPE = {
    "COPY": (1, True),
    "LOAD": (1, True),
    "INT_ADD": (2, True),
    "INT_SUB": (2, True),
    "STORE": (2, False),
}

# Parameter/return type strings: "int", "bytes" (byte pointer), "str"
# (string pointer), "class:<Name>" (object pointer), "void" (returns only).
_SCALAR_TYPES = ("int", "bytes", "str", "void")


class ParseError(ValueError):
    """Raised on malformed program text; message carries the field path."""


class ValidationError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"{len(self.diagnostics)} invariant violation(s): {lines}")


@dataclass(frozen=True)
class Varnode:
    """Storage cell (space, offset, size).

    const varnodes carry their literal value in ``offset``.  A stack
    varnode names the cell at that frame offset; passed as a pointer-typed
    call argument or used as a LOAD/STORE address operand it denotes the
    address of that cell (decompiler idiom for local arrays).
    """

    space: str
    offset: int
    size: int

    def __str__(self) -> str:
        return f"{self.space}:{self.offset:#x}:{self.size}"

    @property
    def is_const(self) -> bool:
        return self.space == "const"


@dataclass(frozen=True)
class Instruction:
    op: str
    output: Varnode | None = None
    inputs: tuple[Varnode, ...] = ()
    callee: str | None = None  # CALL only; CALLIND computes input[0]

    @property
    def args(self) -> tuple[Varnode, ...]:
        """Call arguments: the inputs, minus CALLIND's computed target."""
        return self.inputs[1:] if self.op == "CALLIND" else self.inputs


@dataclass
class Block:
    id: int
    instructions: list[Instruction] = field(default_factory=list)
    successors: tuple[int, ...] = ()


@dataclass
class Param:
    name: str
    type: str


@dataclass
class Function:
    """One lifted function. Parameter k lives in varnode (reg, k, *)."""

    id: str
    name: str
    owning_class: str | None
    params: list[Param]
    return_type: str
    stack_size: int
    blocks: list[Block]

    def block(self, bid: int) -> Block:
        for b in self.blocks:
            if b.id == bid:
                return b
        raise KeyError(f"{self.id}: no block {bid}")

    def linear(self) -> list[tuple[int, int, Instruction]]:
        """Instructions in block declaration order as (block id, index, ins)."""
        cached = self.__dict__.get("_linear")
        if cached is None:
            cached = [
                (b.id, i, ins)
                for b in self.blocks
                for i, ins in enumerate(b.instructions)
            ]
            self.__dict__["_linear"] = cached
        return cached

    def linear_pos(self, bid: int, idx: int) -> int:
        cached = self.__dict__.get("_linear_pos")
        if cached is None:
            cached = {
                (b, i): n for n, (b, i, _) in enumerate(self.linear())
            }
            self.__dict__["_linear_pos"] = cached
        return cached[(bid, idx)]

    def arg_at(self, bid: int, idx: int, k: int) -> tuple[Varnode | None, int]:
        """Argument ``k`` of the call at (bid, idx), or None when the call
        passes fewer, with the call's linear position."""
        pos = self.linear_pos(bid, idx)
        args = self.linear()[pos][2].args
        return (args[k] if k < len(args) else None), pos

    def param_index(self, v: Varnode) -> int | None:
        if v.space == "reg" and 0 <= v.offset < len(self.params):
            return v.offset
        return None


@dataclass
class ClassInfo:
    name: str
    parents: list[str] = field(default_factory=list)
    vtable_addr: int = 0
    vtable: list[str] = field(default_factory=list)
    constructors: list[str] = field(default_factory=list)
    members: list[str] = field(default_factory=list)


@dataclass
class IRProgram:
    name: str
    word_size: int = 8
    classes: list[ClassInfo] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    data: list[tuple[int, bytes]] = field(default_factory=list)
    externals: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._fn_by_id = {f.id: f for f in self.functions}
        self._cls_by_name = {c.name: c for c in self.classes}
        # Parent name -> positions in ``classes`` of the classes naming it.
        self._children: dict[str, list[int]] = {}
        for i, c in enumerate(self.classes):
            for par in c.parents:
                self._children.setdefault(par, []).append(i)
        # Non-empty segments by base address. ``validate`` rejects overlaps,
        # so the last segment starting at or below an address is the only
        # one that can hold it.
        self._segments = sorted((a, b) for a, b in self.data if b)
        self._segment_bases = [a for a, _ in self._segments]

    def fn(self, fid: str) -> Function:
        return self._fn_by_id[fid]

    def has_fn(self, fid: str) -> bool:
        return fid in self._fn_by_id

    def cls(self, name: str) -> ClassInfo:
        return self._cls_by_name[name]

    def has_cls(self, name: str) -> bool:
        return name in self._cls_by_name

    def is_external(self, name: str) -> bool:
        return name in self.externals

    def subclasses(self, name: str) -> list[str]:
        """Transitive subclasses of ``name``, excluding itself, in discovery
        order: passes over the classes in declaration order, each taking
        every class with a parent that is ``name`` or already taken. So
        for ``[C(B), B(A), A, D(A)]``, ``subclasses("A")`` is
        ``["B", "D", "C"]``. Virtual edges are added in this order."""
        below: set[int] = set()
        stack = [name]
        while stack:
            for i in self._children.get(stack.pop(), ()):
                if i not in below:
                    below.add(i)
                    stack.append(self.classes[i].name)
        candidates = [self.classes[i] for i in sorted(below)]
        out: list[str] = []
        taken = {name}
        changed = True
        while changed:
            changed = False
            for c in candidates:
                if c.name in taken:
                    continue
                if any(p in taken for p in c.parents):
                    out.append(c.name)
                    taken.add(c.name)
                    changed = True
        return out

    def ancestors(self, name: str) -> list[str]:
        """Ancestor classes, root-most first (depth-first over parents)."""
        seen: list[str] = []
        self._add_ancestors(name, seen)
        return seen

    def _add_ancestors(self, n: str, seen: list[str]) -> None:
        # A method rather than a nested function: a closure that calls itself
        # is a reference cycle, and through ``self`` it would keep the whole
        # program alive until the cyclic GC next ran.
        c = self._cls_by_name.get(n)
        if c is None:
            return
        for p in c.parents:
            self._add_ancestors(p, seen)
            if p not in seen:
                seen.append(p)

    def _segment_at(self, addr: int) -> tuple[int, bytes] | None:
        """The non-empty segment with the highest base at or below ``addr``."""
        i = bisect_right(self._segment_bases, addr)
        return self._segments[i - 1] if i else None

    def read_bytes(self, addr: int, n: int) -> bytes | None:
        seg = self._segment_at(addr)
        if seg is not None:
            base, blob = seg
            if addr + n <= base + len(blob):
                return blob[addr - base : addr - base + n]
        return None

    def read_cstring(self, addr: int) -> str | None:
        seg = self._segment_at(addr)
        if seg is not None:
            base, blob = seg
            if addr < base + len(blob):
                chunk = blob[addr - base :]
                end = chunk.find(b"\x00")
                if end < 0:
                    end = len(chunk)
                return chunk[:end].decode("ascii", errors="replace")
        return None


@dataclass(frozen=True)
class Diagnostic:
    invariant: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.location}: {self.message}"


def format_site(fn_id: str, bid: int, idx: int) -> str:
    return f"{fn_id}@{bid}:{idx}"


def class_of_type(t: str) -> str | None:
    if t.startswith("class:"):
        return t.split(":", 1)[1]
    return None


# ---------------------------------------------------------------------------
# JSON decode/encode
#
# The decoders below run once per instruction and varnode of a large binary,
# so the success path does no work for error reporting: a failed check raises
# _Bad with a message, and each enclosing decoder appends its own field to
# ``where`` on the way out. load_program joins the parts into the field path
# of the ParseError, e.g. ``functions[2].blocks[0].ins[5].in[1]: ...``.

class _Bad(Exception):
    def __init__(self, msg: str, *where: str):
        self.msg = msg
        self.where = list(where)  # innermost field first

    def parse_error(self) -> ParseError:
        return ParseError(f"{'.'.join(reversed(self.where))}: {self.msg}")


def _list(x, name: str) -> list:
    if not isinstance(x, list):
        raise _Bad(f"must be a list, not {type(x).__name__}", name)
    return x


_KIND = {str: "a string", int: "an int"}


def _typed(x, kind: type, name: str):
    """``x``, which must be exactly a ``kind``: a bool is an int, but not an
    id (ids are dict keys downstream, where ``True == 1``) nor a size."""
    if type(x) is not kind:
        raise _Bad(f"must be {_KIND[kind]}, not {type(x).__name__}", name)
    return x


def _all(kind: type, items, name: str) -> list:
    """The list ``items``, each exactly a ``kind``; a failure in item n is
    located at ``name[n]``."""
    items = _list(items, name)
    for n, x in enumerate(items):
        if type(x) is not kind:
            _typed(x, kind, f"{name}[{n}]")
    return items


def _each(items, name: str, decode, *args) -> list:
    """``[decode(x, *args) for x in items]`` for the list ``items``; a
    failure in item n is located at ``name[n]``."""
    items = _list(items, name)
    out = []
    try:
        for x in items:
            out.append(decode(x, *args))
    except _Bad as e:
        e.where.append(f"{name}[{len(out)}]")
        raise
    return out


# Canonical strings: decoded varnodes and instructions share these, so the
# JSON text's copies are freed with the document, and comparisons against
# the literals in the analyses succeed on identity.
_SPACE = {s: s for s in SPACES}
_OPCODE = {op: op for op in OPCODES}


def _varnode_from(obj, table: dict) -> Varnode:
    """The interned varnode for ``obj``. ``table`` maps (space, offset, size)
    to the Varnode already built for it in this load, so the checks run once
    per distinct varnode. Only exact-int keys are entered and hit: ``1.0``
    and ``True`` equal ``1`` as dict keys, and must take the checks."""
    try:
        key = (obj["space"], obj["offset"], obj["size"])
        v = table[key]
    except (KeyError, TypeError):  # first sighting, or not a varnode at all
        pass
    else:
        if type(key[1]) is int and type(key[2]) is int:
            return v
    if not isinstance(obj, dict):
        raise _Bad("varnode must be an object")
    try:
        space, offset, size = obj["space"], obj["offset"], obj["size"]
    except KeyError as e:
        raise _Bad(f"varnode missing key {e}") from None
    if space not in SPACES:
        raise _Bad(f"unknown space {space!r}")
    if type(offset) is not int or type(size) is not int or size <= 0:
        raise _Bad("offset must be int, size a positive int")
    v = table[space, offset, size] = Varnode(_SPACE[space], offset, size)
    return v


def _ins_from(obj, table: dict) -> Instruction:
    try:
        op = _OPCODE[obj["op"]]
    except (KeyError, TypeError):
        if not isinstance(obj, dict):
            raise _Bad("instruction must be an object") from None
        raise _Bad(f"unknown opcode {obj.get('op')!r}") from None
    out = None
    if "out" in obj:
        try:
            out = _varnode_from(obj["out"], table)
        except _Bad as e:
            e.where.append("out")
            raise
    inputs = ()
    if "in" in obj:
        # _each, unrolled: this loop runs once per operand of the binary
        raw = _list(obj["in"], "in")
        inputs = []
        try:
            for v in raw:
                inputs.append(_varnode_from(v, table))
        except _Bad as e:
            e.where.append(f"in[{len(inputs)}]")
            raise
        inputs = tuple(inputs)
    callee = obj.get("callee")
    if callee is not None and not isinstance(callee, str):
        raise _Bad("callee must be a string")
    return Instruction(op, out, inputs, callee)


def _check_type_str(t) -> str:
    if not isinstance(t, str) or (
        t not in _SCALAR_TYPES and not t.startswith("class:")
    ):
        raise _Bad(f"bad type {t!r}")
    return t


def _param_from(obj) -> Param:
    if not isinstance(obj, dict):
        raise _Bad("param must be an object")
    for key in ("name", "type"):
        if key not in obj:
            raise _Bad(f"param missing key {key!r}")
    return Param(obj["name"], _check_type_str(obj["type"]))


def _block_from(obj, table: dict) -> Block:
    if not isinstance(obj, dict):
        raise _Bad("block must be an object")
    if "id" not in obj:
        raise _Bad("missing block id")
    # _each, unrolled: this loop runs once per instruction of the binary
    raw = _list(obj.get("ins", []), "ins")
    instructions = []
    try:
        for x in raw:
            instructions.append(_ins_from(x, table))
    except _Bad as e:
        e.where.append(f"ins[{len(instructions)}]")
        raise
    return Block(_typed(obj["id"], int, "id"), instructions,
                 tuple(_all(int, obj.get("succ", []), "succ")))


def _function_from(obj, table: dict) -> Function:
    if not isinstance(obj, dict):
        raise _Bad("function must be an object")
    for key in ("id", "name", "stack_size", "blocks"):
        if key not in obj:
            raise _Bad(f"missing key {key!r}")
    params = _each(obj.get("params", []), "params", _param_from)
    blocks = _each(obj["blocks"], "blocks", _block_from, table)
    try:
        return_type = _check_type_str(obj.get("return", "void"))
    except _Bad as e:
        e.where.append("return")
        raise
    stack_size = _typed(obj["stack_size"], int, "stack_size")
    owning_class = obj.get("class")
    return Function(
        id=_typed(obj["id"], str, "id"),
        name=obj["name"],
        owning_class=None if owning_class is None else _typed(owning_class, str, "class"),
        params=params,
        return_type=return_type,
        stack_size=stack_size,
        blocks=blocks,
    )


def _class_from(obj) -> ClassInfo:
    if not isinstance(obj, dict):
        raise _Bad("class must be an object")
    if "name" not in obj:
        raise _Bad("missing class name")
    return ClassInfo(
        name=_typed(obj["name"], str, "name"),
        parents=_all(str, obj.get("parents", []), "parents"),
        vtable_addr=obj.get("vtable_addr", 0),
        vtable=_all(str, obj.get("vtable", []), "vtable"),
        constructors=_all(str, obj.get("constructors", []), "constructors"),
        members=_all(str, obj.get("members", []), "members"),
    )


def _segment_from(obj) -> tuple[int, bytes]:
    if not isinstance(obj, dict):
        raise _Bad("segment must be an object")
    try:
        addr, blob = obj["addr"], bytes.fromhex(obj["hex"])
    except (KeyError, ValueError) as e:
        raise _Bad(str(e)) from None
    except TypeError:
        raise _Bad("hex must be a string") from None
    if not isinstance(addr, int):
        raise _Bad("addr must be an int")
    return addr, blob


# Loads that overlap in a caller's threads share one pause: the first to
# start records whether cyclic GC was on, the last to finish restores it.
_gc_lock = threading.Lock()
_gc_pauses = 0
_gc_resume = False


@contextmanager
def _gc_paused():
    """Switch cyclic GC off for the duration.

    The loader builds acyclic trees, so the collections its allocations
    would trigger only traverse the growing heap, again and again. Left
    alone, the first allocation after the pause would still traverse all
    of it as young objects, in whatever step the caller runs next. So on
    resume everything is moved to the oldest generation untraversed:
    ``gc.unfreeze`` puts the permanent generation back into the oldest
    one. If the process keeps frozen objects of its own, a collection of
    the young generations does the move instead."""
    global _gc_pauses, _gc_resume
    with _gc_lock:
        if _gc_pauses == 0:
            _gc_resume = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_pauses -= 1
            if _gc_pauses == 0 and _gc_resume:
                if gc.get_freeze_count():
                    gc.collect(1)
                else:
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()


def load_program(text: str) -> IRProgram:
    """Parse, link and validate one program.

    Raises ParseError (with a field path) on malformed input, and
    ValidationError listing every diagnostic when type invariants fail.
    """
    with _gc_paused():
        return _load(text)


def _load(text: str) -> IRProgram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} col {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("ir_version") != 1:
        raise ParseError(f"unsupported ir_version {doc.get('ir_version')!r}")
    table: dict = {}  # this load's interned varnodes
    try:
        data = _each(doc.get("data", []), "data", _segment_from)
        word_size = _typed(doc.get("word_size", 8), int, "word_size")
        if word_size <= 0:
            raise _Bad(f"must be positive, not {word_size}", "word_size")
        prog = IRProgram(
            name=doc.get("name", "unnamed"),
            word_size=word_size,
            classes=_each(doc.get("classes", []), "classes", _class_from),
            functions=_each(doc.get("functions", []), "functions", _function_from, table),
            data=data,
            externals=_all(str, doc.get("externals", []), "externals"),
        )
    except _Bad as e:
        raise e.parse_error() from None
    seen = set()
    for f in prog.functions:
        if f.id in seen:
            raise ParseError(f"duplicate function id {f.id!r}")
        seen.add(f.id)
    seen = set()
    for c in prog.classes:
        if c.name in seen:
            raise ParseError(f"duplicate class {c.name!r}")
        seen.add(c.name)
    _check_links(prog)
    diags = validate(prog)
    if diags:
        raise ValidationError(diags)
    return prog


def _check_links(p: IRProgram):
    """Dangling-reference scan; raises ParseError on the first hole."""
    for c in p.classes:
        for par in c.parents:
            if not p.has_cls(par):
                raise ParseError(f"class {c.name}: unknown parent {par!r}")
        for fid in c.vtable + c.constructors + c.members:
            if not p.has_fn(fid):
                raise ParseError(f"class {c.name}: dangling function ref {fid!r}")
    for f in p.functions:
        if f.owning_class is not None and not p.has_cls(f.owning_class):
            raise ParseError(f"{f.id}: unknown owning class {f.owning_class!r}")
        for bid, idx, ins in f.linear():
            if ins.op == "CALL":
                if ins.callee and not (p.has_fn(ins.callee) or p.is_external(ins.callee)):
                    raise ParseError(
                        f"{format_site(f.id, bid, idx)}: dangling callee {ins.callee!r}"
                    )


def validate(p: IRProgram) -> list[Diagnostic]:
    """Check every type invariant; returns one Diagnostic per violation."""
    out: list[Diagnostic] = []

    def bad(inv, loc, msg):
        out.append(Diagnostic(inv, loc, msg))

    def bad_at(f, b, idx, inv, msg):
        bad(inv, format_site(f.id, b.id, idx), msg)

    ids = [f.id for f in p.functions]
    if len(ids) != len(set(ids)):
        bad("unique-function-ids", p.name, "duplicate function ids")
    if len(p.externals) != len(set(p.externals)):
        bad("unique-externals", p.name, "duplicate external names")

    spans = sorted((a, a + len(b)) for a, b in p.data)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        if s2 < e1:
            bad("data-overlap", p.name, f"segments [{s1:#x},{e1:#x}) and [{s2:#x},{e2:#x}) overlap")

    for c in p.classes:
        stack = [c.name]
        seen = set()
        while stack:
            n = stack.pop()
            if n == c.name and seen:
                bad("acyclic-parents", c.name, "class participates in a parent cycle")
                break
            if n in seen:
                continue
            seen.add(n)
            if p.has_cls(n):
                stack.extend(p.cls(n).parents)
        for fid in c.vtable:
            if not p.has_fn(fid):
                bad("vtable-resolves", c.name, f"vtable entry {fid!r} missing")

    for f in p.functions:
        if f.owning_class is not None:
            ok = (
                f.params
                and f.params[0].name == "this"
                and class_of_type(f.params[0].type) == f.owning_class
            )
            if not ok:
                bad(
                    "member-this-param",
                    f.id,
                    f"member of {f.owning_class} must take this: class:{f.owning_class} first",
                )
        block_ids = {b.id for b in f.blocks}
        if len(block_ids) != len(f.blocks):
            bad("unique-block-ids", f.id, "duplicate block ids")
        size = f.stack_size
        for b in f.blocks:
            for s in b.successors:
                if s not in block_ids:
                    bad("successors-local", f"{f.id}@{b.id}", f"successor {s} not in function")
            for idx, ins in enumerate(b.instructions):
                # the site string is built only for an instruction that fails
                output = ins.output
                for v in ins.inputs if output is None else ins.inputs + (output,):
                    if v.space == "stack" and not (0 <= v.offset and v.offset + v.size <= size):
                        bad_at(f, b, idx, "stack-bounds", f"{v} outside stack_size {size}")
                op = ins.op
                if op == "CALL" and not ins.callee:
                    bad_at(f, b, idx, "call-has-callee", "CALL without resolved callee")
                if op == "CALLIND":
                    if ins.callee:
                        bad_at(f, b, idx, "callind-unresolved", "CALLIND must not carry a callee")
                    if not ins.inputs:
                        bad_at(f, b, idx, "callind-target", "CALLIND needs input[0] = computed target")
                if op in ("INT_EQUAL", "INT_NOTEQUAL"):
                    if len(ins.inputs) != 2 or output is None or output.size != 1:
                        bad_at(f, b, idx, "cmp-shape", f"{op} wants 2 inputs and a 1-byte output")
                shape = _OPERAND_SHAPE.get(op)
                if shape is not None:
                    n, wants_out = shape
                    if len(ins.inputs) != n or (wants_out and output is None):
                        bad_at(f, b, idx, "operand-shape", f"{op} wants {n} input(s)"
                               + (" and an output" if wants_out else ""))
    return out


# ---------------------------------------------------------------------------
# Encode

def _varnode_to(v: Varnode) -> dict:
    return {"space": v.space, "offset": v.offset, "size": v.size}


def _ins_to(x: Instruction) -> dict:
    d: dict = {"op": x.op}
    if x.output is not None:
        d["out"] = _varnode_to(x.output)
    if x.inputs:
        d["in"] = [_varnode_to(v) for v in x.inputs]
    if x.callee is not None:
        d["callee"] = x.callee
    return d


def program_to_dict(p: IRProgram) -> dict:
    return {
        "ir_version": 1,
        "name": p.name,
        "word_size": p.word_size,
        "classes": [
            {
                "name": c.name,
                "parents": c.parents,
                "vtable_addr": c.vtable_addr,
                "vtable": c.vtable,
                "constructors": c.constructors,
                "members": c.members,
            }
            for c in p.classes
        ],
        "functions": [
            {
                "id": f.id,
                "name": f.name,
                **({"class": f.owning_class} if f.owning_class else {}),
                "params": [{"name": q.name, "type": q.type} for q in f.params],
                "return": f.return_type,
                "stack_size": f.stack_size,
                "blocks": [
                    {
                        "id": b.id,
                        "succ": list(b.successors),
                        "ins": [_ins_to(x) for x in b.instructions],
                    }
                    for b in f.blocks
                ],
            }
            for f in p.functions
        ],
        "data": [{"addr": a, "hex": blob.hex()} for a, blob in p.data],
        "externals": p.externals,
    }


def serialize(p: IRProgram) -> str:
    return json.dumps(program_to_dict(p), indent=1)


def reaching_def(f: Function, v: Varnode, before: int) -> tuple[int, Instruction] | None:
    """Nearest instruction writing exactly ``v`` before linear position
    ``before``; None when the value enters the function from outside."""
    lin = f.linear()
    for pos in range(before - 1, -1, -1):
        ins = lin[pos][2]
        if ins.output == v:
            return pos, ins
    return None
