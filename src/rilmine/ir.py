"""Register-transfer IR for lifted vendor RIL binaries.

Programs arrive as JSON text (see docs/ir_format.md), as ``ir_version: 2``:
one top-level table lists each distinct varnode once, and instructions are
positional rows that refer to it by index. ``load_program`` reads that
version only, and ``serialize`` writes it. The model is a small
P-Code-style language: varnodes addressed by (space, offset, size) and
twelve opcodes. Class metadata (hierarchy, vtables, constructor/member
lists) rides alongside the code because the downstream analyses need it
to resolve virtual calls.

Varnodes and instructions, the cells of the code, are named tuples: small,
immutable, and hashed and compared in C. The program is a plain
dataclass; its classes, functions, parameters and blocks are dataclasses
with ``__slots__`` and no ``__dict__``, and a loaded function holds its
parameters and blocks, and a block its instructions, in tuples.
IRProgram builds its lookup indexes when constructed, and a Function
stores its blocks plus one flat tuple of their instructions, which a
linear position indexes, and where each block starts in it. No analysis
writes to a program: build new objects instead (``dataclasses.replace``).

``load_program`` is built for large binaries. At its peak it holds the
text, the varnode table, the program and the JSON of one function:

* Each cell is one shared Varnode per load, whichever instructions use it.
  The table gives each cell one row, checked once, and a duplicate row is
  an error. Likewise each distinct Instruction is one object per load,
  and so is each distinct name: function ids and names, callees, owning
  classes, parameter names and types, return types, and the names in
  classes and ``externals``. One intern dict per load maps each to its
  object (hash-consing), so equal instructions share their ``inputs``
  and a function's id is its name. Two loads share nothing.
* The text is decoded once, one top-level member at a time, by the
  stdlib's own scanner, so a syntax error has ``json.loads``'s message and
  position. A ``functions`` array that comes after ``ir_version`` and
  ``varnodes``, where ``serialize`` writes it, is decoded one function at
  a time, and each function's JSON is dropped once its Function exists:
  the whole document never exists. docs/ir_format.md says which fault is
  raised when a document has several.
* The success path runs no Python function per varnode or instruction. A
  decoder tests exact types inline and checks a row first, then makes its
  cell with ``tuple.__new__``, which skips the named tuple's own
  constructor and its arity check. ``Function`` joins its blocks'
  instructions into its flat tuple with ``chain.from_iterable``.
* It pauses the cyclic garbage collector while it builds the program,
  and restores the collector's previous state on the way out, whether
  the load succeeds or raises. Each call pauses on its own: where loads
  overlap in one process's threads, the collector can come back on before
  the last of them ends, which costs time but not correctness. The CLI
  runs loads in parallel as processes, each with its own collector.

After decoding, ``load_program`` runs ``validate``: one pass over the
classes and one over the instructions. It raises the first broken name
rule (a duplicate or a dangling reference) as a ParseError, and otherwise
every violation together as a ValidationError.

``serialize`` writes compact JSON with the same pause, so a process that
holds many programs does not traverse them on every write.
"""

from __future__ import annotations

import gc
import json
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple

SPACES = ("const", "reg", "stack", "ram", "unique")
NONCONST_SPACES = frozenset(SPACES) - {"const"}

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

    def __reduce__(self):
        # pickle rebuilds from the diagnostics, not from the message text
        return type(self), (self.diagnostics,)


class Varnode(NamedTuple):
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


class Instruction(NamedTuple):
    op: str
    output: Varnode | None = None
    inputs: tuple[Varnode, ...] = ()
    callee: str | None = None  # CALL only; CALLIND computes input[0]

    @property
    def args(self) -> tuple[Varnode, ...]:
        """Call arguments: the inputs, minus CALLIND's computed target."""
        return self.inputs[1:] if self.op == "CALLIND" else self.inputs


@dataclass(slots=True)
class Block:
    id: int
    instructions: tuple[Instruction, ...] = ()
    successors: tuple[int, ...] = ()


@dataclass(slots=True)
class Param:
    name: str
    type: str


@dataclass(slots=True)
class Function:
    """One lifted function. Parameter k lives in varnode (reg, k, *).

    Beside its blocks it stores ``code``, their instructions in one flat
    tuple that a linear position indexes, and where each block starts in
    it. A function of one block shares that block's tuple as its ``code``.
    Both are built with the function: to change the blocks, build a new
    Function (``dataclasses.replace``). The loader gives ``params`` and
    ``blocks`` as tuples, and each block's instructions; a Function built
    from lists works the same."""

    id: str
    name: str
    owning_class: str | None
    params: tuple[Param, ...]
    return_type: str
    stack_size: int
    blocks: tuple[Block, ...]
    code: tuple[Instruction, ...] = field(init=False, repr=False, compare=False)
    _starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = self.blocks
        # the linear position of each block's first instruction, by block index
        if len(blocks) == 1:
            self.code = tuple(blocks[0].instructions)  # the block's own tuple, if it is one
            self._starts = (0,)  # one constant, shared
        else:
            self.code = tuple(chain.from_iterable(b.instructions for b in blocks))
            self._starts = tuple(accumulate((len(b.instructions) for b in blocks[:-1]), initial=0))

    def _index(self, bid: int) -> int:
        """Where the block with id ``bid`` is in ``blocks``: blocks are numbered
        by position, if not always, and ``validate`` rejects a repeated id."""
        blocks = self.blocks
        if 0 <= bid < len(blocks) and blocks[bid].id == bid:
            return bid
        for i, b in enumerate(blocks):
            if b.id == bid:
                return i
        raise KeyError(f"{self.id}: no block {bid}")

    def block(self, bid: int) -> Block:
        return self.blocks[self._index(bid)]

    def linear_pos(self, bid: int, idx: int) -> int:
        return self._starts[self._index(bid)] + idx

    def linear(self) -> list[tuple[int, int, Instruction]]:
        """Instructions in block declaration order as (block id, index, ins)."""
        return [(b.id, i, ins) for b in self.blocks for i, ins in enumerate(b.instructions)]

    def arg_at(self, bid: int, idx: int, k: int) -> tuple[Varnode | None, int]:
        """Argument ``k`` of the call at (bid, idx), or None when the call
        passes fewer, with the call's linear position."""
        pos = self.linear_pos(bid, idx)
        args = self.code[pos].args
        return (args[k] if k < len(args) else None), pos

    def param_index(self, v: Varnode) -> int | None:
        if v.space == "reg" and 0 <= v.offset < len(self.params):
            return v.offset
        return None


@dataclass(slots=True)
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
        """Ancestor classes, root-most first (depth-first over parents): each
        parent, in order, comes after its own ancestors. Iterative, so a deep
        hierarchy does not reach the interpreter's recursion limit."""
        out: list[str] = []
        entered = {name}
        stack = [(name, 0)]  # (class, index of its next parent)
        while stack:
            n, i = stack.pop()
            c = self._cls_by_name.get(n)
            parents = c.parents if c is not None else ()
            if i < len(parents):
                stack.append((n, i + 1))
                if parents[i] not in entered:
                    entered.add(parents[i])
                    stack.append((parents[i], 0))
            elif n != name:
                out.append(n)  # every ancestor of n is out already
        return out

    def _segment_at(self, addr: int) -> tuple[int, bytes] | None:
        """The non-empty segment with the highest base at or below ``addr``."""
        i = bisect_right(self._segment_bases, addr)
        return self._segments[i - 1] if i else None

    def read_bytes(self, addr: int, n: int) -> bytes | None:
        seg = self._segment_at(addr)
        if seg is not None:
            base, blob = seg
            if 0 <= n and addr + n <= base + len(blob):
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
# of the ParseError, e.g. ``functions[2].blocks[0].ins[5][2][1]: ...`` for
# the second input of an instruction row.

class _Bad(Exception):
    def __init__(self, msg: str, *where: str):
        self.msg = msg
        self.where = list(where)  # innermost field first

    def parse_error(self) -> ParseError:
        path = "".join(w if w[0] == "[" else "." + w for w in reversed(self.where))
        return ParseError(f"{path[1:]}: {self.msg}")


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


def _names(items, name: str, intern: dict) -> list:
    """The list ``items``, each exactly a string and replaced by the load's
    one string of its value, from ``intern``; a failure in item n is
    located at ``name[n]``."""
    items = _list(items, name)
    for n, x in enumerate(items):
        if type(x) is not str:
            _typed(x, str, f"{name}[{n}]")
        items[n] = intern.setdefault(x, x)
    return items


def _each(items, name: str, decode, *args) -> list:
    """``[decode(x, *args) for x in items]`` for the list ``items``; a
    failure in item n is located at ``name[n]``. Each item of ``items`` is
    set to None once it is decoded, so the document shrinks as the program
    grows."""
    items = _list(items, name)
    out = []
    try:
        for n, x in enumerate(items):
            out.append(decode(x, *args))
            items[n] = None
    except _Bad as e:
        e.where.append(f"{name}[{len(out)}]")
        raise
    return out


# Canonical strings: decoded varnodes and instructions share these, so the
# JSON text's copies are freed with the document, and comparisons against
# the literals in the analyses succeed on identity.
_SPACE = {s: s for s in SPACES}
_OPCODE = {op: op for op in OPCODES}


def _table_from(rows) -> list[Varnode]:
    """The Varnodes of the ``varnodes`` table, each row checked once. Two
    equal rows would make two objects of one cell, so a duplicate is an
    error. The rows are cleared once they are built."""
    rows = _list(rows, "varnodes")
    first: dict = {}  # Varnode -> its row; only exact ints get in, so 1.0 never equals 1
    for n, row in enumerate(rows):
        try:
            if type(row) is not list or len(row) != 3:
                raise _Bad("varnode row must be a list [space, offset, size]")
            space, offset, size = row
            try:
                space = _SPACE[space]
            except (KeyError, TypeError):
                raise _Bad(f"unknown space {space!r}") from None
            if type(offset) is not int or type(size) is not int or size <= 0:
                raise _Bad("offset must be int, size a positive int")
            v = tuple.__new__(Varnode, (space, offset, size))
            if first.setdefault(v, n) != n:
                raise _Bad(f"duplicate of varnodes[{first[v]}]")
        except _Bad as e:
            e.where.append(f"varnodes[{n}]")
            raise
    rows.clear()
    return list(first)


def _bad_index(i, where: str) -> _Bad:
    """The error for ``i``, which is not an index into the table."""
    if type(i) is not int:
        return _Bad(f"varnode index must be an int, not {type(i).__name__}", where)
    return _Bad(f"varnode index {i} out of range", where)


def _row_from(row, table: list, intern: dict) -> Instruction:
    """An instruction row, ``[op, out, [in, ...]]`` with an optional
    callee. ``out`` and each input are indexes into ``table``, the load's
    Varnodes, and ``out`` is None when there is no output. The callee and
    the Instruction are the load's one object of their value, from
    ``intern``."""
    if type(row) is not list:
        raise _Bad(f"instruction row must be a list, not {type(row).__name__}")
    if not 3 <= len(row) <= 4:
        raise _Bad(f"instruction row must have 3 or 4 items, not {len(row)}")
    try:
        op = _OPCODE[row[0]]
    except (KeyError, TypeError):
        raise _Bad(f"unknown opcode {row[0]!r}", "[0]") from None
    n = len(table)
    out = row[1]
    if out is not None:
        if type(out) is not int or not 0 <= out < n:
            raise _bad_index(out, "[1]")
        out = table[out]
    raw = row[2]
    if type(raw) is not list:
        raise _Bad(f"must be a list, not {type(raw).__name__}", "[2]")
    inputs = []
    for i in raw:
        if type(i) is not int or not 0 <= i < n:  # a bool is an int; -1 would wrap
            raise _bad_index(i, f"[2][{len(inputs)}]")
        inputs.append(table[i])
    callee = None
    if len(row) == 4:
        callee = row[3]
        if type(callee) is not str:
            raise _Bad(f"callee must be a string, not {type(callee).__name__}", "[3]")
        callee = intern.setdefault(callee, callee)
    ins = tuple.__new__(Instruction, (op, out, tuple(inputs), callee))
    return intern.setdefault(ins, ins)


def _check_type_str(t, *where: str) -> str:
    if not isinstance(t, str) or (
        t not in _SCALAR_TYPES and not t.startswith("class:")
    ):
        raise _Bad(f"bad type {t!r}", *where)
    return t


def _check_param(obj) -> None:
    """Raises the error for ``obj``, which ``_function_from`` found is not
    a parameter."""
    if not isinstance(obj, dict):
        raise _Bad("param must be an object")
    for key in ("name", "type"):
        if key not in obj:
            raise _Bad(f"param missing key {key!r}")
    _typed(obj["name"], str, "name")  # the first of these that fails raises; one of them does
    _check_type_str(obj["type"])


def _block_from(obj, table, intern) -> Block:
    if not isinstance(obj, dict):
        raise _Bad("block must be an object")
    if "id" not in obj:
        raise _Bad("missing block id")
    # _each, unrolled: this loop runs once per instruction of the binary
    raw = obj.get("ins", [])
    if type(raw) is not list:
        _list(raw, "ins")
    instructions = []
    try:
        for x in raw:
            instructions.append(_row_from(x, table, intern))
    except _Bad as e:
        e.where.append(f"ins[{len(instructions)}]")
        raise
    bid, succ = obj["id"], obj.get("succ", [])
    if type(bid) is not int or type(succ) is not list:
        _typed(bid, int, "id")  # the first of these that fails raises; one of them does
        _list(succ, "succ")
    for n, s in enumerate(succ):
        if type(s) is not int:
            _typed(s, int, f"succ[{n}]")
    return Block(bid, tuple(instructions), tuple(succ))


def _function_from(obj, table, intern) -> Function:
    """The Function of ``obj``. Its id, name, owning class, return type and
    parameters' names and types are the load's one string of their value,
    from ``intern``, like the callees and Instructions of its blocks."""
    if not isinstance(obj, dict):
        raise _Bad("function must be an object")
    for key in ("id", "name", "stack_size", "blocks"):
        if key not in obj:
            raise _Bad(f"missing key {key!r}")
    # _each and the checks of a parameter, unrolled, like the instructions of a block
    raw = obj.get("params", [])
    if type(raw) is not list:
        _list(raw, "params")
    params = []
    try:
        for q in raw:
            if not (isinstance(q, dict) and type(pname := q.get("name")) is str
                    and ((ptype := q.get("type")) in _SCALAR_TYPES
                         or isinstance(ptype, str) and ptype.startswith("class:"))):
                _check_param(q)
            params.append(Param(intern.setdefault(pname, pname), intern.setdefault(ptype, ptype)))
    except _Bad as e:
        e.where.append(f"params[{len(params)}]")
        raise
    raw = obj["blocks"]
    if type(raw) is not list:
        _list(raw, "blocks")
    blocks = []
    try:
        for x in raw:
            blocks.append(_block_from(x, table, intern))
    except _Bad as e:
        e.where.append(f"blocks[{len(blocks)}]")
        raise
    return_type = obj.get("return", "void")
    if return_type not in _SCALAR_TYPES:
        _check_type_str(return_type, "return")
    stack_size, fid, name, owning_class = obj["stack_size"], obj["id"], obj["name"], obj.get("class")
    if not (type(stack_size) is int and type(fid) is str and type(name) is str
            and (owning_class is None or type(owning_class) is str)):
        # the first of these that fails raises; one of them does
        _typed(stack_size, int, "stack_size")
        _typed(fid, str, "id")
        _typed(name, str, "name")
        _typed(owning_class, str, "class")
    return Function(intern.setdefault(fid, fid), intern.setdefault(name, name),
                    intern.setdefault(owning_class, owning_class), tuple(params),
                    intern.setdefault(return_type, return_type), stack_size, tuple(blocks))


def _class_from(obj, intern) -> ClassInfo:
    """The ClassInfo of ``obj``, each of its names the load's one string of
    its value, from ``intern``."""
    if not isinstance(obj, dict):
        raise _Bad("class must be an object")
    if "name" not in obj:
        raise _Bad("missing class name")
    name = _typed(obj["name"], str, "name")
    return ClassInfo(
        name=intern.setdefault(name, name),
        parents=_names(obj.get("parents", []), "parents", intern),
        vtable_addr=_typed(obj.get("vtable_addr", 0), int, "vtable_addr"),
        vtable=_names(obj.get("vtable", []), "vtable", intern),
        constructors=_names(obj.get("constructors", []), "constructors", intern),
        members=_names(obj.get("members", []), "members", intern),
    )


def _segment_from(obj) -> tuple[int, bytes]:
    if not isinstance(obj, dict):
        raise _Bad("segment must be an object")
    for key in ("addr", "hex"):
        if key not in obj:
            raise _Bad(f"segment missing key {key!r}")
    text = obj["hex"]
    try:
        blob = bytes.fromhex(text)
    except ValueError as e:
        raise _Bad(str(e)) from None
    except TypeError:
        raise _Bad("hex must be a string") from None
    if blob.hex() != text:  # what serialize would write back
        raise _Bad("must be lowercase hex without spaces", "hex")
    return _typed(obj["addr"], int, "addr"), blob


@contextmanager
def _gc_paused():
    """Switch cyclic GC off for the duration.

    The loader and the writer build acyclic trees, and so does an
    analysis (``cli._analyze_one`` runs one under a single pause), so the
    collections their allocations would trigger only traverse the growing
    heap, again and again. Left alone, the first allocation after the
    pause would still traverse all of it as young objects, in whatever
    step the caller runs next. So on resume everything is moved to the
    oldest generation untraversed: ``gc.unfreeze`` puts the permanent
    generation back into the oldest one. If the process keeps frozen
    objects of its own, a collection of the young generations does the
    move instead."""
    resume = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if resume:
            if gc.get_freeze_count():
                gc.collect(1)
            else:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def load_program(text: str) -> IRProgram:
    """Parse and validate one program.

    Raises ParseError on malformed input (with a field path) and on a
    duplicate or dangling name (the first one ``validate`` reports), and
    ValidationError listing every diagnostic when other invariants fail.
    """
    with _gc_paused():
        return _load(text)


def _load(text: str) -> IRProgram:
    intern: dict = {}  # each distinct string and Instruction of the load -> its one object
    try:
        prog = _program_from(_read(text, intern), intern)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} col {e.colno}: {e.msg}") from None
    except _Bad as e:
        raise e.parse_error() from None
    diags = validate(prog)
    for d in diags:
        form = _LINK_ERRORS.get(d.invariant)
        if form is not None:
            raise ParseError(form.format(location=d.location, message=d.message))
    if diags:
        raise ValidationError(diags)
    return prog


# The text is read by the stdlib's own scanner, value by value, so every
# syntax error has json.loads's message and position.
_scan_once = json.JSONDecoder().scan_once
_scanstring = json.decoder.scanstring
_ws = json.decoder.WHITESPACE.match


def _skip(text: str, i: int) -> int:
    """``i``, moved past any whitespace. ``serialize`` writes none, so the
    character is looked at before the regex is called."""
    return _ws(text, i).end() if text[i:i + 1] in " \t\n\r" else i


def _value(text: str, i: int):
    """The JSON value that starts at ``i``, and the index after it."""
    try:
        return _scan_once(text, i)
    except StopIteration as e:
        raise json.JSONDecodeError("Expecting value", text, e.value) from None


def _read(text: str, intern: dict):
    """The document of ``text``, decoded as ``json.loads`` would, with the
    same syntax errors, and with the last of a repeated member winning,
    except for a ``functions`` array that comes after ``ir_version`` and
    ``varnodes``: that one is built as it is read (``_functions_at``), and
    ``functions`` and ``varnodes`` then hold the built Functions and the
    table's Varnodes, each as a _Built."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    i = _ws(text, 0).end()
    if text[i:i + 1] != "{":  # decoded whole, for _program_from to refuse
        doc, i = _value(text, i)
    else:
        doc, start = {}, 0
        i = _skip(text, i + 1)
        c = text[i:i + 1]
        while c != "}":  # c is the character after "{", then each delimiter
            if text[i:i + 1] != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
            key, i = _scanstring(text, i + 1)
            i = _skip(text, i)
            if text[i:i + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
            i = _skip(text, i + 1)
            if key == "functions" and text[i:i + 1] == "[" and "ir_version" in doc and "varnodes" in doc:
                start = i
                doc[key], i = _functions_at(text, i + 1, doc, intern)
            else:
                if key == "varnodes" and type(doc.get("functions")) is _Built:
                    # built with an earlier table: decoded again, to be built with this one
                    doc["functions"] = _value(text, start)[0]
                doc[key], i = _value(text, i)
            i = _skip(text, i)
            c = text[i:i + 1]
            if c != "," and c != "}":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            if c == ",":
                i = _skip(text, i + 1)
        i += 1
    i = _ws(text, i).end()
    if i != len(text):
        raise json.JSONDecodeError("Extra data", text, i)
    return doc


class _Built(tuple):
    """What ``_read`` built as it read a member, in place of its JSON."""


def _functions_at(text: str, i: int, doc: dict, intern: dict) -> tuple[_Built, int]:
    """The Functions of the array whose items start at ``i``, and the index
    after it. Each item is built once it and the delimiter after it are
    read, so a syntax error just after an item outranks the item's faults,
    and its JSON is dropped before the next item is decoded. First checks
    ``doc``'s ``ir_version`` and makes its table, if no earlier array did."""
    _check_version(doc["ir_version"])
    table = doc["varnodes"]
    if type(table) is not _Built:
        doc["varnodes"] = table = _Built(_table_from(table))
    out = []
    scan = _scan_once
    i = _skip(text, i)
    c = text[i:i + 1]
    while c != "]":  # _value and _skip, inlined: this loop runs once per function
        try:
            obj, i = scan(text, i)
        except StopIteration as e:
            raise json.JSONDecodeError("Expecting value", text, e.value) from None
        c = text[i:i + 1]
        if c != "," and c != "]":
            i = _skip(text, i)
            c = text[i:i + 1]
            if c != "," and c != "]":
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        try:
            out.append(_function_from(obj, table, intern))
        except _Bad as e:
            e.where.append(f"functions[{len(out)}]")
            raise
        del obj
        if c == ",":
            i += 1
            if text[i:i + 1] in " \t\n\r":
                i = _ws(text, i).end()
    return _Built(out), i + 1


def _check_version(version) -> None:
    if type(version) is not int or version != 2:
        raise ParseError(f"unsupported ir_version {version!r}")


def _program_from(doc, intern: dict) -> IRProgram:
    """The program the document ``doc`` (from ``_read``) describes, built
    without ``validate``. Raises ParseError, or _Bad, on a malformed
    document."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _check_version(doc.get("ir_version"))
    table = doc.get("varnodes", [])
    if type(table) is not _Built:
        table = _table_from(table)
    data = _each(doc.get("data", []), "data", _segment_from)
    word_size = _typed(doc.get("word_size", 8), int, "word_size")
    if word_size <= 0:
        raise _Bad(f"must be positive, not {word_size}", "word_size")
    functions = doc.get("functions", [])
    return IRProgram(
        name=_typed(doc.get("name", "unnamed"), str, "name"),
        word_size=word_size,
        classes=_each(doc.get("classes", []), "classes", _class_from, intern),
        functions=(list(functions) if type(functions) is _Built
                   else _each(functions, "functions", _function_from, table, intern)),
        data=data,
        externals=_names(doc.get("externals", []), "externals", intern),
    )


# The rules on names and cross-references, with the text of the ParseError
# that load_program raises for the first one broken, in validate's order:
# duplicates, then each class, then each function and its calls.
_LINK_ERRORS = {
    "unique-function-ids": "{message}",
    "unique-classes": "{message}",
    "parent-resolves": "class {location}: {message}",
    "vtable-resolves": "class {location}: {message}",
    "members-resolve": "class {location}: {message}",
    "owning-class-resolves": "{location}: {message}",
    "callee-resolves": "{location}: {message}",
}


def validate(p: IRProgram) -> list[Diagnostic]:
    """Check every rule a decoded program must meet, in one pass over the
    classes and one over the instructions; returns one Diagnostic per
    violation."""
    out: list[Diagnostic] = []

    def bad(inv, loc, msg):
        out.append(Diagnostic(inv, loc, msg))

    def bad_at(f, b, idx, inv, msg):
        bad(inv, format_site(f.id, b.id, idx), msg)

    for inv, kind, names in (("unique-function-ids", "function id", [f.id for f in p.functions]),
                             ("unique-classes", "class", [c.name for c in p.classes])):
        seen = set()
        for n in names:
            if n in seen:
                bad(inv, p.name, f"duplicate {kind} {n!r}")
            seen.add(n)
    if len(p.externals) != len(set(p.externals)):
        bad("unique-externals", p.name, "duplicate external names")

    spans = sorted((a, a + len(b)) for a, b in p.data)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        if s2 < e1:
            bad("data-overlap", p.name, f"segments [{s1:#x},{e1:#x}) and [{s2:#x},{e2:#x}) overlap")

    fns, classes = p._fn_by_id, p._cls_by_name
    for c in p.classes:
        stack, seen = list(c.parents), set()
        while stack:
            n = stack.pop()
            if n == c.name:
                bad("acyclic-parents", c.name, "class participates in a parent cycle")
                break
            if n not in seen and n in classes:
                seen.add(n)
                stack.extend(classes[n].parents)
        for par in c.parents:
            if par not in classes:
                bad("parent-resolves", c.name, f"unknown parent {par!r}")
        for inv, fids in (("vtable-resolves", c.vtable),
                          ("members-resolve", c.constructors + c.members)):
            for fid in fids:
                if fid not in fns:
                    bad(inv, c.name, f"dangling function ref {fid!r}")
        for fid in c.constructors + c.members:
            if fid in fns and fns[fid].owning_class != c.name:
                bad("members-owned", c.name, f"{fid!r} is not a function of {c.name}")

    known = fns.keys() | set(p.externals)  # what a CALL may name
    for f in p.functions:
        owner = f.owning_class
        if owner is not None:
            if owner not in classes:
                bad("owning-class-resolves", f.id, f"unknown owning class {owner!r}")
            if not (f.params and f.params[0].name == "this"
                    and f.params[0].type == "class:" + owner):
                bad("member-this-param", f.id, f"member of {owner} must take this: class:{owner} first")
        block_ids = {b.id for b in f.blocks}
        if len(block_ids) != len(f.blocks):
            bad("unique-block-ids", f.id, "duplicate block ids")
        size = f.stack_size
        for b in f.blocks:
            for s in b.successors:
                if s not in block_ids:
                    bad("successors-local", f"{f.id}@{b.id}", f"successor {s} not in function")
            for idx, (op, output, inputs, callee) in enumerate(b.instructions):
                # the site string is built only for an instruction that fails
                for v in inputs:
                    if v.space == "stack" and not (0 <= v.offset and v.offset + v.size <= size):
                        bad_at(f, b, idx, "stack-bounds", f"{v} outside stack_size {size}")
                if output is not None and output.space == "stack" and not (
                        0 <= output.offset and output.offset + output.size <= size):
                    bad_at(f, b, idx, "stack-bounds", f"{output} outside stack_size {size}")
                if op in _OPERAND_SHAPE:
                    n, wants_out = _OPERAND_SHAPE[op]
                    if len(inputs) != n or (wants_out and output is None):
                        bad_at(f, b, idx, "operand-shape", f"{op} wants {n} input(s)"
                               + (" and an output" if wants_out else ""))
                elif op == "CALL":
                    if not callee:
                        bad_at(f, b, idx, "call-has-callee", "CALL without resolved callee")
                    elif callee not in known:
                        bad_at(f, b, idx, "callee-resolves", f"dangling callee {callee!r}")
                elif op == "CALLIND":
                    if callee:
                        bad_at(f, b, idx, "callind-unresolved", "CALLIND must not carry a callee")
                    if not inputs:
                        bad_at(f, b, idx, "callind-target", "CALLIND needs input[0] = computed target")
                elif op in ("INT_EQUAL", "INT_NOTEQUAL"):
                    if len(inputs) != 2 or output is None or output.size != 1:
                        bad_at(f, b, idx, "cmp-shape", f"{op} wants 2 inputs and a 1-byte output")
    return out


# ---------------------------------------------------------------------------
# Encode

def program_to_dict(p: IRProgram) -> dict:
    """The ``ir_version: 2`` document of ``p``: each distinct varnode is one
    ``varnodes`` row, in order of first use, and each instruction the row
    ``[op, out, [in, ...]]`` of indexes into it (``out`` None when there is
    none), with the callee appended when it has one."""
    index: dict[Varnode, int] = {}  # varnode -> its row, in first-use order

    def row(x: Instruction) -> list:
        out = x.output
        r = [x.op, None if out is None else index.setdefault(out, len(index)),
             [index.setdefault(v, len(index)) for v in x.inputs]]
        if x.callee is not None:
            r.append(x.callee)
        return r

    functions = [
        {
            "id": f.id,
            "name": f.name,
            **({"class": f.owning_class} if f.owning_class else {}),
            "params": [{"name": q.name, "type": q.type} for q in f.params],
            "return": f.return_type,
            "stack_size": f.stack_size,
            "blocks": [
                {"id": b.id, "succ": list(b.successors), "ins": [row(x) for x in b.instructions]}
                for b in f.blocks
            ],
        }
        for f in p.functions
    ]
    return {
        "ir_version": 2,
        "name": p.name,
        "word_size": p.word_size,
        "varnodes": [list(v) for v in index],
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
        "functions": functions,
        "data": [{"addr": a, "hex": blob.hex()} for a, blob in p.data],
        "externals": p.externals,
    }


def serialize(p: IRProgram) -> str:
    """Compact JSON text of ``p``, as ``ir_version: 2``: the only version
    written. Without ``indent``, ``json`` keeps to its C encoder.
    ``program_to_dict`` builds a fresh, acyclic tree, so the encoder skips
    its cycle check, and GC is paused as in the loader."""
    with _gc_paused():
        return json.dumps(program_to_dict(p), separators=(",", ":"), check_circular=False)


def reaching_def(f: Function, v: Varnode, before: int) -> tuple[int, Instruction] | None:
    """Nearest instruction writing exactly ``v`` before linear position
    ``before``; None when the value enters the function from outside."""
    code = f.code
    for pos in range(before - 1, -1, -1):
        if code[pos].output == v:
            return pos, code[pos]
    return None


def def_step(f: Function, v: Varnode, pos: int, through: frozenset
             ) -> tuple[Varnode, int, tuple[int, Instruction] | None]:
    """Follow COPY defs back from ``v`` at linear position ``pos`` while
    ``v`` lies in one of the spaces ``through``. Returns the varnode
    reached, its position and its reaching def (None when the value enters
    the function). Every backward walk takes its def-use steps here; each
    passes its own stopping rule as ``through``."""
    while True:
        d = reaching_def(f, v, pos)
        if d is None or d[1].op != "COPY" or v.space not in through:
            return v, pos, d
        v, pos = d[1].inputs[0], d[0]
