"""Command database: records, naming semantics, grouping and diffing.

Recovered commands are keyed by (direction, wildcarded payload or compared
constant, root function). Root function symbols carry the semantics: camel
case tokens minus a configurable prefix/verb list give the module label,
and byte positions that are constant within a module but distinct across
modules expose the on-wire command group byte.

A solicited record's payload text, the ``payload_hex`` form that its key,
its ``.cmdb.tsv`` column and its ``.cmdb.json`` field hold, is made once
when the record is: ``make_record`` renders it, and ``load_db`` takes it
from the column it reads.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .taint import PayloadBytes, payload_hex, read_payload_hex

# Prefix/verb tokens that never name a functional module. Shipped as the
# default; callers may pass their own list.
DEFAULT_FILTER_TOKENS = (
    "Ipc",
    "Tx",
    "Rx",
    "Protocol",
    "40",
    "41",
    "41X",
    "Get",
    "Set",
    "Do",
    "Process",
    "Make",
    "On",
    "Handle",
    "Request",
    "Response",
)

_TOKEN_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]*|[a-z]+|\d+")


def classify_module(symbol: str, filter_tokens=DEFAULT_FILTER_TOKENS) -> str:
    """First token that survives the filter list names the module. Tokens
    are camel case humps, letter/digit runs and underscore-separated parts,
    taken in symbol order.

    Class-qualifier tokens are considered before method tokens: vendor
    symbols put the module noun in the class suffix at least as often as
    in the method name.
    """
    drop = set(filter_tokens)
    return next((t for t in _TOKEN_RE.findall(symbol) if t not in drop), "Unknown")


@dataclass
class CommandRecord:
    """One recovered command. A solicited record carries its ``payload`` and
    that payload's ``payload_hex`` text, ``payload_text``, rendered here
    when not given; an unsolicited one carries the compared ``constant``
    and its ``handler``. ``kind`` is derived from the payload."""

    binary: str
    direction: str  # "solicited" | "unsolicited"
    api: str
    site: str
    root_function: str
    module: str
    payload: PayloadBytes | None = None  # solicited
    constant: int | None = None  # unsolicited
    handler: str | None = None  # unsolicited
    channel_path: str | None = None
    payload_text: str | None = field(default=None, repr=False, compare=False)  # solicited

    def __post_init__(self):
        if self.payload_text is None and self.payload is not None:
            self.payload_text = payload_hex(self.payload)

    @property
    def kind(self) -> str:
        """``hybrid`` when the payload has a dynamic byte, else ``static``."""
        return "hybrid" if self.payload is not None and not self.payload.is_static else "static"

    @property
    def key(self) -> tuple[str, str, str]:
        if self.direction == "solicited":
            body = self.payload_text
        else:
            body = f"const:{self.constant:#x}"
        return (self.direction, body, self.root_function)

    def payload_column(self) -> str:
        if self.direction == "solicited":
            return self.payload_text
        return f"const=0x{self.constant:02x};handler={self.handler or '-'}"


def make_record(binary, direction, api, site, root_function, *, payload=None,
                constant=None, handler=None, channel_path=None,
                filter_tokens=DEFAULT_FILTER_TOKENS) -> CommandRecord:
    return CommandRecord(
        binary=binary,
        direction=direction,
        api=api,
        site=site,
        root_function=root_function,
        module=classify_module(root_function, filter_tokens),
        payload=payload,
        constant=constant,
        handler=handler,
        channel_path=channel_path,
    )


@dataclass
class CommandDB:
    binary: str
    provenance: str = ""
    records: list[CommandRecord] = field(default_factory=list)

    def __post_init__(self):
        self._keys = {r.key for r in self.records}

    def add(self, r: CommandRecord) -> bool:
        key = r.key
        if key in self._keys:
            return False
        self._keys.add(key)
        self.records.append(r)
        return True

    def keys(self, direction: str | None = None) -> set[tuple]:
        if direction is None:
            return set(self._keys)
        return {k for k in self._keys if k[0] == direction}

    def solicited(self) -> list[CommandRecord]:
        return [r for r in self.records if r.direction == "solicited"]

    def unsolicited(self) -> list[CommandRecord]:
        return [r for r in self.records if r.direction == "unsolicited"]

    def sorted_records(self) -> list[CommandRecord]:
        return sorted(self.records, key=lambda r: (r.direction, r.root_function, r.payload_column(), r.site))


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Serialization

_COLUMNS = "binary direction api site root_function module payload channel kind".split()


def save_db(db: CommandDB) -> str:
    """The ``.cmdb.tsv`` text of ``db``: three comment lines (a version
    line, the ``# binary=<name> provenance=<hash>`` header, the column
    names), then one tab-separated row per record, in ``sorted_records``
    order. A solicited payload is written as its ``payload_text``.

    Fields are written unescaped, so a field that holds a tab or a line
    break would make a row ``load_db`` rejects or misreads: ValueError
    names the first such field, the binary name, the provenance or the
    record's site and column. A binary name that starts with ``#`` is
    refused too, since a row that starts with it would read as a comment."""
    records = db.sorted_records()
    rows = [[r.binary, r.direction, r.api, r.site, r.root_function, r.module,
             r.payload_column(), r.channel_path or "-", r.kind] for r in records]
    lines = [
        "# rilmine command db v1",
        f"# binary={db.binary} provenance={db.provenance}",
        "# " + "\t".join(_COLUMNS),
        *map("\t".join, rows),
    ]
    text = "\n".join(lines) + "\n"
    # the column-name line and each row hold one tab fewer than columns
    if text.count("\t") != (len(_COLUMNS) - 1) * (len(lines) - 2) or text.splitlines() != lines:
        fields = [("binary name", db.binary), ("provenance", db.provenance)]
        fields += [(f"record at site {r.site!r}: {name}", cell)
                   for r, cells in zip(records, rows) for name, cell in zip(_COLUMNS, cells)]
        label, value = next((label, value) for label, value in fields
                            if "\t" in value or "".join(value.splitlines()) != value)
        raise ValueError(f"{label} {value!r} holds a tab or a line break")
    # only the version, header and column-name lines may start with '#'
    if text.count("\n#") != 2:
        name = next(r.binary for r in records if r.binary.startswith("#"))
        raise ValueError(f"binary name {name!r} starts with '#', which reads as a comment")
    return text


_UNSOLICITED_COLUMN = re.compile(r"const=0x([0-9a-fA-F]+);handler=(.*)")


def load_db(text: str) -> CommandDB:
    """Parse a ``.cmdb.tsv``. A malformed row raises ValueError naming its
    line.

    Blank lines and lines that start with ``#`` are skipped, except the
    ``# binary=`` header, which names the database's binary and
    provenance. The header may come once, before every row; a database
    without one loads with an empty name. A solicited payload is read by
    ``read_payload_hex``, which also gives the record's payload text, and
    each row's ``kind`` must be the one its payload makes."""
    db = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if line[:1] == "#":
            if line.startswith("# binary="):
                if db is not None:
                    raise ValueError(f"line {lineno}: a '# binary=' header may come only "
                                     f"once, before every row")
                # the binary name may hold spaces; the provenance hash never does
                head = line[len("# binary="):]
                binary, sep, provenance = head.rpartition(" provenance=")
                db = CommandDB(binary, provenance) if sep else CommandDB(head)
            continue
        if not line:
            continue
        if db is None:
            db = CommandDB("", "")
        cols = line.split("\t")
        if len(cols) != len(_COLUMNS):
            raise ValueError(f"line {lineno}: bad db row ({len(cols)} columns): {line!r}")
        (bin_, direction, api, site, root, module, payload_col, channel, kind) = cols
        payload = constant = handler = payload_text = None
        if direction == "solicited":
            try:
                payload, payload_text = read_payload_hex(payload_col)
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
        elif direction == "unsolicited":
            m = _UNSOLICITED_COLUMN.match(payload_col)
            if not m:
                raise ValueError(f"line {lineno}: bad unsolicited payload column: {payload_col!r}")
            constant = int(m.group(1), 16)
            handler = None if m.group(2) == "-" else m.group(2)
        else:
            raise ValueError(f"line {lineno}: unknown direction {direction!r}")
        rec = CommandRecord(bin_, direction, api, site, root, module, payload, constant,
                            handler, None if channel == "-" else channel, payload_text)
        if kind != rec.kind:
            raise ValueError(f"line {lineno}: kind {kind!r} disagrees with the payload, "
                             f"which makes it {rec.kind!r}")
        db.add(rec)
    return db if db is not None else CommandDB("", "")


def _json_scalar(v) -> str:
    """``v``, a str, int or None, as ``json.dumps`` writes it."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    return "null" if v is None else int.__repr__(v)


def save_db_json(db: CommandDB) -> str:
    """The database as ``json.dumps(..., indent=1)`` writes it, byte for
    byte: an object of ``binary``, ``provenance`` and a ``records`` list of
    flat objects of scalars. That fixed shape is laid out here, since
    ``indent`` keeps ``json`` on its pure-Python encoder."""
    recs = []
    for r in db.sorted_records():
        fields = [("binary", r.binary), ("direction", r.direction), ("api", r.api),
                  ("site", r.site), ("root_function", r.root_function),
                  ("module", r.module), ("channel", r.channel_path), ("kind", r.kind)]
        if r.direction == "solicited":
            fields += [("payload", r.payload_text),
                       ("length_source", str(r.payload.length_source))]
        else:
            fields += [("constant", r.constant), ("handler", r.handler)]
        recs.append("  {\n" + ",\n".join(f'   "{k}": {_json_scalar(v)}' for k, v in fields)
                    + "\n  }")
    body = "[\n" + ",\n".join(recs) + "\n ]" if recs else "[]"
    return (f'{{\n "binary": {_json_scalar(db.binary)},\n'
            f' "provenance": {_json_scalar(db.provenance)},\n "records": {body}\n}}')


# ---------------------------------------------------------------------------
# Reports

@dataclass
class GroupByteReport:
    position: int
    groups: dict[str, int]  # module -> byte value


def infer_group_byte(db: CommandDB) -> GroupByteReport:
    """Smallest payload byte position that is constant within each module
    and pairwise distinct across modules, scanning solicited payloads up to
    the shortest one. Dynamic bytes disqualify a position."""
    payloads: dict[str, list[PayloadBytes]] = {}
    for r in db.solicited():
        if r.payload is not None and len(r.payload.data):
            payloads.setdefault(r.module, []).append(r.payload)
    if len(payloads) < 2:
        raise ValueError("ambiguous input: need >=2 modules with solicited payloads")
    min_len = min(len(pb.data) for pbs in payloads.values() for pb in pbs)
    for pos in range(min_len):
        if any(pb.mask[pos] == "d" for pbs in payloads.values() for pb in pbs):
            continue
        per_module = {}
        ok = True
        for m, pbs in payloads.items():
            vals = {pb.data[pos] for pb in pbs}
            if len(vals) != 1:
                ok = False
                break
            per_module[m] = vals.pop()
        if not ok:
            continue
        if len(set(per_module.values())) == len(per_module):
            return GroupByteReport(pos, dict(sorted(per_module.items())))
    raise ValueError("ambiguous input: no qualifying byte position")


@dataclass
class DiffResult:
    base_unique: set[tuple]
    cur_unique: set[tuple]

    def counts(self, direction: str) -> tuple[int, int]:
        return (
            sum(1 for k in self.base_unique if k[0] == direction),
            sum(1 for k in self.cur_unique if k[0] == direction),
        )

    @property
    def empty(self) -> bool:
        return not self.base_unique and not self.cur_unique


def diff(base: CommandDB, cur: CommandDB) -> DiffResult:
    bk, ck = base.keys(), cur.keys()
    return DiffResult(base_unique=bk - ck, cur_unique=ck - bk)


def render_diff(base: CommandDB, cur: CommandDB, d: DiffResult) -> str:
    lines = [
        f"# diff base={base.binary} cur={cur.binary}",
        "direction\tbase_total\tcur_total\tbase_unique\tcur_unique",
    ]
    for direction in ("solicited", "unsolicited"):
        bu, cu = d.counts(direction)
        lines.append(
            f"{direction}\t{len(base.keys(direction))}\t{len(cur.keys(direction))}\t{bu}\t{cu}"
        )
    for label, keys in (("base-only", d.base_unique), ("cur-only", d.cur_unique)):
        for k in sorted(keys):
            lines.append(f"{label}\t{k[0]}\t{k[1]}\t{k[2]}")
    return "\n".join(lines) + "\n"
