"""Command database: records, naming semantics, grouping and diffing.

Recovered commands are keyed by (direction, wildcarded payload or compared
constant, root function). Root function symbols carry the semantics: camel
case tokens minus a configurable prefix/verb list give the module label,
and byte positions that are constant within a module but distinct across
modules expose the on-wire command group byte.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from .taint import LengthSource, PayloadBytes, canonical_api, parse_payload_hex, payload_hex

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


def tokenize(symbol: str) -> list[str]:
    """Split a function symbol into name tokens. ``Class::Method`` keeps
    the method part; boundaries are camel case humps, letter/digit
    transitions and underscores."""
    return _TOKEN_RE.findall(symbol.split("::")[-1])


def classify_module(symbol: str, filter_tokens=DEFAULT_FILTER_TOKENS) -> str:
    """First token that survives the filter list names the module.

    Class-qualifier tokens are considered before method tokens: vendor
    symbols put the module noun in the class suffix at least as often as
    in the method name.
    """
    if "::" in symbol:
        cls, method = symbol.rsplit("::", 1)
        tokens = _TOKEN_RE.findall(cls) + _TOKEN_RE.findall(method)
    else:
        tokens = _TOKEN_RE.findall(symbol)
    drop = set(filter_tokens)
    for t in tokens:
        if t not in drop:
            return t
    return "Unknown"


@dataclass
class CommandRecord:
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
    kind: str = "static"  # "static" | "hybrid"

    @property
    def key(self) -> tuple[str, str, str]:
        if self.direction == "solicited":
            body = payload_hex(self.payload)
        else:
            body = f"const:{self.constant:#x}"
        return (self.direction, body, self.root_function)

    def payload_column(self) -> str:
        if self.direction == "solicited":
            return payload_hex(self.payload)
        return f"const=0x{self.constant:02x};handler={self.handler or '-'}"


def make_record(binary, direction, api, site, root_function, *, payload=None,
                constant=None, handler=None, channel_path=None,
                filter_tokens=DEFAULT_FILTER_TOKENS) -> CommandRecord:
    kind = "static"
    if payload is not None and not payload.is_static:
        kind = "hybrid"
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
        kind=kind,
    )


@dataclass
class CommandDB:
    binary: str
    provenance: str = ""
    records: list[CommandRecord] = field(default_factory=list)

    def __post_init__(self):
        self._keys = {r.key for r in self.records}

    def add(self, r: CommandRecord) -> bool:
        if r.key in self._keys:
            return False
        self._keys.add(r.key)
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
    lines = [
        "# rilmine command db v1",
        f"# binary={db.binary} provenance={db.provenance}",
        "# " + "\t".join(_COLUMNS),
    ]
    for r in db.sorted_records():
        lines.append(
            "\t".join(
                [
                    r.binary,
                    r.direction,
                    r.api,
                    r.site,
                    r.root_function,
                    r.module,
                    r.payload_column(),
                    r.channel_path or "-",
                    r.kind,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def load_db(text: str) -> CommandDB:
    """Parse a ``.cmdb.tsv``. A malformed row raises ValueError naming its
    line."""
    binary = ""
    provenance = ""
    db = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("# binary="):
            head = line[2:].split()
            binary = head[0].split("=", 1)[1]
            provenance = head[1].split("=", 1)[1] if len(head) > 1 else ""
            db = CommandDB(binary, provenance)
            continue
        if not line or line.startswith("#"):
            continue
        if db is None:
            db = CommandDB("", "")
        cols = line.split("\t")
        if len(cols) != len(_COLUMNS):
            raise ValueError(f"line {lineno}: bad db row ({len(cols)} columns): {line!r}")
        (bin_, direction, api, site, root, module, payload_col, channel, kind) = cols
        payload = constant = handler = None
        if direction == "solicited":
            try:
                payload = parse_payload_hex(payload_col)
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
        else:
            m = re.match(r"const=0x([0-9a-fA-F]+);handler=(.*)", payload_col)
            if not m:
                raise ValueError(f"line {lineno}: bad unsolicited payload column: {payload_col!r}")
            constant = int(m.group(1), 16)
            handler = None if m.group(2) == "-" else m.group(2)
        db.add(
            CommandRecord(
                binary=bin_,
                direction=direction,
                api=api,
                site=site,
                root_function=root,
                module=module,
                payload=payload,
                constant=constant,
                handler=handler,
                channel_path=None if channel == "-" else channel,
                kind=kind,
            )
        )
    return db if db is not None else CommandDB("", "")


def save_db_json(db: CommandDB) -> str:
    recs = []
    for r in db.sorted_records():
        d = {
            "binary": r.binary,
            "direction": r.direction,
            "api": r.api,
            "site": r.site,
            "root_function": r.root_function,
            "module": r.module,
            "channel": r.channel_path,
            "kind": r.kind,
        }
        if r.direction == "solicited":
            d["payload"] = payload_hex(r.payload)
            d["length_source"] = str(r.payload.length_source)
        else:
            d["constant"] = r.constant
            d["handler"] = r.handler
        recs.append(d)
    return json.dumps(
        {"binary": db.binary, "provenance": db.provenance, "records": recs}, indent=1
    )


# ---------------------------------------------------------------------------
# Reports

def module_distribution(db: CommandDB) -> dict[str, list[tuple[str, int, float]]]:
    """Per direction: (module, count, percent) rows, count-descending with
    module-name ties, percentages rounded to 2 decimals."""
    out: dict[str, list[tuple[str, int, float]]] = {}
    for direction in ("solicited", "unsolicited"):
        recs = [r for r in db.records if r.direction == direction]
        counts: dict[str, int] = {}
        for r in recs:
            counts[r.module] = counts.get(r.module, 0) + 1
        total = len(recs)
        rows = [
            (m, c, round(100.0 * c / total, 2)) for m, c in counts.items()
        ]
        rows.sort(key=lambda row: (-row[1], row[0]))
        out[direction] = rows
    return out


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


def evolution_report(dbs: list[CommandDB]) -> list[dict]:
    """Per-binary counts by direction and canonical API (fortified write
    and read variants aggregate into write/read)."""
    rows = []
    for db in dbs:
        apis: dict[str, int] = {}
        for r in db.records:
            a = canonical_api(r.api)
            apis[a] = apis.get(a, 0) + 1
        rows.append(
            {
                "binary": db.binary,
                "solicited": len(db.solicited()),
                "unsolicited": len(db.unsolicited()),
                "apis": dict(sorted(apis.items())),
            }
        )
    return rows


def render_evolution(rows: list[dict]) -> str:
    api_names = sorted({a for row in rows for a in row["apis"]})
    lines = ["binary\tsolicited\tunsolicited\t" + "\t".join(api_names)]
    for row in rows:
        cells = [row["binary"], str(row["solicited"]), str(row["unsolicited"])]
        cells += [str(row["apis"].get(a, 0)) for a in api_names]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
