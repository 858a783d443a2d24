"""What ``load_db`` makes of one-cell changes stays the same.

The database is the crashsuite fixture's, plus one hybrid row with a
dynamic byte between static ones and one unsolicited row. Every cell of
every row, and the binary name in its ``# binary=`` header, is set in turn
to each value in ``VALUES``: payload text in the form rilmine writes and
in the other forms it reads, near misses of that form, and the other
columns' values. The outcome of loading each case (the ValueError text,
or the sha256 of ``save_db`` of the database loaded) is checked against
``tests/golden/db_outcomes.json``. Any other exception fails the test.

The cases pin every form of payload text the reader accepts and the
wording of every error it gives. When an outcome is meant to change,
regenerate the file and say why in the change:

    PYTHONPATH=src python3 tests/test_db_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from rilmine.commands import load_db, make_record, save_db
from rilmine.fixtures import gen_crash_suite
from rilmine.taint import LengthSource, PayloadBytes

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "db_outcomes.json")
VALUES = (
    "07 00", "07  00", " 07", "07 ", "0A 0b", "..", "07 .. 00", "070", "0708",
    "٠٧", "07\u00a000", "07\x0b00", "", "-", "const=0x11;handler=-",
    "hybrid", "static", "solicited", "unsolicited",
)
COLUMNS = "binary direction api site root_function module payload channel kind".split()
HEADER = "# binary="


def base_text() -> str:
    db = gen_crash_suite()[0]
    db.add(make_record("crashsuite", "solicited", "write", "IpcTxSmsSend@0:7", "IpcTxSmsSend",
                       payload=PayloadBytes(b"\x05\x00\x09", "sds", LengthSource("unknown")),
                       channel_path="/dev/umts_ipc0"))
    db.add(make_record("crashsuite", "unsolicited", "read", "IpcRxLoop@0:8", "IpcRxLoop",
                       constant=0x11, handler="Nv::ProcessOpenFile", channel_path="/dev/umts_ipc0"))
    return save_db(db)


def _outcome(text: str) -> str:
    try:
        db = load_db(text)
    except ValueError as e:
        return f"ValueError: {e}"
    return "ok " + hashlib.sha256(save_db(db).encode("utf-8")).hexdigest()


def outcomes() -> dict[str, dict[str, str]]:
    """repr of the value -> position label -> outcome of loading the
    database with the value at that position."""
    lines = base_text().splitlines()
    header = next(k for k, line in enumerate(lines) if line.startswith(HEADER))
    provenance = lines[header][lines[header].rindex(" provenance="):]
    rows = [k for k, line in enumerate(lines) if not line.startswith("#")]
    out = {}
    for value in VALUES:
        cases = out[repr(value)] = {}
        changed = lines.copy()
        changed[header] = HEADER + value + provenance
        cases["header.binary"] = _outcome("\n".join(changed) + "\n")
        for i, k in enumerate(rows):
            for c, column in enumerate(COLUMNS):
                cells = lines[k].split("\t")
                cells[c] = value
                changed = lines.copy()
                changed[k] = "\t".join(cells)
                cases[f"row{i}.{column}"] = _outcome("\n".join(changed) + "\n")
    return out


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_load_db_outcomes_match_golden(value, current, golden):
    name = repr(value)
    moved = {k: (golden[name].get(k), v) for k, v in current[name].items()
             if golden[name].get(k) != v}
    assert moved == {}
    assert sorted(current[name]) == sorted(golden[name])


if __name__ == "__main__":
    cases = outcomes()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, cases.values()))} cases to {GOLDEN}", file=sys.stderr)
