"""What ``load_program`` makes of one-field changes stays the same.

Every position of fig5's IR document (``program_to_dict``: the whole
document, each object member and each list item, at any depth) is set in
turn to each value in ``V2_VALUES``: varnode-shaped objects and their near
misses, the plain JSON scalars and empty containers, and values that reach
each check of a table row and an instruction row (a negative index, an
index equal to the table's length, rows of 2 and 5 items, and ``1.0``,
``true`` and an int where an index or a callee belongs). The outcome of
loading each case (the ParseError or ValidationError text, or the sha256
of ``serialize`` of the program loaded) is checked against
``tests/golden/load_errors_v2.json``. Any other exception fails the test.

The cases pin the wording and field path of every error the loader can
give for a misplaced value, and the program a value accepted in one place
loads to. When an outcome is meant to change, regenerate the file and say
why in the change:

    PYTHONPATH=src python3 tests/test_load_golden.py
"""

import copy
import hashlib
import json
import os
import sys

import pytest

from rilmine.fixtures import gen_fig5
from rilmine.ir import ParseError, ValidationError, load_program, program_to_dict, serialize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "load_errors_v2.json")

# fig5's document; the cases below set values into copies of it
_FIG5_V2 = program_to_dict(gen_fig5()[0])
V2_VALUES = {
    "varnode": {"space": "reg", "offset": 1, "size": 8},
    "varnode-list": [{"space": "reg", "offset": 1, "size": 8}],
    "varnode-float-offset": {"space": "reg", "offset": 1.0, "size": 8},
    "varnode-reordered": {"size": 8, "offset": 1, "space": "reg"},
    "varnode-extra-key": {"space": "reg", "offset": 1, "size": 8, "x": 0},
    "float": 1.0,
    "true": True,
    "string": "x",
    "null": None,
    "empty-list": [],
    "empty-object": {},
    "int": 1,
    "negative": -1,
    "table-length": len(_FIG5_V2["varnodes"]),
    "row-2-items": ["COPY", 0],
    "row-5-items": ["CALL", 0, [1], "open", "x"],
}


def _positions(x, path=()):
    """Path of ``x`` and of every member and item below it, pre-order."""
    yield path
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _positions(v, path + (k,))


def _label(path) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path) or "."


def _outcome(text: str) -> str:
    try:
        p = load_program(text)
    except (ParseError, ValidationError) as e:
        return f"{type(e).__name__}: {e}"
    return "ok " + hashlib.sha256(serialize(p).encode("utf-8")).hexdigest()


def outcomes() -> dict[str, dict[str, str]]:
    """value name -> position label -> outcome of loading fig5's document
    with the value at that position."""
    out = {}
    for name, value in V2_VALUES.items():
        cases = out[name] = {}
        for path in _positions(_FIG5_V2):
            if not path:
                doc = value
            else:
                doc = copy.deepcopy(_FIG5_V2)
                box = doc
                for k in path[:-1]:
                    box = box[k]
                box[path[-1]] = value
            cases[_label(path)] = _outcome(json.dumps(doc))
    return out


def _moved(current: dict, golden: dict) -> dict:
    """position label -> (golden outcome, current outcome), where they differ."""
    return {k: (golden.get(k), current.get(k)) for k in {*current, *golden}
            if golden.get(k) != current.get(k)}


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", V2_VALUES)
def test_v2_load_outcomes_match_golden(name, current, golden):
    assert _moved(current[name], golden[name]) == {}


def test_goldens_cover_every_value(golden):
    assert sorted(golden) == sorted(V2_VALUES)


if __name__ == "__main__":
    cases = outcomes()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, cases.values()))} cases to {GOLDEN}", file=sys.stderr)
