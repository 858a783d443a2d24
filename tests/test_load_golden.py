"""What ``load_program`` makes of one-field changes stays the same.

Every position of the fig5 IR document (the whole document, each object
member and each list item, at any depth) is set in turn to each value in
``VALUES``: varnode-shaped objects and their near misses, and the plain
JSON scalars and empty containers. The outcome of loading each case (the
ParseError or ValidationError text, or the sha256 of ``serialize`` of the
program loaded) is checked against ``tests/golden/load_errors.json``. Any
other exception fails the test.

The cases pin the wording and field path of every error the loader can
give for a misplaced value, and that a value accepted in one place is the
same program whichever way the decoder built it. When an outcome is meant
to change, regenerate the file and say why in the change:

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

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "load_errors.json")
VALUES = {
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
    """value name -> position label -> outcome of loading fig5 with the
    value at that position."""
    base = program_to_dict(gen_fig5()[0])
    out = {}
    for name, value in VALUES.items():
        cases = out[name] = {}
        for path in _positions(base):
            if not path:
                doc = value
            else:
                doc = copy.deepcopy(base)
                box = doc
                for k in path[:-1]:
                    box = box[k]
                box[path[-1]] = value
            cases[_label(path)] = _outcome(json.dumps(doc))
    return out


@pytest.fixture(scope="module")
def current():
    return outcomes()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", VALUES)
def test_load_outcomes_match_golden(name, current, golden):
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
