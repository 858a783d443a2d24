"""Artifacts of mutated programs stay byte-identical.

A seeded mutator edits the IR document (``program_to_dict``) of each IR
fixture kind and of ``gen_random`` seeds 0-11 a few times over, and keeps
the programs that still load. The edits reach the walkers' odd
branches (undefined values, loads through non-object bases, constant and
uninitialized descriptors, unmodeled defs) that the well-formed fixtures
never take. For each base program, the sha256 of
every mutant's ``callgraph.dump``, and of its ``.cmdb.tsv``, ``.cmdb.json``
and ``.report.txt`` under each of two filter configs, is checked against
``tests/golden/mutants.json``, together with the number of mutants kept
and the discard and incomplete-trace reasons the corpus produces.

Regenerate this file together with ``artifacts.json`` (and say why in the
change):

    PYTHONPATH=src python3 tests/test_artifact_golden.py
"""

import copy
import hashlib
import json
import os
import random

import pytest

from rilmine import cli
from rilmine.callgraph import build_direct_cg, dump, recover_vcalls
from rilmine.channel import FilterConfig, filter_commands
from rilmine.commands import save_db, save_db_json
from rilmine.fixtures import gen_random
from rilmine.ir import (
    SPACES,
    IRProgram,
    ParseError,
    ValidationError,
    load_program,
    program_to_dict,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "mutants.json")
IR_KINDS = [k for k in cli.FIXTURE_KINDS if k not in ("crashsuite", "mutsuite", "diffpair", "rand")]
RANDOM_SEEDS = range(12)
ATTEMPTS = 17  # mutants tried per base program
CONFIGS = {
    "default": FilterConfig(),
    "socket-depth3": FilterConfig(keep_socket=True, fd_depth=3),
}
ARTIFACTS = ("cmdb.tsv", "cmdb.json", "report.txt")
_FLIP = {"COPY": "LOAD", "LOAD": "COPY", "INT_ADD": "INT_SUB", "INT_SUB": "INT_ADD"}


def _bases() -> list[str]:
    return [f"fixture:{k}" for k in IR_KINDS] + [f"seed:{s}" for s in RANDOM_SEEDS]


def _base_doc(base: str) -> dict:
    kind, _, arg = base.partition(":")
    if kind == "seed":
        p, _ = gen_random(seed=int(arg))
    else:
        p, _ = cli._IR_FIXTURES[arg](0)
    return program_to_dict(p)


def _slots(row: list) -> list[tuple[list, int]]:
    """(list, index) of each varnode operand of the instruction ``row``."""
    out = [(row, 1)] if row[1] is not None else []
    return out + [(row[2], j) for j in range(len(row[2]))]


def _cell(doc: dict, space: str, offset: int, size: int) -> int:
    """The index of the table row of (space, offset, size), appended if the
    table has none: the loader rejects a duplicate row."""
    rows, cell = doc["varnodes"], [space, offset, size]
    if cell not in rows:
        rows.append(cell)
    return rows.index(cell)


def _edit(doc: dict, rng: random.Random) -> None:
    """One edit to one instruction, in place; an operand moved to a cell
    the table lacks gets a new row. Half the picks are calls, where every
    walk starts."""
    sites = [(f, b["ins"], i) for f in doc["functions"] for b in f["blocks"]
             for i in range(len(b["ins"]))]
    calls = [s for s in sites if s[1][s[2]][0] in ("CALL", "CALLIND")]
    fn, insns, i = rng.choice(calls if calls and rng.random() < 0.5 else sites)
    ins = insns[i]
    slots = _slots(ins)
    kind = rng.choice(("swap", "space", "offset", "flip", "dup"))
    if kind == "flip" and ins[0] in _FLIP:
        ins[0] = _FLIP[ins[0]]
    elif kind in ("swap", "space", "offset") and slots:
        box, key = rng.choice(slots)
        space, offset, size = doc["varnodes"][box[key]]
        if kind == "swap":
            pool = [x[k] for b in fn["blocks"] for y in b["ins"] for x, k in _slots(y)]
            box[key] = rng.choice(pool)
        elif kind == "space":
            box[key] = _cell(doc, rng.choice(SPACES), offset, size)
        else:
            box[key] = _cell(doc, space, offset + rng.choice((-8, -1, 1, 8)), size)
    else:
        insns.insert(i, copy.deepcopy(ins))


def mutants(base: str) -> list[tuple[int, IRProgram]]:
    """(attempt number, program) of each mutant of ``base`` that loads."""
    doc = _base_doc(base)
    rng = random.Random(f"mutants:{base}")
    out = []
    for n in range(ATTEMPTS):
        m = copy.deepcopy(doc)
        for _ in range(rng.randint(1, 3)):
            _edit(m, rng)
        try:
            out.append((n, load_program(json.dumps(m, separators=(",", ":")))))
        except (ParseError, ValidationError):
            pass
    return out


def _reasons(report_text: str) -> set[str]:
    out = set()
    for line in report_text.splitlines():
        if line.startswith("discard\t"):
            out.add("discard:" + line.split("\t")[2])
        elif line.startswith("diag\tincomplete backward trace"):
            out.add("incomplete:" + line.rsplit(": ", 1)[1])
    return out


def base_digests(base: str) -> tuple[dict, set[str]]:
    """Digests of the call graph listing and, per config, of the analyze
    artifacts of ``base``'s mutants, and the reasons their reports give."""
    kept = mutants(base)
    hashes = {"callgraph.dump": hashlib.sha256()}
    hashes.update({f"{c}:{a}": hashlib.sha256() for c in CONFIGS for a in ARTIFACTS})
    reasons: set[str] = set()
    for n, p in kept:
        cg = build_direct_cg(p)
        recover_vcalls(p, cg)
        hashes["callgraph.dump"].update(f"{n}\0{dump(cg)}\0".encode("utf-8"))
        for cname, config in CONFIGS.items():
            db, report = filter_commands(p, cg, binary=p.name, config=config)
            text = report.to_text()
            reasons |= _reasons(text)
            for art, body in zip(ARTIFACTS, (save_db(db), save_db_json(db), text)):
                hashes[f"{cname}:{art}"].update(f"{n}\0{body}\0".encode("utf-8"))
    return {"kept": len(kept), **{k: h.hexdigest() for k, h in hashes.items()}}, reasons


def compute_golden() -> dict:
    out, reasons = {}, set()
    for base in _bases():
        out[base], r = base_digests(base)
        reasons |= r
    return {"bases": out, "reasons": sorted(reasons)}


def write_golden() -> int:
    golden = compute_golden()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return sum(b["kept"] for b in golden["bases"].values())


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current():
    return compute_golden()


def test_golden_covers_every_base(golden):
    assert sorted(golden["bases"]) == sorted(_bases())


@pytest.mark.parametrize("base", _bases())
def test_mutant_artifacts_match_golden_digest(base, golden, current):
    assert current["bases"][base] == golden["bases"][base]


def test_mutants_reach_the_pinned_reasons(golden, current):
    assert current["reasons"] == golden["reasons"]
