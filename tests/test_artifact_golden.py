"""Artifacts stay byte-identical: sha256 of every analyze output and of the
call graph listing, per IR fixture kind and per ``gen_random`` seed, checked
against the committed digests in ``tests/golden/artifacts.json``.

A change that moves any digest changes what ``analyze`` writes. When that is
intended, regenerate the file, and ``mutants.json`` of
``test_mutant_golden.py`` with it, and say why in the change:

    PYTHONPATH=src python3 tests/test_artifact_golden.py
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from rilmine import cli
from rilmine.callgraph import build_direct_cg, dump, recover_vcalls
from rilmine.channel import filter_commands
from rilmine.commands import save_db, save_db_json
from rilmine.fixtures import gen_random
from rilmine.ir import load_program, serialize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "artifacts.json")
RANDOM_SEEDS = range(30)
IR_KINDS = [k for k in cli.FIXTURE_KINDS if k not in ("crashsuite", "mutsuite", "diffpair")]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def artifact_digests(text: str, binary: str) -> dict[str, str]:
    """What ``analyze`` writes for one IR text, plus ``callgraph.dump``."""
    return program_digests(load_program(text), binary)


def program_digests(p, binary: str) -> dict[str, str]:
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    db, report = filter_commands(p, cg, binary=binary)
    return {
        "cmdb.tsv": _sha(save_db(db)),
        "cmdb.json": _sha(save_db_json(db)),
        "report.txt": _sha(report.to_text()),
        "callgraph.dump": _sha(dump(cg)),
    }


def _fixture_ir(kind: str, out: str) -> tuple[str, str]:
    """IR text and binary name, as ``rilmine fixtures <kind>`` writes them."""
    assert cli.main(["fixtures", kind, "--out", out]) == 0
    (name,) = [n for n in os.listdir(out) if n.endswith(".ir.json")]
    with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
        return fh.read(), cli._binary_name(name)


def _random_ir(seed: int) -> tuple[str, str]:
    p, _ = gen_random(seed=seed)
    return serialize(p), p.name


def _cases() -> list[str]:
    return [f"fixture:{k}" for k in IR_KINDS] + [f"seed:{s}" for s in RANDOM_SEEDS]


def case_digests(case: str) -> dict[str, str]:
    kind, _, arg = case.partition(":")
    if kind == "seed":
        return artifact_digests(*_random_ir(int(arg)))
    with tempfile.TemporaryDirectory() as out:
        return artifact_digests(*_fixture_ir(arg, out))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_artifacts_match_golden_digest(case, golden):
    assert case_digests(case) == golden[case]


@pytest.mark.parametrize("seed", range(20))
def test_generated_program_analyzes_as_its_round_trip(seed):
    # the generator hands out programs whose indexes match their blocks
    p, _ = gen_random(seed=seed)
    assert program_digests(p, p.name) == artifact_digests(serialize(p), p.name)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    digests = {case: case_digests(case) for case in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
    import test_mutant_golden
    kept = test_mutant_golden.write_golden()
    print(f"wrote {kept} mutants to {test_mutant_golden.GOLDEN}", file=sys.stderr)
