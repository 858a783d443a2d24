"""The fixture generators stay byte-identical: sha256 of every text that
``rilmine fixtures <kind>`` writes, of ``serialize(p)`` and ``m.to_json()``
for ``gen_fig5`` at every handler count and for ``gen_random`` seeds 0-199,
checked against the committed digests in ``tests/golden/fixtures.json``.

``gen_random`` builds every bench workload's input and the manifests the
tests and the oracle sweep check against, so a digest that moves changes
the ground truth. When that is intended, regenerate the file and say why
in the change:

    PYTHONPATH=src python3 tests/test_fixture_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from rilmine import cli
from rilmine.fixtures import gen_fig5, gen_random
from rilmine.ir import serialize

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fixtures.json")
DIFFPAIR_SEEDS = range(1, 5)  # seed 0 is the ``kind:diffpair`` case
FIG5_HANDLERS = range(9)
FIG5_SEEDS = (None, 1)
RANDOM_SEEDS = range(200)
SMALL_BUDGET_SEEDS = range(20)  # gen_random(max_functions=40) stops chains early


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_texts(kind: str, seed: int) -> dict[str, str]:
    """Digest of each file ``rilmine fixtures <kind> --seed <seed>`` writes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fixtures", kind, "--seed", str(seed), "--out", out]) == 0
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
                digests[name] = _sha(fh.read())
        return digests


def _pair(p, m) -> dict[str, str]:
    return {"ir": _sha(serialize(p)), "manifest": _sha(m.to_json())}


def _kind_cases() -> list[str]:
    return [f"kind:{k}" for k in cli.FIXTURE_KINDS] + [f"diffpair:{s}" for s in DIFFPAIR_SEEDS]


def _fig5_cases() -> list[str]:
    return [f"fig5:{n}:{s}" for s in FIG5_SEEDS for n in FIG5_HANDLERS]


def _random_cases() -> list[str]:
    return ([f"seed:{s}" for s in RANDOM_SEEDS]
            + [f"seed:{s}:40" for s in SMALL_BUDGET_SEEDS])


def _cases() -> list[str]:
    return _kind_cases() + _fig5_cases() + _random_cases()


def case_digests(case: str) -> dict[str, str]:
    family, *args = case.split(":")
    if family == "kind":
        return _cli_texts(args[0], 0)
    if family == "diffpair":
        return _cli_texts("diffpair", int(args[0]))
    if family == "fig5":
        n, seed = args
        return _pair(*gen_fig5(n_handlers=int(n), seed=None if seed == "None" else int(seed)))
    if len(args) == 2:
        return _pair(*gen_random(seed=int(args[0]), max_functions=int(args[1])))
    return _pair(*gen_random(seed=int(args[0])))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _moved(cases, golden) -> list[str]:
    return [c for c in cases if case_digests(c) != golden[c]]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", _kind_cases())
def test_cli_fixture_texts_match_golden(case, golden):
    assert case_digests(case) == golden[case]


def test_fig5_matches_golden(golden):
    assert _moved(_fig5_cases(), golden) == []


def test_random_programs_match_golden(golden):
    assert _moved(_random_cases(), golden) == []


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    digests = {case: case_digests(case) for case in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} cases to {GOLDEN}", file=sys.stderr)
