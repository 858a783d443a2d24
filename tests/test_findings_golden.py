"""``sim`` findings stay byte-identical: sha256 of the findings file that
``rilmine sim`` writes, plus the campaign counters, per suite and
``(budget, seed)`` pair, checked against ``tests/golden/findings.json``.

The suites are the bundled ``crashsuite`` and ``mutsuite`` and a 200-row
table built here over commands mined from ``gen_random`` programs. That
table mixes exact, ``..`` and prefix rows, repeats matchers with different
effects, and puts prefix rows ahead of exact rows they shadow, so a
first-match lookup that picks any other row moves a digest.

A change that moves any digest changes what ``sim`` reports. When that is
intended, regenerate the file and say why in the change:

    PYTHONPATH=src python3 tests/test_findings_golden.py
"""

import dataclasses
import hashlib
import json
import os
import random
import sys
import tempfile

import pytest

from rilmine import cli
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.channel import filter_commands
from rilmine.commands import CommandDB, save_db
from rilmine.fixtures import gen_crash_suite, gen_mutation_target, gen_random
from rilmine.harness import INTERESTING_BYTES, SEVERITY, CampaignStats, campaign
from rilmine.sim import BehaviorRow, SimConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "findings.json")
MINED_SEEDS = range(12)
MINED_ROWS = 200
RUNS = {
    "crashsuite": [(0, 0), (200, 3), (1000, 7)],
    "mutsuite": [(0, 0), (50, 1), (1000, 7), (1000, 11)],
    "mined200": [(0, 0), (300, 5), (2000, 7)],
}
_CRASHES = ("temporary_crash", "recoverable_crash", "permanent_crash")


def _row(matcher, effect, rng, prefix=False) -> BehaviorRow:
    args = ()
    if effect == "temporary_crash":
        args = (rng.randint(1, 4),)
    elif effect == "ok" and rng.random() < 0.5:
        args = (rng.randrange(256),)
    return BehaviorRow(tuple(matcher), prefix, effect, args)


def mined_suite() -> tuple[CommandDB, SimConfig]:
    """Commands mined from ``gen_random`` seeds 0-11 and a 200-row table.

    Per solicited command, in database order, one of: an exact row; a
    ``..`` row over its dynamic bytes with one pinned to an interesting
    byte (a crash only mutation reaches); the same matcher twice with
    different effects; a prefix row over its first bytes ahead of an exact
    crash row that never fires. Random exact, ``..`` and prefix rows of
    1-12 bytes are spliced in between, keeping the order of the rows above.
    """
    db = CommandDB("mined", provenance="fixture")
    for seed in MINED_SEEDS:
        p, _ = gen_random(seed=seed)
        cg = build_direct_cg(p)
        recover_vcalls(p, cg)
        part, _ = filter_commands(p, cg, binary=p.name)
        for rec in part.records:
            db.add(rec)
    rng = random.Random(2024)
    rows: list = []
    for rec in db.sorted_records():
        if rec.direction != "solicited":
            continue
        data, mask = rec.payload.data, rec.payload.mask
        dyn = [i for i, m in enumerate(mask) if m == "d"]
        shape = rng.randrange(4)
        if dyn and shape == 1:
            m = [None if i in dyn else b for i, b in enumerate(data)]
            m[rng.choice(dyn)] = rng.choice(INTERESTING_BYTES[1:])
            rows.append(_row(m, rng.choice(_CRASHES), rng))
            m = [None if i in dyn else b for i, b in enumerate(data)]
            rows.append(_row(m, "ok", rng))
        elif shape == 2:
            effect = rng.choice(("ok",) + _CRASHES)
            rows.append(_row(data, effect, rng))
            rows.append(_row(data, rng.choice([e for e in ("ok",) + _CRASHES if e != effect]), rng))
        elif shape == 3:
            rows.append(_row(data[:rng.randint(1, len(data))], "ok", rng, prefix=True))
            rows.append(_row(data, "permanent_crash", rng))
        else:
            rows.append(_row(data, rng.choice(("ok", "ok") + _CRASHES), rng))
    while len(rows) < MINED_ROWS:
        n = rng.randint(1, 12)
        m = [rng.randrange(256) for _ in range(n)]
        kind = rng.randrange(3)
        if kind == 1:
            for i in rng.sample(range(n), rng.randint(1, n)):
                m[i] = None
        effect = rng.choice(("ok", "ok") + _CRASHES)
        # a short random prefix row would shadow most of the table
        rows.insert(rng.randrange(len(rows) + 1),
                    _row(m, effect, rng, prefix=(kind == 2 and n >= 3)))
    return db, SimConfig(rows=rows)


def suite(name: str) -> tuple[CommandDB, SimConfig]:
    if name == "crashsuite":
        db, cfg, _ = gen_crash_suite()
    elif name == "mutsuite":
        db, cfg, _ = gen_mutation_target()
    else:
        db, cfg = mined_suite()
    return db, cfg


def _cases() -> list[str]:
    return [f"{name}:{budget}:{seed}" for name, runs in RUNS.items() for budget, seed in runs]


def case_result(case: str, suites: dict) -> dict:
    """Digest of the findings file written by ``rilmine sim``, and the
    campaign's counters for the same run."""
    name, budget, seed = case.split(":")
    db, cfg = suites[name]
    with tempfile.TemporaryDirectory() as out:
        db_path = os.path.join(out, "db.cmdb.tsv")
        cfg_path = os.path.join(out, "sim.txt")
        findings_path = os.path.join(out, "findings.tsv")
        with open(db_path, "w", encoding="utf-8") as fh:
            fh.write(save_db(db))
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(cfg.to_text())
        assert cli.main(["sim", "--db", db_path, "--sim-config", cfg_path, "--budget", budget,
                         "--seed", seed, "--out", findings_path]) == 0
        with open(findings_path, "rb") as fh:
            text = fh.read()
    _, stats = campaign(db, cfg, budget=int(budget), seed=int(seed))
    return {"findings": hashlib.sha256(text).hexdigest(), "stats": dataclasses.asdict(stats)}


@pytest.fixture(scope="module")
def suites():
    return {name: suite(name) for name in RUNS}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


def test_mined_table_has_every_row_shape(suites):
    _, cfg = suites["mined200"]
    rows = cfg.rows
    assert len(rows) == MINED_ROWS
    assert any(not r.prefix and None not in r.matcher for r in rows)
    assert any(not r.prefix and None in r.matcher for r in rows)
    assert any(r.prefix for r in rows)
    seen = {}
    for r in rows:
        seen.setdefault((r.matcher, r.prefix), set()).add((r.effect, r.args))
    assert any(len(effects) > 1 for effects in seen.values())
    assert any(p.prefix and not r.prefix and p.matches(bytes(r.matcher))
               for i, p in enumerate(rows) for r in rows[i + 1:] if None not in r.matcher)


@pytest.mark.parametrize("case", _cases())
def test_findings_match_golden_digest(case, suites, golden):
    assert case_result(case, suites) == golden[case]


@pytest.mark.parametrize("case", _cases())
def test_one_world_per_campaign_equals_one_per_command(case, suites):
    """``campaign`` reuses one reflashed world; running it on each command
    alone, with a world of its own, and merging gives the same result."""
    name, budget, seed = case.split(":")
    db, cfg = suites[name]
    findings, stats = [], CampaignStats()
    for rec in db.sorted_records():
        part, part_stats = campaign(CommandDB(db.binary, records=[rec]), cfg,
                                    budget=int(budget), seed=int(seed))
        findings += part
        stats.probes += part_stats.probes
        stats.mutation_execs += part_stats.mutation_execs
        stats.corpus_adds += part_stats.corpus_adds
        for root, execs in part_stats.first_crash_execs.items():
            stats.first_crash_execs.setdefault(root, execs)
    findings.sort(key=lambda f: (-SEVERITY[f.crash_type], f.root_function))
    assert campaign(db, cfg, budget=int(budget), seed=int(seed)) == (findings, stats)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    built = {name: suite(name) for name in RUNS}
    results = {case: case_result(case, built) for case in _cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} cases to {GOLDEN}", file=sys.stderr)
