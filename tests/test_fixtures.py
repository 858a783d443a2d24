"""Ground-truth fixture generators: determinism and manifest accuracy.

Every generated program ships a manifest of expected analysis results.
These tests hold the pipeline and the independent reference implementation
to that manifest, three ways: manifest == pipeline == reference.
"""

import random
import re

import pytest

from rilmine import oracle
from rilmine.fixtures import (
    _NOUN_POOL,
    _RAND_FIXED_FUNCTIONS,
    _VERB_POOL,
    CRASH_SUITE,
    _fresh_name,
    Manifest,
    db_signatures,
    gen_crash_suite,
    gen_diff_pair,
    gen_fig2,
    gen_fig4,
    gen_fig5,
    gen_fig6,
    gen_hybrid,
    gen_mutation_target,
    gen_random,
)
from rilmine.harness import probe_nv_escape
from rilmine.ir import load_program, serialize
from rilmine.sim import SimConfig, SimWorld

NAMED_FIXTURES = {
    "fig2": gen_fig2,
    "fig4": gen_fig4,
    "fig4sub": lambda: gen_fig4(with_subclass=True),
    "fig5": gen_fig5,
    "fig5seeded": lambda: gen_fig5(n_handlers=5, seed=11),
    "fig6efs": lambda: gen_fig6("efs"),
    "fig6pipe": lambda: gen_fig6("pipe"),
    "fig6dev": lambda: gen_fig6("dev"),
    "hybrid-direct": lambda: gen_hybrid("direct"),
    "hybrid-derived": lambda: gen_hybrid("derived"),
    "hybrid-structured": lambda: gen_hybrid("structured"),
}


def _assert_three_way(p, m, run_pipeline):
    cg, db, report = run_pipeline(p)
    want_discards = {(d["site"], d["reason"], d["path"]) for d in m.discards}
    want_unresolved = {(u["site"], u["reason"]) for u in m.unresolved}

    assert db_signatures(db) == m.command_signatures()
    assert {(e.caller, e.callee) for e in cg.virtual_edges()} == m.edge_set()
    assert {(s.site_str, s.reason) for s in cg.unresolved} == want_unresolved
    assert set(report.discards) == want_discards

    res = oracle.analyze(p)
    assert res.commands == m.command_signatures()
    assert res.virtual_edges == m.edge_set()
    assert res.unresolved == want_unresolved
    assert res.discards == want_discards


# ---------------------------------------------------------------------------
# Determinism

def test_same_seed_reproduces_program_and_manifest():
    p1, m1 = gen_random(seed=5)
    p2, m2 = gen_random(seed=5)
    assert serialize(p1) == serialize(p2)
    assert m1.to_json() == m2.to_json()


def test_distinct_seeds_vary():
    p1, _ = gen_random(seed=1)
    p2, _ = gen_random(seed=2)
    assert serialize(p1) != serialize(p2)


def test_seeded_dispatcher_fixture_is_deterministic():
    a = gen_fig5(n_handlers=4, seed=9)
    b = gen_fig5(n_handlers=4, seed=9)
    assert serialize(a[0]) == serialize(b[0])
    assert len(a[1].commands) == 4


def test_manifest_json_round_trip():
    _, m = gen_random(seed=7)
    again = Manifest.from_json(m.to_json())
    assert again.command_signatures() == m.command_signatures()
    assert again.edge_set() == m.edge_set()
    assert again.discards == m.discards
    assert again.to_json() == m.to_json()
    assert again == m
    text = m.to_json()  # compact: read only by programs
    assert "\n" not in text and ", " not in text and '": ' not in text


def test_fresh_name_raises_once_a_class_has_every_name():
    rng, used = random.Random(3), {}
    names = {_fresh_name(rng, used, "IpcProtocol41Sms", "Sms") for _ in range(48)}
    assert len(names) == 48 == len(_VERB_POOL) * len(_NOUN_POOL)
    state = rng.getstate()
    with pytest.raises(ValueError, match="class IpcProtocol41Sms: all 48"):
        _fresh_name(rng, used, "IpcProtocol41Sms", "Sms")
    assert rng.getstate() == state  # the check drew nothing
    # another class still has all of its names
    assert _fresh_name(rng, used, "IpcProtocol41Net", "Net").startswith("IpcTxNet")


def test_random_programs_keep_every_budget_from_the_fixed_part_up():
    for budget in (0, 5, _RAND_FIXED_FUNCTIONS - 1):
        with pytest.raises(ValueError, match=re.escape(
                f"needs max_functions >= {_RAND_FIXED_FUNCTIONS}, not {budget}")):
            gen_random(seed=0, max_functions=budget)
    for budget in range(_RAND_FIXED_FUNCTIONS, 61):
        for seed in range(200):
            p, _ = gen_random(seed=seed, max_functions=budget)
            assert len(p.functions) <= budget, (seed, budget)


@pytest.mark.parametrize("call,bad", [
    (lambda: gen_hybrid("typo"), "'typo'"),
    (lambda: gen_fig6("bogus"), "'bogus'"),
    (lambda: gen_fig5(n_handlers=9), "not 9"),
    (lambda: gen_fig5(n_handlers=-1), "not -1"),
    (lambda: probe_nv_escape(SimConfig(), "unused"), "sandbox_root, not None"),
], ids=["hybrid-kind", "fig6-variant", "fig5-too-many", "fig5-negative", "nv-no-sandbox"])
def test_bad_arguments_raise_value_error_naming_them(call, bad):
    # a ValueError, not an assert that python -O strips
    with pytest.raises(ValueError, match=re.escape(bad)):
        call()


def test_generated_programs_survive_serialization():
    p, _ = gen_random(seed=4)
    assert serialize(load_program(serialize(p))) == serialize(p)


# ---------------------------------------------------------------------------
# Manifest == pipeline == reference

@pytest.mark.parametrize("name", sorted(NAMED_FIXTURES))
def test_named_fixture_manifest_holds(name, run_pipeline):
    p, m = NAMED_FIXTURES[name]()
    _assert_three_way(p, m, run_pipeline)


@pytest.mark.parametrize("seed", range(0, 20))
def test_random_program_manifest_holds(seed, run_pipeline):
    p, m = gen_random(seed=seed)
    _assert_three_way(p, m, run_pipeline)


def test_random_programs_exercise_both_directions():
    sol = uns = edges = 0
    for seed in range(12):
        _, m = gen_random(seed=seed)
        sigs = m.command_signatures()
        sol += sum(1 for s in sigs if s[0] == "solicited")
        uns += sum(1 for s in sigs if s[0] == "unsolicited")
        edges += len(m.virtual_edges)
    assert sol > 10 and uns > 10 and edges > 5


# ---------------------------------------------------------------------------
# Behavior-suite fixtures

def test_crash_suite_covers_all_three_crash_classes():
    db, cfg, expected = gen_crash_suite()
    assert len(db.records) == 7
    assert sorted(expected.values()).count("temporary") == 3
    assert sorted(expected.values()).count("recoverable") == 1
    assert sorted(expected.values()).count("permanent") == 3
    assert {r.root_function for r in db.records} == set(expected)
    assert len(cfg.rows) == 7


def test_crash_suite_rows_match_their_payload_prefixes():
    db, cfg, _ = gen_crash_suite()
    for rec, row in zip(db.records, cfg.rows):
        assert row.matches(bytes(rec.payload.data))
        assert row.prefix == (not rec.payload.is_static)
    world = SimWorld(cfg)
    assert world.inject(bytes(CRASH_SUITE[0][2])).state == "OUT_OF_SERVICE"


def test_mutation_target_plants_a_one_byte_needle():
    db, cfg, crash_payload = gen_mutation_target()
    (rec,) = db.records
    assert rec.payload.mask == "s" * 7 + "d"
    assert crash_payload == bytes(rec.payload.data[:7]) + b"\xff"
    world = SimWorld(cfg)
    assert world.inject(bytes(rec.payload.data)).code is not None  # benign as mined
    assert world.inject(crash_payload).state == "OUT_OF_SERVICE"


def test_diff_pair_shares_index_derived_payloads():
    base, cur = gen_diff_pair(seed=3, base_total=40, removed=6, added=2)
    assert len(base.records) == 40
    assert len(cur.records) == 36
    shared = base.keys() & cur.keys()
    assert len(shared) == 34
