"""Attack discovery harness: probes, mutation fuzzing, sandbox escape."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rilmine.fixtures import gen_crash_suite, gen_mutation_target
from rilmine.harness import (
    INTERESTING_BYTES,
    SEVERITY,
    CampaignStats,
    Finding,
    campaign,
    merge,
    mutate,
    probe_command,
    probe_nv_escape,
)
from rilmine.sim import (
    BehaviorRow,
    IN_SERVICE,
    RSP_OK,
    RSP_UNKNOWN,
    SimConfig,
    SimWorld,
)
from rilmine.taint import LengthSource, PayloadBytes
from rilmine.commands import CommandDB, CommandRecord
from test_sim import _QueryStateWorld


def _world(rows, **kw):
    return SimWorld(SimConfig(rows=rows, **kw))


# ---------------------------------------------------------------------------
# Probe classification

def test_probe_classifies_every_crash_suite_command():
    db, cfg, expected = gen_crash_suite()
    for rec in db.records:
        world = SimWorld(cfg)
        report = probe_command(world, rec.payload.data)
        assert report.crash_class == expected[rec.root_function], rec.root_function
        assert world.query_state() == IN_SERVICE  # probe reflashes


def test_probe_counts_match_suite_composition():
    db, cfg, expected = gen_crash_suite()
    got = {}
    for rec in db.records:
        cls = probe_command(SimWorld(cfg), rec.payload.data).crash_class
        got[cls] = got.get(cls, 0) + 1
    assert got == {"temporary": 3, "recoverable": 1, "permanent": 3}


def test_probe_reports_benign_commands_as_none():
    world = _world([BehaviorRow((0x01,), False, "ok", ())])
    report = probe_command(world, bytes([0x09]))
    assert report.crash_class == "none"
    assert report.response.code == RSP_UNKNOWN
    assert report.states == (IN_SERVICE,)


def test_probe_window_is_twice_the_default_recovery():
    # expiry 10 > window 6: not seen recovering, but a reboot (6 more ticks)
    # outlasts the latch, so the probe calls it recoverable.
    world = _world([BehaviorRow((0x07,), False, "temporary_crash", (10,))],
                   default_recover_after=3, reboot_ticks=6)
    report = probe_command(world, bytes([0x07]))
    assert report.crash_class == "recoverable"
    # the same latch inside a window of 12
    world2 = _world([BehaviorRow((0x07,), False, "temporary_crash", (10,))],
                    default_recover_after=6, reboot_ticks=6)
    assert probe_command(world2, bytes([0x07])).crash_class == "temporary"


def test_probe_states_trace_the_decision_path():
    db, cfg, _ = gen_crash_suite()
    rec = next(r for r in db.records if r.root_function.endswith("IpcTxModemPowerOff"))
    report = probe_command(SimWorld(cfg), rec.payload.data)
    assert report.states[0] == "OUT_OF_SERVICE"
    assert report.states[-1] == IN_SERVICE  # the reboot that proved recoverable
    assert len(report.states) == 1 + 6 + 1


# ---------------------------------------------------------------------------
# Mutation operator

def _pb(mask, data=None):
    raw = bytes(data) if data else bytes(
        0 if m == "d" else 0x40 + i for i, m in enumerate(mask))
    return PayloadBytes(raw, mask, LengthSource("constant-arg", len(mask)))


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from("sd"), min_size=1, max_size=16).filter(lambda m: "d" in m))
def test_mutate_touches_only_dynamic_positions(seed, mask_list):
    mask = "".join(mask_list)
    pb = _pb(mask)
    rng = random.Random(seed)
    out = mutate(pb, rng)
    assert len(out) == len(pb.data)
    diff = [i for i in range(len(out)) if out[i] != pb.data[i]]
    assert all(mask[i] == "d" for i in diff)
    assert len(diff) <= 1  # one position per call


def test_mutate_requires_a_dynamic_byte():
    with pytest.raises(ValueError, match="no-mutable-bytes"):
        mutate(_pb("ssss"), random.Random(0))


def test_mutate_extends_a_chosen_parent():
    pb = _pb("sd")
    parent = bytes([pb.data[0], 0x33])
    out = mutate(pb, random.Random(7), current=parent)
    assert out[0] == pb.data[0]


# The findings golden depends on the order of mutate's draws (position,
# operator, operand), so six chained mutations per seed are pinned here.
_PINNED = PayloadBytes(bytes([0x07, 0, 0x10, 0, 0, 0x22]), "sdsdds",
                       LengthSource("constant-arg", 6))


@pytest.mark.parametrize("seed, chain", [
    (0, ["07 00 10 00 00 22", "07 00 10 f8 00 22", "07 00 10 f7 00 22",
         "07 00 10 f6 00 22", "07 00 10 f6 01 22", "07 00 10 f6 02 22"]),
    (1, ["07 20 10 00 00 22", "07 20 10 80 00 22", "07 20 10 80 00 22",
         "07 a0 10 80 00 22", "07 80 10 80 00 22", "07 80 10 80 80 22"]),
    (2, ["07 02 10 00 00 22", "07 02 10 01 00 22", "07 02 10 01 ff 22",
         "07 02 10 6c ff 22", "07 02 10 6c fb 22", "07 02 10 ff fb 22"]),
])
def test_mutate_draw_order_is_pinned(seed, chain):
    rng = random.Random(seed)
    cur = _PINNED.data
    got = []
    for _ in chain:
        cur = mutate(_PINNED, rng, current=cur)
        got.append(cur.hex(" "))
    assert got == chain


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300))
@example(0, 1)
@example(3, 5)
@example(4, 8)
@example(5, 256)
@example(6, 2 ** 33 + 1)
def test_below_draws_like_the_stdlib(seed, n):
    # _below is CPython's _randbelow_with_getrandbits: same integers, same
    # words consumed. If a Python release changes randrange or choice, this
    # test says so; the findings keep following _below.
    from rilmine.harness import _below
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _below(rng.getrandbits, n) == ref.randrange(n)
    seq = [object() for _ in range(min(n, 300))]
    for _ in range(3):
        assert seq[_below(rng.getrandbits, len(seq))] is ref.choice(seq)
    assert rng.getstate() == ref.getstate()


def _stdlib_step(corpus, positions, rng):
    """One campaign step drawn through the stdlib wrappers: the parent pick
    and the mutation as they read before the draws went through getrandbits
    directly."""
    data = bytearray(rng.choice(corpus))
    i = rng.choice(positions)
    op = rng.randrange(5)
    if op == 0:
        data[i] ^= 1 << rng.randrange(8)
    elif op == 1:
        data[i] = (data[i] + 1) & 0xFF
    elif op == 2:
        data[i] = (data[i] - 1) & 0xFF
    elif op == 3:
        data[i] = rng.choice(INTERESTING_BYTES)
    else:
        data[i] = rng.randrange(256)
    return bytes(data)


@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from("sd"), min_size=1, max_size=16).filter(lambda m: "d" in m),
       st.integers(1, 40))
def test_campaign_step_draws_like_mutate(seed, mask_list, steps):
    # the campaign's loop: resume one generator over a corpus that grows
    # between steps, drawing exactly the stdlib step's words each time
    from rilmine.harness import _dynamic_positions, _mutants
    pb = _pb("".join(mask_list))
    positions = _dynamic_positions(pb)
    fast, ref = random.Random(seed), random.Random(seed)
    corpus = [pb.data]
    gen = _mutants(corpus, positions, fast)
    for k in range(steps):
        mutant = next(gen)
        assert mutant == _stdlib_step(corpus, positions, ref)
        assert fast.getstate() == ref.getstate()
        if k % 3 == 0:
            corpus.append(mutant)


@pytest.mark.parametrize("size", [2, 8])
def test_mutate_rejects_a_current_of_the_wrong_length(size):
    # a ValueError, not an assert, so that python -O keeps the check
    with pytest.raises(ValueError, match=f"current is {size} bytes, the mask 4"):
        mutate(_pb("sdsd"), random.Random(0), current=bytes(size))


def test_interesting_bytes_are_frozen():
    assert INTERESTING_BYTES == (0x00, 0x01, 0x7F, 0x80, 0xFF)
    assert SEVERITY == {"none": 0, "temporary": 1, "recoverable": 2, "permanent": 3}


# ---------------------------------------------------------------------------
# Campaigns

def test_campaign_probe_findings_and_order():
    db, cfg, expected = gen_crash_suite()
    findings, stats = campaign(db, cfg, budget=0, seed=0)
    assert stats.probes == 7 and stats.mutation_execs == 0
    assert [f.source for f in findings] == ["probe"] * 7
    assert [f.execs for f in findings] == [1] * 7
    by_class = {}
    for f in findings:
        by_class[f.crash_type] = by_class.get(f.crash_type, 0) + 1
    assert by_class == {"temporary": 3, "recoverable": 1, "permanent": 3}
    sev = [SEVERITY[f.crash_type] for f in findings]
    assert sev == sorted(sev, reverse=True)
    for cls in ("permanent", "temporary"):
        roots = [f.root_function for f in findings if f.crash_type == cls]
        assert roots == sorted(roots)


def test_campaign_is_deterministic():
    db, cfg, _ = gen_mutation_target()
    a = campaign(db, cfg, budget=10_000, seed=1)
    b = campaign(db, cfg, budget=10_000, seed=1)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_merge_keeps_share_order_and_each_roots_first_crash():
    # two commands of one root, in different shares, both crash
    first = Finding("temporary", "r", b"\x01", "probe", 1)
    second = Finding("temporary", "r", b"\x02", "mutation", 6)
    worse = Finding("permanent", "s", b"\x03", "probe", 1)
    findings, stats = merge([([first], CampaignStats(2, 0, 0, {"r": 1})),
                             ([second, worse], CampaignStats(2, 5, 1, {"r": 6, "s": 1}))])
    assert findings == [worse, first, second]
    assert stats == CampaignStats(4, 5, 1, {"r": 1, "s": 1})
    assert list(stats.first_crash_execs) == ["r", "s"]


def test_campaign_mutation_finds_the_planted_byte():
    db, cfg, crash_payload = gen_mutation_target()
    findings, stats = campaign(db, cfg, budget=10_000, seed=1)
    assert len(findings) == 1
    f = findings[0]
    assert f.source == "mutation"
    assert f.crash_type == "recoverable"
    assert f.payload == crash_payload
    assert f.execs <= 10_000
    assert stats.first_crash_execs == {"IpcTxSimSetStatus": f.execs}


def test_campaign_budget_zero_skips_mutation():
    db, cfg, _ = gen_mutation_target()
    findings, stats = campaign(db, cfg, budget=0, seed=1)
    assert findings == []
    assert stats.probes == 1 and stats.mutation_execs == 0


def test_campaign_corpus_grows_on_novel_responses():
    pb = PayloadBytes(bytes([5, 0, 0]), "sdd", LengthSource("constant-arg", 3))
    db = CommandDB("novel")
    db.add(CommandRecord(
        binary="novel", direction="solicited", api="write",
        site="IpcTxStep@0:0", root_function="IpcTxStep", module="Step",
        payload=pb, channel_path="/dev/umts_ipc0"))
    cfg = SimConfig(rows=[
        BehaviorRow((5, 0xFF, 0x7F), False, "recoverable_crash", ()),
        BehaviorRow((5, 0xFF), True, "ok", (0x44,)),
        BehaviorRow((5,), True, "ok", ()),
    ])
    findings, stats = campaign(db, cfg, budget=5000, seed=0)
    # the crash needs byte1==0xff and byte2==0x7f; one mutation changes one
    # byte, so a corpus entry with the distinct 0x44 response must come first
    assert [f.crash_type for f in findings] == ["recoverable"]
    assert findings[0].payload == bytes([5, 0xFF, 0x7F])
    assert stats.corpus_adds >= 1


def test_campaign_crash_does_not_leak_into_the_next_command():
    db, cfg, crash_payload = gen_mutation_target()
    cfg.rows[0] = BehaviorRow(tuple(crash_payload), False, "permanent_crash")
    pb = PayloadBytes(bytes([1, 2, 3]), "sss", LengthSource("constant-arg", 3))
    db.add(CommandRecord(
        binary="mutsuite", direction="solicited", api="write",
        site="IpcTxZzBenign@0:0", root_function="IpcTxZzBenign", module="Zz",
        payload=pb, channel_path="/dev/umts_ipc0"))
    findings, stats = campaign(db, cfg, budget=10_000, seed=1)
    assert [(f.root_function, f.crash_type, f.source) for f in findings] == [
        ("IpcTxSimSetStatus", "permanent", "mutation")]
    assert stats.probes == 2


def _reference_classify(world):
    for _ in range(2 * world.config.default_recover_after):
        world.advance(1)
        if world.query_state() == IN_SERVICE:
            return "temporary"
    world.reboot()
    return "recoverable" if world.query_state() == IN_SERVICE else "permanent"


def _reference_campaign(db, config, budget, seed):
    """campaign as a plain loop: stdlib draws (_stdlib_step), a reference
    world that scans BehaviorRow.matches in table order, and a fresh world
    for each command."""
    from rilmine.harness import _record_rng
    findings, stats = [], CampaignStats()
    for rec in db.sorted_records():
        if rec.direction != "solicited":
            continue
        rng, world = _record_rng(seed, rec), _QueryStateWorld(config)
        rsp = world.inject(rec.payload.data)
        stats.probes += 1
        if rsp.state != IN_SERVICE:
            findings.append(Finding(_reference_classify(world), rec.root_function,
                                    rec.payload.data, "probe", 1))
            stats.first_crash_execs.setdefault(rec.root_function, 1)
            continue
        world.reflash()
        positions = [i for i, m in enumerate(rec.payload.mask) if m == "d"]
        corpus, seen = [rec.payload.data], {(rsp.code, rsp.state)}
        for execs in range(2, budget + 2 if positions else 2):
            mutant = _stdlib_step(corpus, positions, rng)
            rsp = world.inject(mutant)
            stats.mutation_execs += 1
            if rsp.state != IN_SERVICE:
                findings.append(Finding(_reference_classify(world), rec.root_function,
                                        mutant, "mutation", execs))
                stats.first_crash_execs.setdefault(rec.root_function, execs)
                break
            if (rsp.code, rsp.state) not in seen:
                seen.add((rsp.code, rsp.state))
                corpus.append(mutant)
                stats.corpus_adds += 1
    findings.sort(key=lambda f: (-SEVERITY[f.crash_type], f.root_function))
    return findings, stats


# bytes that the interesting-byte, inc/dec and bit-flip operators reach from
# one another, so that rows one mutation away from a payload get hit
_NEAR = (0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF)


@st.composite
def _fuzz_cases(draw):
    """A database of 1-3 commands, 1-3 bytes each, and rows made from their
    payloads with one byte changed: ok rows with distinct reply codes (so
    the corpus grows) and crash rows that only a mutation reaches."""
    db, payloads = CommandDB("ref"), []
    for c in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        mask = "".join(draw(st.lists(st.sampled_from("sd"), min_size=size, max_size=size)))
        data = bytes(0 if m == "d" else draw(st.sampled_from(_NEAR)) for m in mask)
        db.add(CommandRecord(
            binary="ref", direction="solicited", api="write", site=f"IpcTxC{c}@0:0",
            root_function=f"IpcTxC{c}", module="C",
            payload=PayloadBytes(data, mask, LengthSource("constant-arg", size)),
            channel_path="/dev/umts_ipc0"))
        payloads.append(data)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        matcher = list(draw(st.sampled_from(payloads)))
        i = draw(st.integers(0, len(matcher) - 1))
        matcher[i] = draw(st.sampled_from(_NEAR))
        if draw(st.integers(0, 3)) == 0:
            matcher[draw(st.integers(0, len(matcher) - 1))] = None
        prefix = draw(st.booleans())
        if prefix:
            matcher = matcher[:draw(st.integers(1, len(matcher)))]
        effect = draw(st.sampled_from(["ok", "ok", "temporary_crash",
                                       "recoverable_crash", "permanent_crash"]))
        args = ()
        if effect == "ok":
            args = (draw(st.integers(0x40, 0x45)),)
        elif effect == "temporary_crash":
            args = (draw(st.integers(1, 12)),)
        rows.append(BehaviorRow(tuple(matcher), prefix, effect, args))
    config = SimConfig(rows=rows, default_recover_after=draw(st.integers(1, 3)),
                       reboot_ticks=draw(st.integers(0, 6)))
    return db, config, draw(st.integers(0, 40)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(_fuzz_cases())
def test_campaign_agrees_with_a_stdlib_reference_loop(case):
    db, config, budget, seed = case
    findings, stats = campaign(db, config, budget=budget, seed=seed)
    ref_findings, ref_stats = _reference_campaign(db, config, budget, seed)
    assert findings == ref_findings
    assert stats == ref_stats
    assert list(stats.first_crash_execs) == list(ref_stats.first_crash_execs)


def test_record_rng_is_sub_seeded_per_command():
    from rilmine.harness import _record_rng
    db, _, _ = gen_mutation_target()
    rec = db.records[0]
    assert _record_rng(1, rec).getrandbits(64) == _record_rng(1, rec).getrandbits(64)
    assert _record_rng(1, rec).getrandbits(64) != _record_rng(2, rec).getrandbits(64)


# ---------------------------------------------------------------------------
# Nv escape probe

def test_nv_escape_probe_on_default_config(tmp_path):
    cfg = SimConfig(sandbox_root=str(tmp_path / "nv"))
    rep = probe_nv_escape(cfg, str(tmp_path / "outside"))
    assert rep.escaped is True
    assert rep.write_status == "ok"
    assert rep.dotdot_status == "rejected"
    assert rep.leak_path and rep.leak_path.endswith("leak")
    with open(rep.leak_path, "rb") as fh:
        assert fh.read() == b"pwned"


def test_nv_escape_probe_on_hardened_config(tmp_path):
    cfg = SimConfig(sandbox_root=str(tmp_path / "nv"), symlink_check=True)
    rep = probe_nv_escape(cfg, str(tmp_path / "outside"))
    assert rep.escaped is False
    assert rep.write_status == "rejected"
    assert rep.dotdot_status == "rejected"
    assert rep.leak_path is None
