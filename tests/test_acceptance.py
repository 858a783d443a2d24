"""Acceptance suite: ten end-to-end criteria over the whole toolkit.

Each test is one criterion; the conftest terminal summary prints a
``[criterion N] PASS|FAIL`` line per test. Criteria with runtime bounds
measure wall time and fail on overrun.
"""

import random
import time

from rilmine import oracle
from rilmine.cli import main as cli_main
from rilmine.commands import (
    CommandDB,
    CommandRecord,
    classify_module,
    diff,
    infer_group_byte,
)
from rilmine.fixtures import (
    CRASH_SUITE,
    db_signatures,
    gen_crash_suite,
    gen_diff_pair,
    gen_fig2,
    gen_fig5,
    gen_fig6,
    gen_hybrid,
    gen_mutation_target,
    gen_random,
)
from rilmine.harness import campaign, probe_command, probe_nv_escape
from rilmine.sim import SimConfig, SimWorld
from rilmine.taint import LengthSource, PayloadBytes, payload_hex


def test_criterion_01_solicited_chain_exact(run_pipeline):
    t0 = time.monotonic()
    p, m = gen_fig2()
    cg, db, report = run_pipeline(p)
    elapsed = time.monotonic() - t0

    assert {(e.caller, e.callee) for e in cg.virtual_edges()} == {
        ("IpcTxCallGetCallList", "IpcModem::SendMessage"),
        ("IpcModem::DoIoChannelRoutingTx", "IoChannel::Write"),
    }
    assert len(db.records) == 1
    rec = db.records[0]
    assert rec.direction == "solicited"
    assert rec.root_function == "IpcTxCallGetCallList"
    assert payload_hex(rec.payload) == "07 00 00 00 02 01 02"
    assert rec.channel_path == "/dev/umts_ipc0"
    assert db_signatures(db) == m.command_signatures()
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_dispatch_table_exact(run_pipeline):
    t0 = time.monotonic()
    p, m = gen_fig5(n_handlers=3)
    _, db, _ = run_pipeline(p)
    elapsed = time.monotonic() - t0

    got = {(r.constant, r.handler) for r in db.records}
    assert got == {(0x11, "Nv::ProcessOpenFile"), (0x12, "Nv::ProcessNvRead"),
                   (0x13, "Nv::ProcessNvWrite")}
    assert all(r.direction == "unsolicited" for r in db.records)
    assert all(r.root_function == "Nv::ProcessRfsPacket" for r in db.records)
    assert db_signatures(db) == m.command_signatures()
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_03_channel_filter_discards(run_pipeline):
    p_efs, _ = gen_fig6("efs")
    _, db_efs, rep_efs = run_pipeline(p_efs)
    assert db_efs.records == []
    assert rep_efs.discards == [
        ("StoreStringToFile@0:0", "non-dev-path", "/efs/imei/selective")]
    assert rep_efs.backward_runs == 0

    p_pipe, _ = gen_fig6("pipe")
    _, db_pipe, rep_pipe = run_pipeline(p_pipe)
    assert db_pipe.records == []
    assert rep_pipe.discards == [("StoreStringToFile@0:0", "pipe", None)]
    assert rep_pipe.backward_runs == 0


def test_criterion_04_random_vs_reference(run_pipeline):
    t0 = time.monotonic()
    for seed in range(100):
        p, m = gen_random(seed=seed, max_functions=200)
        assert len(p.functions) <= 200
        cg, db, report = run_pipeline(p)
        res = oracle.analyze(p)

        want = m.command_signatures()
        assert db_signatures(db) == want, f"pipeline != manifest at seed {seed}"
        assert res.commands == want, f"reference != manifest at seed {seed}"
        edges = m.edge_set()
        assert {(e.caller, e.callee) for e in cg.virtual_edges()} == edges, seed
        assert res.virtual_edges == edges, seed
        want_disc = {(d["site"], d["reason"], d["path"]) for d in m.discards}
        assert set(report.discards) == want_disc, seed
        assert res.discards == want_disc, seed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_05_hybrid_payload_shapes(run_pipeline):
    p, _ = gen_hybrid("direct")
    _, db, _ = run_pipeline(p)
    (rec,) = db.records
    assert len(rec.payload.data) == 8
    assert rec.payload.mask == "sssssssd"  # exactly one dynamic byte, index 7
    assert rec.kind == "hybrid"

    p2, _ = gen_hybrid("derived")
    _, db2, _ = run_pipeline(p2)
    (rec2,) = db2.records
    assert rec2.payload.length_source == LengthSource("strlen-bounded", 255)
    assert str(rec2.payload.length_source) == "strlen-bounded(255)"


def test_criterion_06_module_grouping():
    want_modules = ["Power", "Sap", "Imei", "Power", "Net", "Domestic", "Domestic"]
    assert [classify_module(root) for root, _, _, _ in CRASH_SUITE] == want_modules

    db, _, _ = gen_crash_suite()
    rep = infer_group_byte(db)
    assert rep.position == 4
    assert rep.groups == {"Power": 0x01, "Sap": 0x12, "Imei": 0x10,
                          "Net": 0x08, "Domestic": 0x20}


def test_criterion_07_database_diff():
    rng = random.Random(0)

    def mk(name, vals):
        db = CommandDB(name)
        for v in vals:
            pb = PayloadBytes(bytes([v & 0xFF, v >> 8]), "ss",
                              LengthSource("constant-arg", 2))
            db.add(CommandRecord(
                binary=name, direction="solicited", api="write",
                site=f"IpcTxCmd{v}@0:0", root_function=f"IpcTxCmd{v}",
                module="Cmd", payload=pb, channel_path="/dev/x"))
        return db

    for _ in range(1000):
        base_vals = set(rng.sample(range(300), rng.randint(0, 40)))
        cur_vals = set(rng.sample(range(300), rng.randint(0, 40)))
        base, cur = mk("base", base_vals), mk("cur", cur_vals)
        d = diff(base, cur)
        assert d.base_unique == base.keys() - cur.keys()
        assert d.cur_unique == cur.keys() - base.keys()
        assert d.counts("solicited") == (
            len(base_vals - cur_vals), len(cur_vals - base_vals))
        assert diff(base, base).empty and diff(cur, cur).empty

    base, cur = gen_diff_pair(seed=0)
    assert (len(base.records), len(cur.records)) == (478, 427)
    assert diff(base, cur).counts("solicited") == (63, 12)


def test_criterion_08_crash_probe_and_mutation():
    db, cfg, expected = gen_crash_suite()
    got = {}
    for rec in db.records:
        cls = probe_command(SimWorld(cfg), rec.payload.data).crash_class
        assert cls == expected[rec.root_function], rec.root_function
        got[cls] = got.get(cls, 0) + 1
    assert got == {"temporary": 3, "recoverable": 1, "permanent": 3}

    mdb, mcfg, crash_payload = gen_mutation_target()
    findings, _ = campaign(mdb, mcfg, budget=10_000, seed=1)
    assert len(findings) == 1
    f = findings[0]
    assert f.payload == crash_payload
    assert f.source == "mutation"
    assert f.execs <= 10_000
    again, _ = campaign(mdb, mcfg, budget=10_000, seed=1)
    assert again == findings  # deterministic replay


def test_criterion_09_nv_sandbox_escape(tmp_path):
    vuln = SimConfig(sandbox_root=str(tmp_path / "nv"))  # symlink_check off
    rep = probe_nv_escape(vuln, str(tmp_path / "outside"))
    assert rep.escaped is True
    assert rep.dotdot_status == "rejected"
    assert rep.write_status == "ok"

    hard = SimConfig(sandbox_root=str(tmp_path / "nv2"), symlink_check=True)
    rep2 = probe_nv_escape(hard, str(tmp_path / "outside2"))
    assert rep2.escaped is False
    assert rep2.write_status == "rejected"
    assert rep2.dotdot_status == "rejected"


def test_criterion_10_batch_determinism(tmp_path, capsys):
    irs = []
    for seed in (0, 1, 2):
        d = tmp_path / f"src{seed}"
        d.mkdir()
        assert cli_main(["fixtures", "rand", "--seed", str(seed),
                         "--out", str(d)]) == 0
        irs.append(str(next(d.glob("*.ir.json"))))
    capsys.readouterr()

    snapshots = []
    for label, batch in (("forward", irs), ("reversed", irs[::-1])):
        out_dir = tmp_path / label
        assert cli_main(["analyze", *batch, "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        snapshots.append((stdout, files))
    assert snapshots[0] == snapshots[1]
    assert len(snapshots[0][1]) == 9
