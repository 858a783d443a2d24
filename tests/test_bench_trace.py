"""The bench's tracing contract: ``bench/spans.py`` wraps the functions the
CLI and the channel filter call by their module globals, and reads result
fields by name. A rename or a field that moves breaks traced bench runs,
which no other test would notice."""

import importlib.util
import os
import sys

from rilmine import cli

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_bench_hook_records_its_span_and_counters(tmp_path, capsys, monkeypatch):
    spans = _load_spans(monkeypatch)
    for kind in ("fig2", "fig5", "crashsuite"):
        assert cli.main(["fixtures", kind, "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in spans.HOOKS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = {}
        steps = (
            ("fig2", ["analyze", str(tmp_path / "fig2.ir.json"), "--out", str(out)]),
            ("fig5", ["analyze", str(tmp_path / "fig5.ir.json"), "--out", str(out)]),
            ("diff", ["diff", str(out / "fig2.cmdb.tsv"), str(out / "fig5.cmdb.tsv")]),
            ("sim", ["sim", "--db", str(tmp_path / "crashsuite.cmdb.tsv"),
                     "--sim-config", str(tmp_path / "crashsuite.sim.txt"), "--budget", "0"]),
        )
        for label, argv in steps:
            with tracer.operation(label) as op:
                assert cli.main(argv) == 0, label
            ops[label] = op
    finally:
        tracer.remove()
    capsys.readouterr()

    recorded = {name for name, *_ in tracer.spans}
    assert {name for _, _, name, _ in spans.HOOKS} <= recorded
    fig2 = tracer.counters[ops["fig2"]]
    assert (fig2["channel.sites"], fig2["channel.kept"], fig2["commands.records"]) == (1, 1, 1)
    assert tracer.counters[ops["sim"]]["harness.probes"] == 7
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, (m, a)


def test_a_forked_sim_records_the_campaign_of_this_process(tmp_path, capsys, monkeypatch):
    spans = _load_spans(monkeypatch)
    assert cli.main(["fixtures", "crashsuite", "--out", str(tmp_path)]) == 0
    argv = ["sim", "--db", str(tmp_path / "crashsuite.cmdb.tsv"),
            "--sim-config", str(tmp_path / "crashsuite.sim.txt"), "--budget", "50"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "SIM_WORKER_INJECTIONS", 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.operation("sim") as op:
            assert cli.main(argv) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out == serial
    assert [name for name, *_ in tracer.spans].count("harness.campaign") == 1
    # the worker's share of the seven commands is counted in the worker only
    assert tracer.counters[op]["harness.probes"] == 4
