"""Command line front end: subcommands, exit codes, artifact layout."""

import gc
import json
import os
import signal
import subprocess
import sys

import pytest

from rilmine import cli
from rilmine.channel import FilterConfig
from rilmine.cli import FIXTURE_KINDS, locate_ril_library, main
from rilmine.fixtures import C, I, S, block, func, gen_crash_suite, gen_fig2
from rilmine.ir import IRProgram, serialize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _gen(capsys, tmp_path, kind, *extra):
    code, _, _ = run(capsys, "fixtures", kind, "--out", str(tmp_path), *extra)
    assert code == 0


# ---------------------------------------------------------------------------
# fixtures

def test_fixtures_emits_ir_and_manifest(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "fig2", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "fig2.ir.json").is_file()
    assert (tmp_path / "fig2.manifest.json").is_file()
    assert str(tmp_path / "fig2.ir.json") in out
    doc = json.loads((tmp_path / "fig2.ir.json").read_text())
    assert doc["ir_version"] == 2


def test_fixtures_random_kind_embeds_seed(tmp_path, capsys):
    _gen(capsys, tmp_path, "rand", "--seed", "6")
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["rand6.ir.json", "rand6.manifest.json"]


def test_every_fixture_kind_generates(tmp_path, capsys):
    for kind in FIXTURE_KINDS:
        d = tmp_path / kind
        d.mkdir()
        code, _, _ = run(capsys, "fixtures", kind, "--out", str(d))
        assert code == 0, kind
        assert any(d.iterdir()), kind


# ---------------------------------------------------------------------------
# analyze

def test_analyze_single_ir_file(tmp_path, capsys):
    _gen(capsys, tmp_path, "fig2")
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "analyze", str(tmp_path / "fig2.ir.json"),
                         "--out", str(out_dir))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "fig2\trecords=1\tsolicited=1\tunsolicited=0\tkept=1\tdiscarded=0"]
    for suffix in (".cmdb.tsv", ".cmdb.json", ".report.txt"):
        assert (out_dir / f"fig2{suffix}").is_file()
    tsv = (out_dir / "fig2.cmdb.tsv").read_text()
    assert "IpcTxCallGetCallList" in tsv and "/dev/umts_ipc0" in tsv


def test_analyze_zero_record_binary_reports_counts(tmp_path, capsys):
    _gen(capsys, tmp_path, "fig5n0")
    code, out, _ = run(capsys, "analyze", str(tmp_path / "fig5n0.ir.json"),
                       "--out", str(tmp_path / "out"))
    assert code == 0
    assert "records=0" in out and "kept=1" in out


def test_analyze_missing_file_fails_operationally(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.ir.json"),
                       "--out", str(tmp_path))
    assert code == 1
    assert "error:" in err


def test_analyze_rejects_malformed_ir(tmp_path, capsys):
    bad = tmp_path / "bad.ir.json"
    bad.write_text("{\"ir_version\": 99}")
    code, _, err = run(capsys, "analyze", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert "ir_version" in err


@pytest.mark.parametrize("text", [
    '{"bogus": 1}', '[]', '{"fd_depth": "x"}', '{"device_pattern": "("}',
    '{"keep_socket": "no"}', '{', b'\xff\xfe{}',
])
def test_analyze_rejects_a_bad_filter_config_naming_the_file(tmp_path, capsys, text):
    _gen(capsys, tmp_path, "fig2")
    cfg = tmp_path / "filter.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run(capsys, "analyze", str(tmp_path / "fig2.ir.json"),
                         "--out", str(tmp_path / "out"), "--filter-config", str(cfg))
    assert code == 1
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "out").exists()


def test_batch_keeps_good_binaries_past_a_bad_one(tmp_path, capsys):
    good = []
    for kind in ("fig2", "fig5"):
        d = tmp_path / kind
        d.mkdir()
        _gen(capsys, d, kind)
        good.append(str(d / f"{kind}.ir.json"))
    bad = tmp_path / "bad.ir.json"
    bad.write_text("{\"ir_version\": 99}")
    out_dir = tmp_path / "out"
    code, stdout, err = run(capsys, "analyze", good[0], str(bad), good[1],
                            "--out", str(out_dir))
    assert code == 1
    assert sorted(f.name for f in out_dir.iterdir()) == [
        f"{b}{ext}" for b in ("fig2", "fig5")
        for ext in (".cmdb.json", ".cmdb.tsv", ".report.txt")
    ]
    assert [line.split("\t")[0] for line in stdout.splitlines()] == ["fig2", "fig5"]
    assert f"error: {bad}: " in err


def test_batch_keeps_good_binaries_past_one_that_is_not_utf8(tmp_path, capsys):
    _gen(capsys, tmp_path, "fig2")
    bad = tmp_path / "bad.ir.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, stdout, err = run(capsys, "analyze", str(bad), str(tmp_path / "fig2.ir.json"),
                            "--out", str(tmp_path / "out"))
    assert code == 1
    assert [line.split("\t")[0] for line in stdout.splitlines()] == ["fig2"]
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


def test_batch_rejects_a_second_input_with_the_same_binary_name(tmp_path, capsys):
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    for d in (a, b, c):
        d.mkdir()
    _gen(capsys, a, "fig2")
    _gen(capsys, b, "fig5")
    _gen(capsys, c, "fig4")
    first, second = str(a / "fig2.ir.json"), str(b / "fig2.ir.json")
    os.rename(b / "fig5.ir.json", second)
    out_dir = tmp_path / "out"
    code, stdout, err = run(capsys, "analyze", first, second, str(c / "fig4.ir.json"),
                            "--out", str(out_dir))
    assert code == 1
    assert sorted(f.name for f in out_dir.iterdir()) == [
        f"{b}{ext}" for b in ("fig2", "fig4")
        for ext in (".cmdb.json", ".cmdb.tsv", ".report.txt")
    ]
    assert [line.split("\t")[0] for line in stdout.splitlines()] == ["fig2", "fig4"]
    code, alone, _ = run(capsys, "analyze", first, "--out", str(tmp_path / "alone"))
    assert code == 0
    assert stdout.splitlines()[0] == alone.splitlines()[0]
    for ext in (".cmdb.json", ".cmdb.tsv", ".report.txt"):
        assert (out_dir / f"fig2{ext}").read_text() == (tmp_path / "alone" / f"fig2{ext}").read_text()
    (line,) = err.splitlines()
    assert line.startswith(f"error: {second}: ") and first in line


@pytest.mark.parametrize("name, why", [
    ("a\tb", "holds a tab or a line break"),
    ("a\nb", "holds a tab or a line break"),
    ("a\rb", "holds a tab or a line break"),
    ("#x", "starts with '#', which reads as a comment"),
], ids=["tab", "newline", "return", "hash"])
def test_batch_rejects_a_binary_name_that_breaks_a_db_row(name, why, tmp_path, capsys):
    # The name goes unescaped into the tab-separated rows and the header of
    # the database, which diff and sim would then reject, or read as empty
    # when every row starts with '#'.
    _gen(capsys, tmp_path, "fig2")
    _gen(capsys, tmp_path, "fig5")
    bad = tmp_path / f"{name}.ir.json"
    (tmp_path / "fig2.ir.json").rename(bad)
    out_dir = tmp_path / "out"
    code, stdout, err = run(capsys, "analyze", str(bad), str(tmp_path / "fig5.ir.json"),
                            "--out", str(out_dir))
    assert code == 1
    assert sorted(f.name for f in out_dir.iterdir()) == [
        f"fig5{ext}" for ext in (".cmdb.json", ".cmdb.tsv", ".report.txt")]
    assert [line.split("\t")[0] for line in stdout.splitlines()] == ["fig5"]
    assert err == f"error: {bad}: binary name {name!r} {why}\n"


@pytest.mark.parametrize("kind, old, new, other", [
    ("fig2", '"IpcTxCallGetCallList"', '"IpcTx\\tCallGetCallList"', "fig5"),
    ("fig2", b"/dev/umts_ipc0\0".hex(), b"/dev/umts\tipc0\0".hex(), "fig5"),
    ("fig5", '"Nv::ProcessNvRead"', '"Nv::Process\\nNvRead"', "fig2"),
], ids=["function-id", "channel-path", "handler"])
def test_batch_rejects_a_field_that_breaks_a_db_row(kind, old, new, other, tmp_path, capsys):
    # Function ids, handlers and channel paths go unescaped into the
    # tab-separated rows, like the binary name.
    _gen(capsys, tmp_path, kind)
    _gen(capsys, tmp_path, other)
    bad = tmp_path / f"{kind}.ir.json"
    text = bad.read_text()
    assert old in text
    bad.write_text(text.replace(old, new))
    out_dir = tmp_path / "out"
    code, stdout, err = run(capsys, "analyze", str(bad), str(tmp_path / f"{other}.ir.json"),
                            "--out", str(out_dir))
    assert code == 1
    assert sorted(f.name for f in out_dir.iterdir()) == [
        f"{other}{ext}" for ext in (".cmdb.json", ".cmdb.tsv", ".report.txt")]
    assert [line.split("\t")[0] for line in stdout.splitlines()] == [other]
    (line, *rest) = err.splitlines()
    assert line.startswith(f"error: {bad}: record at site ")
    assert (line + "".join(rest)).endswith(" holds a tab or a line break")


def _on_cpus(cpus, monkeypatch) -> list:
    """Make the CLI see ``cpus`` usable CPUs; returns the list that the pid
    of each worker it forks from now on is appended to."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _analyze_on(cpus, tmp_path, capsys, monkeypatch, inputs):
    """Run ``analyze`` as if ``cpus`` CPUs were usable. Returns (exit code,
    stdout, stderr, artifact bytes by name) and the workers started."""
    forks = _on_cpus(cpus, monkeypatch)
    out_dir = tmp_path / f"out-{cpus}-{len(inputs)}"
    code, out, err = run(capsys, "analyze", *inputs, "--out", str(out_dir))
    artifacts = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    return (code, out, err, artifacts), len(forks)


def test_batch_gives_the_same_results_in_worker_processes(tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    _gen(capsys, tmp_path, "fig5")
    bad = tmp_path / "bad.ir.json"
    bad.write_text("{\"ir_version\": 99}")
    raw = tmp_path / "raw.ir.json"
    raw.write_bytes(b"\xff\xfe{}")
    (tmp_path / "dup").mkdir()
    dup = tmp_path / "dup" / "fig2.ir.json"
    dup.write_text((tmp_path / "fig5.ir.json").read_text())
    inputs = [str(tmp_path / "fig2.ir.json"), str(bad), str(raw),
              str(tmp_path / "fig5.ir.json"), str(dup)]
    serial, forks = _analyze_on(1, tmp_path, capsys, monkeypatch, inputs)
    assert forks == 0
    parallel, forks = _analyze_on(3, tmp_path, capsys, monkeypatch, inputs)
    assert forks >= 2  # four tasks, three busy processes: two workers at once
    assert parallel == serial
    code, out, err, artifacts = serial
    assert code == 1
    assert [line.split("\t")[0] for line in out.splitlines()] == ["fig2", "fig5"]
    assert [line.split(": ")[1] for line in err.splitlines()] == [str(bad), str(raw), str(dup)]
    assert len(artifacts) == 6
    _, forks = _analyze_on(3, tmp_path, capsys, monkeypatch, inputs[:1])
    assert forks == 0  # one input: nothing to share


_STAGES = ("load_program", "build_direct_cg", "recover_vcalls", "filter_commands",
           "save_db", "save_db_json")


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_an_analysis_runs_its_stages_with_the_collector_paused(raises, enabled, tmp_path,
                                                               capsys, monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    during = []

    def spy(name, stage):
        def run_stage(*args, **kwargs):
            during.append(gc.isenabled())
            if raises and name == _STAGES[-1]:
                raise RuntimeError("spy")
            return stage(*args, **kwargs)
        return run_stage

    for name in _STAGES:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError):
                cli._analyze_one(str(tmp_path / "fig2.ir.json"), "fig2", FilterConfig(), str(tmp_path))
        else:
            cli._analyze_one(str(tmp_path / "fig2.ir.json"), "fig2", FilterConfig(), str(tmp_path))
        assert during == [False] * len(_STAGES)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("kind", ["fig2", "fig5", "hybrid-derived", "rand"])
def test_an_analysis_leaves_no_cyclic_garbage(kind, tmp_path, capsys):
    # so pausing the collector for a whole analysis leaks nothing
    _gen(capsys, tmp_path, kind, *(["--seed", "3"] if kind == "rand" else []))
    (path,) = tmp_path.glob("*.ir.json")
    gc.collect()
    cli._analyze_one(str(path), kind, FilterConfig(), str(tmp_path))
    assert gc.collect() == 0


def test_worker_reports_a_validation_error_as_a_serial_run_does(tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    invalid = tmp_path / "invalid.ir.json"
    f = func("main", stack=8, blocks=[block(0, [I("COPY", S(4, 8), (C(0),)), I("RETURN")])])
    invalid.write_text(serialize(IRProgram(name="p", functions=[f])))
    inputs = [str(invalid), str(tmp_path / "fig2.ir.json")]
    serial, _ = _analyze_on(1, tmp_path, capsys, monkeypatch, inputs)
    parallel, forks = _analyze_on(2, tmp_path, capsys, monkeypatch, inputs)
    assert forks == 1 and parallel == serial
    assert serial[2].startswith(f"error: {invalid}: 1 invariant violation(s): [stack-bounds]")


@pytest.mark.parametrize("death", ["raise", "kill"])
def test_a_worker_that_dies_costs_only_its_own_input(death, tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    victim = tmp_path / "victim.ir.json"
    victim.write_text((tmp_path / "fig2.ir.json").read_text())
    parent = os.getpid()
    analyze_one = cli._analyze_one

    def dying(path, *rest):
        if path == str(victim) and os.getpid() != parent:
            if death == "raise":
                raise RuntimeError("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        return analyze_one(path, *rest)

    monkeypatch.setattr(cli, "_analyze_one", dying)
    # the first task always goes to a worker
    (code, out, err, artifacts), forks = _analyze_on(
        2, tmp_path, capsys, monkeypatch, [str(victim), str(tmp_path / "fig2.ir.json")])
    assert (code, forks) == (1, 1)
    assert [line.split("\t")[0] for line in out.splitlines()] == ["fig2"]
    assert sorted(artifacts) == ["fig2.cmdb.json", "fig2.cmdb.tsv", "fig2.report.txt"]
    if death == "raise":
        assert err.startswith(f"error: {victim}: raised\nTraceback")
        assert err.endswith("RuntimeError: boom\n")
    else:
        assert err == (f"error: {victim}: worker process was killed by signal "
                       f"{int(signal.SIGKILL)} before it reported\n")


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_input_that_raises_in_this_process_costs_only_itself(cpus, tmp_path, capsys,
                                                                 monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    victim = tmp_path / "victim.ir.json"
    victim.write_text((tmp_path / "fig2.ir.json").read_text())
    parent = os.getpid()
    analyze_one = cli._analyze_one

    def raising(path, *rest):
        if path == str(victim) and os.getpid() == parent:
            raise RecursionError("deep")
        return analyze_one(path, *rest)

    monkeypatch.setattr(cli, "_analyze_one", raising)
    # at 2 CPUs the first task goes to a worker and this process runs the second
    (code, out, err, artifacts), forks = _analyze_on(
        cpus, tmp_path, capsys, monkeypatch, [str(tmp_path / "fig2.ir.json"), str(victim)])
    assert (code, forks) == (1, cpus - 1)
    assert [line.split("\t")[0] for line in out.splitlines()] == ["fig2"]
    assert sorted(artifacts) == ["fig2.cmdb.json", "fig2.cmdb.tsv", "fig2.report.txt"]
    assert err.startswith(f"error: {victim}: raised\nTraceback")
    assert err.endswith("RecursionError: deep\n")


@pytest.mark.parametrize("forkable", [0, 1])
def test_analyze_runs_a_task_here_when_no_process_can_be_forked(forkable, tmp_path, capsys,
                                                               monkeypatch):
    _gen(capsys, tmp_path, "fig2")
    _gen(capsys, tmp_path, "fig5")
    copy = tmp_path / "copy.ir.json"
    copy.write_text((tmp_path / "fig2.ir.json").read_text())
    inputs = [str(tmp_path / "fig2.ir.json"), str(tmp_path / "fig5.ir.json"), str(copy)]
    serial, _ = _analyze_on(1, tmp_path, capsys, monkeypatch, inputs)
    fork, tries = os.fork, []

    def failing_fork():  # the first ``forkable`` forks succeed, then none
        tries.append(None)
        if len(tries) > forkable:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    assert _analyze_on(3, tmp_path, capsys, monkeypatch, inputs) == (serial, forkable)
    assert serial[0] == 0 and len(serial[3]) == 9


def test_out_dir_falls_back_to_environment(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("RILMINE_OUT", str(env_dir))
    code, _, _ = run(capsys, "fixtures", "fig2")
    assert code == 0
    assert (env_dir / "fig2.ir.json").is_file()


# ---------------------------------------------------------------------------
# locate and firmware-tree analysis

def _firmware_tree(root, partition="vendor", libpath="/vendor/lib64/libsec-ril.so",
                   with_ir=True):
    part_dir = root / partition
    part_dir.mkdir(parents=True, exist_ok=True)
    (part_dir / "build.prop").write_text(
        "# begin props\n"
        "ro.build.type=user\n"
        f"vendor.rild.libpath={libpath}\n"
    )
    if with_ir:
        p, _ = gen_fig2()
        ir = root / (libpath.lstrip("/") + ".ir.json")
        ir.parent.mkdir(parents=True, exist_ok=True)
        ir.write_text(serialize(p))
        return ir
    return None


def test_locate_reports_partition_libpath_and_ir(tmp_path, capsys):
    ir = _firmware_tree(tmp_path)
    code, out, _ = run(capsys, "locate", str(tmp_path))
    assert code == 0
    assert out == f"vendor\t/vendor/lib64/libsec-ril.so\t{ir}\n"


def test_locate_scans_partitions_in_fixed_order(tmp_path):
    _firmware_tree(tmp_path, partition="vendor", with_ir=False)
    _firmware_tree(tmp_path, partition="system", libpath="/system/lib/libril.so",
                   with_ir=False)
    part, libpath, ir = locate_ril_library(str(tmp_path))
    assert (part, libpath, ir) == ("system", "/system/lib/libril.so", None)


def test_locate_skips_partitions_without_the_key(tmp_path):
    (tmp_path / "system").mkdir()
    (tmp_path / "system" / "build.prop").write_text("ro.build.type=user\n")
    _firmware_tree(tmp_path, partition="vendor", with_ir=False)
    part, _, _ = locate_ril_library(str(tmp_path))
    assert part == "vendor"


def test_locate_missing_everywhere_is_operational_failure(tmp_path, capsys):
    code, _, err = run(capsys, "locate", str(tmp_path))
    assert code == 1
    assert "vendor.rild.libpath" in err


def test_analyze_accepts_a_firmware_directory(tmp_path, capsys):
    _firmware_tree(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "analyze", str(tmp_path), "--out", str(out_dir))
    assert code == 0
    assert out.startswith("libsec-ril.so\trecords=1\t")
    assert (out_dir / "libsec-ril.so.cmdb.tsv").is_file()


def test_analyze_directory_without_ir_fails(tmp_path, capsys):
    _firmware_tree(tmp_path, with_ir=False)
    code, _, err = run(capsys, "analyze", str(tmp_path), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "no IR next to" in err


@pytest.mark.parametrize("command", ["locate", "analyze"])
@pytest.mark.parametrize("escape", ["dotdot", "symlink"])
def test_a_libpath_that_leaves_the_tree_is_refused(escape, command, tmp_path, capsys):
    fw, outside = tmp_path / "fw", tmp_path / "outside"
    outside.mkdir()
    if escape == "dotdot":
        libpath = "/../outside/lib.so"
    else:  # a link inside the tree to a directory outside it
        (fw / "vendor").mkdir(parents=True)
        (fw / "vendor" / "lib64").symlink_to(outside, target_is_directory=True)
        libpath = "/vendor/lib64/lib.so"
    _firmware_tree(fw, libpath=libpath)
    assert (outside / "lib.so.ir.json").is_file()
    out_dir = tmp_path / "out"
    argv = [command, str(fw)] + (["--out", str(out_dir)] if command == "analyze" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {fw / 'vendor' / 'build.prop'}: "
                   f"vendor.rild.libpath={libpath} points outside {fw}\n")
    assert not out_dir.exists() or not any(out_dir.iterdir())


# ---------------------------------------------------------------------------
# diff

def test_diff_command_reports_firmware_drift(tmp_path, capsys):
    _gen(capsys, tmp_path, "diffpair")
    code, out, _ = run(capsys, "diff", str(tmp_path / "base.cmdb.tsv"),
                       str(tmp_path / "cur.cmdb.tsv"))
    assert code == 0
    assert "solicited\t478\t427\t63\t12" in out
    assert sum(1 for ln in out.splitlines() if ln.startswith("base-only\t")) == 63
    assert sum(1 for ln in out.splitlines() if ln.startswith("cur-only\t")) == 12


def test_diff_reads_a_binary_name_with_a_space(tmp_path, capsys):
    _gen(capsys, tmp_path, "fig2")
    src = tmp_path / "my lib.ir.json"
    (tmp_path / "fig2.ir.json").rename(src)
    out_dir = tmp_path / "out"
    code, _, _ = run(capsys, "analyze", str(src), "--out", str(out_dir))
    assert code == 0
    db = out_dir / "my lib.cmdb.tsv"
    assert db.read_text().splitlines()[1].startswith("# binary=my lib provenance=")
    code, out, err = run(capsys, "diff", str(db), str(db))
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        "# diff base=my lib cur=my lib",
        "direction\tbase_total\tcur_total\tbase_unique\tcur_unique",
        "solicited\t1\t1\t0\t0"]


# ---------------------------------------------------------------------------
# sim

def test_sim_command_probes_the_crash_suite(tmp_path, capsys):
    _gen(capsys, tmp_path, "crashsuite")
    code, out, _ = run(capsys, "sim",
                       "--db", str(tmp_path / "crashsuite.cmdb.tsv"),
                       "--sim-config", str(tmp_path / "crashsuite.sim.txt"),
                       "--budget", "0")
    assert code == 0
    rows = [ln.split("\t") for ln in out.splitlines() if not ln.startswith("#")
            and not ln.startswith("crash_type")]
    classes = [r[0] for r in rows]
    assert classes.count("temporary") == 3
    assert classes.count("recoverable") == 1
    assert classes.count("permanent") == 3
    assert all(r[3] == "probe" for r in rows)


def test_sim_command_writes_findings_file(tmp_path, capsys):
    _gen(capsys, tmp_path, "mutsuite")
    out_file = tmp_path / "findings.tsv"
    code, out, _ = run(capsys, "sim",
                       "--db", str(tmp_path / "mutsuite.cmdb.tsv"),
                       "--sim-config", str(tmp_path / "mutsuite.sim.txt"),
                       "--budget", "10000", "--seed", "1",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    text = out_file.read_text()
    crash_hex = (tmp_path / "mutsuite.crash.hex").read_text().strip()
    assert f"recoverable\tIpcTxSimSetStatus\t{crash_hex}\tmutation\t" in text


def _break_first_payload(path):
    """Replace the first solicited payload byte with ``zz``; returns the
    line number of that row."""
    lines = path.read_text().splitlines()
    n = next(i for i, ln in enumerate(lines) if "\tsolicited\t" in ln)
    cols = lines[n].split("\t")
    cols[6] = "zz" + cols[6][2:]
    lines[n] = "\t".join(cols)
    path.write_text("\n".join(lines) + "\n")
    return n + 1


def test_sim_names_the_database_file_and_line(tmp_path, capsys):
    _gen(capsys, tmp_path, "crashsuite")
    db = tmp_path / "crashsuite.cmdb.tsv"
    lineno = _break_first_payload(db)
    code, out, err = run(capsys, "sim", "--db", str(db),
                         "--sim-config", str(tmp_path / "crashsuite.sim.txt"))
    assert (code, out) == (1, "")
    assert err == f"error: {db}: line {lineno}: bad payload byte 'zz'\n"


def test_diff_names_the_database_file_and_line(tmp_path, capsys):
    _gen(capsys, tmp_path, "diffpair")
    cur = tmp_path / "cur.cmdb.tsv"
    lineno = _break_first_payload(cur)
    code, out, err = run(capsys, "diff", str(tmp_path / "base.cmdb.tsv"), str(cur))
    assert (code, out) == (1, "")
    assert err == f"error: {cur}: line {lineno}: bad payload byte 'zz'\n"


def test_sim_names_the_sim_config_file(tmp_path, capsys):
    _gen(capsys, tmp_path, "crashsuite")
    cfg = tmp_path / "bad.sim.txt"
    cfg.write_text("# header\nrecover_after = soon\n")
    code, out, err = run(capsys, "sim", "--db", str(tmp_path / "crashsuite.cmdb.tsv"),
                         "--sim-config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: line 2: bad recover_after 'soon'\n"


def test_sim_rejects_a_negative_budget(tmp_path, capsys):
    _gen(capsys, tmp_path, "crashsuite")
    code, out, err = run(capsys, "sim", "--db", str(tmp_path / "crashsuite.cmdb.tsv"),
                         "--sim-config", str(tmp_path / "crashsuite.sim.txt"),
                         "--budget", "-5")
    assert (code, out) == (1, "")
    assert err == "error: --budget must be 0 or more, not -5\n"


def _sim_on(cpus, tmp_path, capsys, monkeypatch, suite, budget=50):
    """Run ``sim`` on a fixture suite twice, to stdout and to ``--out``, as
    if ``cpus`` CPUs were usable and one planned injection paid for a
    worker. Returns ((exit code, stdout, stderr) of each run, the bytes
    written to ``--out`` or None) and the workers started."""
    forks = _on_cpus(cpus, monkeypatch)
    monkeypatch.setattr(cli, "SIM_WORKER_INJECTIONS", 1)
    argv = ["sim", "--db", str(tmp_path / f"{suite}.cmdb.tsv"),
            "--sim-config", str(tmp_path / f"{suite}.sim.txt"),
            "--budget", str(budget), "--seed", "3"]
    out_file = tmp_path / f"findings-{cpus}.tsv"
    runs = run(capsys, *argv), run(capsys, *argv, "--out", str(out_file))
    return (*runs, out_file.read_bytes() if out_file.exists() else None), len(forks)


@pytest.mark.parametrize("budget", [0, 50])
@pytest.mark.parametrize("suite", ["crashsuite", "mutsuite"])
def test_sim_gives_the_same_findings_in_worker_processes(suite, budget, tmp_path, capsys,
                                                         monkeypatch):
    _gen(capsys, tmp_path, suite)
    serial, forks = _sim_on(1, tmp_path, capsys, monkeypatch, suite, budget)
    (code, out, err), to_file, written = serial
    assert (code, err, to_file, forks) == (0, "", (0, "", ""), 0)
    assert written == out.encode()
    for cpus in (2, 3):
        forked, forks = _sim_on(cpus, tmp_path, capsys, monkeypatch, suite, budget)
        assert forked == serial
        # crashsuite's seven commands make one share per CPU, in both runs;
        # mutsuite's one command cannot be split
        assert forks == (2 * (cpus - 1) if suite == "crashsuite" else 0)


def test_sim_shares_are_contiguous_and_balanced_by_planned_injections(monkeypatch):
    db, _, _ = gen_crash_suite()
    records = db.sorted_records()
    assert [r.kind for r in records] == ["hybrid"] * 4 + ["static"] * 2 + ["hybrid"]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(cli, "SIM_WORKER_INJECTIONS", 100)
    # 502 planned injections at budget 99: five shares of about 100
    shares = cli._sim_shares(db, 99)
    assert [len(share.records) for share in shares] == [1, 1, 1, 3, 1]
    assert [r for share in shares for r in share.records] == records
    assert {(share.binary, share.provenance) for share in shares} == {(db.binary, db.provenance)}
    (whole,) = cli._sim_shares(db, 0)  # 7 planned: one share
    assert whole is db
    monkeypatch.delattr(os, "fork")
    assert cli._sim_shares(db, 99)[0] is db


@pytest.mark.parametrize("death", ["raise", "kill"])
def test_a_sim_worker_that_dies_fails_the_call(death, tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "crashsuite")
    parent = os.getpid()
    campaign = cli.campaign

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            if death == "raise":
                raise RuntimeError("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        return campaign(*args, **kwargs)

    monkeypatch.setattr(cli, "campaign", dying)
    (to_stdout, to_file, written), forks = _sim_on(2, tmp_path, capsys, monkeypatch, "crashsuite")
    assert forks == 2 and to_stdout == to_file and written is None
    code, out, err = to_file
    assert (code, out) == (1, "")
    if death == "raise":
        assert err.startswith("error: worker process raised\nTraceback")
        assert err.endswith("RuntimeError: boom\n")
    else:
        assert err == (f"error: worker process was killed by signal "
                       f"{int(signal.SIGKILL)} before it reported\n")


def test_sim_runs_a_share_here_when_no_process_can_be_forked(tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "crashsuite")
    serial, _ = _sim_on(1, tmp_path, capsys, monkeypatch, "crashsuite")

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _sim_on(3, tmp_path, capsys, monkeypatch, "crashsuite") == (serial, 0)


def test_sim_reaps_its_workers_when_its_own_share_raises(tmp_path, capsys, monkeypatch):
    _gen(capsys, tmp_path, "crashsuite")
    parent = os.getpid()
    campaign = cli.campaign

    def raising(*args, **kwargs):
        if os.getpid() == parent:
            raise ValueError("bad share")
        return campaign(*args, **kwargs)

    monkeypatch.setattr(cli, "campaign", raising)
    (_, to_file, written), forks = _sim_on(3, tmp_path, capsys, monkeypatch, "crashsuite")
    assert (to_file, written, forks) == ((1, "", "error: bad share\n"), None, 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker is left unreaped


# ---------------------------------------------------------------------------
# usage errors

@pytest.mark.parametrize("argv", [
    [],
    ["fixtures", "not-a-kind"],
    ["analyze"],
    ["sim", "--db", "x"],
])
def test_usage_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_python_dash_m_rilmine_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "rilmine", "fixtures", "fig2", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "fig2.ir.json").is_file()
