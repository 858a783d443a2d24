"""Command line front end: subcommands, exit codes, artifact layout."""

import json
import os

import pytest

from rilmine.cli import FIXTURE_KINDS, locate_ril_library, main
from rilmine.fixtures import gen_fig2
from rilmine.ir import serialize


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
    assert doc["ir_version"] == 1


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
