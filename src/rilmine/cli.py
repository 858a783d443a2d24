"""Command line front end.

Subcommands: analyze (IR files or a firmware tree to command databases),
diff (two databases), sim (campaign against the simulator), fixtures
(generate bundled example programs), locate (find the RIL library in a
firmware tree). Exit codes: 0 success, 1 operational failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .callgraph import build_direct_cg, recover_vcalls
from .channel import FilterConfig, filter_commands
from .commands import diff as db_diff
from .commands import load_db, render_diff, save_db, save_db_json
from .harness import campaign
from .ir import ParseError, ValidationError, load_program, serialize
from .sim import load_sim_config
from . import fixtures as fx

PARTITIONS = ("system", "vendor", "super")
RIL_PROP_KEY = "vendor.rild.libpath"


def _out_dir(args) -> str:
    out = args.out or os.environ.get("RILMINE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _binary_name(path: str) -> str:
    base = os.path.basename(path)
    for suffix in (".ir.json", ".json"):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return base


# ---------------------------------------------------------------------------
# locate

def locate_ril_library(root: str) -> tuple[str, str, str | None] | None:
    """Scan build.prop per partition (system, vendor, super) for the RIL
    library path. Returns (partition, libpath, ir_file|None)."""
    for part in PARTITIONS:
        prop = os.path.join(root, part, "build.prop")
        if not os.path.isfile(prop):
            continue
        with open(prop, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                if sep and key.strip() == RIL_PROP_KEY:
                    libpath = val.strip()
                    ir = os.path.join(root, libpath.lstrip("/") + ".ir.json")
                    return part, libpath, ir if os.path.isfile(ir) else None
    return None


def _cmd_locate(args) -> int:
    hit = locate_ril_library(args.root)
    if hit is None:
        print(f"no {RIL_PROP_KEY} entry under {args.root}", file=sys.stderr)
        return 1
    part, libpath, ir = hit
    print(f"{part}\t{libpath}\t{ir or '-'}")
    return 0


# ---------------------------------------------------------------------------
# analyze

def _analyze_one(path: str, binary: str, config: FilterConfig, out: str):
    with open(path, "r", encoding="utf-8") as fh:
        p = load_program(fh.read())
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    db, report = filter_commands(p, cg, binary=binary, config=config)
    with open(os.path.join(out, binary + ".cmdb.tsv"), "w", encoding="utf-8") as fh:
        fh.write(save_db(db))
    with open(os.path.join(out, binary + ".cmdb.json"), "w", encoding="utf-8") as fh:
        fh.write(save_db_json(db))
    with open(os.path.join(out, binary + ".report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    return db, report


def _cmd_analyze(args) -> int:
    config = FilterConfig()
    if args.filter_config:
        with open(args.filter_config, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            config = FilterConfig.from_json(text)
        except ValueError as e:
            print(f"error: {args.filter_config}: {e}", file=sys.stderr)
            return 1
    if args.keep_socket:
        config.keep_socket = True
    out = _out_dir(args)

    inputs: list[str] = []
    for item in args.inputs:
        if os.path.isdir(item):
            hit = locate_ril_library(item)
            if hit is None:
                print(f"{item}: no {RIL_PROP_KEY} in any build.prop", file=sys.stderr)
                return 1
            part, libpath, ir = hit
            if ir is None:
                print(f"{item}: no IR next to {libpath} "
                      f"(expected {libpath.lstrip('/')}.ir.json)", file=sys.stderr)
                return 1
            inputs.append(ir)
        else:
            inputs.append(item)

    results = {}  # binary name -> (input path, db, report)
    errors = []
    for path in inputs:
        binary = _binary_name(path)
        if binary in results:
            errors.append(f"{path}: binary name {binary!r} already taken by {results[binary][0]}")
            continue
        try:
            db, report = _analyze_one(path, binary, config, out)
        except (OSError, ParseError, ValidationError) as e:
            errors.append(f"{path}: {e}")
            continue
        results[binary] = (path, db, report)

    for binary in sorted(results):
        _, db, report = results[binary]
        print(
            f"{binary}\trecords={len(db.records)}"
            f"\tsolicited={len(db.solicited())}"
            f"\tunsolicited={len(db.unsolicited())}"
            f"\tkept={report.kept}"
            f"\tdiscarded={len(report.discards)}"
        )
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# diff

def _read_db(path: str):
    """The database at ``path``; a parse error names the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_db(fh.read())
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _cmd_diff(args) -> int:
    base = _read_db(args.base)
    cur = _read_db(args.cur)
    d = db_diff(base, cur)
    sys.stdout.write(render_diff(base, cur, d))
    return 0


# ---------------------------------------------------------------------------
# sim

def _cmd_sim(args) -> int:
    if args.budget < 0:
        print(f"error: --budget must be 0 or more, not {args.budget}", file=sys.stderr)
        return 1
    db = _read_db(args.db)
    try:
        config = load_sim_config(args.sim_config)
    except ValueError as e:
        raise ValueError(f"{args.sim_config}: {e}") from None
    findings, stats = campaign(db, config, budget=args.budget, seed=args.seed)
    lines = [
        "# rilmine findings v1",
        f"# probes={stats.probes} mutation_execs={stats.mutation_execs}",
        "crash_type\troot_function\tpayload\tsource\texecs",
    ]
    for f in findings:
        payload = " ".join(f"{b:02x}" for b in f.payload)
        lines.append(f"{f.crash_type}\t{f.root_function}\t{payload}\t{f.source}\t{f.execs}")
    text = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# fixtures

def _write(out: str, name: str, text: str) -> str:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(path)
    return path


# IR fixture kind -> seed -> (program, manifest); only "rand" uses the seed.
_IR_FIXTURES = {
    "fig2": lambda seed: fx.gen_fig2(),
    "fig4": lambda seed: fx.gen_fig4(),
    "fig4sub": lambda seed: fx.gen_fig4(with_subclass=True),
    "fig5": lambda seed: fx.gen_fig5(),
    "fig5n0": lambda seed: fx.gen_fig5(n_handlers=0),
    "fig6": lambda seed: fx.gen_fig6("efs"),
    "fig6pipe": lambda seed: fx.gen_fig6("pipe"),
    "fig6dev": lambda seed: fx.gen_fig6("dev"),
    "hybrid-direct": lambda seed: fx.gen_hybrid("direct"),
    "hybrid-derived": lambda seed: fx.gen_hybrid("derived"),
    "hybrid-structured": lambda seed: fx.gen_hybrid("structured"),
    "rand": lambda seed: fx.gen_random(seed=seed),
}

FIXTURE_KINDS = (*_IR_FIXTURES, "crashsuite", "mutsuite", "diffpair")


def _cmd_fixtures(args) -> int:
    out = _out_dir(args)
    kind = args.kind
    if kind in _IR_FIXTURES:
        p, m = _IR_FIXTURES[kind](args.seed)
        name = p.name if kind == "rand" else kind
        _write(out, name + ".ir.json", serialize(p))
        _write(out, name + ".manifest.json", m.to_json())
        return 0
    if kind == "crashsuite":
        db, cfg, expected = fx.gen_crash_suite()
        _write(out, "crashsuite.cmdb.tsv", save_db(db))
        _write(out, "crashsuite.sim.txt", cfg.to_text())
        _write(out, "crashsuite.expected.json", json.dumps(expected, indent=1))
        return 0
    if kind == "mutsuite":
        db, cfg, crash = fx.gen_mutation_target()
        _write(out, "mutsuite.cmdb.tsv", save_db(db))
        _write(out, "mutsuite.sim.txt", cfg.to_text())
        _write(out, "mutsuite.crash.hex", " ".join(f"{b:02x}" for b in crash) + "\n")
        return 0
    if kind == "diffpair":
        base, cur = fx.gen_diff_pair(seed=args.seed)
        _write(out, "base.cmdb.tsv", save_db(base))
        _write(out, "cur.cmdb.tsv", save_db(cur))
        return 0
    print(f"unknown fixture kind {kind!r}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rilmine",
                                 description="RIL binary command mining toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="mine command databases from IR files")
    a.add_argument("inputs", nargs="+",
                   help="IR json files, or a firmware directory to locate")
    a.add_argument("--out", default=None, help="output directory (or $RILMINE_OUT)")
    a.add_argument("--filter-config", default=None, help="filter config json")
    a.add_argument("--keep-socket", action="store_true",
                   help="keep socket-backed I/O sites")
    a.set_defaults(fn=_cmd_analyze)

    d = sub.add_parser("diff", help="compare two command databases")
    d.add_argument("base")
    d.add_argument("cur")
    d.set_defaults(fn=_cmd_diff)

    s = sub.add_parser("sim", help="probe and fuzz a database against the simulator")
    s.add_argument("--db", required=True)
    s.add_argument("--sim-config", required=True)
    s.add_argument("--budget", type=int, default=1000,
                   help="mutation injections per command")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None, help="findings file (default stdout)")
    s.set_defaults(fn=_cmd_sim)

    f = sub.add_parser("fixtures", help="generate example programs and suites")
    f.add_argument("kind", choices=FIXTURE_KINDS)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", default=None)
    f.set_defaults(fn=_cmd_fixtures)

    loc = sub.add_parser("locate", help="find the RIL library in a firmware tree")
    loc.add_argument("root")
    loc.set_defaults(fn=_cmd_locate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (OSError, ParseError, ValidationError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
