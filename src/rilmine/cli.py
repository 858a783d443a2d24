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
import pickle
import select
import sys
import traceback
from collections import deque
from functools import cache

from .callgraph import build_direct_cg, recover_vcalls
from .channel import FilterConfig, filter_commands
from .commands import diff as db_diff
from .commands import CommandDB, load_db, render_diff, save_db, save_db_json
from .harness import campaign, merge, planned_injections
from .ir import _gc_paused, load_program, serialize
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
    library path. Returns (partition, libpath, ir_file|None). Raises
    ValueError when the IR path, symbolic links resolved, is outside
    ``root``."""
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
                    tree = os.path.join(os.path.realpath(root), "")  # ends in one separator
                    if not os.path.realpath(ir).startswith(tree):
                        raise ValueError(f"{prop}: {RIL_PROP_KEY}={libpath} points outside {root}")
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
    """Load, analyze and write one binary, with the cyclic collector paused
    throughout, as ``load_program`` pauses it (whose own pause then nests
    as a no-op). No stage leaves cyclic garbage, and the first collection
    after the load would traverse the whole program, in whichever stage
    ran then."""
    with _gc_paused():
        with open(path, "r", encoding="utf-8") as fh:
            p = load_program(fh.read())
        cg = build_direct_cg(p)
        recover_vcalls(p, cg)
        db, report = filter_commands(p, cg, binary=binary, config=config)
        # every text first: a database save_db refuses leaves no artifact
        texts = {".cmdb.tsv": save_db(db), ".cmdb.json": save_db_json(db),
                 ".report.txt": report.to_text()}
        for ext, text in texts.items():
            with open(os.path.join(out, binary + ext), "w", encoding="utf-8") as fh:
                fh.write(text)
    return db, report


def _task(path: str, binary: str, config: FilterConfig, out: str):
    """Analyze one input: (summary line, None), or (None, error text) when
    it fails. A failed load or write gives its message; any other exception
    gives its traceback, and costs only this input."""
    try:
        db, report = _analyze_one(path, binary, config, out)
    except (OSError, ValueError) as e:
        return None, f"{path}: {e}"
    except Exception:
        return None, f"{path}: raised\n{traceback.format_exc().rstrip()}"
    return (f"{binary}\trecords={len(db.records)}"
            f"\tsolicited={len(db.solicited())}"
            f"\tunsolicited={len(db.unsolicited())}"
            f"\tkept={report.kept}"
            f"\tdiscarded={len(report.discards)}"), None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork(fn, *args) -> tuple[int, int]:
    """Call ``fn(*args)`` in a forked worker; returns (read end of its
    pipe, pid), for ``_join``.

    ``fork`` rather than a fresh interpreter: the worker starts with the
    package imported and its inputs built, and the CLI starts no threads
    that a fork could copy mid-operation. The worker sends back its
    pickled result, or the traceback if ``fn`` raised, and exits without
    running the parent's clean-up or flushing its copies of the parent's
    stdio buffers."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return r, pid
    code = 1
    try:
        os.close(r)
        try:
            reply = True, fn(*args)
        except Exception:
            reply = False, traceback.format_exc().rstrip()
        with open(w, "wb") as fh:
            fh.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)


def _join(r: int, pid: int):
    """The result of the worker ``_fork`` started with pipe ``r``. Raises
    ChildProcessError saying how the worker ended when it raised or sent
    no complete result."""
    chunks = []
    while chunk := os.read(r, 1 << 16):
        chunks.append(chunk)
    os.close(r)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status == 0 and chunks:
        ok, value = pickle.loads(b"".join(chunks))
        if ok:
            return value
        raise ChildProcessError(f"worker process raised\n{value}")
    how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
    raise ChildProcessError(f"worker process {how} before it reported")


def _run_all(fn, tasks: list[tuple], width: int) -> list:
    """``fn(*task)`` of each task in ``tasks``, in task order.

    Tasks run concurrently, one per forked worker process, with at most
    ``width`` processes busy, this one included, and no more than there
    are tasks: this process runs the next task itself whenever every
    worker slot is taken, and waits only when no task is left to start. A
    task no process can be forked for runs here; with room for one busy
    process, or no ``os.fork``, every task does. The result of a task
    whose worker raised or died is the ChildProcessError ``_join`` gave.
    An exception in a task run here propagates once every worker is
    reaped."""
    width = min(len(tasks), width) if hasattr(os, "fork") else 1
    if width <= 1:
        return [fn(*task) for task in tasks]
    results: list = [None] * len(tasks)
    pending = deque(range(len(tasks)))
    running: dict[int, tuple[int, int]] = {}  # pipe read end -> (pid, task index)
    try:
        while pending or running:
            while pending and len(running) < width - 1:
                try:
                    r, pid = _fork(fn, *tasks[pending[0]])
                except OSError:  # no process to be had: the task runs here
                    break
                running[r] = (pid, pending.popleft())
            if pending:
                i = pending.popleft()
                results[i] = fn(*tasks[i])
            if not running:
                continue
            ready, _, _ = select.select(list(running), [], [], 0 if pending else None)
            for r in ready:
                pid, i = running.pop(r)
                try:
                    results[i] = _join(r, pid)
                except ChildProcessError as e:
                    results[i] = e
    finally:
        for r, (pid, _) in running.items():  # only when this process raised
            os.close(r)
            os.waitpid(pid, 0)
    return results


def _cmd_analyze(args) -> int:
    config = FilterConfig()
    if args.filter_config:
        try:
            with open(args.filter_config, "r", encoding="utf-8") as fh:
                config = FilterConfig.from_json(fh.read())
        except ValueError as e:
            print(f"error: {args.filter_config}: {e}", file=sys.stderr)
            return 1
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

    taken: dict[str, str] = {}  # binary name -> the input that took it
    tasks: list[tuple[int, str, str]] = []  # (input index, path, binary)
    errors: dict[int, str] = {}  # input index -> error text
    for k, path in enumerate(inputs):
        binary = _binary_name(path)
        if binary in taken:
            errors[k] = f"{path}: binary name {binary!r} already taken by {taken[binary]}"
        else:
            taken[binary] = path
            tasks.append((k, path, binary))
    summaries: dict[str, str] = {}  # binary name -> summary line
    results = _run_all(_task, [(path, binary, config, out) for _, path, binary in tasks],
                       _usable_cpus())
    for (k, path, binary), result in zip(tasks, results):
        if isinstance(result, ChildProcessError):  # its worker raised or died
            result = None, f"{path}: {result}"
        summary, error = result
        if error is None:
            summaries[binary] = summary
        else:
            errors[k] = error

    for binary in sorted(summaries):
        print(summaries[binary])
    for k in sorted(errors):
        print(f"error: {errors[k]}", file=sys.stderr)
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

# Planned injections (``harness.planned_injections``) that each sim worker
# must have to pay for its fork and reap; CHANGES.md has the measurement.
SIM_WORKER_INJECTIONS = 6_000


def _sim_shares(db: CommandDB, budget: int) -> list[CommandDB]:
    """``db``'s solicited commands, in ``sorted_records`` order, cut into
    contiguous shares of about equal planned injections
    (``harness.planned_injections``): one share per usable CPU, but no
    more than one per ``SIM_WORKER_INJECTIONS`` planned. A command goes to
    the share that holds the midpoint of its planned injections, and empty
    shares are dropped. With one share, or no ``os.fork``, returns
    ``[db]``."""
    total = sum(planned_injections(r, budget) for r in db.solicited())
    width = min(_usable_cpus(), total // SIM_WORKER_INJECTIONS) if hasattr(os, "fork") else 1
    if width <= 1:
        return [db]
    shares: list[list] = [[] for _ in range(width)]
    done = 0
    for rec in db.sorted_records():
        if rec.direction == "solicited":
            cost = planned_injections(rec, budget)
            shares[(2 * done + cost) * width // (2 * total)].append(rec)
            done += cost
    return [CommandDB(db.binary, db.provenance, share) for share in shares if share]


def _cmd_sim(args) -> int:
    """Probe and fuzz the database's solicited commands; print the findings
    or write them to ``--out``.

    The commands, in ``sorted_records`` order, are cut into contiguous
    shares (``_sim_shares``), and ``_run_all`` runs ``campaign`` on each
    with one process per share, this one included. ``harness.merge`` joins
    the results in share order, so the findings are the same for every
    cut. A worker that raises or dies fails the call before anything is
    printed or written."""
    if args.budget < 0:
        print(f"error: --budget must be 0 or more, not {args.budget}", file=sys.stderr)
        return 1
    db = _read_db(args.db)
    try:
        config = load_sim_config(args.sim_config)
    except ValueError as e:
        raise ValueError(f"{args.sim_config}: {e}") from None

    def run(share):
        return campaign(share, config, budget=args.budget, seed=args.seed)

    shares = _sim_shares(db, args.budget)
    parts = _run_all(run, [(share,) for share in shares], len(shares))
    for part in parts:
        if isinstance(part, ChildProcessError):
            raise part
    findings, stats = merge(parts)
    lines = [
        "# rilmine findings v1",
        f"# probes={stats.probes} mutation_execs={stats.mutation_execs}",
        "crash_type\troot_function\tpayload\tsource\texecs",
    ]
    for f in findings:
        payload = f.payload.hex(" ")
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

@cache  # built on the first call, then reused: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rilmine",
                                 description="RIL binary command mining toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="mine command databases from IR files")
    a.add_argument("inputs", nargs="+",
                   help="IR json files, or a firmware directory to locate")
    a.add_argument("--out", default=None, help="output directory (or $RILMINE_OUT)")
    a.add_argument("--filter-config", default=None, help="filter config json")
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
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
