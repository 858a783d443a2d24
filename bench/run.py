#!/usr/bin/env python3
"""rilmine benchmark: one workload, one run.

    python3 bench/run.py --workload {large-binary,site-dense,fuzz} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout; the program is imported from ``src/``. The run

1. sets the workload's inputs up from ``--seed`` three times, each in a
   fresh ``python3 bench/workloads.py`` process, and takes the median as
   ``setup_s`` (the set-ups must agree byte for byte);
2. repeats one user session, closed loop with one client, for ``--seconds``
   seconds: ``rilmine analyze revA revB``, ``rilmine diff`` of the two
   databases, ``rilmine sim`` on revision B's database, each through
   ``rilmine.cli.main`` with default options;
3. checks the outputs outside the timed regions: mined signatures against
   the generator manifests and ``oracle.analyze``, diff sets against the
   seeds dropped and added, findings against the planted table rows;
4. prints ``name value unit`` lines, then one JSON object as the last line.

With ``--trace 0`` the JSON holds the end-to-end metrics. With ``--trace 1``
untraced and traced sessions alternate, spans are recorded around the
calls into each rilmine layer, the traced artifacts must equal the
untraced ones byte for byte, and the JSON holds the per-layer metrics.

Times are normalized to the machine's speed at the moment: see
``calibrate``. METRICS.md says what each metric means and which workload
moves it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_SESSIONS = 3  # sessions per run even when --seconds has passed
REPLAY_PER_COMMAND = 50  # mutants per hybrid command in the inject replay
CALIBRATION_REF_S = 0.005  # nominal time of the calibration task
REVS = ("revA", "revB")
ARTIFACTS = (".cmdb.tsv", ".cmdb.json", ".report.txt")
CALLS = ("analyze", "diff", "sim")

_CAL_TEXT = json.dumps([
    {"op": "INT_ADD", "out": {"space": "unique", "offset": i, "size": 8},
     "in": [{"space": "unique", "offset": i - 1, "size": 8},
            {"space": "const", "offset": i * 7919 % 65536, "size": 8}]}
    for i in range(1500)
])


def calibrate() -> float:
    """Speed factor of the machine right now: ``CALIBRATION_REF_S`` over the
    time of a fixed task shaped like IR loading (JSON decode, then tuples),
    median of five passes. The task uses the standard library only, so no
    change to rilmine moves it.

    A shared virtual machine can change speed by 2x within a minute (seen
    on a 2-vCPU x86_64 VM), for every process alike. Each timed call is multiplied
    by the mean of the factors taken just before and just after it, so
    times read as seconds on a machine that does the task in
    ``CALIBRATION_REF_S``; the raw wall times are kept in the result file."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        doc = json.loads(_CAL_TEXT)
        cells = [(d["op"], tuple((v["space"], v["offset"], v["size"]) for v in d["in"]))
                 for d in doc]
        times.append(time.perf_counter() - t)
        del doc, cells
    return CALIBRATION_REF_S / statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it. Below 21 samples that percentile is not above the
    median, and the median is reported."""
    s = sorted(samples)
    k = len(s) - 10
    if 2 * k <= len(s):
        return statistics.median(s), 50.0
    return s[k - 1], 100.0 * k / len(s)


def first_row(rows, payload: bytes):
    """First-match lookup of the behavior table, written apart from sim.py
    so the findings check does not trust the matcher it checks."""
    for row in rows:
        m = row.matcher
        if len(payload) < len(m) or (not row.prefix and len(payload) != len(m)):
            continue
        if all(b is None or payload[i] == b for i, b in enumerate(m)):
            return row
    return None


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_or_missing(path: str) -> bytes:
    return read(path) if os.path.exists(path) else b"<missing>"


class Bench:
    def __init__(self, args):
        from rilmine import cli
        self.cli = cli
        self.args = args
        self.run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}
        self.samples: dict = {}

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    # -- set-up --------------------------------------------------------

    def setup(self) -> list[float]:
        """Run the set-ups; returns their normalized times."""
        times, raw, dirs, self.setup_scales = [], [], [], []
        for k in range(SETUPS):
            d = os.path.join(self.run_dir, f"setup{k}")
            os.makedirs(d)
            before = calibrate()
            t = time.perf_counter()
            rc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                                 self.args.workload, str(self.args.seed), d]).returncode
            raw.append(time.perf_counter() - t)
            scale = (before + calibrate()) / 2
            times.append(raw[-1] * scale)
            self.setup_scales.append(scale)
            self.attempted += 1
            if rc != 0:
                raise SystemExit(f"set-up {k} exited with {rc}")
            if dirs and any(read(os.path.join(d, f)) != read(os.path.join(dirs[0], f))
                            for f in os.listdir(d) if f != "timings.json"):
                self.fail(f"set-up {k} differs from set-up 0")
            dirs.append(d)
        self.samples["setup_raw"] = raw
        self.inp = dirs[-1]
        with open(os.path.join(self.inp, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.timings = [json.loads(read(os.path.join(d, "timings.json"))) for d in dirs]
        from rilmine.sim import load_sim_config
        self.sim_config = load_sim_config(os.path.join(self.inp, "revB.sim.txt"))
        return times

    def setup_timing(self, name: str) -> float:
        """Median normalized time of one step inside the set-ups."""
        return statistics.median(t[name] * s for t, s in zip(self.timings, self.setup_scales))

    # -- one session ---------------------------------------------------

    def call(self, argv: list[str]) -> tuple[float, object, str]:
        out = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception as e:  # a crash is a failed operation, not a dead benchmark
            rc = repr(e)
        return time.perf_counter() - t, rc, out.getvalue()

    def session(self, out: str, tracer=None, keep: bool = False) -> dict:
        """analyze, diff, sim. Returns, per call, (raw seconds, exit code,
        digest of its output, speed factor: the mean of the calibrations
        just before and just after the call); with ``keep``, the outputs
        themselves as well."""
        ir = [os.path.join(self.inp, f"{r}.ir.json") for r in REVS]
        tsv = [os.path.join(out, f"{r}.cmdb.tsv") for r in REVS]
        files = {"analyze": [r + a for r in REVS for a in ARTIFACTS],
                 "diff": [], "sim": ["findings.tsv"]}
        for f in files["analyze"] + files["sim"] + ["fuzz.cmdb.tsv"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, f))
        argvs = {
            "analyze": ["analyze", *ir, "--out", out],
            "diff": ["diff", *tsv],
            "sim": ["sim", "--db", os.path.join(out, "fuzz.cmdb.tsv"),
                    "--sim-config", os.path.join(self.inp, "revB.sim.txt"),
                    "--budget", str(self.meta["sim"]["budget"]), "--seed", str(self.args.seed),
                    "--out", os.path.join(out, "findings.tsv")],
        }
        res = {"ops": {}, "outputs": {}}
        before = calibrate()
        for name in CALLS:
            # each call starts with no garbage left over, as a fresh process would
            gc.collect()
            if tracer is None:
                dt, rc, text = self.call(argvs[name])
            else:
                with tracer.operation("cli." + name) as op:
                    dt, rc, text = self.call(argvs[name])
                res["ops"][name] = op
            after = calibrate()
            if name == "analyze":
                self.write_fuzz_db(out)
            output = {"stdout": text.encode()}
            output.update((f, read_or_missing(os.path.join(out, f))) for f in files[name])
            h = hashlib.sha256()
            for f in sorted(output):
                h.update(f.encode() + b"\0" + output[f] + b"\0")
            res[name] = (dt, rc, h.hexdigest(), (before + after) / 2)
            before = after
            if keep:
                res["outputs"][name] = output
        return res

    def write_fuzz_db(self, out: str) -> None:
        """Copy revision B's mined database, keeping only the commands the
        workload fuzzes (outside the timed region)."""
        roots = set(self.meta["sim"]["fuzzed_roots"])
        lines = read_or_missing(os.path.join(out, "revB.cmdb.tsv")).decode().splitlines()
        keep = [line for line in lines if line.startswith("#")
                or (line.split("\t") + [""] * 5)[4] in roots]
        with open(os.path.join(out, "fuzz.cmdb.tsv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(keep) + "\n")

    # -- checks (never inside a timed region) ---------------------------

    def check_analyze(self, files: dict[str, bytes]) -> list[str]:
        """Three-way agreement and data layout per revision; also records
        each binary's sizes for the result file."""
        import inputs
        from rilmine import oracle
        from rilmine.commands import load_db
        from rilmine.fixtures import Manifest, db_signatures
        from rilmine.ir import load_program
        bad = []
        self.sizes = {}
        for rev in REVS:
            m = Manifest.from_json(read(os.path.join(self.inp, f"{rev}.manifest.json")).decode())
            p = load_program(read(os.path.join(self.inp, f"{rev}.ir.json")).decode())
            bad += [f"{rev}: {x}" for x in inputs.check_data_layout(p)]
            want = m.command_signatures()
            mined = db_signatures(load_db(files[f"{rev}.cmdb.tsv"].decode()))
            ref = oracle.analyze(p)
            if mined != want:
                bad.append(f"{rev}: mined signatures differ from the manifest "
                           f"({len(mined - want)} extra, {len(want - mined)} missing)")
            if ref.commands != want:
                bad.append(f"{rev}: oracle signatures differ from the manifest")
            report = dict(line.split("=", 1) for line in
                          files[f"{rev}.report.txt"].decode().splitlines()[:5])
            self.sizes[rev] = dict(self.meta["binaries"][rev], **{
                "edges": len(ref.direct_edges) + len(ref.virtual_edges),
                "virtual_edges": len(ref.virtual_edges),
                "sites": int(report["sites_total"]),
                "records": int(report["records"]),
            })
        return bad

    def check_diff(self, text: str) -> list[str]:
        got = {"base-only": set(), "cur-only": set()}
        for line in text.splitlines():
            cols = line.split("\t")
            if cols[0] in got:
                got[cols[0]].add(tuple(cols[1:]))
        want = self.meta["diff"]
        bad = []
        for label, key, seeds in (("base-only", "base_only", "dropped"),
                                  ("cur-only", "cur_only", "added")):
            if got[label] != {tuple(k) for k in want[key]}:
                bad.append(f"diff {label} set differs from the commands of the seeds {seeds}")
        return bad

    def check_sim(self, text: str) -> tuple[list[str], int, int]:
        """Problems, planted mutation-only crashes found, mutation_execs."""
        lines = text.splitlines()
        if len(lines) < 3 or not lines[1].startswith("# probes="):
            return ["findings file is malformed"], 0, 0
        head = dict(kv.split("=") for kv in lines[1][2:].split())
        planted = {p["root"]: p for p in self.meta["sim"]["planted"]}
        bad, found = [], set()
        if int(head["probes"]) != len(self.meta["sim"]["fuzzed_roots"]):
            bad.append(f"{head['probes']} commands probed, "
                       f"{len(self.meta['sim']['fuzzed_roots'])} chosen to fuzz")
        for line in lines[3:]:
            crash, root, payload, source, _execs = line.split("\t")
            row = first_row(self.sim_config.rows, bytes.fromhex(payload))
            p = planted.get(root)
            if p is None or row is None or row.effect == "ok":
                bad.append(f"finding on {root} is not planted")
            elif crash != p["class"] or source != p["reach"]:
                bad.append(f"finding on {root} is {crash}/{source}, "
                           f"planted {p['class']}/{p['reach']}")
            else:
                found.add(root)
        for root, p in planted.items():
            if p["reach"] == "probe" and root not in found:
                bad.append(f"probe-reachable planted crash on {root} was missed")
        n_mut = sum(1 for r in found if planted[r]["reach"] == "mutation")
        return bad, n_mut, int(head["mutation_execs"])

    def check_first(self, first: dict) -> tuple[dict, int, int]:
        """Check the first session's outputs; returns the problems per call,
        the planted mutation-only crashes found and ``mutation_execs``."""
        out = first["outputs"]
        problems = {name: [] for name in CALLS}
        crashes = execs = 0
        for name in CALLS:
            if first[name][1] != 0:
                problems[name].append(f"exited with {first[name][1]}")
                continue
            text = out[name]["findings.tsv" if name == "sim" else "stdout"].decode()
            try:  # a malformed output is a failed check, not a dead benchmark
                if name == "analyze":
                    problems[name] += self.check_analyze(out[name])
                elif name == "diff":
                    problems[name] += self.check_diff(text)
                else:
                    bad, crashes, execs = self.check_sim(text)
                    problems[name] += bad
            except Exception as e:
                problems[name].append(f"output could not be checked: {e!r}")
        return problems, crashes, execs

    def score(self, sessions: list[dict], ref: dict, problems: dict) -> None:
        """Count every call as an operation; it fails on a non-zero exit,
        on output that differs from the first session's, or when the first
        session's output failed its check."""
        for s in sessions:
            for name in CALLS:
                _dt, rc, digest, _scale = s[name]
                self.attempted += 1
                if rc != 0 or digest != ref[name][2] or problems[name]:
                    self.failed += 1
        for name, bad in problems.items():
            self.problems += [f"{name}: {b}" for b in bad]

    def selfcheck(self) -> None:
        """The composer's own check, on four seeds drawn from the run's seed."""
        import inputs
        rng = random.Random(f"selfcheck/{self.args.seed}")
        self.attempted += 1
        bad = inputs.selfcheck([rng.randrange(1, 10**6) for _ in range(4)])
        if bad:
            self.fail("; ".join(bad))

    # -- runs ------------------------------------------------------------

    def loop(self, body) -> None:
        n, t0 = 0, time.perf_counter()
        while n < MIN_SESSIONS or time.perf_counter() - t0 < self.args.seconds:
            body(n)
            n += 1

    def run_plain(self, setup_times: list[float]) -> dict:
        out = os.path.join(self.run_dir, "out")
        os.makedirs(out)
        sessions = []
        self.loop(lambda n: sessions.append(self.session(out, keep=n == 0)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref = sessions[0]
        problems, crashes, execs = self.check_first(ref)
        self.score(sessions, ref, problems)
        self.selfcheck()

        times = {name: [s[name][0] * s[name][3] for s in sessions] for name in CALLS}
        self.samples.update({name + "_raw": [s[name][0] for s in sessions] for name in CALLS})
        self.samples.update({name + "_scale": [s[name][3] for s in sessions] for name in CALLS})
        tail_s, tail_pct = tail(times["analyze"])
        sim_s = statistics.median(times["sim"])
        self.notes = {"sessions": len(sessions), "analyze_s.tail_percentile": tail_pct,
                      "planted_mutation_crashes": self.meta["params"]["mutation_crashes"]}
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "analyze_s.p50": (statistics.median(times["analyze"]), "s"),
            "analyze_s.tail": (tail_s, "s"),
            "diff_s.p50": (statistics.median(times["diff"]), "s"),
            "sim_s.p50": (sim_s, "s"),
            "sim.inj_per_s": (execs / sim_s, "1/s"),
            "fuzz.crashes_found": (crashes, "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def run_traced(self) -> dict:
        from spans import Tracer
        tracer = self.tracer = Tracer()
        plain_out = os.path.join(self.run_dir, "out")
        traced_out = os.path.join(self.run_dir, "out-traced")
        os.makedirs(plain_out)
        os.makedirs(traced_out)
        plain, traced, decode = [], [], []
        ir_texts = [read(os.path.join(self.inp, f"{r}.ir.json")).decode() for r in REVS]

        def body(n):
            plain.append(self.session(plain_out, keep=n == 0))
            tracer.install()
            try:
                traced.append(self.session(traced_out, tracer))
            finally:
                tracer.remove()
            t = time.perf_counter()
            for text in ir_texts:
                json.loads(text)
            decode.append((time.perf_counter() - t) * traced[-1]["analyze"][3])

        self.loop(body)
        ref = plain[0]
        problems, _crashes, _execs = self.check_first(ref)
        # the traced sessions' outputs must equal the untraced ones byte for byte
        self.score(plain + traced, ref, problems)
        self.selfcheck()
        self.samples.update({"analyze_raw": [s["analyze"][0] for s in plain],
                             "analyze_scale": [s["analyze"][3] for s in plain],
                             "analyze_traced_raw": [s["analyze"][0] for s in traced],
                             "analyze_traced_scale": [s["analyze"][3] for s in traced]})

        for s in traced:
            s["totals"] = {op: tracer.totals(s["ops"][op]) for op in CALLS}

        def span(op, *names):
            return statistics.median(
                sum(s["totals"][op].get(n, 0.0) for n in names) * s[op][3] for s in traced)

        def count(op, name):
            return statistics.median(tracer.counters[s["ops"][op]].get(name, 0) for s in traced)

        load_s = span("analyze", "ir.load_program")
        insns = count("analyze", "ir.insns")
        sites = count("analyze", "channel.sites")
        execs = count("sim", "harness.mutation_execs")
        adds = count("sim", "harness.corpus_adds")
        inject_us, mutate_us = self.replay()
        untraced = statistics.median(s["analyze"][0] * s["analyze"][3] for s in plain)
        self.notes = {"sessions": len(traced), "shares": self.shares(traced)}
        return {
            "ir.load_s": (load_s, "s"),
            "ir.json_decode_s": (statistics.median(decode), "s"),
            "ir.insns": (insns, "count"),
            "ir.load_us_per_insn": (load_s / insns * 1e6 if insns else 0.0, "us"),
            "ir.serialize_s": (self.setup_timing("ir.serialize_s"), "s"),
            "callgraph.direct_s": (span("analyze", "callgraph.build_direct_cg"), "s"),
            "callgraph.vcall_s": (span("analyze", "callgraph.recover_vcalls"), "s"),
            "callgraph.edges": (count("analyze", "callgraph.edges"), "count"),
            "callgraph.virtual_edges": (count("analyze", "callgraph.virtual_edges"), "count"),
            "callgraph.unresolved": (count("analyze", "callgraph.unresolved"), "count"),
            "channel.filter_s": (span("analyze", "channel.filter_commands"), "s"),
            "channel.resolve_s": (span("analyze", "channel.resolve_channel"), "s"),
            "channel.sites": (sites, "count"),
            "channel.kept": (count("analyze", "channel.kept"), "count"),
            "channel.kept_ratio": (count("analyze", "channel.kept") / sites if sites else 0.0,
                                   "ratio"),
            "taint.backward_s": (span("analyze", "taint.backward_taint"), "s"),
            "taint.concretize_s": (span("analyze", "taint.concretize_payload"), "s"),
            "taint.forward_s": (span("analyze", "taint.forward_taint"), "s"),
            "taint.traces": (count("analyze", "taint.traces"), "count"),
            "taint.incomplete": (count("analyze", "taint.incomplete"), "count"),
            "commands.save_s": (span("analyze", "commands.save_db", "commands.save_db_json"), "s"),
            "commands.load_db_s": (span("diff", "commands.load_db"), "s"),
            "commands.diff_s": (span("diff", "commands.diff"), "s"),
            "commands.records": (count("analyze", "commands.records"), "count"),
            "cli.self_s": (span("analyze", "cli.analyze.self"), "s"),
            "sim.inject_us": (inject_us, "us"),
            "sim.rows": (len(self.sim_config.rows), "count"),
            "harness.mutate_us": (mutate_us, "us"),
            "harness.probes": (count("sim", "harness.probes"), "count"),
            "harness.mutation_execs": (execs, "count"),
            "harness.corpus_adds": (adds, "count"),
            "harness.useful_ratio": (adds / execs if execs else 0.0, "ratio"),
            "fixtures.gen_s": (self.setup_timing("fixtures.gen_s"), "s"),
            "trace.overhead_s": (span("analyze", "cli.analyze") - untraced, "s"),
        }

    def shares(self, traced: list[dict]) -> dict:
        """Median share of each layer in the analyze call and in the whole
        session (normalized times), over the traced sessions."""
        groups = {
            "ir": ("ir.load_program",),
            "callgraph.direct": ("callgraph.build_direct_cg",),
            "callgraph.vcall+channel.filter": ("callgraph.recover_vcalls",
                                               "channel.filter_commands"),
            "commands": ("commands.save_db", "commands.save_db_json",
                         "commands.load_db", "commands.diff"),
            "sim+harness": ("sim.load_sim_config", "harness.campaign"),
            "cli": ("cli.analyze.self", "cli.diff.self", "cli.sim.self"),
        }
        out = {}
        for scope, ops in (("analyze", ("analyze",)), ("session", CALLS)):
            vals = {g: [] for g in groups}
            for s in traced:
                tot: dict[str, float] = {}
                for op in ops:
                    for k, v in s["totals"][op].items():
                        tot[k] = tot.get(k, 0.0) + v * s[op][3]
                whole = sum(tot.get("cli." + op, 0.0) for op in ops)
                for g, names in groups.items():
                    vals[g].append(sum(tot.get(n, 0.0) for n in names) / whole)
            out[scope] = {g: round(statistics.median(v), 4) for g, v in vals.items()}
        return out

    def replay(self) -> tuple[float, float]:
        """Mean normalized microseconds of ``harness.mutate`` over a fixed
        list of mutations of revision B's hybrid commands, and of
        ``SimWorld.inject`` over the mutants that crash nothing; medians of
        three passes."""
        from rilmine.harness import mutate
        from rilmine.sim import SimWorld
        from rilmine.taint import parse_payload_hex
        rng = random.Random(f"replay/{self.args.seed}")
        with open(os.path.join(self.inp, "revB.manifest.json"), encoding="utf-8") as fh:
            cmds = json.load(fh)["commands"]
        hybrid = [parse_payload_hex(c["payload"]) for c in cmds
                  if c["direction"] == "solicited" and c["kind"] == "hybrid"]
        seeds = [rng.random() for _ in range(len(hybrid) * REPLAY_PER_COMMAND)]
        jobs = [(pb, s) for pb, s in zip(
            (pb for pb in hybrid for _ in range(REPLAY_PER_COMMAND)), seeds)]
        mutants = [mutate(pb, random.Random(s)) for pb, s in jobs]
        replay = [x for x in mutants
                  if (row := first_row(self.sim_config.rows, x)) is None or row.effect == "ok"]
        inject, mut = [], []
        for _ in range(3):
            rngs = [random.Random(s) for _pb, s in jobs]
            gc.collect()
            before = calibrate()
            t = time.perf_counter()
            for (pb, _s), r in zip(jobs, rngs):
                mutate(pb, r)
            dt = time.perf_counter() - t
            after = calibrate()
            mut.append(dt * (before + after) / 2 / len(jobs) * 1e6)
            world = SimWorld(self.sim_config)
            t = time.perf_counter()
            for x in replay:
                world.inject(x)
            dt = time.perf_counter() - t
            inject.append(dt * (after + calibrate()) / 2 / len(replay) * 1e6)
        return statistics.median(inject), statistics.median(mut)


def environment() -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rilmine")
    for f in sorted(os.listdir(pkg)):
        if f.endswith(".py"):
            h.update(f.encode() + b"\0" + read(os.path.join(pkg, f)))
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rilmine benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rilmine", "__init__.py")):
        print(f"error: no rilmine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    bench = Bench(args)
    os.makedirs(bench.run_dir)
    try:
        setup_times = bench.setup()
        metrics = bench.run_traced() if args.trace else bench.run_plain(setup_times)
        result_dir = os.path.join(WORK, "results")
        os.makedirs(result_dir, exist_ok=True)
        stem = os.path.join(result_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
        if args.trace:
            bench.tracer.dump(stem + ".trace.json")
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "inputs": {"binaries": getattr(bench, "sizes", bench.meta["binaries"]),
                   "sim": bench.meta["sim"], "dropped_seeds": bench.meta["dropped_seeds"],
                   "added_seeds": bench.meta["added_seeds"]},
        "notes": bench.notes,
        "samples": bench.samples,
        "problems": bench.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": bench.attempted,
        "failed": bench.failed,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in bench.problems:
        print(f"problem: {p}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("notes " + json.dumps(bench.notes, sort_keys=True))
    for k, (v, u) in metrics.items():
        print(f"{k} {v} {u}")
    print(f"ops_failed_ratio {bench.failed / bench.attempted} ratio")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
