#!/usr/bin/env python3
"""Sweep random programs and check the miner against the reference
analyzer and the generator manifest.

Every seed builds a fresh program and round-trips it through
``serialize`` -> ``load_program``, which must give back the same text byte
for byte. It mines the reloaded program with the production pipeline
(callgraph -> virtual call recovery -> channel filter -> taint), runs the
independent reference implementation, and requires three-way agreement on
command signatures, virtual edges, unresolved sites, and discards.

    python3 scripts/run_oracle_sweep.py --seeds 200 --max-functions 200
"""

import argparse
import sys
import time

from rilmine import oracle
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.channel import filter_commands
from rilmine.fixtures import db_signatures, gen_random
from rilmine.ir import ParseError, ValidationError, load_program, serialize


def run_seed(seed: int, max_functions: int) -> list[str]:
    p, m = gen_random(seed=seed, max_functions=max_functions)
    problems = []
    text = serialize(p)
    try:
        p = load_program(text)
    except (ParseError, ValidationError) as e:
        return [f"load_program rejects the serialized program: {e}"]
    if serialize(p) != text:
        problems.append("serialize -> load_program -> serialize is not byte-identical")
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    db, report = filter_commands(p, cg)
    res = oracle.analyze(p)

    want = m.command_signatures()
    if db_signatures(db) != want:
        problems.append("pipeline signatures differ from manifest")
    if res.commands != want:
        problems.append("reference signatures differ from manifest")
    edges = m.edge_set()
    if {(e.caller, e.callee) for e in cg.virtual_edges()} != edges:
        problems.append("pipeline virtual edges differ from manifest")
    if res.virtual_edges != edges:
        problems.append("reference virtual edges differ from manifest")
    want_unresolved = {(u["site"], u["reason"]) for u in m.unresolved}
    if {(s.site_str, s.reason) for s in cg.unresolved} != want_unresolved:
        problems.append("pipeline unresolved sites differ from manifest")
    want_discards = {(d["site"], d["reason"], d["path"]) for d in m.discards}
    if set(report.discards) != want_discards:
        problems.append("pipeline discards differ from manifest")
    if res.discards != want_discards:
        problems.append("reference discards differ from manifest")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=100, help="number of seeds, 0..N-1")
    ap.add_argument("--start", type=int, default=0, help="first seed")
    ap.add_argument("--max-functions", type=int, default=200)
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    bad = 0
    for seed in range(args.start, args.start + args.seeds):
        problems = run_seed(seed, args.max_functions)
        if problems:
            bad += 1
            for msg in problems:
                print(f"seed {seed}: MISMATCH: {msg}")
    elapsed = time.monotonic() - t0
    print(f"{args.seeds} seeds, {bad} mismatching, {elapsed:.2f}s "
          f"({elapsed / max(args.seeds, 1) * 1000:.1f} ms/seed)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
