"""The three benchmark workloads and their input set-up.

Each workload is one user session on two firmware revisions: revision A
and revision B of a binary, where B drops some of A's ``gen_random`` seeds
and adds new ones. The session analyzes both revisions in one ``rilmine
analyze`` call, diffs their command databases, and fuzzes a fixed number
of B's mined commands against a simulator behavior table. The workloads differ in
what dominates that session (see METRICS.md for why each was chosen).

Run as a script, this module is the set-up step: it generates one
workload's inputs from its seed into a directory, the way a user would
prepare them, and exits.

    python3 bench/workloads.py <workload> <seed> <out_dir>
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    seeds: int  # gen_random seeds per revision
    changed: int  # seeds revision B drops from A, and new seeds it adds
    pad_functions: int  # padding functions per binary
    pad_length: int  # instructions per padding function
    fuzz_hybrid: int  # hybrid commands of revision B that sim fuzzes
    fuzz_static: int  # static commands of revision B that sim probes
    rows: int  # behavior table rows
    probe_crashes: int  # planted crashes the static probe reaches
    mutation_crashes: int  # planted crashes only a mutated byte reaches
    budget: int  # sim --budget: mutation injections per hybrid command


WORKLOADS = {
    "large-binary": Workload(seeds=10, changed=2, pad_functions=2000, pad_length=8,
                             fuzz_hybrid=4, fuzz_static=6, rows=20,
                             probe_crashes=2, mutation_crashes=2, budget=100),
    "site-dense": Workload(seeds=160, changed=16, pad_functions=0, pad_length=0,
                           fuzz_hybrid=80, fuzz_static=80, rows=40,
                           probe_crashes=5, mutation_crashes=5, budget=60),
    "fuzz": Workload(seeds=60, changed=3, pad_functions=0, pad_length=0,
                     fuzz_hybrid=40, fuzz_static=40, rows=200,
                     probe_crashes=10, mutation_crashes=10, budget=300),
}

REVISIONS = ("revA", "revB")


def diff_key(c: dict) -> list:
    """The identity ``rilmine diff`` compares, for a manifest command."""
    if c["direction"] == "solicited":
        return ["solicited", c["payload"], c["root"]]
    return ["unsolicited", f"const:{c['constant']:#x}", c["root"]]


def make(name: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into ``out`` and return its meta record
    (also written as ``meta.json``; set-up timings go to ``timings.json``)."""
    import inputs
    from rilmine.fixtures import gen_random
    from rilmine.ir import serialize

    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    t = time.perf_counter()
    for _attempt in range(20):
        # revision B drops A's first seeds and adds as many new ones
        pool = rng.sample(range(1, 10**6), w.seeds + w.changed)
        dropped, added = pool[: w.changed], pool[w.seeds:]
        generated = {s: gen_random(seed=s) for s in pool}
        progs = {}
        for rev, seeds in zip(REVISIONS, (pool[: w.seeds], pool[w.changed:])):
            pad = inputs.add_padding(random.Random(f"{name}/{seed}/{rev}"),
                                     w.pad_functions, w.pad_length)
            progs[rev] = inputs.compose(rev, seeds, pad, generated)
        try:
            config, planted, fuzzed = inputs.fuzz_table(
                rng, progs["revB"][1].commands, n_hybrid=w.fuzz_hybrid,
                n_static=w.fuzz_static, n_rows=w.rows, n_probe=w.probe_crashes,
                n_mutation=w.mutation_crashes)
            break
        except ValueError:
            continue  # too few commands of a kind to fuzz: draw other seeds
    else:
        raise SystemExit(f"{name} seed {seed}: no seed set with enough commands to fuzz")
    gen_s = time.perf_counter() - t

    serialize_s = 0.0
    binaries = {}
    for rev, (p, m) in progs.items():
        t = time.perf_counter()
        text = serialize(p)
        serialize_s += time.perf_counter() - t
        with open(os.path.join(out, f"{rev}.ir.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(out, f"{rev}.manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(m.to_json())
        binaries[rev] = {
            "seeds": m.params["seeds"],
            "instructions": sum(len(b.instructions) for f in p.functions for b in f.blocks),
            "functions": len(p.functions),
            "padding_functions": w.pad_functions,
            "commands": len(m.commands),
            "ir_bytes": len(text),
        }
    with open(os.path.join(out, "revB.sim.txt"), "w", encoding="utf-8") as fh:
        fh.write(config.to_text())

    def keys(rev, seeds):
        return sorted({tuple(diff_key(c)) for c in progs[rev][1].commands if c["seed"] in seeds})

    meta = {
        "workload": name,
        "seed": seed,
        "params": asdict(w),
        "binaries": binaries,
        "dropped_seeds": dropped,
        "added_seeds": added,
        "diff": {
            "base_only": keys("revA", dropped),
            "cur_only": keys("revB", added),
        },
        "sim": {"rows": len(config.rows), "budget": w.budget, "planted": planted,
                "fuzzed_roots": fuzzed},
    }
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    # kept apart from meta.json so that repeated set-ups compare byte for byte
    with open(os.path.join(out, "timings.json"), "w", encoding="utf-8") as fh:
        json.dump({"fixtures.gen_s": gen_s, "ir.serialize_s": serialize_s}, fh)
    return meta


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
