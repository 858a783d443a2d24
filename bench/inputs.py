"""Benchmark inputs, generated from the workload seed.

Every input is built on the public ``rilmine.fixtures.gen_random``:

* ``compose`` joins the programs of many ``gen_random`` seeds into one
  binary. Each seed's names get a per-seed suffix, and its data segment is
  rebased above the ioctl request range so no ioctl constant reads as an
  address. The ground truth is the union of the renamed manifests.
* ``add_padding`` appends straight-line functions that call each other.
  They add instructions and unrelated call edges, never an I/O site, so the
  ground truth is unchanged.
* ``fuzz_table`` picks a fixed number of a manifest's solicited commands to
  fuzz, plants crash rows against some of them, and pads the table with
  rows no mined payload can match.
"""

from __future__ import annotations

import random

from rilmine.fixtures import C, I, U, Manifest, block, build_program, func, gen_random
from rilmine.ir import Block, ClassInfo, Function, Instruction, IRProgram, Param, Varnode
from rilmine.sim import BehaviorRow, SimConfig

# gen_random draws ioctl request codes from this range; data must stay above it.
IOCTL_REQ_MIN = 0x10000
IOCTL_REQ_MAX = 0xFFFFF
DATA_BASE = 0x100000

# Crash classes in the findings file, keyed by the table effect that plants them.
CRASH_CLASS = {
    "temporary_crash": "temporary",
    "recoverable_crash": "recoverable",
    "permanent_crash": "permanent",
}
# Dynamic-byte values one mutation of a zero byte reaches with probability
# about 1/4 (increment or decrement, plus bit flip or interesting byte; see
# harness.mutate), so every workload's budget finds each planted crash and
# the count does not vary with the workload seed.
MUTATION_TARGETS = (0x01, 0xFF)


def suffixed(name: str, sfx: str) -> str:
    """``Cls::Method`` -> ``Cls<sfx>::Method``; a plain name -> ``name<sfx>``.
    The module token of the symbol (``classify_module``) is unchanged."""
    if "::" in name:
        cls, rest = name.split("::", 1)
        return f"{cls}{sfx}::{rest}"
    return name + sfx


def _rename_site(site: str, sfx: str) -> str:
    fn, _, loc = site.rpartition("@")
    return f"{suffixed(fn, sfx)}@{loc}"


def _rename_type(t: str, sfx: str) -> str:
    return "class:" + suffixed(t[6:], sfx) if t.startswith("class:") else t


class _Part:
    """One seed's program and manifest, renamed and rebased."""

    def __init__(self, seed: int, p: IRProgram, m: Manifest, data_at: int):
        sfx = f"_s{seed}"
        lo = min(a for a, _ in p.data)
        hi = max(a + len(b) for a, b in p.data)
        shift = data_at - lo
        self.end = data_at + hi - lo
        self.data = [(a + shift, b) for a, b in p.data]
        self.externals = set(p.externals)

        def vn(v: Varnode) -> Varnode:
            if v.space == "const" and lo <= v.offset < hi:
                return Varnode("const", v.offset + shift, v.size)
            return v

        def ins(x: Instruction) -> Instruction:
            callee = x.callee
            if callee is not None and callee not in self.externals:
                callee = suffixed(callee, sfx)
            out = vn(x.output) if x.output is not None else None
            return Instruction(x.op, out, tuple(vn(v) for v in x.inputs), callee)

        self.functions = [
            Function(
                id=suffixed(f.id, sfx),
                name=suffixed(f.name, sfx),
                owning_class=suffixed(f.owning_class, sfx) if f.owning_class else None,
                params=[Param(q.name, _rename_type(q.type, sfx)) for q in f.params],
                return_type=_rename_type(f.return_type, sfx),
                stack_size=f.stack_size,
                blocks=[Block(b.id, [ins(x) for x in b.instructions], b.successors)
                        for b in f.blocks],
            )
            for f in p.functions
        ]
        self.classes = [
            ClassInfo(
                name=suffixed(c.name, sfx),
                parents=[suffixed(x, sfx) for x in c.parents],
                vtable_addr=c.vtable_addr,
                vtable=[suffixed(x, sfx) for x in c.vtable],
                constructors=[suffixed(x, sfx) for x in c.constructors],
                members=[suffixed(x, sfx) for x in c.members],
            )
            for c in p.classes
        ]
        self.commands = []
        for c in m.commands:
            c = dict(c, root=suffixed(c["root"], sfx), seed=seed)
            if c.get("handler"):
                c["handler"] = suffixed(c["handler"], sfx)
            self.commands.append(c)
        self.virtual_edges = [(suffixed(a, sfx), suffixed(b, sfx)) for a, b in m.virtual_edges]
        self.unresolved = [dict(u, site=_rename_site(u["site"], sfx)) for u in m.unresolved]
        self.discards = [dict(d, site=_rename_site(d["site"], sfx)) for d in m.discards]


def compose(name: str, seeds: list[int], padding: list[Function] = (),
            generated: dict | None = None) -> tuple[IRProgram, Manifest]:
    """One program from the ``gen_random`` programs of ``seeds`` plus
    ``padding``, with the merged ground-truth manifest. ``generated`` maps
    a seed to its ``gen_random(seed)`` result when the caller already has
    it. ``build_program`` links and validates the result."""
    generated = generated or {}
    classes, functions, data, externals = [], [], [], set()
    m = Manifest(program=name, params={"seeds": list(seeds)})
    at = DATA_BASE
    for seed in seeds:
        p, sm = generated[seed] if seed in generated else gen_random(seed=seed)
        part = _Part(seed, p, sm, at)
        at = (part.end + 0x10) & ~0xF
        classes += part.classes
        functions += part.functions
        data += part.data
        externals |= part.externals
        m.commands += part.commands
        m.virtual_edges += part.virtual_edges
        m.unresolved += part.unresolved
        m.discards += part.discards
    functions += list(padding)
    p = build_program(name, classes=classes, functions=functions, data=data,
                      externals=sorted(externals))
    return p, m


def add_padding(rng: random.Random, n_functions: int, length: int) -> list[Function]:
    """Straight-line functions of ``length`` instructions: an INT_ADD chain
    with a CALL to an earlier padding function after every fourth add."""
    fns: list[Function] = []
    for k in range(n_functions):
        body, last = [], C(k)
        for i in range(length - 1):
            if k and i % 5 == 4:
                body.append(I("CALL", None, (last,), callee=fns[rng.randrange(k)].id))
            else:
                body.append(I("INT_ADD", U(i), (last, C(rng.randrange(1, 1 << 16)))))
                last = U(i)
        body.append(I("RETURN"))
        fns.append(func(f"PadFn{k:05d}", params=(("x", "int"),), blocks=[block(0, body)]))
    return fns


def check_data_layout(p: IRProgram) -> list[str]:
    """Problems with the rebased data: a segment that starts at or below
    the ioctl request range, or a constant in that range (where every
    ioctl request code lies) that reads as a data address."""
    problems = [f"data segment at {a:#x} is not above {IOCTL_REQ_MAX:#x}"
                for a, _ in p.data if a <= IOCTL_REQ_MAX]
    for f in p.functions:
        for _bid, _idx, x in f.linear():
            for v in x.inputs:
                if v.is_const and IOCTL_REQ_MIN <= v.offset <= IOCTL_REQ_MAX \
                        and p.read_bytes(v.offset, 1) is not None:
                    problems.append(f"{f.id}: constant {v.offset:#x} is a data address")
    return problems


def selfcheck(seeds: list[int]) -> list[str]:
    """Compose a few seeds with some padding, round-trip the program
    through ``serialize`` and ``load_program`` (which validates it), and
    require the pipeline, ``oracle.analyze`` and the merged manifest to
    agree on commands and virtual edges. Returns the problems found."""
    from rilmine import oracle
    from rilmine.callgraph import build_direct_cg, recover_vcalls
    from rilmine.channel import filter_commands
    from rilmine.fixtures import db_signatures
    from rilmine.ir import load_program, serialize

    p, m = compose("selfcheck", seeds, add_padding(random.Random(0), 40, 8))
    p = load_program(serialize(p))
    cg = build_direct_cg(p)
    recover_vcalls(p, cg)
    db, _report = filter_commands(p, cg)
    ref = oracle.analyze(p)
    problems = check_data_layout(p)
    if db_signatures(db) != m.command_signatures():
        problems.append("composer: pipeline commands differ from the merged manifest")
    if ref.commands != m.command_signatures():
        problems.append("composer: oracle commands differ from the merged manifest")
    if {(e.caller, e.callee) for e in cg.virtual_edges()} != m.edge_set() \
            or ref.virtual_edges != m.edge_set():
        problems.append("composer: virtual edges differ from the merged manifest")
    return problems


# ---------------------------------------------------------------------------
# Simulator inputs

def _matcher(masked: str) -> list:
    return [None if t == ".." else int(t, 16) for t in masked.split()]


def fuzz_table(rng: random.Random, commands: list[dict], *, n_hybrid: int, n_static: int,
               n_rows: int, n_probe: int, n_mutation: int) -> tuple[SimConfig, list[dict], list[str]]:
    """Pick the commands to fuzz and the behavior table to fuzz them against.

    From the solicited ``commands`` of a manifest, ``n_hybrid`` hybrid and
    ``n_static`` static ones are fuzzed, so the sim call does the same
    amount of work for every seed. Among them, ``n_probe`` static commands
    get a crash the probe reaches (an exact row), and ``n_mutation`` hybrid
    ones a crash only a mutation reaches: an exact-length row with one
    dynamic position pinned to a value from ``MUTATION_TARGETS`` (the
    probe sends zero there) and the other dynamic positions wildcarded.

    The table is filled to ``n_rows`` rows with ``ok`` rows for a quarter
    of the free slots' worth of unplanted static commands, then fill rows.
    Fill rows are exact rows whose lengths cycle through 7..12, with byte 0
    equal to the length like a write payload's, so every mutant is compared
    against the same share of them whatever the seed. Their byte 1 is
    non-zero and their byte 2 zero: a write payload has a zero byte 1 (the
    high byte of its length word) and an ioctl request code in
    0x10000..0xFFFFF has a non-zero byte 2, and mutation only rewrites
    bytes from 7 on, so fill rows match no mined payload or mutant.

    Returns (config, planted rows as dicts, roots of the fuzzed commands).
    Raises ValueError when the manifest has too few commands of a kind.
    """
    solicited = sorted((c for c in commands if c["direction"] == "solicited"),
                       key=lambda c: (c["root"], c["payload"]))
    static = [c for c in solicited if c["kind"] == "static"]
    hybrid = [c for c in solicited if c["kind"] == "hybrid"]
    if len(static) < n_static or len(hybrid) < n_hybrid:
        raise ValueError(f"need {n_static} static and {n_hybrid} hybrid commands, "
                         f"have {len(static)} and {len(hybrid)}")
    static = rng.sample(static, n_static)
    hybrid = rng.sample(hybrid, n_hybrid)
    planted, rows = [], []
    effects = tuple(CRASH_CLASS)
    for c in static[:n_probe]:
        effect = rng.choice(effects)
        rows.append(BehaviorRow(tuple(_matcher(c["payload"])), False, effect,
                                (3,) if effect == "temporary_crash" else ()))
        planted.append({"root": c["root"], "class": CRASH_CLASS[effect], "reach": "probe"})
    for c in hybrid[:n_mutation]:
        effect = rng.choice(effects)
        m = _matcher(c["payload"])
        pos = rng.choice([i for i, b in enumerate(m) if b is None])
        m[pos] = rng.choice(MUTATION_TARGETS)
        rows.append(BehaviorRow(tuple(m), False, effect,
                                (3,) if effect == "temporary_crash" else ()))
        planted.append({"root": c["root"], "class": CRASH_CLASS[effect], "reach": "mutation"})
    for c in static[n_probe:n_probe + (n_rows - len(rows)) // 4]:
        rows.append(BehaviorRow(tuple(_matcher(c["payload"])), False, "ok", ()))
    while len(rows) < n_rows:
        n = 7 + len(rows) % 6
        m = [n, rng.randint(1, 255), 0, 0] + [rng.randrange(256) for _ in range(n - 4)]
        rows.append(BehaviorRow(tuple(m), False, "ok", ()))
    rng.shuffle(rows)
    return SimConfig(rows=rows), planted, sorted(c["root"] for c in static + hybrid)
