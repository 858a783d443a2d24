"""Attack discovery against the simulator.

Two stages per solicited command: a static probe that classifies the
stored payload by watching recovery behavior, then (for payloads with
dynamic bytes) a mutation loop that only ever rewrites dynamic positions.
Crash classes in rising severity: none, temporary, recoverable, permanent.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field

from .commands import CommandDB, CommandRecord
from .sim import IN_SERVICE, NvRequest, Response, SimConfig, SimWorld, nv_handle
from .taint import PayloadBytes

SEVERITY = {"none": 0, "temporary": 1, "recoverable": 2, "permanent": 3}

INTERESTING_BYTES = (0x00, 0x01, 0x7F, 0x80, 0xFF)


@dataclass(frozen=True)
class ProbeReport:
    crash_class: str
    response: Response
    states: tuple  # observed state after inject and after each wait step


def _classify_after_oos(world: SimWorld, window: int, states: list) -> str:
    """Finish the decision tree once an inject left the modem down: wait
    out the recovery window, then reboot, then give up."""
    for _ in range(window):
        world.advance(1)
        s = world.query_state()
        states.append(s)
        if s == IN_SERVICE:
            return "temporary"
    world.reboot()
    s = world.query_state()
    states.append(s)
    return "recoverable" if s == IN_SERVICE else "permanent"


def probe_command(world: SimWorld, payload: bytes, window: int | None = None) -> ProbeReport:
    """Inject once and classify. The world is reflashed before returning so
    successive probes start clean."""
    if window is None:
        window = 2 * world.config.default_recover_after
    states: list = []
    rsp = world.inject(payload)
    states.append(rsp.state)
    if rsp.state == IN_SERVICE:
        crash = "none"
    else:
        crash = _classify_after_oos(world, window, states)
    world.reflash()
    return ProbeReport(crash, rsp, tuple(states))


def _mutate_at(current: bytes, positions: list, rng: random.Random) -> bytes:
    """``current`` with one byte at one of ``positions`` rewritten, drawing
    from ``rng`` as ``mutate`` documents."""
    data = bytearray(current)
    i = rng.choice(positions)
    op = rng.randrange(5)
    if op == 0:
        data[i] ^= 1 << rng.randrange(8)
    elif op == 1:
        data[i] = (data[i] + 1) & 0xFF
    elif op == 2:
        data[i] = (data[i] - 1) & 0xFF
    elif op == 3:
        data[i] = rng.choice(INTERESTING_BYTES)
    else:
        data[i] = rng.randrange(256)
    return bytes(data)


def _dynamic_positions(payload: PayloadBytes) -> list:
    return [i for i, m in enumerate(payload.mask) if m == "d"]


def mutate(payload: PayloadBytes, rng: random.Random, current: bytes | None = None) -> bytes:
    """One mutation at a dynamic position: bit flip, inc, dec, interesting
    byte, or random byte. Static positions are never rewritten.

    Draws from ``rng``, in order: the position, the operator, then the bit,
    interesting byte or random byte for operators 0, 3 and 4. The campaign
    makes the same draws, with the positions computed once per command."""
    positions = _dynamic_positions(payload)
    if not positions:
        raise ValueError("no-mutable-bytes")
    if current is None:
        current = payload.data
    assert len(current) == len(payload.mask)
    return _mutate_at(current, positions, rng)


@dataclass(frozen=True)
class Finding:
    crash_type: str
    root_function: str
    payload: bytes
    source: str  # "probe" | "mutation"
    execs: int  # injections spent on this command when found


@dataclass
class CampaignStats:
    probes: int = 0
    mutation_execs: int = 0
    corpus_adds: int = 0
    first_crash_execs: dict = field(default_factory=dict)


def _record_rng(seed: int, rec: CommandRecord) -> random.Random:
    tag = f"{seed}:{rec.site}:{rec.root_function}".encode()
    sub = int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")
    return random.Random(sub)


def campaign(db: CommandDB, config: SimConfig, budget: int = 1000,
             seed: int = 0) -> tuple[list, CampaignStats]:
    """Probe every solicited command, then fuzz the hybrid ones. ``budget``
    caps mutation injections per command; 0 keeps the static probes only.
    Deterministic for a given (db, config, budget, seed).

    Built once per campaign: one world, which indexes the behavior table
    when it is built. Computed once per command: its dynamic positions and
    its RNG, sub-seeded from ``seed`` and the record. Each mutation draws
    from that RNG in the order ``mutate`` documents; that order is part of
    the findings, so changing it means regenerating
    ``tests/golden/findings.json``."""
    findings: list = []
    stats = CampaignStats()
    # One world, reflashed before each command: latches compare ticks only
    # with each other, so a fresh world and a reflashed one behave alike.
    world = SimWorld(config)
    for rec in db.sorted_records():
        if rec.direction != "solicited":
            continue
        world.reflash()
        rng = _record_rng(seed, rec)
        execs = 1
        report = probe_command(world, rec.payload.data, window=None)
        stats.probes += 1
        if report.crash_class != "none":
            findings.append(Finding(report.crash_class, rec.root_function,
                                    rec.payload.data, "probe", execs))
            stats.first_crash_execs.setdefault(rec.root_function, execs)
            continue
        positions = _dynamic_positions(rec.payload)
        if not positions or budget <= 0:
            continue
        corpus = [rec.payload.data]
        history = {(report.response.code, report.states[0])}
        window = 2 * config.default_recover_after
        for _ in range(budget):
            parent = rng.choice(corpus)
            mutant = _mutate_at(parent, positions, rng)
            rsp = world.inject(mutant)
            execs += 1
            stats.mutation_execs += 1
            if rsp.state != IN_SERVICE:
                states = [rsp.state]
                crash = _classify_after_oos(world, window, states)
                world.reflash()
                findings.append(Finding(crash, rec.root_function, mutant,
                                        "mutation", execs))
                stats.first_crash_execs.setdefault(rec.root_function, execs)
                break
            sig = (rsp.code, rsp.state)
            if sig not in history:
                history.add(sig)
                corpus.append(mutant)
                stats.corpus_adds += 1
    findings.sort(key=lambda f: (-SEVERITY[f.crash_type], f.root_function))
    return findings, stats


# ---------------------------------------------------------------------------
# Nv sandbox escape probe

@dataclass(frozen=True)
class NvEscapeReport:
    escaped: bool
    write_status: str
    dotdot_status: str
    leak_path: str | None


def probe_nv_escape(config: SimConfig, outside_dir: str) -> NvEscapeReport:
    """Plant a symlink inside the sandbox pointing at ``outside_dir`` and
    try to write through it. Escape is confirmed by the file landing
    outside. Also records whether a bare ``..`` path is rejected."""
    root = config.sandbox_root
    assert root is not None, "config needs a sandbox_root"
    os.makedirs(root, exist_ok=True)
    os.makedirs(outside_dir, exist_ok=True)
    link = os.path.join(root, "esc")
    if not os.path.islink(link):
        os.symlink(outside_dir, link)
    dot_r = nv_handle(config, NvRequest("read", "../secret"))
    w_r = nv_handle(config, NvRequest("write", "esc/leak", b"pwned"))
    leak = os.path.join(outside_dir, "leak")
    escaped = w_r.status == "ok" and os.path.isfile(leak)
    return NvEscapeReport(
        escaped=escaped,
        write_status=w_r.status,
        dotdot_status=dot_r.status,
        leak_path=leak if escaped else None,
    )
