"""Fixture programs with ground-truth manifests.

Every generator returns (IRProgram, Manifest). The manifest is built from
the construction plan itself, never by running an analysis, so it can
serve as the expected output for both the pipeline and the brute-force
reference analyzer. Generators are deterministic per seed.

The small constructors (C/R/S/U, I, block, func) are exported for tests
that need one-off programs.

The figure fixtures and ``gen_random`` draw each recurring program shape
from one private builder: ``_frame_bytes`` (payload bytes copied into the
stack frame), ``_open_ctor`` (a constructor that opens a device into
``this+8``), ``_fd_member`` (a method that calls an I/O function on that
fd), ``_reader`` (``open`` + ``read`` into a buffer handed to a
dispatcher) and ``_ladder`` (the dispatcher's compare-and-branch blocks).
A new ``gen_random`` shape is added as one more builder next to these.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from .commands import CommandDB, classify_module, make_record
from .ir import (
    Block,
    ClassInfo,
    Function,
    Instruction,
    IRProgram,
    Param,
    Varnode,
    format_site,
    validate,
)
from .taint import LengthSource, PayloadBytes, payload_hex
from .sim import BehaviorRow, SimConfig


def C(v: int, size: int = 8) -> Varnode:
    return Varnode("const", v, size)


def R(k: int, size: int = 8) -> Varnode:
    return Varnode("reg", k, size)


def S(off: int, size: int) -> Varnode:
    return Varnode("stack", off, size)


def U(n: int, size: int = 8) -> Varnode:
    return Varnode("unique", n, size)


def I(op: str, out: Varnode | None = None, ins: tuple = (), callee: str | None = None) -> Instruction:
    return Instruction(op, out, tuple(ins), callee)


def block(bid: int, instructions: list[Instruction], succ: tuple = ()) -> Block:
    return Block(bid, tuple(instructions), tuple(succ))


def func(fid: str, *, cls: str | None = None, params: tuple = (), ret: str = "void",
         stack: int = 96, blocks: list[Block]) -> Function:
    plist = [Param(n, t) for n, t in params]
    if cls is not None and (not plist or plist[0].name != "this"):
        plist.insert(0, Param("this", f"class:{cls}"))
    return Function(
        id=fid, name=fid, owning_class=cls, params=tuple(plist),
        return_type=ret, stack_size=stack, blocks=tuple(blocks),
    )


def ret_stub(fid: str, *, cls: str | None = None, params: tuple = ()) -> Function:
    return func(fid, cls=cls, params=params, blocks=[block(0, [I("RETURN")])])


def build_program(name: str, *, classes=(), functions=(), data=(), externals=(),
                  word_size: int = 8) -> IRProgram:
    p = IRProgram(
        name=name,
        word_size=word_size,
        classes=list(classes),
        functions=list(functions),
        data=[(a, b) for a, b in data],
        externals=list(externals),
    )
    diags = validate(p)
    if diags:
        raise ValueError(f"fixture bug in {name}: {[str(d) for d in diags]}")
    return p


# ---------------------------------------------------------------------------
# Manifest

@dataclass
class Manifest:
    program: str
    seed: int | None = None
    params: dict = field(default_factory=dict)
    virtual_edges: list[tuple[str, str]] = field(default_factory=list)
    commands: list[dict] = field(default_factory=list)
    unresolved: list[dict] = field(default_factory=list)
    discards: list[dict] = field(default_factory=list)

    def command_signatures(self) -> set[tuple]:
        return {command_signature(c) for c in self.commands}

    def edge_set(self) -> set[tuple[str, str]]:
        return set(self.virtual_edges)

    def to_json(self) -> str:
        return json.dumps(vars(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        d = json.loads(text)
        d["virtual_edges"] = [tuple(e) for e in d["virtual_edges"]]
        return cls(**d)


def command_signature(c: dict) -> tuple:
    if c["direction"] == "solicited":
        return ("solicited", c["api"], c["root"], c["payload"], c["channel"])
    return ("unsolicited", c["api"], c["root"], c["constant"], c["handler"], c["channel"])


def db_signatures(db: CommandDB) -> set[tuple]:
    out = set()
    for r in db.records:
        if r.direction == "solicited":
            out.add(("solicited", r.api, r.root_function, payload_hex(r.payload), r.channel_path))
        else:
            out.add(
                ("unsolicited", r.api, r.root_function, r.constant, r.handler, r.channel_path)
            )
    return out


def _solicited_entry(api, root, payload_masked, channel, length_source, kind) -> dict:
    return {
        "direction": "solicited",
        "api": api,
        "root": root,
        "payload": payload_masked,
        "channel": channel,
        "module": classify_module(root),
        "kind": kind,
        "length_source": length_source,
    }


def _unsolicited_entry(api, root, constant, handler, channel) -> dict:
    return {
        "direction": "unsolicited",
        "api": api,
        "root": root,
        "constant": constant,
        "handler": handler,
        "channel": channel,
        "module": classify_module(root),
    }


def _masked(data: bytes, mask: str) -> str:
    return " ".join(".." if m == "d" else f"{b:02x}" for b, m in zip(data, mask))


_DEV_PATH = "/dev/umts_ipc0"


# ---------------------------------------------------------------------------
# Shape builders shared by the figure fixtures and gen_random

def _frame_bytes(data: bytes, base: int = 16) -> list[Instruction]:
    """One COPY per byte of ``data`` into the stack frame from ``base``."""
    return [I("COPY", S(base + i, 1), (C(b, 1),)) for i, b in enumerate(data)]


def _open_ctor(fid: str, cls: str, path_addr: int) -> Function:
    """Constructor that opens the path at ``path_addr`` into ``this+8``."""
    return func(fid, cls=cls, blocks=[block(0, [
        I("CALL", U(0), (C(path_addr), C(2)), callee="open"),
        I("INT_ADD", U(1), (R(0), C(0x08))),
        I("STORE", None, (U(1), U(0))),
        I("RETURN"),
    ])])


def _fd_member(fid: str, cls: str, params: tuple, api: str, args: tuple) -> Function:
    """Method that loads the fd at ``this+8`` and calls ``api(fd, *args)``."""
    return func(fid, cls=cls, params=params, blocks=[block(0, [
        I("INT_ADD", U(0), (R(0), C(0x08))),
        I("LOAD", U(1), (U(0),)),
        I("CALL", None, (U(1),) + tuple(args), callee=api),
        I("RETURN"),
    ])])


def _reader(fid: str, path_addr: int, api: str, dispatcher: str, extra: tuple = ()) -> Function:
    """Poller: opens the path at ``path_addr``, reads 32 bytes into the
    frame with ``api`` (``extra`` trails its arguments) and passes the
    buffer to ``dispatcher``."""
    return func(fid, blocks=[block(0, [
        I("CALL", U(0), (C(path_addr), C(0)), callee="open"),
        I("CALL", U(1), (U(0), S(16, 32), C(32)) + tuple(extra), callee=api),
        I("CALL", None, (S(16, 32),), callee=dispatcher),
        I("RETURN"),
    ])])


def _ladder(consts: list[int], handlers: list[str], byte_off: int) -> list[Block]:
    """Dispatcher blocks: guard ``j`` compares packet byte ``byte_off`` with
    ``consts[j]`` and calls ``handlers[j]``; the last block returns, so
    with no constants the ladder is that one RETURN block."""
    blocks = []
    for j, (const, handler) in enumerate(zip(consts, handlers)):
        ins = [I("INT_ADD", U(0), (R(0), C(byte_off))), I("LOAD", U(1, 1), (U(0),))] if j == 0 else []
        ins += [
            I("INT_EQUAL", U(100 + j, 1), (U(1, 1), C(const, 1))),
            I("CBRANCH", None, (U(100 + j, 1),)),
        ]
        # a failed guard falls through to the next one, or to the RETURN block
        blocks.append(block(2 * j, ins, succ=(2 * j + 1, 2 * j + 2)))
        blocks.append(block(2 * j + 1, [I("CALL", None, (R(0),), callee=handler), I("RETURN")]))
    blocks.append(block(2 * len(consts), [I("RETURN")]))
    return blocks


# ---------------------------------------------------------------------------
# Solicited chain fixture (vtable dispatch end to end)

def _tx_chain(name: str, with_subclass: bool) -> tuple[IRProgram, Manifest]:
    payload = bytes([0x07, 0x00, 0x00, 0x00, 0x02, 0x01, 0x02])
    path_addr = 0x2000
    data = [(path_addr, _DEV_PATH.encode() + b"\x00")]

    proto_ctor = func(
        "IpcProtocol::IpcProtocol",
        cls="IpcProtocol",
        params=(("flags", "int"), ("modem", "class:IpcModem")),
        blocks=[
            block(0, [
                I("INT_ADD", U(0), (R(0), C(0x10))),
                I("STORE", None, (U(0), R(2))),
                I("RETURN"),
            ]),
        ],
    )
    proto41_ctor = ret_stub("IpcProtocol41::IpcProtocol41", cls="IpcProtocol41")

    get_call_list = func(
        "IpcTxCallGetCallList",
        cls="IpcProtocol41",
        blocks=[
            block(0, _frame_bytes(payload) + [
                I("INT_ADD", U(0), (R(0), C(0x10))),
                I("LOAD", U(1), (U(0),)),
                I("INT_ADD", U(2), (U(1), C(0x30))),
                I("LOAD", U(3), (U(2),)),
                I("CALLIND", None, (U(3), U(1), S(16, 7), C(7))),
                I("RETURN"),
            ]),
        ],
    )

    modem_ctor = func(
        "IpcModem::IpcModem",
        cls="IpcModem",
        params=(("chan", "class:IoChannel"),),
        blocks=[
            block(0, [
                I("INT_ADD", U(0), (R(0), C(0x18))),
                I("STORE", None, (U(0), R(1))),
                I("RETURN"),
            ]),
        ],
    )
    send_message = func(
        "IpcModem::SendMessage",
        cls="IpcModem",
        params=(("buf", "bytes"), ("len", "int")),
        blocks=[
            block(0, [
                I("CALL", None, (R(0), R(1), R(2)), callee="IpcModem::DoIoChannelRoutingTx"),
                I("RETURN"),
            ]),
        ],
    )
    routing_tx = func(
        "IpcModem::DoIoChannelRoutingTx",
        cls="IpcModem",
        params=(("buf", "bytes"), ("len", "int")),
        blocks=[
            block(0, [
                I("INT_ADD", U(0), (R(0), C(0x18))),
                I("LOAD", U(1), (U(0),)),
                I("INT_ADD", U(2), (U(1), C(0x20))),
                I("LOAD", U(3), (U(2),)),
                I("CALLIND", None, (U(3), U(1), R(1), R(2))),
                I("RETURN"),
            ]),
        ],
    )
    modem_get_state = ret_stub("IpcModem::GetState", cls="IpcModem")
    modem_reset = ret_stub("IpcModem::Reset", cls="IpcModem")

    chan_ctor = _open_ctor("IoChannel::IoChannel", "IoChannel", path_addr)
    chan_write = _fd_member("IoChannel::Write", "IoChannel", (("buf", "bytes"), ("len", "int")),
                            "write", (R(1), R(2)))
    chan_close = ret_stub("IoChannel::Close", cls="IoChannel")

    classes = [
        ClassInfo("IpcProtocol", constructors=["IpcProtocol::IpcProtocol"]),
        ClassInfo(
            "IpcProtocol41",
            parents=["IpcProtocol"],
            constructors=["IpcProtocol41::IpcProtocol41"],
            members=["IpcTxCallGetCallList"],
        ),
        ClassInfo(
            "IpcModem",
            vtable_addr=0x3000,
            vtable=[
                "IpcModem::GetState", "IpcModem::Reset", "IpcModem::GetState",
                "IpcModem::Reset", "IpcModem::GetState", "IpcModem::Reset",
                "IpcModem::SendMessage",
            ],
            constructors=["IpcModem::IpcModem"],
            members=["IpcModem::SendMessage", "IpcModem::DoIoChannelRoutingTx",
                     "IpcModem::GetState", "IpcModem::Reset"],
        ),
        ClassInfo(
            "IoChannel",
            vtable_addr=0x3100,
            vtable=["IoChannel::Close", "IoChannel::Close", "IoChannel::Close",
                    "IoChannel::Close", "IoChannel::Write"],
            constructors=["IoChannel::IoChannel"],
            members=["IoChannel::Write", "IoChannel::Close"],
        ),
    ]
    functions = [
        proto_ctor, proto41_ctor, get_call_list,
        modem_ctor, send_message, routing_tx, modem_get_state, modem_reset,
        chan_ctor, chan_write, chan_close,
    ]
    edges = [
        ("IpcTxCallGetCallList", "IpcModem::SendMessage"),
        ("IpcModem::DoIoChannelRoutingTx", "IoChannel::Write"),
    ]
    if with_subclass:
        sub_send = ret_stub(
            "IpcModem5G::SendMessage", cls="IpcModem5G",
            params=(("buf", "bytes"), ("len", "int")),
        )
        classes.append(
            ClassInfo(
                "IpcModem5G",
                parents=["IpcModem"],
                vtable_addr=0x3200,
                vtable=[
                    "IpcModem::GetState", "IpcModem::Reset", "IpcModem::GetState",
                    "IpcModem::Reset", "IpcModem::GetState", "IpcModem::Reset",
                    "IpcModem5G::SendMessage",
                ],
                members=["IpcModem5G::SendMessage"],
            )
        )
        functions.append(sub_send)
        edges.insert(1, ("IpcTxCallGetCallList", "IpcModem5G::SendMessage"))

    p = build_program(
        name, classes=classes, functions=functions, data=data,
        externals=["write", "open"],
    )
    m = Manifest(
        program=name,
        virtual_edges=edges,
        commands=[
            _solicited_entry(
                "write", "IpcTxCallGetCallList", _masked(payload, "s" * 7),
                _DEV_PATH, "constant-arg(7)", "static",
            )
        ],
    )
    return p, m


def gen_fig2() -> tuple[IRProgram, Manifest]:
    """Four-function solicited chain: stack payload, two vtable hops, write
    on a /dev channel held in a member fd."""
    return _tx_chain("fig2", with_subclass=False)


def gen_fig4(with_subclass: bool = False) -> tuple[IRProgram, Manifest]:
    """Constructor-driven dispatch recovery; optional subclass fan-out."""
    return _tx_chain("fig4", with_subclass=with_subclass)


# ---------------------------------------------------------------------------
# Unsolicited dispatch fixture

_FIG5_HANDLERS = (
    "ProcessOpenFile", "ProcessNvRead", "ProcessNvWrite", "ProcessReadDirectory",
    "ProcessMakeDirectory", "ProcessDeleteFile", "ProcessGetFileInfo", "ProcessRename",
)


def gen_fig5(n_handlers: int = 3, seed: int | None = None) -> tuple[IRProgram, Manifest]:
    """read -> buffer -> dispatcher comparison ladder. Each guard compares
    one payload byte against a constant and calls its handler."""
    if not 0 <= n_handlers <= len(_FIG5_HANDLERS):
        raise ValueError(f"n_handlers must be in 0..{len(_FIG5_HANDLERS)}, not {n_handlers}")
    if seed is None:
        consts = [0x11 + j for j in range(n_handlers)]
        names = list(_FIG5_HANDLERS[:n_handlers])
    else:
        rng = random.Random(seed)
        consts = rng.sample(range(1, 255), n_handlers)
        names = rng.sample(_FIG5_HANDLERS, n_handlers)
    handlers = [f"Nv::{n}" for n in names]

    path_addr = 0x2000
    poll = _reader("IpcRxPoll", path_addr, "read", "Nv::ProcessRfsPacket")
    dispatcher = func("Nv::ProcessRfsPacket", params=(("pkt", "bytes"),),
                      blocks=_ladder(consts, handlers, 1))
    handler_fns = [ret_stub(h, params=(("pkt", "bytes"),)) for h in handlers]

    p = build_program(
        "fig5",
        functions=[poll, dispatcher] + handler_fns,
        data=[(path_addr, _DEV_PATH.encode() + b"\x00")],
        externals=["read", "open"],
    )
    m = Manifest(
        program="fig5",
        seed=seed,
        params={"n_handlers": n_handlers},
        commands=[
            _unsolicited_entry("read", "Nv::ProcessRfsPacket", consts[j], handlers[j], _DEV_PATH)
            for j in range(n_handlers)
        ],
    )
    return p, m


# ---------------------------------------------------------------------------
# Channel-filter fixtures

def gen_fig6(variant: str = "efs") -> tuple[IRProgram, Manifest]:
    """String write through a helper; the fd origin decides the verdict:
    'efs' -> non-device path, 'pipe' -> pipe fd, 'dev' -> kept command."""
    if variant not in ("efs", "pipe", "dev"):
        raise ValueError(f"unknown fig6 variant {variant!r}: want efs, pipe or dev")
    path_addr, true_addr = 0x2000, 0x2100
    paths = {"efs": "/efs/imei/selective", "dev": "/dev/umts_ipc1"}

    helper = func(
        "StoreStringToFile",
        params=(("s", "bytes"), ("fd", "int")),
        blocks=[
            block(0, [
                I("CALL", None, (R(1), R(0), C(4)), callee="write"),
                I("RETURN"),
            ]),
        ],
    )
    if variant == "pipe":
        fd_ins = I("CALL", U(0), (S(8, 8),), callee="pipe")
        externals = ["write", "pipe"]
        data = [(true_addr, b"true\x00")]
    else:
        fd_ins = I("CALL", U(0), (C(path_addr), C(0x41)), callee="open")
        externals = ["write", "open"]
        data = [(path_addr, paths[variant].encode() + b"\x00"), (true_addr, b"true\x00")]
    persist = func(
        "SelectiveWriter::Persist",
        blocks=[
            block(0, [
                fd_ins,
                I("CALL", None, (C(true_addr), U(0)), callee="StoreStringToFile"),
                I("RETURN"),
            ]),
        ],
    )
    p = build_program("fig6", functions=[helper, persist], data=data, externals=externals)

    site = format_site("StoreStringToFile", 0, 0)
    if variant == "dev":
        m = Manifest(
            program="fig6",
            params={"variant": variant},
            commands=[
                _solicited_entry(
                    "write", "SelectiveWriter::Persist", _masked(b"true", "ssss"),
                    paths["dev"], "constant-arg(4)", "static",
                )
            ],
        )
    else:
        reason = "pipe" if variant == "pipe" else "non-dev-path"
        m = Manifest(
            program="fig6",
            params={"variant": variant},
            discards=[{"site": site, "reason": reason,
                       "path": None if variant == "pipe" else paths["efs"]}],
        )
    return p, m


# ---------------------------------------------------------------------------
# Hybrid payload fixtures

def gen_hybrid(kind: str = "direct") -> tuple[IRProgram, Manifest]:
    """Hybrid payload shapes: 'direct' embeds one parameter byte, 'derived'
    sizes the payload with a clamped strlen, 'structured' appends a fully
    dynamic serialized tail."""
    path_addr = 0x2000

    # per kind: root, its params and blocks, the static prefix, the number
    # of dynamic bytes after it, the length source and the extra externals
    if kind == "direct":
        root, params = "IpcTxSimSetStatus", (("status", "int"),)
        prefix, tail = bytes([0x08, 0x00, 0x00, 0x00, 0x05, 0x02, 0x01]), 1
        blocks = [block(0, _frame_bytes(prefix) + [
            I("COPY", S(23, 1), (R(0, 1),)),
            I("CALL", U(0), (C(path_addr), C(2)), callee="open"),
            I("CALL", None, (U(0), S(16, 8), C(8)), callee="write"),
            I("RETURN"),
        ])]
        length, extra = "constant-arg(8)", ()
    elif kind == "derived":
        root, params = "IpcTxImeiPreconfigUpdate", (("s", "str"),)
        prefix, tail = bytes([0x17, 0x00, 0x00, 0x00, 0x10, 0x03, 0x03]), 16
        blocks = [
            block(0, [
                I("CALL", U(1), (R(0),), callee="strlen"),
                I("COPY", S(8, 8), (U(1),)),
                I("INT_EQUAL", U(2, 1), (U(1), C(255))),
                I("CBRANCH", None, (U(2, 1),)),
            ], succ=(1, 2)),
            block(1, [
                I("COPY", S(8, 8), (C(255),)),
                I("BRANCH"),
            ], succ=(2,)),
            block(2, _frame_bytes(prefix) + [
                I("LOAD", U(3, tail), (R(0),)),
                I("COPY", S(16 + len(prefix), tail), (U(3, tail),)),
                I("COPY", U(4), (S(8, 8),)),
                I("INT_ADD", U(5), (U(4), C(len(prefix)))),
                I("CALL", U(6), (C(path_addr), C(2)), callee="open"),
                I("CALL", None, (U(6), S(16, len(prefix) + tail), U(5)), callee="write"),
                I("RETURN"),
            ]),
        ]
        length, extra = "strlen-bounded(255)", ("strlen",)
    elif kind == "structured":
        root, params = "IpcTxCfgSetProfile", (("obj", "bytes"),)
        prefix, tail = bytes([0x1f, 0x00, 0x00, 0x00, 0x08, 0x07, 0x03]), 24
        total = len(prefix) + tail
        blocks = [block(0, _frame_bytes(prefix) + [
            I("CALL", U(1, tail), (R(0),), callee="SerializeToJson"),
            I("COPY", S(16 + len(prefix), tail), (U(1, tail),)),
            I("CALL", U(2), (C(path_addr), C(2)), callee="open"),
            I("CALL", None, (U(2), S(16, total), C(total)), callee="write"),
            I("RETURN"),
        ])]
        length, extra = f"constant-arg({total})", ("SerializeToJson",)
    else:
        raise ValueError(f"unknown hybrid kind {kind!r}: want direct, derived or structured")

    name = f"hybrid-{kind}"
    p = build_program(
        name, functions=[func(root, params=params, blocks=blocks)],
        data=[(path_addr, _DEV_PATH.encode() + b"\x00")], externals=["write", "open", *extra],
    )
    m = Manifest(
        program=name,
        params={"kind": kind},
        commands=[
            _solicited_entry(
                "write", root, _masked(prefix + bytes(tail), "s" * len(prefix) + "d" * tail),
                _DEV_PATH, length, "hybrid",
            )
        ],
    )
    return p, m


# ---------------------------------------------------------------------------
# Randomized programs

_MODULE_POOL = ("Call", "Sms", "Net", "Cfg", "Snd", "Ss", "Sim", "Sec", "Pwr", "Gps")
_VERB_POOL = ("Query", "Update", "Sync", "Enable", "Apply", "Push")
_NOUN_POOL = ("Status", "Config", "List", "Mode", "Info", "Channel", "Level", "Profile")
_VCALL_SHARE = 0.5  # share of gen_random's call hops made through a vtable
# most functions outside gen_random's chains: 2 channel ctors, 4 distractors,
# 3 ScratchMath helpers and nop_stub
_RAND_FIXED_FUNCTIONS = 10


def _fresh_name(rng: random.Random, used: dict[tuple[str, str], set[str]],
                cls: str, mod: str) -> str:
    """An ``IpcTx<mod><Verb><Noun>`` name that ``cls`` does not have yet.

    Raises ValueError once all ``len(_VERB_POOL) * len(_NOUN_POOL)`` are
    taken, before drawing from ``rng``."""
    taken = used.setdefault((cls, mod), set())
    if len(taken) == len(_VERB_POOL) * len(_NOUN_POOL):
        raise ValueError(f"class {cls}: all {len(taken)} IpcTx{mod} names are taken")
    while True:
        n = f"IpcTx{mod}{rng.choice(_VERB_POOL)}{rng.choice(_NOUN_POOL)}"
        if n not in taken:
            taken.add(n)
            return n


class _RandBuilder:
    def __init__(self, name: str):
        self.name = name
        self.functions: list[Function] = []
        self.classes: dict[str, ClassInfo] = {}
        self.data: list[tuple[int, bytes]] = []
        self.externals: set[str] = set()
        self.vtables: dict[str, dict[int, str]] = {}
        self.member_off: dict[str, int] = {}
        self.next_data = 0x2000

    def add_fn(self, f: Function, ctor: bool = False):
        """Append ``f``; a method also joins its class's members, or its
        constructors when ``ctor``."""
        self.functions.append(f)
        if f.owning_class is not None:
            c = self.ensure_class(f.owning_class)
            (c.constructors if ctor else c.members).append(f.id)

    def ensure_class(self, name: str, parents=()):
        if name not in self.classes:
            self.classes[name] = ClassInfo(name, parents=list(parents))
            self.vtables[name] = {}
            self.member_off[name] = 0x10
        return self.classes[name]

    def alloc_member_off(self, cls: str) -> int:
        off = self.member_off[cls]
        self.member_off[cls] = off + 8
        return off

    def add_string(self, s: str) -> int:
        return self.add_blob(s.encode() + b"\x00")

    def add_blob(self, blob: bytes) -> int:
        addr = self.next_data
        self.data.append((addr, blob))
        self.next_data += len(blob) + (8 - len(blob) % 8)
        return addr

    def finish(self) -> IRProgram:
        stub = ret_stub("nop_stub")
        self.add_fn(stub)
        for cls, slots in self.vtables.items():
            if not slots:
                continue
            size = max(slots) + 1
            self.classes[cls].vtable = [slots.get(i, "nop_stub") for i in range(size)]
            self.classes[cls].vtable_addr = 0x4000
        return build_program(
            self.name,
            classes=list(self.classes.values()),
            functions=self.functions,
            data=self.data,
            externals=sorted(self.externals),
        )


def gen_random(seed: int = 0, max_functions: int = 200) -> tuple[IRProgram, Manifest]:
    """Random solicited/unsolicited chains with planted ground truth plus
    filter distractors. Deterministic for a given seed.

    Its one option, ``max_functions``, caps the program's function count:
    a chain that would push past it is not started, and a budget below
    ``_RAND_FIXED_FUNCTIONS`` is a ValueError."""
    if max_functions < _RAND_FIXED_FUNCTIONS:
        raise ValueError(f"gen_random needs max_functions >= {_RAND_FIXED_FUNCTIONS}, "
                         f"not {max_functions}")
    rng = random.Random(seed)
    b = _RandBuilder(f"rand{seed}")
    m = Manifest(program=b.name, seed=seed, params={"max_functions": max_functions})
    b.externals |= {"write", "open"}

    modules = rng.sample(_MODULE_POOL, k=rng.randint(2, 5))
    group_vals = rng.sample(range(1, 200), k=len(modules))
    groups = dict(zip(modules, group_vals))

    # Leaf writer classes with member fds bound to device nodes.
    leaves = []
    for li in range(rng.randint(1, 2)):
        cls = f"IoChannel{li}"
        dev = f"/dev/umts_ipc{li}"
        b.add_fn(_open_ctor(f"{cls}::{cls}", cls, b.add_string(dev)), ctor=True)
        leaves.append({"cls": cls, "dev": dev, "write_fns": {}})

    def leaf_write_fn(leaf, api: str) -> str:
        if api not in leaf["write_fns"]:
            cls = leaf["cls"]
            fid = f"{cls}::Write{'' if api == 'write' else 'Chk'}"
            args = (R(1), R(2)) + ((C(4096),) if api == "__write_chk" else ())
            b.add_fn(_fd_member(fid, cls, (("buf", "bytes"), ("len", "int")), api, args))
            leaf["write_fns"][api] = fid
        return leaf["write_fns"][api]

    def hop(fid: str, caller_cls: str, callee_cls: str, callee_fid: str,
            args: tuple) -> list[Instruction]:
        """Body of ``fid`` that passes ``args`` on to ``callee_fid``: by a
        direct call, or with probability ``_VCALL_SHARE`` through a vtable
        slot of a member object, whose store the caller's ctor gains."""
        if rng.random() >= _VCALL_SHARE:
            return [I("CALL", None, (C(0),) + args, callee=callee_fid), I("RETURN")]
        m.virtual_edges.append((fid, callee_fid))
        off = b.alloc_member_off(caller_cls)
        slot = rng.randint(0, 5)
        vt = b.vtables.setdefault(callee_cls, {})
        while slot in vt and vt[slot] != callee_fid:
            slot += 1
        vt[slot] = callee_fid
        ctor_id = f"{caller_cls}::{caller_cls.split('::')[-1]}"
        at = next((i for i, f in enumerate(b.functions) if f.id == ctor_id), None)
        store = [
            I("INT_ADD", U(90 + off), (R(0), C(off))),
            I("STORE", None, (U(90 + off), R(1))),
        ]
        if at is None:
            ctor = func(
                ctor_id, cls=caller_cls, params=(("obj", f"class:{callee_cls}"),),
                blocks=[block(0, store + [I("RETURN")])],
            )
            b.add_fn(ctor, ctor=True)
        else:
            # extra ctor param wiring for a second member object
            have = b.functions[at]
            k = len(have.params)
            entry = replace(have.blocks[0], instructions=(
                store[0], I("STORE", None, (U(90 + off), R(k))), *have.blocks[0].instructions))
            b.functions[at] = replace(
                have, params=(*have.params, Param(f"obj{k}", f"class:{callee_cls}")),
                blocks=(entry, *have.blocks[1:]),
            )
        return [
            I("INT_ADD", U(10), (R(0), C(off))),
            I("LOAD", U(11), (U(10),)),
            I("INT_ADD", U(12), (U(11), C(slot * 8))),
            I("LOAD", U(13), (U(12),)),
            I("CALLIND", None, (U(13), U(11)) + args),
            I("RETURN"),
        ]

    used_names: dict[tuple[str, str], set[str]] = {}  # (class, module) -> names

    n_chains = rng.randint(2, 4)
    prev_chain_tail = None
    for ci in range(n_chains):
        if len(b.functions) > max_functions - 20:
            break
        mod = rng.choice(modules)
        api = rng.choice(("write", "write", "__write_chk", "ioctl"))
        b.externals.add(api)
        root_cls = f"IpcProtocol41{mod}"
        b.ensure_class(root_cls)
        root_id = f"{root_cls}::{_fresh_name(rng, used_names, root_cls, mod)}"

        if api == "ioctl":
            # keep request codes clear of the data segment's address range
            req = rng.randint(0x10000, 0xFFFFF)
            leaf = rng.choice(leaves)
            cls = leaf["cls"]
            fid = f"{cls}::Ioctl{ci}"
            b.add_fn(_fd_member(fid, cls, (("req", "int"),), "ioctl", (R(1),)))
            b.add_fn(func(
                root_id, cls=root_cls,
                blocks=[block(0, [
                    I("CALL", None, (C(0), C(req)), callee=fid),
                    I("RETURN"),
                ])],
            ))
            pb = req.to_bytes(8, "little")
            m.commands.append(
                _solicited_entry("ioctl", root_id, _masked(pb, "s" * 8),
                                 leaf["dev"], "constant-arg(8)", "static")
            )
            continue

        length = rng.randint(7, 12)
        body_bytes = bytearray([length, 0, 0, 0, groups[mod],
                                rng.randint(1, 250), rng.randint(1, 250)])
        while len(body_bytes) < length:
            body_bytes.append(rng.randint(0, 255))
        n_dyn = rng.choice((0, 0, 1, 2))
        dyn_positions = set()
        if n_dyn and length > 7:
            dyn_positions = set(
                rng.sample(range(7, length), k=min(n_dyn, length - 7))
            )
        mask = "".join("d" if i in dyn_positions else "s" for i in range(length))
        for i in dyn_positions:
            body_bytes[i] = 0

        share = prev_chain_tail is not None and prev_chain_tail["api"] == api and rng.random() < 0.3
        if share:
            tail_callee = prev_chain_tail["entry"]
            dev = prev_chain_tail["dev"]
            tail_cls = prev_chain_tail["cls"]
        else:
            leaf = rng.choice(leaves)
            tail_callee = leaf_write_fn(leaf, api)
            dev = leaf["dev"]
            tail_cls = leaf["cls"]
            n_fwd = rng.randint(0, 2)
            for hi in range(n_fwd):
                fcls = f"Fwd{ci}H{hi}"
                b.ensure_class(fcls)
                fid = f"{fcls}::Relay"
                callee_cls_name = tail_cls if hi == 0 else f"Fwd{ci}H{hi-1}"
                body = hop(fid, fcls, callee_cls_name, tail_callee, (R(1), R(2)))
                b.add_fn(func(fid, cls=fcls, params=(("buf", "bytes"), ("len", "int")),
                              blocks=[block(0, body)]))
                tail_callee = fid
                tail_cls = fcls

        root_params = (("arg1", "int"),) if dyn_positions else ()
        body = _frame_bytes(body_bytes)
        for i in dyn_positions:
            body[i] = I("COPY", S(16 + i, 1), (R(1, 1),))
        body += hop(root_id, root_cls, tail_cls, tail_callee, (S(16, length), C(length)))
        b.add_fn(func(root_id, cls=root_cls, params=root_params, blocks=[block(0, body)]))
        m.commands.append(
            _solicited_entry(
                api, root_id, _masked(bytes(body_bytes), mask), dev,
                f"constant-arg({length})",
                "hybrid" if dyn_positions else "static",
            )
        )
        prev_chain_tail = {"api": api, "entry": tail_callee, "dev": dev, "cls": tail_cls}

    # Unsolicited chains: each reader gets its own dispatcher ladder.
    n_reads = rng.randint(1, 2)
    for ri in range(n_reads):
        if len(b.functions) > max_functions - 15:
            break
        mod = rng.choice(modules)
        api = rng.choice(("read", "__read_chk"))
        b.externals.add(api)
        dev = f"/dev/rx_ipc{ri}"
        disp_id = f"Nv{ri}::Process{mod}Packet"
        extra = (C(4096),) if api == "__read_chk" else ()
        b.add_fn(_reader(f"IpcRx{mod}Poll{ri}", b.add_string(dev), api, disp_id, extra))
        n_guards = rng.randint(1, 4)
        consts = rng.sample(range(1, 250), n_guards)
        handlers = [f"Nv{ri}::Handle{mod}{j}" for j in range(n_guards)]
        for const, handler in zip(consts, handlers):
            b.add_fn(ret_stub(handler, params=(("pkt", "bytes"),)))
            m.commands.append(_unsolicited_entry(api, disp_id, const, handler, dev))
        b.add_fn(func(disp_id, params=(("pkt", "bytes"),), blocks=_ladder(consts, handlers, 4)))

    # Distractors: sites the filter discards and a call it cannot resolve.
    efs_addr = b.add_string(f"/efs/nv/protect{seed % 7}")
    efs = func(
        "EfsBackupStore",
        blocks=[block(0, [
            I("CALL", U(0), (C(efs_addr), C(0x41)), callee="open"),
            *_frame_bytes(b"\x01"),
            I("CALL", None, (U(0), S(16, 1), C(1)), callee="write"),
            I("RETURN"),
        ])],
    )
    b.add_fn(efs)
    m.discards.append({"site": format_site("EfsBackupStore", 0, 2),
                       "reason": "non-dev-path", "path": f"/efs/nv/protect{seed % 7}"})

    b.externals.add("pipe")
    pipe_fn = func(
        "WakeupPipeKick",
        blocks=[block(0, [
            I("CALL", U(0), (S(8, 8),), callee="pipe"),
            *_frame_bytes(b"\x55"),
            I("CALL", None, (U(0), S(16, 1), C(1)), callee="write"),
            I("RETURN"),
        ])],
    )
    b.add_fn(pipe_fn)
    m.discards.append({"site": format_site("WakeupPipeKick", 0, 2),
                       "reason": "pipe", "path": None})

    b.externals |= {"socket", "sendto"}
    sock_fn = func(
        "OemNetReport",
        blocks=[block(0, [
            I("CALL", U(0), (C(2), C(1), C(0)), callee="socket"),
            I("COPY", S(16, 4), (C(0xDEAD, 4),)),
            I("CALL", None, (U(0), S(16, 4), C(4)), callee="sendto"),
            I("RETURN"),
        ])],
    )
    b.add_fn(sock_fn)
    m.discards.append({"site": format_site("OemNetReport", 0, 2),
                       "reason": "socket", "path": None})

    fp_addr = b.add_blob(b"\x00" * 8)
    fp = func(
        "DynCallbackInvoke",
        blocks=[block(0, [
            I("LOAD", U(0), (C(fp_addr),)),
            I("CALLIND", None, (U(0), C(0))),
            I("RETURN"),
        ])],
    )
    b.add_fn(fp)
    m.unresolved.append({"site": format_site("DynCallbackInvoke", 0, 1),
                         "reason": "no-vtable-pattern"})

    for ni in range(rng.randint(1, 3)):
        b.add_fn(func(
            f"ScratchMath{ni}",
            params=(("a", "int"), ("b", "int")),
            ret="int",
            blocks=[block(0, [
                I("INT_ADD", U(0), (R(0), R(1))),
                I("INT_SUB", U(1), (U(0), C(ni))),
                I("RETURN", None, (U(1),)),
            ])],
        ))

    p = b.finish()
    if len(p.functions) > max_functions:
        raise ValueError(f"fixture exceeded budget: {len(p.functions)} > {max_functions}")
    return p, m


# ---------------------------------------------------------------------------
# Crash-suite fixtures (database + simulator behavior, no IR)

CRASH_SUITE = (
    # (root function, crash class, static payload prefix, total length)
    ("IpcProtocol41Power::IpcTxResetOemModem", "temporary",
     bytes([0x07, 0x00, 0x00, 0x00, 0x01, 0x03, 0x05]), 7),
    ("IpcProtocol41Sap::IpcTxGetSapTransferApdu", "temporary",
     bytes([0x0E, 0x01, 0x00, 0x00, 0x12, 0x04, 0x02]), 14),
    ("IpcProtocol41Imei::IpcTxImeiPreconfigSet", "temporary",
     bytes([0x17, 0x00, 0x00, 0x00, 0x10, 0x03, 0x03]), 23),
    ("IpcProtocol41Power::IpcTxModemPowerOff", "recoverable",
     bytes([0x07, 0x00, 0x00, 0x00, 0x01, 0x02, 0x01]), 7),
    ("IpcProtocol41Net::IpcTxSetSystemSelectionChannels", "permanent",
     bytes([0x20, 0x00, 0x00, 0x00, 0x08, 0x07, 0x03]), 32),
    ("IpcProtocol41Domestic::IpcTxDomesticSetChannelSettingLte", "permanent",
     bytes([0x09, 0x00, 0x00, 0x00, 0x20, 0x64, 0x03]), 9),
    ("IpcProtocol41Domestic::IpcTxDomesticGetNsriDecryptSms", "permanent",
     bytes([0x99, 0x00, 0x00, 0x00, 0x20, 0x91, 0x02]), 153),
)


def gen_crash_suite() -> tuple[CommandDB, SimConfig, dict[str, str]]:
    """Seven-command database and the matching simulator behavior table;
    returns (db, sim config, expected crash class per root function)."""
    db = CommandDB("crashsuite", provenance="fixture")
    rows = []
    expected = {}
    for i, (root, crash, prefix, total) in enumerate(CRASH_SUITE):
        dyn = total - len(prefix)
        data = prefix + bytes(dyn)
        mask = "s" * len(prefix) + "d" * dyn
        pb = PayloadBytes(data, mask, LengthSource("constant-arg", total))
        db.add(make_record("crashsuite", "solicited", "write", f"{root}@0:{i}", root,
                           payload=pb, channel_path=_DEV_PATH))
        effect = {"temporary": "temporary_crash", "recoverable": "recoverable_crash",
                  "permanent": "permanent_crash"}[crash]
        rows.append(BehaviorRow(
            matcher=tuple(prefix), prefix=(dyn > 0), effect=effect,
            args=(3,) if effect == "temporary_crash" else (),
        ))
        expected[root] = crash
    cfg = SimConfig(rows=rows)
    return db, cfg, expected


def gen_mutation_target() -> tuple[CommandDB, SimConfig, bytes]:
    """One hybrid command whose crash fires only when its dynamic byte is
    0xff; returns (db, sim config, crashing payload)."""
    prefix = bytes([0x08, 0x00, 0x00, 0x00, 0x05, 0x02, 0x01])
    pb = PayloadBytes(prefix + b"\x00", "s" * 7 + "d", LengthSource("constant-arg", 8))
    db = CommandDB("mutsuite", provenance="fixture")
    db.add(make_record("mutsuite", "solicited", "write", "IpcTxSimSetStatus@0:9",
                       "IpcTxSimSetStatus", payload=pb, channel_path=_DEV_PATH))
    crash_payload = prefix + b"\xff"
    cfg = SimConfig(rows=[
        BehaviorRow(matcher=tuple(crash_payload), prefix=False,
                    effect="recoverable_crash", args=()),
        BehaviorRow(matcher=tuple(prefix), prefix=True, effect="ok", args=()),
    ])
    return db, cfg, crash_payload


def gen_diff_pair(seed: int = 0, base_total: int = 478, removed: int = 63,
                  added: int = 12) -> tuple[CommandDB, CommandDB]:
    """Two databases shaped like successive firmware revisions: cur drops
    ``removed`` of base's write commands and introduces ``added`` new ones."""
    rng = random.Random(seed)
    mods = list(_MODULE_POOL)

    def rec(i: int, binary: str):
        # bytes derive from the index so base and cur agree on shared commands
        mod = mods[i % len(mods)]
        root = f"IpcProtocol41{mod}::IpcTx{mod}Cmd{i:04d}"
        data = bytes([8, 0, 0, 0, (i % 200) + 1, i & 0xFF, (i >> 8) & 0xFF, (i * 131) & 0xFF])
        pb = PayloadBytes(data, "s" * 8, LengthSource("constant-arg", 8))
        return make_record(binary, "solicited", "write", f"{root}@0:0", root,
                           payload=pb, channel_path=_DEV_PATH)

    base = CommandDB("base", provenance="fixture")
    for i in range(base_total):
        base.add(rec(i, "base"))
    cur = CommandDB("cur", provenance="fixture")
    keep = set(range(base_total)) - set(rng.sample(range(base_total), removed))
    for i in sorted(keep):
        cur.add(rec(i, "cur"))
    for j in range(added):
        cur.add(rec(base_total + j, "cur"))
    return base, cur
