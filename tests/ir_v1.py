"""The ``ir_version: 1`` form of a program, for tests of the version 1
reader.

``serialize`` writes only version 2. ``v1_doc`` builds the document that
the version 1 writer gave, key for key, from ``program_to_dict``'s version
2 document: each table index is expanded into its own varnode object.
"""

import json

from rilmine.ir import IRProgram, program_to_dict


def _ins(row: list, table: list) -> dict:
    op, out, ins, *callee = row
    d: dict = {"op": op}
    if out is not None:
        d["out"] = dict(table[out])
    if ins:
        d["in"] = [dict(table[i]) for i in ins]
    if callee:
        d["callee"] = callee[0]
    return d


def v1_doc(p: IRProgram) -> dict:
    """The version 1 document of ``p``; every varnode object is a fresh
    dict, so a test may edit one in place."""
    doc = program_to_dict(p)
    table = [{"space": s, "offset": o, "size": z} for s, o, z in doc.pop("varnodes")]
    doc["ir_version"] = 1
    for f in doc["functions"]:
        for b in f["blocks"]:
            b["ins"] = [_ins(row, table) for row in b["ins"]]
    return doc


def v1_text(p: IRProgram) -> str:
    """``v1_doc`` as compact JSON, byte for byte what the version 1 writer
    gave."""
    return json.dumps(v1_doc(p), separators=(",", ":"))
