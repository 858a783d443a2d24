"""IR container: JSON round trips, name rules, and invariant validation."""

import gc
import json
import pickle
import re
import tracemalloc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rilmine import cli, ir
from rilmine.callgraph import build_direct_cg, recover_vcalls
from rilmine.channel import filter_commands
from rilmine.fixtures import (
    C,
    I,
    R,
    S,
    U,
    block,
    build_program,
    db_signatures,
    func,
    gen_fig2,
    gen_fig4,
    gen_fig5,
    gen_random,
    ret_stub,
)

_doc = ir.program_to_dict


def make_minimal():
    f = func("main", blocks=[block(0, [I("COPY", R(0), (C(1),)), I("RETURN")])])
    return build_program("min", functions=[f], externals=["write"])


# ---------------------------------------------------------------------------
# Round trips

@pytest.mark.parametrize("maker", [gen_fig2, lambda: gen_fig4(with_subclass=True),
                                   lambda: gen_random(seed=3)])
def test_serialize_load_round_trip_is_identity(maker):
    p, _ = maker()
    text = ir.serialize(p)
    p2 = ir.load_program(text)
    assert ir.serialize(p2) == text


def test_round_trip_preserves_data_and_externals():
    p, _ = gen_fig2()
    p2 = ir.load_program(ir.serialize(p))
    assert p2.data == p.data
    assert p2.externals == p.externals
    assert [c.name for c in p2.classes] == [c.name for c in p.classes]


def test_key_order_in_json_does_not_matter():
    p = make_minimal()
    doc = json.loads(ir.serialize(p))
    shuffled = json.dumps(doc, sort_keys=True)
    assert ir.serialize(ir.load_program(shuffled)) == ir.serialize(p)


# ---------------------------------------------------------------------------
# Parse errors

def test_rejects_non_json_and_non_object():
    with pytest.raises(ir.ParseError):
        ir.load_program("not json {")
    with pytest.raises(ir.ParseError):
        ir.load_program("[1, 2]")


def test_rejects_unknown_ir_version():
    doc = _doc(make_minimal())
    doc["ir_version"] = 99
    with pytest.raises(ir.ParseError, match="ir_version"):
        ir.load_program(json.dumps(doc))


@pytest.mark.parametrize("version", [3, 2.0, "2", None, 1, True, 1.0])
def test_version_2_is_an_exact_int(version):
    doc = _doc(make_minimal())
    doc["ir_version"] = version
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == f"unsupported ir_version {version!r}"


def test_rejects_duplicate_function_ids():
    doc = _doc(make_minimal())
    doc["functions"].append(doc["functions"][0])
    with pytest.raises(ir.ParseError, match="duplicate function id"):
        ir.load_program(json.dumps(doc))


def test_rejects_unknown_opcode_and_space():
    doc = _doc(make_minimal())
    doc["functions"][0]["blocks"][0]["ins"][0][0] = "XOR"
    with pytest.raises(ir.ParseError, match="opcode"):
        ir.load_program(json.dumps(doc))
    doc = _doc(make_minimal())
    out = doc["functions"][0]["blocks"][0]["ins"][0][1]
    doc["varnodes"][out][0] = "flash"
    with pytest.raises(ir.ParseError, match="space"):
        ir.load_program(json.dumps(doc))


def test_rejects_dangling_callee():
    f = func("main", blocks=[block(0, [I("CALL", None, (C(1),), callee="missing"),
                                       I("RETURN")])])
    p = ir.IRProgram(name="bad", functions=[f])
    with pytest.raises(ir.ParseError, match="missing"):
        ir.load_program(ir.serialize(p))


def test_rejects_dangling_class_refs():
    p = make_minimal()
    doc = _doc(p)
    doc["classes"] = [{"name": "A", "parents": ["Ghost"], "vtable_addr": 0,
                       "vtable": [], "constructors": [], "members": []}]
    with pytest.raises(ir.ParseError, match="Ghost"):
        ir.load_program(json.dumps(doc))
    doc["classes"] = [{"name": "A", "parents": [], "vtable_addr": 0,
                       "vtable": ["nope"], "constructors": [], "members": []}]
    with pytest.raises(ir.ParseError, match="nope"):
        ir.load_program(json.dumps(doc))


def _fig5_doc():
    """fig5's document: 15 varnode rows; functions[1].blocks[0] starts
    ["INT_ADD", 0, [6, 7]] and functions[0].blocks[0] starts
    ["CALL", 0, [1, 2], "open"]."""
    doc = _doc(gen_fig5()[0])
    assert len(doc["varnodes"]) == 15
    return doc


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


# One-field changes of the fig5 IR that used to escape load_program as a raw
# AttributeError or TypeError; each must be a ParseError naming the field.
@pytest.mark.parametrize("path,value,message", [
    (("functions", 1, "blocks", 0, "ins", 0), 5,
     "functions[1].blocks[0].ins[0]: instruction row must be a list, not int"),
    (("functions", 1, "blocks", 0, "succ"), 3,
     "functions[1].blocks[0].succ: must be a list, not int"),
    (("functions", 1, "stack_size"), "x",
     "functions[1].stack_size: must be an int, not str"),
    (("functions", 1, "stack_size"), True,
     "functions[1].stack_size: must be an int, not bool"),
    (("functions", 1, "params"), [3],
     "functions[1].params[0]: param must be an object"),
    (("data",), ["x"], "data[0]: segment must be an object"),
    (("data", 0), {"hex": "00"}, "data[0]: segment missing key 'addr'"),
    (("data", 0), {"addr": 0x1000}, "data[0]: segment missing key 'hex'"),
    (("functions", 1, "blocks"), 5, "functions[1].blocks: must be a list, not int"),
], ids=["ins-item", "succ-list", "stack-size", "stack-size-bool", "params-item",
        "data-item", "data-no-addr", "data-no-hex", "blocks-list"])
def test_malformed_structure_is_a_parse_error_with_field_path(path, value, message):
    doc = _fig5_doc()
    _set(doc, path, value)
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("path,value,message", [
    (("functions", 0, "id"), 3, "functions[0].id: must be a string, not int"),
    (("functions", 0, "id"), {}, "functions[0].id: must be a string, not dict"),
    (("functions", 0, "class"), ["IpcProtocol"],
     "functions[0].class: must be a string, not list"),
    (("classes", 1, "name"), [[1]], "classes[1].name: must be a string, not list"),
    (("classes", 1, "parents", 0), {}, "classes[1].parents[0]: must be a string, not dict"),
    (("classes", 2, "vtable", 1), [], "classes[2].vtable[1]: must be a string, not list"),
    (("classes", 0, "constructors", 0), 7,
     "classes[0].constructors[0]: must be a string, not int"),
    (("classes", 2, "members", 1), None,
     "classes[2].members[1]: must be a string, not NoneType"),
    (("functions", 0, "blocks", 0, "id"), [0],
     "functions[0].blocks[0].id: must be an int, not list"),
    (("functions", 0, "blocks", 0, "id"), True,
     "functions[0].blocks[0].id: must be an int, not bool"),
    (("functions", 0, "blocks", 0, "succ"), [1, {}],
     "functions[0].blocks[0].succ[1]: must be an int, not dict"),
    (("functions", 0, "blocks", 0, "succ"), [False],
     "functions[0].blocks[0].succ[0]: must be an int, not bool"),
    (("externals", 0), ["open"], "externals[0]: must be a string, not list"),
    (("name",), {"a": 1}, "name: must be a string, not dict"),
    (("functions", 0, "name"), ["f"], "functions[0].name: must be a string, not list"),
    (("functions", 4, "params", 1, "name"), 7,
     "functions[4].params[1].name: must be a string, not int"),
    (("classes", 2, "vtable_addr"), "zz", "classes[2].vtable_addr: must be an int, not str"),
    (("classes", 2, "vtable_addr"), True, "classes[2].vtable_addr: must be an int, not bool"),
    (("data", 0, "addr"), "zz", "data[0].addr: must be an int, not str"),
    (("data", 0, "addr"), True, "data[0].addr: must be an int, not bool"),
], ids=["fn-id-int", "fn-id-dict", "fn-class", "class-name", "parents-item", "vtable-item",
        "constructors-item", "members-item", "block-id-list", "block-id-bool", "succ-item",
        "succ-bool", "externals-item", "program-name", "fn-name", "param-name",
        "vtable-addr-str", "vtable-addr-bool", "data-addr-str", "data-addr-bool"])
def test_ids_and_names_of_the_wrong_type_are_a_parse_error(path, value, message):
    # Ids and names are dict keys and set members after loading, so a value
    # of the wrong type, unhashable ones included, must stop at the loader.
    doc = _doc(gen_fig2()[0])
    _set(doc, path, value)
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("value,message", [
    ("8", "word_size: must be an int, not str"),
    (8.0, "word_size: must be an int, not float"),
    (True, "word_size: must be an int, not bool"),
    (0, "word_size: must be positive, not 0"),
    (-8, "word_size: must be positive, not -8"),
])
def test_word_size_must_be_a_positive_int(value, message):
    doc = _fig5_doc()
    doc["word_size"] = value
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == message


def test_parse_error_path_names_the_operand():
    doc = _fig5_doc()
    doc["functions"][1]["blocks"][2]["ins"][0][2][1] = "x"
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == "functions[1].blocks[2].ins[0][2][1]: varnode index must be an int, not str"


@pytest.mark.parametrize("text", ["2F6465762F756D74735F6970633000",
                                  "2f 6465762f756d74735f6970633000",
                                  "2f6465762f756d74735f697063 3000\n"],
                         ids=["upper-case", "space", "space-and-newline"])
def test_segment_hex_must_be_what_serialize_writes(text):
    # bytes.fromhex takes all of these, but serialize would write other text
    doc = _doc(gen_fig5()[0])
    assert bytes.fromhex(text).hex() == doc["data"][0]["hex"]
    doc["data"][0]["hex"] = text
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == "data[0].hex: must be lowercase hex without spaces"


# ---------------------------------------------------------------------------
# The varnode table and instruction rows

@pytest.mark.parametrize("path,value,message", [
    (("varnodes",), {}, "varnodes: must be a list, not dict"),
    (("varnodes", 7), {"space": "reg", "offset": 1, "size": 8},
     "varnodes[7]: varnode row must be a list [space, offset, size]"),
    (("varnodes", 7), ["reg", 1], "varnodes[7]: varnode row must be a list [space, offset, size]"),
    (("varnodes", 7, 0), "x", "varnodes[7]: unknown space 'x'"),
    (("varnodes", 7, 0), ["reg"], "varnodes[7]: unknown space ['reg']"),
    (("varnodes", 7, 1), 1.0, "varnodes[7]: offset must be int, size a positive int"),
    (("varnodes", 7, 1), True, "varnodes[7]: offset must be int, size a positive int"),
    (("varnodes", 7, 2), 0, "varnodes[7]: offset must be int, size a positive int"),
    (("varnodes", 7), ["reg", 0, 8], "varnodes[7]: duplicate of varnodes[6]"),
    (("functions", 1, "blocks", 0, "ins", 0), {"op": "COPY"},
     "functions[1].blocks[0].ins[0]: instruction row must be a list, not dict"),
    (("functions", 1, "blocks", 0, "ins", 0), ["COPY", 0],
     "functions[1].blocks[0].ins[0]: instruction row must have 3 or 4 items, not 2"),
    (("functions", 1, "blocks", 0, "ins", 0), ["CALL", 0, [], "f", "g"],
     "functions[1].blocks[0].ins[0]: instruction row must have 3 or 4 items, not 5"),
    (("functions", 1, "blocks", 0, "ins", 0, 0), "XOR",
     "functions[1].blocks[0].ins[0][0]: unknown opcode 'XOR'"),
    (("functions", 1, "blocks", 0, "ins", 0, 1), -1,
     "functions[1].blocks[0].ins[0][1]: varnode index -1 out of range"),
    (("functions", 1, "blocks", 0, "ins", 0, 1), 15,
     "functions[1].blocks[0].ins[0][1]: varnode index 15 out of range"),
    (("functions", 1, "blocks", 0, "ins", 0, 1), 0.0,
     "functions[1].blocks[0].ins[0][1]: varnode index must be an int, not float"),
    (("functions", 1, "blocks", 0, "ins", 0, 2), 6,
     "functions[1].blocks[0].ins[0][2]: must be a list, not int"),
    (("functions", 1, "blocks", 0, "ins", 0, 2, 1), 99,
     "functions[1].blocks[0].ins[0][2][1]: varnode index 99 out of range"),
    (("functions", 1, "blocks", 0, "ins", 0, 2, 1), True,
     "functions[1].blocks[0].ins[0][2][1]: varnode index must be an int, not bool"),
    (("functions", 1, "blocks", 0, "ins", 0, 2, 0), None,
     "functions[1].blocks[0].ins[0][2][0]: varnode index must be an int, not NoneType"),
    (("functions", 0, "blocks", 0, "ins", 0, 3), 7,
     "functions[0].blocks[0].ins[0][3]: callee must be a string, not int"),
    (("functions", 0, "blocks", 0, "ins", 0, 3), None,
     "functions[0].blocks[0].ins[0][3]: callee must be a string, not NoneType"),
], ids=["table", "row-object", "row-short", "space", "space-list", "offset-float",
        "offset-bool", "size-zero", "duplicate", "ins-object", "ins-2", "ins-5", "opcode",
        "out-negative", "out-table-length", "out-float", "in-not-list", "in-range",
        "in-bool", "in-null", "callee-int", "callee-null"])
def test_v2_rows_are_checked_with_field_paths(path, value, message):
    doc = _fig5_doc()
    _set(doc, path, value)
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc, separators=(",", ":")))
    assert str(exc.value) == message


def test_v2_null_out_is_no_output_and_the_callee_is_optional():
    doc = _fig5_doc()
    doc["functions"][0]["blocks"][0]["ins"][0] = ["COPY", 3, [1]]
    doc["functions"][0]["blocks"][0]["ins"].insert(0, ["STORE", None, [4, 2]])
    ins = ir.load_program(json.dumps(doc)).fn("IpcRxPoll").blocks[0].instructions
    assert ins[:2] == (ir.Instruction("STORE", None, (S(16, 32), C(0)), None),
                       ir.Instruction("COPY", U(1), (C(0x2000),), None))


def test_v2_table_rows_are_one_object_each():
    p = ir.load_program(ir.serialize(gen_fig5()[0]))
    got = {}
    for v in _varnodes(p):
        assert got.setdefault(v, v) is v
    assert len(got) == 15


def test_a_v2_document_without_varnodes_has_an_empty_table():
    doc = ir.program_to_dict(ir.IRProgram(name="p", functions=[ret_stub("f")]))
    assert doc["varnodes"] == []
    del doc["varnodes"]
    assert ir.load_program(json.dumps(doc)).fn("f").blocks[0].instructions == (I("RETURN"),)


# ---------------------------------------------------------------------------
# Varnode interning

def _two_copies():
    """A program whose main copies (reg, 1, 8) twice."""
    f = func("main", blocks=[block(0, [I("COPY", R(0), (R(1),)),
                                       I("COPY", R(2), (R(1),)),
                                       I("RETURN")])])
    return build_program("p", functions=[f])


def _two_copies_doc(second):
    """``_two_copies``' document with the row ``second`` added to the table,
    after (reg, 0, 8), (reg, 1, 8) and (reg, 2, 8), as the second copy's
    input."""
    doc = _doc(_two_copies())
    assert doc["varnodes"] == [["reg", 0, 8], ["reg", 1, 8], ["reg", 2, 8]]
    doc["functions"][0]["blocks"][0]["ins"][1][2][0] = len(doc["varnodes"])
    doc["varnodes"].append(second)
    return doc


_ROW_FIELD = {"offset": 1, "size": 2}


@pytest.mark.parametrize("field,value", [("offset", 1.0), ("size", 8.0)])
def test_float_equal_to_an_interned_int_varnode_is_still_rejected(field, value):
    # 1.0 == 1 and hashes alike, so an accepted float would be a duplicate row
    second = ["reg", 1, 8]
    second[_ROW_FIELD[field]] = value
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(_two_copies_doc(second)))
    assert str(exc.value) == "varnodes[3]: offset must be int, size a positive int"


@pytest.mark.parametrize("field,value,offset", [
    ("offset", True, 1),  # equal to the interned (reg, 1, 8)
    ("offset", False, 5),
    ("size", True, 5),
])
def test_bool_varnode_offset_or_size_is_rejected(field, value, offset):
    # True == 1, so an accepted bool would make (reg, True, 8) equal reg 1.
    second = ["reg", offset, 8]
    second[_ROW_FIELD[field]] = value
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(_two_copies_doc(second)))
    assert str(exc.value) == "varnodes[3]: offset must be int, size a positive int"


def test_equal_varnodes_in_one_load_are_one_object():
    ins = ir.load_program(ir.serialize(_two_copies())).fn("main").blocks[0].instructions
    assert ins[0].inputs[0] is ins[1].inputs[0]
    assert ins[0].output is not ins[1].output


def _varnodes(p):
    return [v for f in p.functions for _, _, ins in f.linear()
            for v in ins.inputs + ((ins.output,) if ins.output else ())]


def test_a_load_builds_one_varnode_per_table_row(monkeypatch):
    text = ir.serialize(gen_fig5()[0])
    built = []

    class counting:  # stands in for ``tuple`` in ir, which makes cells with tuple.__new__
        def __new__(cls, *args):
            if cls is counting:  # tuple(items)
                return tuple(*args)
            if cls is ir.Varnode:
                built.append(args)
            return tuple.__new__(cls, *args)

    monkeypatch.setattr(ir, "tuple", counting, raising=False)
    operands = _varnodes(ir.load_program(text))
    assert len(operands) > len(set(operands))  # some cell is used twice
    assert len(built) == len(set(operands)) == len(json.loads(text)["varnodes"])


def test_separate_loads_share_no_varnodes():
    text = ir.serialize(gen_fig5()[0])
    a, b = _varnodes(ir.load_program(text)), _varnodes(ir.load_program(text))
    assert a == b
    assert not {id(v) for v in a} & {id(v) for v in b}


def _thousand_functions() -> str:
    """The text of 1000 one-block functions, each seven INT_ADDs and a RETURN."""
    fns = [func(f"F{k:04d}", blocks=[block(0, [I("INT_ADD", U(i), (U(i - 1) if i else C(k), C(i)))
                                               for i in range(7)] + [I("RETURN")])])
           for k in range(1000)]
    return ir.serialize(build_program("big", functions=fns))


def test_load_peaks_below_twice_the_program_it_returns():
    # The decoded document is dropped function by function as the program
    # is built, and holds one shared Varnode per distinct cell.
    text = _thousand_functions()
    tracemalloc.start()
    try:
        p = ir.load_program(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.functions) == 1000
    assert peak <= 2 * size, (peak, size)


def test_a_loaded_instruction_costs_at_most_300_bytes():
    # A function keeps its blocks and one flat tuple of their instructions,
    # and no per-instruction triples or per-function block dicts.
    text = _thousand_functions()
    tracemalloc.start()
    try:
        p = ir.load_program(text)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = sum(len(f.code) for f in p.functions)
    assert n == 8000
    assert size <= 300 * n, size / n


def test_a_random_program_costs_at_most_300_bytes_per_loaded_instruction():
    # Programs of many small functions: each distinct instruction and name
    # is one object per load, and single-block functions share their
    # block's tuple as their code.
    texts = [ir.serialize(gen_random(seed=s)[0]) for s in range(50)]
    size = n = 0
    for text in texts:  # one at a time, as the CLI loads binaries
        tracemalloc.start()
        try:
            p = ir.load_program(text)
            size += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n += sum(len(f.code) for f in p.functions)
    assert size <= 300 * n, size / n


def test_loaded_blocks_functions_params_and_classes_have_no_dict():
    p = ir.load_program(ir.serialize(gen_fig4(with_subclass=True)[0]))
    f = next(f for f in p.functions if f.params)
    for x in (f.blocks[0], f, f.params[0], p.classes[0]):
        assert not hasattr(x, "__dict__"), type(x).__name__


def test_loaded_containers_are_tuples():
    p = ir.load_program(ir.serialize(gen_random(seed=3)[0]))
    assert any(not f.params for f in p.functions) and any(len(f.blocks) > 1 for f in p.functions)
    for f in p.functions:
        assert type(f.blocks) is tuple and type(f.params) is tuple and type(f.code) is tuple
        assert all(type(b.instructions) is tuple for b in f.blocks)
        if len(f.blocks) == 1:
            assert f.code is f.blocks[0].instructions  # shared, not copied
    assert ir.load_program(json.dumps(_doc(ir.IRProgram(name="p", functions=[
        func("f", blocks=[block(0, [])])])))).fn("f").params == ()


def _repeats() -> str:
    """The text of a program whose ``main`` copies (reg, 1, 8) into (reg, 0, 8)
    twice and then calls the member ``Nv::Handle(this, x: int) -> int``
    twice the same way."""
    main = func("main", blocks=[block(0, [I("COPY", R(0), (R(1),)), I("COPY", R(0), (R(1),)),
                                          I("CALL", R(0), (R(1), C(7)), callee="Nv::Handle"),
                                          I("CALL", R(0), (R(1), C(7)), callee="Nv::Handle"),
                                          I("RETURN")])])
    handle = func("Nv::Handle", cls="Nv", params=(("x", "int"),), ret="int",
                  blocks=[block(0, [I("RETURN", None, (R(1),))])])
    return ir.serialize(build_program("p", classes=[ir.ClassInfo("Nv", members=["Nv::Handle"])],
                                      functions=[main, handle]))


def test_a_load_makes_one_object_per_distinct_instruction_and_name():
    p = ir.load_program(_repeats())
    main, handle = p.fn("main"), p.fn("Nv::Handle")
    ins = main.blocks[0].instructions
    assert ins[0] is ins[1] and ins[2] is ins[3]
    assert main.id is main.name and handle.id is handle.name
    assert ins[2].callee is handle.id is p.classes[0].members[0]
    assert handle.owning_class is p.classes[0].name
    assert handle.params[1].type is handle.return_type
    q = ir.load_program(_repeats())
    assert main == q.fn("main") and handle == q.fn("Nv::Handle")
    assert main.id is not q.fn("main").id
    assert not {id(x) for f in p.functions for x in f.code} & {id(x) for f in q.functions for x in f.code}


def test_load_peaks_near_the_program_it_returns():
    # No decoded document: beside the program, a load holds the varnode
    # rows until the table is built, and one function's JSON at a time.
    # Distinct constants make the table as large as the code.
    fns = [func(f"F{k:04d}", blocks=[block(0, [I("INT_ADD", U(i), (U(i - 1) if i else C(k),
                                                                    C(7 * k + i)))
                                               for i in range(7)] + [I("RETURN")])])
           for k in range(1000)]
    text = ir.serialize(build_program("big", functions=fns))
    tracemalloc.start()
    try:
        p = ir.load_program(text)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p.functions) == 1000
    assert peak <= 1.2 * size, (peak, size)


# ---------------------------------------------------------------------------
# The text is read member by member, and functions one at a time

def _json_error(text: str) -> str | None:
    """The ParseError text of ``json.loads``'s error on ``text``, or None."""
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        return f"line {e.lineno} col {e.colno}: {e.msg}"
    return None


def _text(members) -> str:
    """A compact document of the (key, value) pairs ``members``, in order."""
    return "{" + ",".join(json.dumps(k) + ":" + json.dumps(v, separators=(",", ":"))
                          for k, v in members) + "}"


def test_a_broken_text_gives_the_error_json_loads_gives():
    text = ir.serialize(gen_fig5()[0])
    broken = [text[:k] for k in range(len(text))]  # every prefix
    broken += [text[:k] + text[k + 1:] for k in range(len(text))]  # every deletion
    checked = 0
    for b in broken:
        want = _json_error(b)
        if want is None:
            continue
        with pytest.raises(ir.ParseError) as exc:
            ir.load_program(b)
        assert str(exc.value) == want, b
        checked += 1
    assert checked > 2000


@pytest.mark.parametrize("text", ["", "  \n", "\ufeff{}", "{} x", "{}{}", "{", "{,}",
                                  '{"a" 1}', '{"a":}', '{"a":1,}', '{"a":1 "b":2}',
                                  '{"ir_version":2,"varnodes":[],"functions":[',
                                  '{"ir_version":2,"varnodes":[],"functions":[]',
                                  '{"ir_version":2,"varnodes":[],"functions":[] ,}',
                                  '{"ir_version":2,"varnodes":[],"functions":[1 2]}',
                                  '{"ir_version":2,"varnodes":[],"functions":[,]}'])
def test_syntax_errors_between_members_and_functions_are_json_loads_errors(text):
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(text)
    assert str(exc.value) == _json_error(text)


def test_rewritten_documents_load_the_same_program(tmp_path, capsys):
    # the indented form is test_indented_documents_load_and_serialize_compactly
    for label, p in _written_programs(tmp_path):
        text = ir.serialize(p)
        doc = ir.program_to_dict(p)
        members = list(doc.items())
        rewritten = {
            "functions first": _text([("functions", doc["functions"])]
                                     + [m for m in members if m[0] != "functions"]),
            # every member twice, the first time null; then the table a
            # third time, after the functions built with it
            "repeated": _text([(k, None) for k, _ in members] + members
                              + [("varnodes", doc["varnodes"])]),
        }
        for how, t in rewritten.items():
            assert ir.serialize(ir.load_program(t)) == text, (label, how)


def test_a_later_table_rebuilds_the_functions_read_before_it():
    doc = _fig5_doc()
    other = doc["varnodes"][1:] + doc["varnodes"][:1]  # the same cells, rotated
    members = [(k, v) for k, v in doc.items() if k not in ("varnodes", "functions")]
    t = _text(members + [("varnodes", other), ("functions", doc["functions"]),
                         ("varnodes", doc["varnodes"])])
    assert ir.serialize(ir.load_program(t)) == ir.serialize(gen_fig5()[0])


def _broken_fn(doc, n=1):
    doc["functions"][n]["blocks"][0]["ins"][0][0] = "XOR"
    return f"functions[{n}].blocks[0].ins[0][0]: unknown opcode 'XOR'"


@pytest.mark.parametrize("case", ["syntax after", "syntax in a later function",
                                  "bad name before", "functions first", "bad table"])
def test_several_faults_raise_the_first_one_met(case):
    doc = _fig5_doc()
    fn_fault = _broken_fn(doc)
    if case == "syntax after":  # the function's fault comes first in the text
        text, want = _text(doc.items())[:-1] + ",]", fn_fault
    elif case == "syntax in a later function":
        text = _text(doc.items())
        at = text.index('{"id":"Nv::', text.index('"Nv::ProcessRfsPacket","name"'))
        text, want = text[:at] + text[at + 1:], fn_fault
    elif case == "bad name before":  # the name is checked after the text is read
        doc["name"] = 5
        text, want = _text(doc.items()), fn_fault
    elif case == "functions first":  # built at the end, after name
        doc["name"] = 5
        text = _text([("functions", doc["functions"])]
                     + [(k, v) for k, v in doc.items() if k != "functions"])
        want = "name: must be a string, not int"
    else:  # the table is built when the functions start
        doc["varnodes"][3] = "x"
        text, want = _text(doc.items()), "varnodes[3]: varnode row must be a list [space, offset, size]"
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(text)
    assert str(exc.value) == want


def _ir_fixture_kinds():
    return [k for k in cli.FIXTURE_KINDS if k not in ("crashsuite", "mutsuite", "diffpair")]


@pytest.mark.parametrize("kind", _ir_fixture_kinds())
def test_round_trip_is_identity_for_every_fixture_kind(kind, tmp_path, capsys):
    assert cli.main(["fixtures", kind, "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.glob("*.ir.json")
    text = path.read_text(encoding="utf-8")
    assert ir.serialize(ir.load_program(text)) == text


def test_round_trip_is_identity_for_random_seeds():
    for seed in range(20):
        text = ir.serialize(gen_random(seed=seed)[0])
        assert ir.serialize(ir.load_program(text)) == text, seed


def _written_programs(tmp_path):
    """(label, program) for every IR fixture kind and ``gen_random`` seeds 0-19."""
    for kind in _ir_fixture_kinds():
        out = tmp_path / kind
        assert cli.main(["fixtures", kind, "--out", str(out)]) == 0
        (path,) = out.glob("*.ir.json")
        yield kind, ir.load_program(path.read_text(encoding="utf-8"))
    for seed in range(20):
        yield f"seed {seed}", gen_random(seed=seed)[0]


def test_serialize_writes_compact_json(tmp_path, capsys):
    for label, p in _written_programs(tmp_path):
        text = ir.serialize(p)
        assert ", " not in text and '": ' not in text and "\n" not in text, label
        assert json.loads(text) == ir.program_to_dict(p), label


def test_indented_documents_load_and_serialize_compactly(tmp_path, capsys):
    # the old writers' output, as existing IR files on disk hold it
    for label, p in _written_programs(tmp_path):
        indented = json.dumps(ir.program_to_dict(p), indent=1)
        assert ir.serialize(ir.load_program(indented)) == ir.serialize(p), label


def _fixture_programs() -> list:
    """(label, program) for every ``cli._IR_FIXTURES`` kind and for
    ``gen_random`` seeds 0-49."""
    programs = [(kind, make(0)[0]) for kind, make in cli._IR_FIXTURES.items()]
    return programs + [(f"seed {seed}", gen_random(seed=seed)[0]) for seed in range(50)]


def test_loaded_cells_are_named_tuples_of_their_arity():
    # the loader makes its cells with tuple.__new__, which skips the named
    # tuple's own arity check
    for label, p in _fixture_programs():
        q = ir.load_program(ir.serialize(p))
        for f in q.functions:
            for _, _, ins in f.linear():
                assert type(ins) is ir.Instruction and len(ins) == 4, label
                for v in ins.inputs + ((ins.output,) if ins.output is not None else ()):
                    assert type(v) is ir.Varnode and len(v) == 3, label
        assert ir.serialize(q) == ir.serialize(p), label


def test_code_and_the_block_lookups_agree_with_the_blocks():
    # A function stores its blocks, one flat tuple of their instructions and
    # where each block starts in it. Generated blocks are numbered by
    # position; the hand-built function's are not, except block 1, which is
    # empty, and its last block's id, -1, is not an index from the end.
    hand = func("hand", blocks=[block(2, [I("COPY", R(0), (C(1),))]), block(1, []),
                                block(3, [I("COPY", R(1), (R(0),))]),
                                block(0, [I("COPY", R(2), (R(1),))]), block(-1, [I("RETURN")])])
    functions = [(label, f) for label, p in _fixture_programs() for f in p.functions]
    for label, f in functions + [("hand", hand)]:
        lin = f.linear()
        assert f.code == tuple(ins for _, _, ins in lin), label
        assert [f.linear_pos(bid, idx) for bid, idx, _ in lin] == list(range(len(lin))), label
        for b in f.blocks:
            assert f.block(b.id) is b, label
        ids = [b.id for b in f.blocks]
        for unknown in (min(ids) - 1, max(ids) + 1):
            for lookup in (f.block, lambda bid: f.linear_pos(bid, 0)):
                with pytest.raises(KeyError, match=re.escape(f"{f.id}: no block {unknown}")):
                    lookup(unknown)


# ---------------------------------------------------------------------------
# The loader pauses cyclic GC and restores it

def _bad_texts():
    doc = _doc(make_minimal())
    doc["functions"][0]["blocks"][0]["ins"][0][0] = "XOR"
    f = func("main", stack=8, blocks=[block(0, [I("COPY", S(4, 8), (C(0),)), I("RETURN")])])
    return {ir.ParseError: json.dumps(doc),
            ir.ValidationError: ir.serialize(ir.IRProgram(name="p", functions=[f]))}


@pytest.mark.parametrize("outcome", [None, ir.ParseError, ir.ValidationError])
@pytest.mark.parametrize("enabled", [True, False])
def test_load_pauses_gc_and_restores_its_state(outcome, enabled, monkeypatch):
    text = ir.serialize(make_minimal()) if outcome is None else _bad_texts()[outcome]
    during = []
    load = ir._load

    def spy(text):
        during.append(gc.isenabled())
        return load(text)

    monkeypatch.setattr(ir, "_load", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome is None:
            ir.load_program(text)
        else:
            with pytest.raises(outcome):
                ir.load_program(text)
        assert during == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("outcome", [None, ir.ParseError])
def test_a_load_decodes_its_text_once(outcome, monkeypatch):
    text = ir.serialize(make_minimal()) if outcome is None else _bad_texts()[outcome]
    passes = [0] * len(text)  # decoder passes over each character of the text

    def counting(scan):
        def spy(s, i, *args, **kwargs):
            value, end = scan(s, i, *args, **kwargs)
            if s is text:
                for k in range(i, end):
                    passes[k] += 1
            return value, end
        return spy

    def counting_loads(s, **kwargs):
        if s is text:
            passes[:] = [n + 1 for n in passes]
        return loads(s, **kwargs)

    loads = json.loads
    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(ir, "_scan_once", counting(ir._scan_once))
    monkeypatch.setattr(ir, "_scanstring", counting(ir._scanstring))
    if outcome is not None:
        with pytest.raises(ir.ParseError, match="unknown opcode 'XOR'"):
            ir.load_program(text)
    else:
        ir.load_program(text)
    assert max(passes) == 1, passes


def test_load_leaves_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        ir.load_program(ir.serialize(make_minimal()))
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_serialize_pauses_gc_and_restores_its_state(fails, enabled, monkeypatch):
    during = []
    to_dict = ir.program_to_dict

    def spy(p):
        during.append(gc.isenabled())
        if fails:
            raise RuntimeError("spy")
        return to_dict(p)

    monkeypatch.setattr(ir, "program_to_dict", spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if fails:
            with pytest.raises(RuntimeError):
                ir.serialize(make_minimal())
        else:
            ir.serialize(make_minimal())
        assert during == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_serialize_leaves_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        ir.serialize(make_minimal())
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Validation invariants

def _invariants(p):
    return {d.invariant for d in ir.validate(p)}


def test_validate_flags_stack_out_of_bounds():
    f = func("main", stack=16,
             blocks=[block(0, [I("COPY", S(12, 8), (C(0),)), I("RETURN")])])
    assert "stack-bounds" in _invariants(ir.IRProgram(name="p", functions=[f]))


def test_validate_reports_stack_operands_inputs_first():
    f = func("main", stack=16, blocks=[block(0, [
        I("COPY", S(12, 8), (S(-4, 4),)),  # input and output outside the frame
        I("COPY", S(16, 1), (S(0, 8),)),  # only the output
        I("RETURN"),
    ])])
    diags = [(d.invariant, d.location, d.message)
             for d in ir.validate(ir.IRProgram(name="p", functions=[f]))]
    assert diags == [
        ("stack-bounds", "main@0:0", "stack:-0x4:4 outside stack_size 16"),
        ("stack-bounds", "main@0:0", "stack:0xc:8 outside stack_size 16"),
        ("stack-bounds", "main@0:1", "stack:0x10:1 outside stack_size 16"),
    ]


def test_validate_flags_call_without_callee():
    f = func("main", blocks=[block(0, [ir.Instruction("CALL", None, (C(1),), None),
                                       I("RETURN")])])
    assert "call-has-callee" in _invariants(ir.IRProgram(name="p", functions=[f]))


def test_validate_flags_callind_shape():
    f = func("main", blocks=[block(0, [ir.Instruction("CALLIND", None, (), "x"),
                                       I("RETURN")])])
    got = _invariants(ir.IRProgram(name="p", functions=[f]))
    assert {"callind-unresolved", "callind-target"} <= got


def test_validate_flags_bad_compare_shape():
    f = func("main", blocks=[block(0, [I("INT_EQUAL", R(0, 8), (C(1),)),
                                       I("RETURN")])])
    assert "cmp-shape" in _invariants(ir.IRProgram(name="p", functions=[f]))


@pytest.mark.parametrize("ins", [
    ir.Instruction("COPY", R(0), ()),
    ir.Instruction("COPY", None, (C(1),)),
    ir.Instruction("LOAD", None, (R(1),)),
    ir.Instruction("LOAD", R(0), (R(1), R(2))),
    ir.Instruction("INT_ADD", R(0), (R(1),)),
    ir.Instruction("INT_SUB", None, (R(1), C(1))),
    ir.Instruction("STORE", None, (R(1),)),
], ids=["copy-no-input", "copy-no-output", "load-no-output", "load-two-inputs",
        "add-one-input", "sub-no-output", "store-one-input"])
def test_validate_flags_operand_shape(ins):
    # The call graph and taint code unpack these operands unchecked, so a
    # wrong count must stop at validate, not raise there.
    f = func("main", blocks=[block(0, [ins, I("RETURN")])])
    p = ir.IRProgram(name="p", functions=[f])
    assert _invariants(p) == {"operand-shape"}
    with pytest.raises(ir.ValidationError) as exc:
        ir.load_program(ir.serialize(p))
    assert [d.location for d in exc.value.diagnostics] == ["main@0:0"]


def test_validate_flags_member_without_this():
    f = ir.Function(id="A::m", name="A::m", owning_class="A", params=[],
                    return_type="void", stack_size=0,
                    blocks=[block(0, [I("RETURN")])])
    cls = ir.ClassInfo(name="A", members=["A::m"])
    assert "member-this-param" in _invariants(
        ir.IRProgram(name="p", classes=[cls], functions=[f]))


def test_validate_flags_members_of_another_class():
    # Each constructors/members entry must be a function of that class; the
    # search list of virtual-call recovery and the fd walk rely on it.
    p = ir.IRProgram(name="p", classes=[
        ir.ClassInfo(name="A", constructors=["f"], members=["g", "B::m"]),
        ir.ClassInfo(name="B", members=["B::m"]),
    ], functions=[ret_stub("f"), ret_stub("g"), ret_stub("B::m", cls="B")])
    assert ir.validate(p) == [ir.Diagnostic("members-owned", "A", f"{fid!r} is not a function of A")
                              for fid in ("f", "g", "B::m")]
    with pytest.raises(ir.ValidationError) as exc:
        ir.load_program(ir.serialize(p))
    assert [d.invariant for d in exc.value.diagnostics] == ["members-owned"] * 3


def test_validate_flags_unknown_successor_and_dup_blocks():
    f = func("main", blocks=[block(0, [I("BRANCH")], succ=(7,))])
    assert "successors-local" in _invariants(ir.IRProgram(name="p", functions=[f]))
    g = func("g", blocks=[block(0, [I("RETURN")]), block(0, [I("RETURN")])])
    assert "unique-block-ids" in _invariants(ir.IRProgram(name="p", functions=[g]))


def test_validate_flags_overlapping_data_segments():
    p = ir.IRProgram(name="p", data=[(0x100, b"abcd"), (0x102, b"xy")])
    assert "data-overlap" in _invariants(p)


def test_validate_flags_parent_cycle():
    a = ir.ClassInfo(name="A", parents=["B"])
    b = ir.ClassInfo(name="B", parents=["A"])
    assert "acyclic-parents" in _invariants(ir.IRProgram(name="p", classes=[a, b]))


_NAME_RULE_CASES = {
    "unique-function-ids": (
        dict(functions=[ret_stub("f"), ret_stub("f")]),
        "p", "duplicate function id 'f'", "duplicate function id 'f'"),
    "unique-classes": (
        dict(classes=[ir.ClassInfo(name="A"), ir.ClassInfo(name="A")]),
        "p", "duplicate class 'A'", "duplicate class 'A'"),
    "parent-resolves": (
        dict(classes=[ir.ClassInfo(name="A", parents=["Ghost"])]),
        "A", "unknown parent 'Ghost'", "class A: unknown parent 'Ghost'"),
    "vtable-resolves": (
        dict(classes=[ir.ClassInfo(name="A", vtable=["nope"])]),
        "A", "dangling function ref 'nope'", "class A: dangling function ref 'nope'"),
    "members-resolve": (
        dict(classes=[ir.ClassInfo(name="A", constructors=["A::A"])]),
        "A", "dangling function ref 'A::A'", "class A: dangling function ref 'A::A'"),
    "owning-class-resolves": (
        dict(functions=[ret_stub("G::m", cls="G")]),
        "G::m", "unknown owning class 'G'", "G::m: unknown owning class 'G'"),
    "callee-resolves": (
        dict(functions=[func("main", blocks=[block(0, [I("CALL", None, (C(1),), callee="missing"),
                                                       I("RETURN")])])]),
        "main@0:0", "dangling callee 'missing'", "main@0:0: dangling callee 'missing'"),
}


@pytest.mark.parametrize("invariant", list(_NAME_RULE_CASES))
def test_validate_reports_each_name_rule_and_load_raises_it(invariant):
    parts, location, message, parse_text = _NAME_RULE_CASES[invariant]
    p = ir.IRProgram(name="p", **parts)
    assert ir.validate(p) == [ir.Diagnostic(invariant, location, message)]
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(ir.serialize(p))
    assert str(exc.value) == parse_text


@pytest.mark.parametrize("parts,first", [
    (dict(classes=[ir.ClassInfo(name="A", parents=["Ghost"]), ir.ClassInfo(name="A")],
          functions=[ret_stub("f"), ret_stub("f")]), "duplicate function id 'f'"),
    (dict(classes=[ir.ClassInfo(name="A", vtable=["nope"]), ir.ClassInfo(name="A")]),
     "duplicate class 'A'"),
    (dict(classes=[ir.ClassInfo(name="A", parents=["Ghost"], members=["nope"])]),
     "class A: unknown parent 'Ghost'"),
    (dict(classes=[ir.ClassInfo(name="A", members=["nope"])],
          functions=[ret_stub("G::m", cls="G")]), "class A: dangling function ref 'nope'"),
    (dict(functions=[func("main", blocks=[block(0, [I("CALL", None, (), callee="x"),
                                                    I("CALL", None, (), callee="y"),
                                                    I("RETURN")])]),
                     ret_stub("G::m", cls="G")]), "main@0:0: dangling callee 'x'"),
])
def test_load_raises_the_first_name_rule_in_check_order(parts, first):
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(ir.serialize(ir.IRProgram(name="p", **parts)))
    assert str(exc.value) == first


def test_a_dangling_callee_outranks_other_invariants():
    f = func("main", stack=8, blocks=[block(0, [I("COPY", S(4, 8), (C(0),)),
                                                I("CALL", None, (), callee="missing"),
                                                I("RETURN")])])
    p = ir.IRProgram(name="p", functions=[f])
    assert [d.invariant for d in ir.validate(p)] == ["stack-bounds", "callee-resolves"]
    with pytest.raises(ir.ParseError, match=r"^main@0:1: dangling callee 'missing'$"):
        ir.load_program(ir.serialize(p))


def test_load_rejects_invariant_violations_with_diagnostics():
    f = func("main", stack=8,
             blocks=[block(0, [I("COPY", S(4, 8), (C(0),)), I("RETURN")])])
    text = ir.serialize(ir.IRProgram(name="p", functions=[f]))
    with pytest.raises(ir.ValidationError) as exc:
        ir.load_program(text)
    assert any(d.invariant == "stack-bounds" for d in exc.value.diagnostics)


def test_validation_error_round_trips_through_pickle():
    e = ir.ValidationError([ir.Diagnostic("stack-bounds", "main@0:0", "out of frame"),
                            ir.Diagnostic("cmp-shape", "main@0:1", "needs two inputs")])
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is ir.ValidationError
    assert str(back) == str(e) and back.diagnostics == e.diagnostics


# ---------------------------------------------------------------------------
# Helpers on loaded programs

def test_reaching_def_finds_nearest_writer():
    f = func("main", blocks=[block(0, [
        I("COPY", R(3), (C(1),)),
        I("COPY", R(3), (C(2),)),
        I("INT_ADD", R(4), (R(3), C(5))),
        I("RETURN"),
    ])])
    pos, ins = ir.reaching_def(f, R(3), before=2)
    assert pos == 1 and ins.inputs[0] == C(2)
    assert ir.reaching_def(f, R(9), before=2) is None  # enters from caller


def test_def_step_follows_copies_only_through_the_given_spaces():
    f = func("main", blocks=[block(0, [
        I("CALL", U(0), (), callee="main"),
        I("COPY", S(8, 8), (U(0),)),
        I("COPY", U(1), (S(8, 8),)),
        I("COPY", R(2), (U(1),)),
        I("RETURN", None, (R(2),)),
    ])])
    temps = frozenset(("reg", "unique"))
    assert ir.def_step(f, R(2), 4, temps) == (S(8, 8), 2, (1, f.linear()[1][2]))
    v, pos, (dpos, d) = ir.def_step(f, R(2), 4, ir.NONCONST_SPACES)
    assert (v, pos, dpos, d.op) == (U(0), 1, 0, "CALL")
    assert ir.def_step(f, R(2), 4, frozenset()) == (R(2), 4, (3, f.linear()[3][2]))
    assert ir.def_step(f, R(5), 4, temps) == (R(5), 4, None)  # enters from caller


def test_data_readers_handle_bounds_and_nul():
    p = ir.IRProgram(name="p", data=[(0x2000, b"/dev/umts_ipc0\x00tail")])
    assert p.read_bytes(0x2000, 4) == b"/dev"
    assert p.read_bytes(0x2000, 100) is None
    assert p.read_cstring(0x2000) == "/dev/umts_ipc0"
    assert p.read_cstring(0x1fff) is None


def test_subclass_and_ancestor_order():
    p, _ = gen_fig4(with_subclass=True)
    assert "IpcModem5G" in p.subclasses("IpcModem")
    assert p.ancestors("IpcModem5G") == ["IpcModem"]
    assert p.ancestors("IpcProtocol41") == ["IpcProtocol"]


def _ancestors_recursive(p, name, seen):
    """The recursive walk ``ancestors`` replaced: each parent after its own
    ancestors, in parent order."""
    c = next((c for c in p.classes if c.name == name), None)
    for q in c.parents if c is not None else ():
        _ancestors_recursive(p, q, seen)
        if q not in seen:
            seen.append(q)
    return seen


@st.composite
def _hierarchies(draw):
    """Classes K0..Kn-1 in any declaration order, each with parents drawn
    from the classes before it (so acyclic, with diamonds) or an unknown
    name."""
    n = draw(st.integers(1, 12))
    names = [f"K{i}" for i in range(n)]
    classes = [ir.ClassInfo(f"K{i}", parents=draw(st.lists(
        st.sampled_from(names[:i] + ["Ghost"]), unique=True, max_size=3))) for i in range(n)]
    return ir.IRProgram(name="p", classes=draw(st.permutations(classes)))


@given(_hierarchies())
def test_ancestors_match_the_recursive_walk(p):
    for c in p.classes:
        assert p.ancestors(c.name) == _ancestors_recursive(p, c.name, []), c.name
    assert p.ancestors("Ghost") == []


def test_a_deep_class_hierarchy_mines_like_a_shallow_one():
    # IpcProtocol under 1,500 more classes: past the default recursion limit
    p, m = gen_fig2()
    n = 1500
    chain = [ir.ClassInfo(f"Base{i}", parents=[f"Base{i + 1}"] if i + 1 < n else [])
             for i in range(n)]
    classes = [replace(c, parents=["Base0"]) if c.name == "IpcProtocol" else c
               for c in p.classes]
    deep = ir.load_program(ir.serialize(replace(p, classes=classes + chain)))
    assert len(deep.ancestors("IpcProtocol41")) == n + 1
    cg = build_direct_cg(deep)
    recover_vcalls(deep, cg)
    db, _ = filter_commands(deep, cg)
    assert db_signatures(db) == m.command_signatures()


def test_subclasses_come_in_discovery_order_not_declaration_order():
    p = ir.IRProgram(name="p", classes=[
        ir.ClassInfo("C", parents=["B"]), ir.ClassInfo("B", parents=["A"]),
        ir.ClassInfo("A"), ir.ClassInfo("D", parents=["A"]),
    ])
    assert p.subclasses("A") == ["B", "D", "C"]
    assert p.subclasses("B") == ["C"]
    assert p.subclasses("C") == []
    assert p.subclasses("Ghost") == []


def _subclasses_scan(p, name):
    """The fixpoint over every class that ``subclasses`` narrows."""
    out = []
    frontier = {name}
    changed = True
    while changed:
        changed = False
        for c in p.classes:
            if c.name in out or c.name in frontier:
                continue
            if any(q in frontier or q in out for q in c.parents):
                out.append(c.name)
                changed = True
    return out


def _read_bytes_scan(p, addr, n):
    for base, blob in p.data:
        if base <= addr and addr + n <= base + len(blob):
            return blob[addr - base : addr - base + n]
    return None


def _read_cstring_scan(p, addr):
    for base, blob in p.data:
        if base <= addr < base + len(blob):
            chunk = blob[addr - base :]
            end = chunk.find(b"\x00")
            return chunk[: len(chunk) if end < 0 else end].decode("ascii", errors="replace")
    return None


def test_subclasses_match_the_fixpoint_over_every_class(ir_corpus):
    for label, p in ir_corpus:
        for c in p.classes:
            assert p.subclasses(c.name) == _subclasses_scan(p, c.name), (label, c.name)


def test_data_readers_match_a_scan_of_every_segment(ir_corpus):
    for label, p in ir_corpus:
        addrs = set()
        for base, blob in p.data:
            end = base + len(blob)
            addrs |= {base - 1, base, base + 1, end - 1, end, end + 1}
        for addr in sorted(addrs):  # first, last, one past last, and the gaps
            assert p.read_cstring(addr) == _read_cstring_scan(p, addr), (label, addr)
            for n in (0, 1, 2, 8, 16, 64):
                assert p.read_bytes(addr, n) == _read_bytes_scan(p, addr, n), (label, addr, n)


def test_data_readers_skip_empty_segments_and_gaps():
    # An empty segment holds no bytes, even where it sits inside another.
    p = ir.IRProgram(name="p", data=[(0x30, b"xyz\x00"), (0x10, b"ab"), (0x20, b""),
                                     (0x31, b"")])
    assert p.read_bytes(0x10, 2) == b"ab"
    assert p.read_bytes(0x11, 2) is None
    assert p.read_bytes(0x12, 0) == b""
    assert p.read_bytes(0x20, 1) is None
    assert p.read_cstring(0x20) is None
    assert p.read_cstring(0x31) == "yz"
    assert p.read_cstring(0x34) is None
    assert p.read_cstring(0x0F) is None


def test_program_is_freed_without_the_cycle_collector_after_ancestors():
    p, _ = gen_fig4(with_subclass=True)
    p.ancestors("IpcModem5G")
    ref = weakref.ref(p)
    was = gc.isenabled()
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        if was:
            gc.enable()


def test_format_site_shape():
    assert ir.format_site("A::f", 2, 5) == "A::f@2:5"


def test_fixture_builder_rejects_broken_programs():
    bad = func("f", stack=8, blocks=[block(0, [I("COPY", S(4, 8), (C(0),)),
                                               I("RETURN")])])
    # a ValueError, not an assert, so that python -O keeps the check
    with pytest.raises(ValueError, match=r"fixture bug in broken: \['\[stack-bounds\]"):
        build_program("broken", functions=[bad])


def test_generated_programs_stay_within_function_budget():
    for seed in (0, 1, 2):
        p, _ = gen_random(seed=seed, max_functions=200)
        assert len(p.functions) <= 200
        assert ir.validate(p) == []
