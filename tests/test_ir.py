"""IR container: JSON round trips, link checking, and invariant validation."""

import gc
import json
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from rilmine import cli, ir
from rilmine.fixtures import (
    C,
    I,
    R,
    S,
    block,
    build_program,
    func,
    gen_fig2,
    gen_fig4,
    gen_fig5,
    gen_random,
    ret_stub,
)


def _doc(p):
    return ir.program_to_dict(p)


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


def test_rejects_duplicate_function_ids():
    doc = _doc(make_minimal())
    doc["functions"].append(doc["functions"][0])
    with pytest.raises(ir.ParseError, match="duplicate function id"):
        ir.load_program(json.dumps(doc))


def test_rejects_unknown_opcode_and_space():
    doc = _doc(make_minimal())
    doc["functions"][0]["blocks"][0]["ins"][0]["op"] = "XOR"
    with pytest.raises(ir.ParseError, match="opcode"):
        ir.load_program(json.dumps(doc))
    doc = _doc(make_minimal())
    doc["functions"][0]["blocks"][0]["ins"][0]["out"]["space"] = "flash"
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
    return _doc(gen_fig5()[0])


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


# One-field changes of the fig5 IR that used to escape load_program as a raw
# AttributeError or TypeError; each must be a ParseError naming the field.
@pytest.mark.parametrize("path,value,message", [
    (("functions", 1, "blocks", 0, "ins", 0), 5,
     "functions[1].blocks[0].ins[0]: instruction must be an object"),
    (("functions", 1, "blocks", 0, "ins", 0, "in"), 5,
     "functions[1].blocks[0].ins[0].in: must be a list, not int"),
    (("functions", 1, "blocks", 0, "succ"), 3,
     "functions[1].blocks[0].succ: must be a list, not int"),
    (("functions", 1, "stack_size"), "x",
     "functions[1].stack_size: must be an int, not str"),
    (("functions", 1, "stack_size"), True,
     "functions[1].stack_size: must be an int, not bool"),
    (("functions", 1, "params"), [3],
     "functions[1].params[0]: param must be an object"),
    (("data",), ["x"], "data[0]: segment must be an object"),
    (("functions", 1, "blocks"), 5, "functions[1].blocks: must be a list, not int"),
], ids=["ins-item", "in-list", "succ-list", "stack-size", "stack-size-bool", "params-item",
        "data-item", "blocks-list"])
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
], ids=["fn-id-int", "fn-id-dict", "fn-class", "class-name", "parents-item", "vtable-item",
        "constructors-item", "members-item", "block-id-list", "block-id-bool", "succ-item",
        "succ-bool", "externals-item"])
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
    doc["functions"][1]["blocks"][2]["ins"][0]["in"][1] = {"space": "reg", "offset": 0}
    with pytest.raises(ir.ParseError) as exc:
        ir.load_program(json.dumps(doc))
    assert str(exc.value) == "functions[1].blocks[2].ins[0].in[1]: varnode missing key 'size'"


# ---------------------------------------------------------------------------
# Varnode interning

def _two_copies_doc(second):
    """A program whose main copies (reg, 1, 8) and then ``second``."""
    f = func("main", blocks=[block(0, [I("COPY", R(0), (R(1),)),
                                       I("COPY", R(2), (R(1),)),
                                       I("RETURN")])])
    doc = _doc(build_program("p", functions=[f]))
    doc["functions"][0]["blocks"][0]["ins"][1]["in"][0] = second
    return doc


@pytest.mark.parametrize("field,value", [("offset", 1.0), ("size", 8.0)])
def test_float_equal_to_an_interned_int_varnode_is_still_rejected(field, value):
    second = {"space": "reg", "offset": 1, "size": 8}
    second[field] = value
    with pytest.raises(ir.ParseError, match=r"ins\[1\]\.in\[0\]: offset must be int"):
        ir.load_program(json.dumps(_two_copies_doc(second)))


@pytest.mark.parametrize("field,value,offset", [
    ("offset", True, 1),  # equal to the interned (reg, 1, 8)
    ("offset", False, 5),
    ("size", True, 5),
])
def test_bool_varnode_offset_or_size_is_rejected(field, value, offset):
    # True == 1, so an accepted bool would make (reg, True, 8) equal reg 1.
    second = {"space": "reg", "offset": offset, "size": 8}
    second[field] = value
    with pytest.raises(ir.ParseError, match=r"ins\[1\]\.in\[0\]: offset must be int"):
        ir.load_program(json.dumps(_two_copies_doc(second)))


def test_equal_varnodes_in_one_load_are_one_object():
    doc = _two_copies_doc({"space": "reg", "offset": 1, "size": 8})
    ins = ir.load_program(json.dumps(doc)).fn("main").blocks[0].instructions
    assert ins[0].inputs[0] is ins[1].inputs[0]
    assert ins[0].output is not ins[1].output


def test_separate_loads_share_no_varnodes():
    text = json.dumps(_two_copies_doc({"space": "reg", "offset": 1, "size": 8}))
    a = ir.load_program(text).fn("main").blocks[0].instructions[0].inputs[0]
    b = ir.load_program(text).fn("main").blocks[0].instructions[0].inputs[0]
    assert a == b and a is not b


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


# ---------------------------------------------------------------------------
# The loader pauses cyclic GC and restores it

def _bad_texts():
    doc = _doc(make_minimal())
    doc["functions"][0]["blocks"][0]["ins"][0]["op"] = "XOR"
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


def test_load_leaves_frozen_objects_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        ir.load_program(ir.serialize(make_minimal()))
        assert gc.get_freeze_count() == frozen and gc.isenabled()
    finally:
        gc.unfreeze()


def test_concurrent_loads_restore_gc():
    # many short loads on more threads than cores, switching often, so that
    # pauses start and end while others are in flight
    text = ir.serialize(make_minimal())
    assert gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            progs = list(ex.map(ir.load_program, [text] * 1000, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert gc.isenabled()
    assert all(ir.serialize(p) == text for p in progs)


# ---------------------------------------------------------------------------
# Validation invariants

def _invariants(p):
    return {d.invariant for d in ir.validate(p)}


def test_validate_flags_stack_out_of_bounds():
    f = func("main", stack=16,
             blocks=[block(0, [I("COPY", S(12, 8), (C(0),)), I("RETURN")])])
    assert "stack-bounds" in _invariants(ir.IRProgram(name="p", functions=[f]))


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


def test_load_rejects_invariant_violations_with_diagnostics():
    f = func("main", stack=8,
             blocks=[block(0, [I("COPY", S(4, 8), (C(0),)), I("RETURN")])])
    text = ir.serialize(ir.IRProgram(name="p", functions=[f]))
    with pytest.raises(ir.ValidationError) as exc:
        ir.load_program(text)
    assert any(d.invariant == "stack-bounds" for d in exc.value.diagnostics)


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
    with pytest.raises(AssertionError):
        build_program("broken", functions=[bad])


def test_generated_programs_stay_within_function_budget():
    for seed in (0, 1, 2):
        p, _ = gen_random(seed=seed, max_functions=200)
        assert len(p.functions) <= 200
        assert ir.validate(p) == []
