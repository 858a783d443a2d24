"""Command database: naming, serialization, and comparison reports."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rilmine.commands import (
    CommandDB,
    CommandRecord,
    DEFAULT_FILTER_TOKENS,
    classify_module,
    config_hash,
    diff,
    infer_group_byte,
    load_db,
    make_record,
    render_diff,
    save_db,
    save_db_json,
)
from rilmine.fixtures import CRASH_SUITE, gen_crash_suite, gen_diff_pair, gen_mutation_target
from rilmine.taint import LengthSource, PayloadBytes, payload_hex


def _solicited(root, data, binary="b", module=None, mask=None, channel="/dev/x"):
    pb = PayloadBytes(bytes(data), mask or "s" * len(data),
                      LengthSource("constant-arg", len(data)))
    return CommandRecord(
        binary=binary, direction="solicited", api="write", site=f"{root}@0:0",
        root_function=root, module=module or classify_module(root),
        payload=pb, channel_path=channel,
    )


def _unsolicited(root, constant, handler, binary="b"):
    return CommandRecord(
        binary=binary, direction="unsolicited", api="read", site=f"{root}@0:0",
        root_function=root, module=classify_module(root),
        constant=constant, handler=handler, channel_path="/dev/x",
    )


# ---------------------------------------------------------------------------
# Symbol naming

def test_classify_prefers_class_qualifier_tokens():
    # The method alone would classify as "Reset"; the class suffix wins.
    assert classify_module("IpcProtocol41Power::IpcTxResetOemModem") == "Power"
    assert classify_module("IpcTxResetOemModem") == "Reset"


def test_classify_falls_through_filter_tokens_to_first_noun():
    assert classify_module("IpcProtocol41::IpcTxCallGetCallList") == "Call"
    assert classify_module("Nv::ProcessRfsPacket") == "Nv"
    assert classify_module("IpcTxGetSet") == "Unknown"


def test_classify_honors_custom_filter_tokens():
    custom = DEFAULT_FILTER_TOKENS + ("Call",)
    assert classify_module("IpcProtocol41::IpcTxCallGetCallList", custom) == "List"
    # tokens split at humps, letter/digit runs, underscores and every "::"
    assert classify_module("A::B::IpcTxImeiPreconfigUpdate", ("A", "B", "Ipc", "Tx")) == "Imei"
    assert classify_module("do_sim_io41X", ("do", "sim", "io", "41")) == "X"


def test_crash_suite_roots_classify_to_expected_modules():
    got = [classify_module(root) for root, _, _, _ in CRASH_SUITE]
    assert got == ["Power", "Sap", "Imei", "Power", "Net", "Domestic", "Domestic"]


# ---------------------------------------------------------------------------
# Record identity

def test_identity_is_direction_payload_and_root():
    db = CommandDB("b")
    assert db.add(_solicited("IpcTxA", [1, 2])) is True
    assert db.add(_solicited("IpcTxA", [1, 2], channel="/dev/other")) is False
    assert db.add(_solicited("IpcTxB", [1, 2])) is True  # other root
    assert db.add(_solicited("IpcTxA", [1, 3])) is True  # other payload
    assert db.add(_unsolicited("IpcTxA", 0x12, "h")) is True  # other direction
    assert len(db.records) == 4


def test_sorted_records_are_stable():
    db = CommandDB("b")
    db.add(_solicited("IpcTxB", [2]))
    db.add(_solicited("IpcTxA", [1]))
    db.add(_unsolicited("IpcTxA", 5, "h"))
    assert [r.root_function for r in db.sorted_records()] == ["IpcTxA", "IpcTxB", "IpcTxA"]
    assert [r.direction for r in db.sorted_records()] == [
        "solicited", "solicited", "unsolicited"]


# ---------------------------------------------------------------------------
# Serialization

def _mixed_db():
    db = CommandDB("mix", provenance="abc123")
    db.add(_solicited("IpcProtocol41::IpcTxCallGetCallList", [7, 0, 0, 0, 2, 1, 2],
                      binary="mix"))
    db.add(_solicited("IpcProtocol41Sim::IpcTxSimSetStatus", [8, 0, 0, 0, 5, 2, 1, 0],
                      mask="sssssssd", binary="mix"))
    db.add(_unsolicited("Nv::ProcessRfsPacket", 0x11, "Nv::ProcessOpenFile", binary="mix"))
    db.add(_unsolicited("Nv::ProcessRfsPacket", 0x12, None, binary="mix"))
    return db


def test_tsv_round_trip_is_byte_identical():
    db = _mixed_db()
    text = save_db(db)
    again = load_db(text)
    assert save_db(again) == text
    assert again.binary == "mix" and again.provenance == "abc123"
    assert again.keys() == db.keys()


def test_crash_suite_db_round_trips():
    db, _, _ = gen_crash_suite()
    assert save_db(load_db(save_db(db))) == save_db(db)


def test_tsv_masks_dynamic_bytes():
    text = save_db(_mixed_db())
    assert "08 00 00 00 05 02 01 .." in text
    assert "const=0x12;handler=-" in text


def test_json_form_carries_length_source():
    doc = json.loads(save_db_json(_mixed_db()))
    assert doc["binary"] == "mix"
    sol = [r for r in doc["records"] if r["direction"] == "solicited"]
    assert {r["length_source"] for r in sol} == {"constant-arg(7)", "constant-arg(8)"}
    uns = [r for r in doc["records"] if r["direction"] == "unsolicited"]
    assert {r["constant"] for r in uns} == {0x11, 0x12}


def _json_dumps_db(db):
    """The .cmdb.json text as json.dumps(..., indent=1) writes it."""
    recs = []
    for r in db.sorted_records():
        d = {"binary": r.binary, "direction": r.direction, "api": r.api, "site": r.site,
             "root_function": r.root_function, "module": r.module,
             "channel": r.channel_path, "kind": r.kind}
        if r.direction == "solicited":
            d["payload"] = payload_hex(r.payload)
            d["length_source"] = str(r.payload.length_source)
        else:
            d["constant"] = r.constant
            d["handler"] = r.handler
        recs.append(d)
    return json.dumps({"binary": db.binary, "provenance": db.provenance, "records": recs},
                      indent=1)


def test_json_form_is_what_json_dumps_writes(ir_corpus, run_pipeline):
    odd = _mixed_db()
    odd.binary = 'lib"ril\u00e9\\x\u2603.so\n'
    odd.add(_unsolicited("Nv::Caf\u00e9", 0x13, 'h"\u00e9', binary=odd.binary))
    dbs = [odd, CommandDB("empty"), CommandDB('n\u00e9"', provenance="\t"),
           gen_crash_suite()[0], gen_mutation_target()[0], *gen_diff_pair()[:2]]
    dbs += [run_pipeline(p)[1] for _label, p in ir_corpus]
    for db in dbs:
        assert save_db_json(db) == _json_dumps_db(db), db.binary


def test_load_rejects_malformed_rows():
    with pytest.raises(ValueError, match=r"^line 2: bad db row \(3 columns\)"):
        load_db("# binary=x provenance=\na\tb\tc\n")
    bad = save_db(_mixed_db()).replace("const=0x11;handler=Nv::ProcessOpenFile", "what")
    with pytest.raises(ValueError, match="^line [0-9]+: bad unsolicited"):
        load_db(bad)
    text = "# binary=x provenance=\n\n" + "\t".join(
        ["x", "solicited", "write", "f@0:0", "f", "m", "07 1g ..", "-", "hybrid"]) + "\n"
    with pytest.raises(ValueError, match="^line 3: bad payload byte '1g'$"):
        load_db(text)
    for tok in ("0x41", "1_0", "+7", "\u0663"):  # int(tok, 16) takes each of these
        text = "# binary=x provenance=\n" + "\t".join(
            ["x", "solicited", "write", "f@0:0", "f", "m", f"07 {tok}", "-", "static"]) + "\n"
        with pytest.raises(ValueError, match=re.escape(f"line 2: bad payload byte '{tok}'") + "$"):
            load_db(text)
    text = "# binary=x provenance=\n" + "\t".join(
        ["x", "solicted", "write", "f@0:0", "f", "m", "const=0x11;handler=h", "-", "static"]) + "\n"
    with pytest.raises(ValueError, match="^line 2: unknown direction 'solicted'$"):
        load_db(text)


def test_load_db_rejects_a_kind_that_disagrees_with_the_payload():
    for payload_col, kind, want in (("07 .. 01", "static", "hybrid"),
                                    ("07 08", "hybrid", "static"),
                                    ("const=0x11;handler=h", "hybrid", "static"),
                                    ("07 08", "Static", "static")):
        direction = "unsolicited" if payload_col.startswith("const") else "solicited"
        text = "# binary=x provenance=\n" + "\t".join(
            ["x", direction, "write", "f@0:0", "f", "m", payload_col, "-", kind]) + "\n"
        with pytest.raises(ValueError, match=re.escape(
                f"line 2: kind {kind!r} disagrees with the payload, which makes it {want!r}")):
            load_db(text)


def test_load_db_rejects_a_header_after_a_row_or_a_second_header():
    text = save_db(gen_crash_suite()[0])
    lines = text.splitlines(keepends=True)  # version, header, column names, 7 rows
    late = "".join(lines[:1] + lines[2:5] + lines[1:2] + lines[5:])
    message = "a '# binary=' header may come only once, before every row"
    with pytest.raises(ValueError, match=re.escape(f"line 5: {message}") + "$"):
        load_db(late)
    with pytest.raises(ValueError, match=re.escape(f"line 12: {message}") + "$"):
        load_db(text + save_db(gen_mutation_target()[0]))
    headless = load_db("".join(line for line in lines if not line.startswith("#")))
    assert (headless.binary, headless.provenance) == ("", "")
    assert headless.keys() == load_db(text).keys()


@pytest.mark.parametrize("field, value, named", [
    ("binary", "a\tb", "binary name 'a\\tb'"),
    ("provenance", "abc\r", "provenance 'abc\\r'"),
    ("handler", "h\x85",
     "record at site 'Nv::ProcessRfsPacket@0:0': payload 'const=0x11;handler=h\\x85'"),
    ("channel_path", "/dev/x\ty",
     "record at site 'IpcProtocol41::IpcTxCallGetCallList@0:0': channel '/dev/x\\ty'"),
], ids=["binary", "provenance", "handler", "channel"])
def test_save_db_rejects_a_field_that_breaks_a_row(field, value, named):
    db = _mixed_db()
    target = db if field in ("binary", "provenance") else next(
        r for r in db.records if getattr(r, field) is not None)
    setattr(target, field, value)
    with pytest.raises(ValueError, match=re.escape(f"{named} holds a tab or a line break") + "$"):
        save_db(db)


_NAMES = st.text("AbNvTx_:@0", min_size=1, max_size=8)
_RECORDS = st.lists(st.tuples(
    st.booleans(), _NAMES, _NAMES,
    st.lists(st.tuples(st.integers(0, 255), st.booleans()), max_size=10),
    st.integers(0, 0xFFFF), st.one_of(st.none(), _NAMES),
    st.sampled_from([None, "/dev/umts_ipc0", "/efs/x y"]),
), max_size=12)


# payload columns in the other forms load_db accepts, each rewritten from the written form
_OTHER_PAYLOAD_FORMS = {
    "upper-case digits": str.upper,
    "doubled spaces": lambda col: col.replace(" ", "  "),
    "leading and trailing space": lambda col: f" {col} ",
}


def _rewrite_payload_columns(text, rewrite):
    lines = []
    for line in text.splitlines():
        cols = line.split("\t")
        if not line.startswith("#") and cols[1] == "solicited":
            cols[6] = rewrite(cols[6])
        lines.append("\t".join(cols))
    return "\n".join(lines) + "\n"


@given(_RECORDS, _NAMES, st.text("0123456789abcdef", max_size=12),
       st.sampled_from(sorted(_OTHER_PAYLOAD_FORMS)))
def test_tsv_round_trips_random_databases(rows, binary, provenance, form):
    db = CommandDB(binary, provenance)
    for solicited, root, site, cells, constant, handler, channel in rows:
        if solicited:
            pb = PayloadBytes(bytes(0 if dyn else v for v, dyn in cells),
                              "".join("d" if dyn else "s" for _, dyn in cells),
                              LengthSource("constant-arg", len(cells)))
            db.add(make_record(binary, "solicited", "write", site, root, payload=pb,
                               channel_path=channel))
        else:
            db.add(make_record(binary, "unsolicited", "read", site, root, constant=constant,
                               handler=handler, channel_path=channel))
    text = save_db(db)

    def fields(r):
        payload = None if r.payload is None else (r.payload.data, r.payload.mask)
        return (r.binary, r.direction, r.api, r.site, r.root_function, r.module, payload,
                r.payload_text, r.constant, r.handler, r.channel_path, r.kind)

    # the written form, and the same payloads in another accepted form, load
    # as one database: same keys, same records, same bytes written back
    other_form = _rewrite_payload_columns(text, _OTHER_PAYLOAD_FORMS[form])
    for again in (load_db(text), load_db(other_form)):
        assert save_db(again) == text
        assert (again.binary, again.provenance, again.keys()) == (binary, provenance, db.keys())
        assert list(map(fields, again.sorted_records())) == list(map(fields, db.sorted_records()))


def test_config_hash_is_stable_and_order_free():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 12
    assert a != config_hash({"x": 2, "y": [1, 2]})


# ---------------------------------------------------------------------------
# Reports

def test_group_byte_inferred_from_crash_suite():
    db, _, _ = gen_crash_suite()
    rep = infer_group_byte(db)
    assert rep.position == 4
    assert rep.groups == {"Domestic": 0x20, "Imei": 0x10, "Net": 0x08,
                          "Power": 0x01, "Sap": 0x12}


def test_group_byte_skips_dynamic_positions():
    db = CommandDB("b")
    db.add(_solicited("IpcTxCallA", [0, 0x21], mask="ds"))
    db.add(_solicited("IpcTxSmsA", [9, 0x31]))
    rep = infer_group_byte(db)
    assert rep.position == 1
    assert rep.groups == {"Call": 0x21, "Sms": 0x31}


def test_group_byte_needs_two_modules():
    db = CommandDB("b")
    db.add(_solicited("IpcTxCallA", [1, 2]))
    with pytest.raises(ValueError, match="ambiguous input"):
        infer_group_byte(db)


def test_group_byte_fails_without_qualifying_position():
    db = CommandDB("b")
    db.add(_solicited("IpcTxCallA", [1, 2]))
    db.add(_solicited("IpcTxSmsA", [1, 2]))
    with pytest.raises(ValueError, match="ambiguous input"):
        infer_group_byte(db)


# ---------------------------------------------------------------------------
# Diff

def _db_from_ints(name, values):
    db = CommandDB(name)
    for v in values:
        db.add(_solicited(f"IpcTxCmd{v:04d}", [v & 0xFF, v >> 8], binary=name))
    return db


@given(st.sets(st.integers(0, 400), max_size=60),
       st.sets(st.integers(0, 400), max_size=60))
def test_diff_matches_set_semantics(base_vals, cur_vals):
    base = _db_from_ints("base", base_vals)
    cur = _db_from_ints("cur", cur_vals)
    d = diff(base, cur)
    assert d.base_unique == base.keys() - cur.keys()
    assert d.cur_unique == cur.keys() - base.keys()
    assert d.counts("solicited") == (len(base_vals - cur_vals), len(cur_vals - base_vals))
    assert d.counts("unsolicited") == (0, 0)
    assert diff(base, base).empty


def test_diff_pair_fixture_yields_contracted_counts():
    base, cur = gen_diff_pair(seed=0)
    assert (len(base.records), len(cur.records)) == (478, 427)
    d = diff(base, cur)
    assert d.counts("solicited") == (63, 12)


def test_render_diff_layout():
    base, cur = gen_diff_pair(seed=0, base_total=5, removed=2, added=1)
    text = render_diff(base, cur, diff(base, cur))
    lines = text.splitlines()
    assert lines[0] == "# diff base=base cur=cur"
    assert lines[2] == "solicited\t5\t4\t2\t1"
    assert sum(1 for ln in lines if ln.startswith("base-only\t")) == 2
    assert sum(1 for ln in lines if ln.startswith("cur-only\t")) == 1

