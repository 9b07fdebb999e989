import csv

import pytest
from hypothesis import given, strategies as st

from naive_oracles import naive_parse_call_log, naive_parse_perf_log
from servicecut.cost_model import api_estimate
from servicecut.feature_graph import collect_calls, weigh_calls
from servicecut.records import (
    CALL_HEADER,
    PERF_HEADER,
    CallRecord,
    LogParseError,
    PerfRecord,
    TypeRef,
    ObjectLayout,
    OpaqueLayout,
    PRIMITIVE_SIZES,
    TypeCatalog,
    parse_call_log,
    parse_perf_log,
    parse_type_catalog,
    write_call_log,
    write_perf_log,
)


def test_parse_call_line(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("getOrder,getItem,OrderService,ItemDao,int,int;String\n")
    (rec,) = list(parse_call_log(p))
    assert rec.caller_method == "getOrder"
    assert rec.callee_method == "getItem"
    assert rec.caller_class == "OrderService"
    assert rec.callee_class == "ItemDao"
    assert rec.caller_params == (TypeRef("int"),)
    assert rec.callee_params == (TypeRef("int"), TypeRef("String"))


def test_parse_call_empty_file(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("")
    assert list(parse_call_log(p)) == []


def test_parse_call_empty_params(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,B,,\n")
    (rec,) = list(parse_call_log(p))
    assert rec.caller_params == ()
    assert rec.callee_params == ()


def test_parse_call_comments_and_blank_lines(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("# header comment\n\nf,g,A,B,,int\n")
    assert len(list(parse_call_log(p))) == 1


def test_parse_call_duplicates_preserved(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,B,,int\nf,g,A,B,,int\n")
    recs = list(parse_call_log(p))
    assert len(recs) == 2
    assert recs[0] == recs[1]


def test_parse_call_array_params(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,B,,int[];byte[][]\n")
    (rec,) = list(parse_call_log(p))
    assert rec.callee_params == (TypeRef("int", 1), TypeRef("byte", 2))
    # the JVM allows at most 255 array dimensions
    p.write_text("f,g,A,B,,int" + "[]" * 255 + "\n")
    (rec,) = list(parse_call_log(p))
    assert rec.callee_params == (TypeRef("int", 255),)
    p.write_text("f,g,A,B,,int\ng,f,B,A,,int" + "[]" * 256 + "\n")
    with pytest.raises(LogParseError, match=r"calls.csv:2: array rank 256 of 'int'"):
        list(parse_call_log(p))
    with pytest.raises(ValueError, match="array rank 256"):
        TypeRef("int", 256)


def test_parse_call_bad_column_count(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,B,int\n")
    with pytest.raises(LogParseError) as exc:
        list(parse_call_log(p))
    assert exc.value.line == 1


def test_parse_call_bad_type_name(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("good,line,A,B,,int\nf,g,A,B,,in t\n")
    with pytest.raises(LogParseError) as exc:
        list(parse_call_log(p))
    assert exc.value.line == 2


@pytest.mark.parametrize("rows, line", [
    # a bad text repeated later is reported where it first appears
    ([",", "int;9x,", ",int", ",", "int;9x,"], 2),
    # a valid text parsed earlier does not hide a bad one
    (["int,int", "int,int", "int;9x,int"], 3),
    # one text met in both params columns is one parse
    ([",", "int;9x,", ",", ",int;9x"], 2),
])
def test_parse_call_bad_params_text_names_its_first_line(tmp_path, rows, line):
    p = tmp_path / "calls.csv"
    p.write_text("".join(f"f,g,A,B,{params}\n" for params in rows))
    with pytest.raises(LogParseError, match=rf"calls.csv:{line}: invalid type name '9x'"):
        list(parse_call_log(p))


def test_parse_call_empty_id(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,,A,B,,\n")
    with pytest.raises(LogParseError):
        list(parse_call_log(p))


def test_parse_perf_line(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("OrderService,412.5,1048576\n")
    (rec,) = parse_perf_log(p)
    assert rec == PerfRecord("OrderService", 412.5, 1048576.0)


def test_parse_perf_empty_file(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("")
    assert parse_perf_log(p) == []


def test_parse_perf_negative_cpu(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("X,-1,0\n")
    with pytest.raises(LogParseError, match=":1: negative cpu_time"):
        parse_perf_log(p)


def test_parse_perf_duplicate_class(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("A,1,1\nA,2,2\n")
    with pytest.raises(LogParseError, match="duplicate"):
        parse_perf_log(p)


def test_parse_perf_non_numeric(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("A,fast,1\n")
    with pytest.raises(LogParseError):
        parse_perf_log(p)


def test_parse_perf_non_finite(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("A,nan,1\n")
    with pytest.raises(LogParseError):
        parse_perf_log(p)


def _call_records(path):
    return list(parse_call_log(path))


# --- header rows ------------------------------------------------------------

_CALL_ROWS = "# traced 2024-01-01\nf,g,A,B,,int\ng,h,B,C,long;int[],\n"
_PERF_ROWS = "A,1.5,2048\nB,0,0\n"


@pytest.mark.parametrize("parse, header, rows", [
    (_call_records, CALL_HEADER, _CALL_ROWS),
    (parse_perf_log, PERF_HEADER, _PERF_ROWS),
], ids=["call", "perf"])
@pytest.mark.parametrize("prefix", ["", "# comment\n\n"], ids=["first-line", "after-comment"])
def test_header_row_parses_like_the_log_without_it(tmp_path, parse, header, rows, prefix):
    plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
    plain.write_text(rows)
    headed.write_text(prefix + ",".join(header) + "\n" + rows)
    assert parse(headed) == parse(plain) != []


def test_documented_headers():
    assert ",".join(CALL_HEADER) == (
        "caller_method,callee_method,caller_class,callee_class,caller_params,callee_params")
    assert ",".join(PERF_HEADER) == "class,cpu_time,retained_memory"


def test_call_header_on_a_later_row_is_data(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,B,,int\n" + ",".join(CALL_HEADER) + "\n")
    recs = list(parse_call_log(p))
    assert len(recs) == 2
    assert (recs[1].caller_class, recs[1].callee_class) == ("caller_class", "callee_class")


def test_perf_header_on_a_later_row_is_a_data_error(tmp_path):
    p = tmp_path / "perf.csv"
    p.write_text("A,1,1\n" + ",".join(PERF_HEADER) + "\n")
    with pytest.raises(LogParseError, match="non-numeric") as exc:
        parse_perf_log(p)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{p}:2: ")


def test_empty_field_named_by_its_header_column(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text("f,g,A,,,\n")
    with pytest.raises(LogParseError, match="empty callee_class"):
        list(parse_call_log(p))


@pytest.mark.parametrize("parse, first_line", [
    (_call_records, b"f,g,A,B,int,int\n"),
    (parse_perf_log, b"A,1.0,2.0\n"),
    (parse_type_catalog, b"A: object\n"),
], ids=["calls", "perf", "catalog"])
def test_invalid_utf8_names_the_file_and_line(tmp_path, parse, first_line):
    p = tmp_path / "log"
    p.write_bytes(first_line + b"\xffB\n")
    with pytest.raises(LogParseError, match=r"log:2: not valid UTF-8 \(byte 0xff\)"):
        parse(p)


@pytest.mark.parametrize("parse, text", [
    (_call_records, ",".join(CALL_HEADER) + "\n" + _CALL_ROWS),
    (parse_perf_log, ",".join(PERF_HEADER) + "\n" + _PERF_ROWS),
    (parse_type_catalog, "Order: object\n    int\nBlob: opaque 16\n"),
], ids=["calls", "perf", "catalog"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, parse, text):
    # as spreadsheet tools write "CSV UTF-8": the mark would join the header's
    # first field, or the first type name
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert parse(marked) == parse(plain)


def test_call_record_is_a_hashable_immutable_value():
    # perfbench counts distinct rows with set(calls)
    a = CallRecord("f", "g", "A", "B", (), (TypeRef("int"),))
    b = CallRecord("f", "g", "A", "B", (), (TypeRef("int"),))
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.caller_class = "C"
    assert a.caller_class == "A"


# --- splitting rows ---------------------------------------------------------

_LONG = "x" * (csv.field_size_limit() + 10_000)


def test_a_quoted_field_over_the_csv_limit_is_a_data_error_naming_its_line(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text(f'f,g,A,B,,int\n"{_LONG}",g,A,B,,\n')
    with pytest.raises(LogParseError, match=r"calls.csv:2: field larger than field limit"):
        list(parse_call_log(p))


def test_an_unquoted_field_over_the_csv_limit_parses(tmp_path):
    p = tmp_path / "calls.csv"
    p.write_text(f"{_LONG},g,A,B,,\n")
    (rec,) = list(parse_call_log(p))
    assert rec.caller_method == _LONG


# whitespace that str.strip removes, and line ends that end a row
_PAD = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u3000"), max_size=2)
_END = st.sampled_from(["\n", "\r", "\r\n"])


@st.composite
def _field(draw, values):
    value = draw(_PAD) + draw(st.sampled_from(values)) + draw(_PAD)
    if draw(st.booleans()):
        # quoted, inner quotes doubled; csv reads quotes after padding as text
        value = '"' + value.replace('"', '""') + '"'
        if draw(st.integers(0, 3)) == 0:
            value = draw(_PAD) + value + draw(_PAD)
    return value


def _log_text(columns, header):
    """A log of data rows (some a column short or over), comment and blank
    lines and header rows, each line with its own line end and the last one
    maybe without."""
    other = st.sampled_from(["", " ", "\t", '# comment, "quoted"', "  #x", ",".join(header),
                             " " + ",".join(f'"{h}"' for h in header)])

    @st.composite
    def text(draw):
        lines, end = [], ""
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(["row"] * 5 + ["short", "over", "other", "other"]))
            fields = [draw(_field(values)) for values in columns]
            if kind == "short":
                fields.pop()
            elif kind == "over":
                fields.append(fields[-1])
            end = draw(_END)
            lines.append((draw(other) if kind == "other" else ",".join(fields)) + end)
        text = "".join(lines)
        if draw(st.booleans()):  # no final line end
            text = text[:len(text) - len(end)]
        return text

    return text()


# each column's values: mostly valid, then the ones that fail or split the row
_CALL_COLUMNS = (["f", "g", 'm"x', ""], ["f", "g", "h"], ["A", "B", "ns::C", ""],
                 ["A", "B", "x,y"], ["", "int", "long[];int", "int;9x", "a,b"],
                 ["", "int", "Foo[][]", "long", 'in"t'])
_PERF_COLUMNS = ([*"ABCDEFGH", "", "C,D"], ["0", "1.5", "3e2", "7", "-1", "nan", '1"'],
                 ["0", "2048", "1e3", ""])


def _outcome(parse, path):
    try:
        return parse(path)
    except LogParseError as exc:
        return exc.line, str(exc)


@given(_log_text(_CALL_COLUMNS, CALL_HEADER))
def test_call_log_splits_like_one_csv_reader_per_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("split") / "calls.csv"
    path.write_bytes(text.encode())
    assert _outcome(_call_records, path) == _outcome(naive_parse_call_log, path)


@given(_log_text(_CALL_COLUMNS, CALL_HEADER))
def test_streamed_call_log_builds_the_graph_of_its_record_list(tmp_path_factory, text):
    # the graph built as the rows stream past, bit for bit, or the same error
    path = tmp_path_factory.mktemp("stream") / "calls.csv"
    path.write_bytes(text.encode())

    def graph(parse):
        try:
            calls = collect_calls(parse(path))
        except LogParseError as exc:
            return exc.line, str(exc)
        g = weigh_calls(calls, TypeCatalog())
        return (g.vertices, g.src.tolist(), g.dst.tolist(), list(map(float.hex, g.weight.tolist())),
                calls.self_calls)

    assert graph(parse_call_log) == graph(naive_parse_call_log)


@given(_log_text(_PERF_COLUMNS, PERF_HEADER))
def test_perf_log_splits_like_one_csv_reader_per_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("split") / "perf.csv"
    path.write_bytes(text.encode())
    assert _outcome(parse_perf_log, path) == _outcome(naive_parse_perf_log, path)


# --- type catalog -----------------------------------------------------------


def test_catalog_default_has_primitives():
    # a catalog holds only the declared types: PRIMITIVE_SIZES sizes the primitives
    catalog = parse_type_catalog(None)
    assert catalog == TypeCatalog() and not catalog.layouts
    sizes = {name: api_estimate(TypeRef(name), catalog) for name in PRIMITIVE_SIZES}
    assert sizes == PRIMITIVE_SIZES


def test_a_catalog_is_a_read_only_copy_and_a_parse_error_names_file_and_line(tmp_path):
    layouts = {"Blob": OpaqueLayout(8)}
    catalog = TypeCatalog(layouts)
    assert layouts == {"Blob": OpaqueLayout(8)}
    assert "int" not in catalog.layouts
    assert api_estimate(TypeRef("int"), TypeCatalog()) == 4
    with pytest.raises(ValueError, match="cannot redefine primitive type 'int'"):
        TypeCatalog({"int": OpaqueLayout(2)})
    with pytest.raises(TypeError):
        catalog.layouts["Blob"] = OpaqueLayout(16)
    p = tmp_path / "types.txt"
    assert str(LogParseError("bad", p, 3)).startswith(f"{p}:3: ")


def test_catalog_object_and_opaque(tmp_path):
    p = tmp_path / "types.txt"
    p.write_text(
        "# user types\n"
        "Account: object\n"
        "    int\n"
        "    long\n"
        "Blob: opaque 128\n"
    )
    catalog = parse_type_catalog(p)
    assert catalog.layouts.get("Account") == ObjectLayout((TypeRef("int"), TypeRef("long")))
    assert catalog.layouts.get("Blob") == OpaqueLayout(128)


def test_catalog_redefine_primitive_rejected(tmp_path):
    p = tmp_path / "types.txt"
    p.write_text("int: opaque 2\n")
    with pytest.raises(LogParseError, match="primitive"):
        parse_type_catalog(p)


@pytest.mark.parametrize("text, line", [
    ("Order: object\n    int\nOrder: opaque 4096\n", 3),
    ("Blob: opaque 8\nOrder: object\nBlob: object\n    int\n", 3),
    ("Order: object\nOrder: object\n", 2),
], ids=["object-then-opaque", "opaque-then-object", "object-twice"])
def test_catalog_repeated_type_names_its_line(tmp_path, text, line):
    p = tmp_path / "types.txt"
    p.write_text(text)
    with pytest.raises(LogParseError, match=f"types.txt:{line}: type .* declared twice"):
        parse_type_catalog(p)


def test_catalog_cyclic_definitions_accepted(tmp_path):
    p = tmp_path / "types.txt"
    p.write_text("Node: object\n    Node\n    int\n")
    catalog = parse_type_catalog(p)
    assert catalog.layouts.get("Node") == ObjectLayout((TypeRef("Node"), TypeRef("int")))


def test_catalog_with_crlf_line_ends(tmp_path):
    text = "# types\nOrder: object # dto\n    int\n    Blob[]\nBlob: opaque 16\n"
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert parse_type_catalog(crlf).layouts == parse_type_catalog(lf).layouts


def test_catalog_stray_indent_rejected(tmp_path):
    p = tmp_path / "types.txt"
    p.write_text("    int\n")
    with pytest.raises(LogParseError):
        parse_type_catalog(p)


@pytest.mark.parametrize("line, message", [
    ("Blob: opaquex 12", "unknown layout kind 'opaquex 12'"),
    ("Blob: opaque 12 junk", "opaque declaration needs an integer size"),
    ("Blob: opaque", "opaque declaration needs an integer size"),
    ("Blob: objectx", "unknown layout kind 'objectx'"),
    ("Blob: object junk", "unknown layout kind 'object junk'"),
], ids=["opaquex", "opaque-extra-word", "opaque-no-size", "objectx", "object-extra-word"])
def test_catalog_declaration_must_be_object_or_opaque_n(tmp_path, line, message):
    p = tmp_path / "types.txt"
    p.write_text("Order: object\n    int\n" + line + "\n")
    with pytest.raises(LogParseError, match=f"types.txt:3: {message}$"):
        parse_type_catalog(p)


# --- round-trip property ----------------------------------------------------

_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_type_ref = st.builds(TypeRef, name=_ident, array_rank=st.integers(0, 2))
_params = st.lists(_type_ref, max_size=3).map(tuple)

_call_record = st.builds(
    CallRecord,
    caller_method=_ident,
    callee_method=_ident,
    caller_class=_ident,
    callee_class=_ident,
    caller_params=_params,
    callee_params=_params,
)


@given(st.lists(_call_record, max_size=20))
def test_call_log_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "calls.csv"
    write_call_log(records, path)
    assert list(parse_call_log(path)) == records


@given(
    st.lists(
        st.tuples(
            _ident,
            st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
            st.floats(0, 1e12, allow_nan=False, allow_infinity=False),
        ),
        max_size=15,
        unique_by=lambda t: t[0],
    )
)
def test_perf_log_round_trip(tmp_path_factory, rows):
    records = [PerfRecord(c, t, r) for c, t, r in rows]
    path = tmp_path_factory.mktemp("rt") / "perf.csv"
    write_perf_log(records, path)
    assert parse_perf_log(path) == records


def test_written_logs_open_with_their_header(tmp_path):
    # the header is written, so a first record that spells it is data
    spelled = CallRecord(*CALL_HEADER[:4], (TypeRef(CALL_HEADER[4]),), (TypeRef(CALL_HEADER[5]),))
    records = [spelled, CallRecord("f", "g", "A", "B", (), (TypeRef("int"),))]
    write_call_log(records, tmp_path / "calls.csv")
    assert list(parse_call_log(tmp_path / "calls.csv")) == records
    write_perf_log([PerfRecord("A", 1.5, 2.0)], tmp_path / "perf.csv")
    lines = [(tmp_path / name).read_text().splitlines()[0] for name in ("calls.csv", "perf.csv")]
    assert lines == [",".join(CALL_HEADER), ",".join(PERF_HEADER)]
