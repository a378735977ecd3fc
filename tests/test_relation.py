import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqbound.cli import main
from seqbound.relation import (
    Column,
    ColumnRole,
    ConfigError,
    PkFkDeclaration,
    Relation,
    load_csv,
    load_workspace,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")


class TestLoadCsv:
    def test_typed_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "a,b,c\n1,x,9.5\n2,y,\n")
        rel, warnings = load_csv(
            str(p), "t", [Column("a", "numeric"), Column("b", "text"), Column("c", "numeric")]
        )
        assert rel.n_rows == 2
        np.testing.assert_allclose(rel.data["a"], [1.0, 2.0])
        assert rel.data["b"] == ["x", "y"]
        assert np.isnan(rel.data["c"][1])
        assert warnings == 1

    def test_unparseable_numeric_becomes_null(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "a\nnot-a-number\n3\n")
        rel, warnings = load_csv(str(p), "t", [Column("a", "numeric")])
        assert np.isnan(rel.data["a"][0])
        assert rel.data["a"][1] == 3.0
        assert warnings == 1

    def test_empty_text_is_null_and_blank_lines_skip(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "a,b\n,1\n\nx,2\n")
        rel, _ = load_csv(
            str(p), "t", [Column("a", "text"), Column("b", "numeric")]
        )
        assert rel.data["a"] == [None, "x"]
        assert rel.n_rows == 2

    def test_missing_declared_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_csv(str(p), "t", [Column("z", "numeric")])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_csv(str(tmp_path / "nope.csv"), "t", [Column("a", "numeric")])

    def test_extra_csv_columns_are_ignored(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "a,b\n1,junk\n")
        rel, _ = load_csv(str(p), "t", [Column("a", "numeric")])
        assert not rel.has_column("b")


    def test_equal_text_cells_share_one_string(self, tmp_path):
        p = tmp_path / "t.csv"
        write(p, "s\nabc\nxyz\nabc\n")
        rel, _ = load_csv(str(p), "t", [Column("s", "text")])
        first, _, third = rel.data["s"]
        assert first == third and first is third

    def test_oversize_field_names_file_and_line(self, tmp_path):
        p = tmp_path / "big.csv"
        write(p, "a,b\n1,x\n2," + "y" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ConfigError, match=r"big\.csv: line 3: field larger"):
            load_csv(str(p), "t", [Column("a", "numeric"), Column("b", "text")])

    def test_undecodable_bytes_name_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,b\n1,x\n2,\xffy\n")
        with pytest.raises(ConfigError, match=r"bad\.csv: not UTF-8 .*byte 0xff"):
            load_csv(str(p), "t", [Column("a", "numeric"), Column("b", "text")])

    def test_undecodable_header_names_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"\xfea\n1\n")
        with pytest.raises(ConfigError, match=r"bad\.csv: not UTF-8 past line 0"):
            load_csv(str(p), "t", [Column("a", "numeric")])

    def test_load_peaks_under_12_mb(self, tmp_path):
        # 10^5 rows, three numeric columns and one text column of 400
        # phrases; a loader that keeps every cell as a string peaks near 27 MB.
        rng = np.random.default_rng(0)
        phrases = ["phrase number %d of the catalogue" % i for i in range(400)]
        n = 100_000
        cols = (rng.integers(0, 5000, n), rng.random(n) * 1e4, rng.integers(0, 90, n))
        p = tmp_path / "big.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "amount", "day", "note"])
            out.writerows(
                zip(*(c.tolist() for c in cols), (phrases[i] for i in rng.integers(0, 400, n)))
            )
        columns = [Column("id", "numeric"), Column("amount", "numeric"),
                   Column("day", "numeric"), Column("note", "text")]
        tracemalloc.start()
        try:
            rel, warnings = load_csv(str(p), "big", columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rel.n_rows == n and warnings == 0
        assert peak < 12 * 2**20


def two_pass_load_csv(path, name, columns):
    """The loader before the one-pass rewrite, kept as the reference: every
    declared cell is first read as a string, then converted per column."""
    warnings = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = {col.name: header.index(col.name) for col in columns}
        raw = {c.name: [] for c in columns}
        n_rows = 0
        for row in reader:
            if not row:
                continue
            n_rows += 1
            for col in columns:
                i = idx[col.name]
                raw[col.name].append(row[i] if i < len(row) else "")
    data = {}
    for col in columns:
        cells = raw[col.name]
        if col.kind == "numeric":
            out = np.empty(len(cells), dtype=np.float64)
            for i, cell in enumerate(cells):
                cell = cell.strip()
                if not cell:
                    out[i] = np.nan
                    warnings += 1
                    continue
                try:
                    out[i] = float(cell)
                except ValueError:
                    out[i] = np.nan
                    warnings += 1
            data[col.name] = out
        else:
            data[col.name] = [cell if cell != "" else None for cell in cells]
    return Relation(name, columns, data, n_rows), warnings


def assert_same_load(path, columns):
    rel, warnings = load_csv(str(path), "t", columns)
    ref, ref_warnings = two_pass_load_csv(str(path), "t", columns)
    assert warnings == ref_warnings
    assert rel.n_rows == ref.n_rows
    assert list(rel.data) == list(ref.data)
    for col in columns:
        got, want = rel.data[col.name], ref.data[col.name]
        if col.kind == "numeric":
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want
            assert [c is None for c in got] == [c is None for c in want]


def csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


N, T = "numeric", "text"
ODD_NUMBERS = [" 7 ", "\t", "", "abc", "nan", "-0", "1e999", "1_000", "-inf", "0x10", " .5e-3"]

EQUIVALENCE_CASES = {
    "odd numeric cells": (
        "a,b\n" + "".join("%s,%d\n" % (c if c.strip() == c else '"%s"' % c, i)
                          for i, c in enumerate(ODD_NUMBERS)),
        [Column("a", N), Column("b", N)],
    ),
    "short rows and blank lines": (
        "a,s,b\n1,x,2\n\n3\n4,y\n\n\n,\n",
        [Column("a", N), Column("s", T), Column("b", N)],
    ),
    "quoted commas and newlines": (
        'a,s\n1,"x,y"\n"2","line\nbreak"\n"3,5","say ""hi"""\n',
        [Column("a", N), Column("s", T)],
    ),
    "empty and repeated text": (
        "s,t\nx,\n,x\nx,x\n,\ny,x\n",
        [Column("s", T), Column("t", T)],
    ),
    "interleaved kinds": (
        "t1,n1,t2,n2\na,1,b,2\n,3,,x\nc,,c,4\n",
        [Column("t1", T), Column("n1", N), Column("t2", T), Column("n2", N)],
    ),
    "extra csv columns, declared out of file order": (
        "x,n,y,t,z\n9,1,9,a,9\n9,2,9,b,9\n",
        [Column("t", T), Column("n", N)],
    ),
}


@pytest.mark.parametrize("text, columns", EQUIVALENCE_CASES.values(), ids=list(EQUIVALENCE_CASES))
def test_one_pass_load_matches_two_pass_reference(tmp_path, text, columns):
    p = tmp_path / "t.csv"
    p.write_text(text, encoding="utf-8", newline="")
    assert_same_load(p, columns)


CELLS = st.one_of(
    st.sampled_from(ODD_NUMBERS + ["1", "2.5", "x", "x y"]),
    st.text(alphabet=list('ab 0159.-e,"\n\r\t'), max_size=6),
)


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from([N, T, None]), min_size=1, max_size=5),
    rows=st.lists(st.lists(CELLS, max_size=6), max_size=12),
)
def test_random_cells_load_like_the_reference(tmp_path_factory, kinds, rows):
    # kind None is a CSV column the schema does not declare
    header = ["c%d" % i for i in range(len(kinds))]
    columns = [Column(h, k) for h, k in zip(header, kinds) if k is not None]
    columns.reverse()  # declared order differs from file order
    p = tmp_path_factory.mktemp("csv") / "t.csv"
    p.write_text(csv_text([header] + rows), encoding="utf-8", newline="")
    assert_same_load(p, columns)


class TestRelation:
    def test_kind_lookup(self):
        rel = Relation("r", [Column("a", "numeric")], {"a": np.zeros(1)}, 1)
        assert rel.kind_of("a") == "numeric"
        assert rel.has_column("a")
        with pytest.raises(KeyError):
            rel.kind_of("z")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Column("a", "integer")


def make_schema(tmp_path, params=None, pk_fk=None):
    write(tmp_path / "r.csv", "j,f,s\n1,10,aa\n1,20,bb\n2,10,aa\n")
    write(tmp_path / "d.csv", "k,g\n1,x\n2,y\n")
    doc = {
        "relations": [
            {
                "name": "r",
                "csv": "r.csv",
                "columns": [
                    {"name": "j", "kind": "numeric"},
                    {"name": "f", "kind": "numeric"},
                    {"name": "s", "kind": "text"},
                ],
                "join_columns": ["j"],
                "filter_columns": ["f", "s"],
            },
            {
                "name": "d",
                "csv": "d.csv",
                "columns": [
                    {"name": "k", "kind": "numeric"},
                    {"name": "g", "kind": "text"},
                ],
                "join_columns": ["k"],
                "filter_columns": ["g"],
            },
        ],
        "pk_fk": pk_fk or [],
        "params": params or {},
    }
    path = tmp_path / "schema.json"
    write(path, json.dumps(doc))
    return path


def run_cli(command, schema, capsys):
    """Exit code and last stderr line of ``seqbound build`` or ``verify``
    on a schema that load_workspace reads without complaint."""
    load_workspace(str(schema))
    args = ["--out", str(schema.parent / "x.cat")] if command == "build" else ["--trials", "2"]
    code = main([command, "--schema", str(schema), *args])
    return code, capsys.readouterr().err.strip().splitlines()[-1]


def link(fact, fk, dim, pk):
    return lambda doc: doc["pk_fk"].append({"fact": fact, "fk": fk, "dim": dim, "pk": pk})


# load_workspace only reads files: build_catalog refuses these for every
# caller, and precompute_pk_fk the link of keys of two kinds
UNBUILDABLE = {
    "unknown-role-column": (
        lambda doc: doc["relations"][0].update(join_columns=["nope"]),
        "error: relation 'r': role names unknown column 'nope'",
    ),
    "unknown-link-relation": (link("zz", "j", "d", "k"), "error: pk_fk names unknown relation 'zz'"),
    "unknown-link-column": (link("r", "j", "d", "nope"), "error: pk_fk names unknown column 'd'.'nope'"),
    "link-kinds-differ": (
        link("r", "s", "d", "k"),
        "error: r.s (text) cannot reference d.k (numeric): key columns must share a kind",
    ),
}


# load_workspace refuses these before any statistic is built; an edit
# that returns a document replaces the schema's
UNREADABLE = {
    "no-csv": (lambda doc: doc["relations"][0].__delitem__("csv"), "relation 'r': missing 'csv'"),
    "top-level-list": (lambda doc: [doc], "top level must be an object"),
    "no-relations": (lambda doc: doc.update(relations=[]), "'relations' must be a non-empty list"),
    "duplicate-column": (
        lambda doc: doc["relations"][0]["columns"].append({"name": "j", "kind": "numeric"}),
        "relation 'r': duplicate column 'j'",
    ),
    "pk-fk-object": (lambda doc: doc.update(pk_fk={}), "schema: 'pk_fk' must be a list"),
    "params-list": (lambda doc: doc.update(params=[]), "schema: 'params' must be an object"),
}


def unbuildable_schema(tmp_path, case):
    edit, message = UNBUILDABLE[case]
    path = make_schema(tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    write(path, json.dumps(doc))
    return path, message


class TestLoadWorkspace:
    def test_happy_path(self, tmp_path):
        ws = load_workspace(str(make_schema(tmp_path)))
        assert set(ws.relations) == {"r", "d"}
        assert ws.roles["r"] == ColumnRole(("j",), ("f", "s"))
        assert ws.relations["r"].n_rows == 3
        assert ws.load_warnings == ()

    def test_pk_fk_parsed(self, tmp_path):
        path = make_schema(
            tmp_path, pk_fk=[{"fact": "r", "fk": "j", "dim": "d", "pk": "k"}]
        )
        ws = load_workspace(str(path))
        assert ws.pkfk == (PkFkDeclaration("r", "j", "d", "k"),)

    def test_params_passed_through(self, tmp_path):
        ws = load_workspace(str(make_schema(tmp_path, params={"mcv_size": 5})))
        assert ws.params == {"mcv_size": 5}

    def test_unknown_role_column(self, tmp_path, capsys):
        path, message = unbuildable_schema(tmp_path, "unknown-role-column")
        assert run_cli("build", path, capsys) == (2, message)

    def test_duplicate_relation(self, tmp_path):
        path = make_schema(tmp_path)
        doc = json.loads(path.read_text())
        doc["relations"].append(doc["relations"][0])
        write(path, json.dumps(doc))
        with pytest.raises(ConfigError):
            load_workspace(str(path))

    def test_pk_fk_unknown_relation(self, tmp_path, capsys):
        path, message = unbuildable_schema(tmp_path, "unknown-link-relation")
        assert run_cli("build", path, capsys) == (2, message)

    def test_pk_fk_unknown_column(self, tmp_path, capsys):
        path, message = unbuildable_schema(tmp_path, "unknown-link-column")
        assert run_cli("build", path, capsys) == (2, message)

    def test_pk_fk_columns_of_different_kinds(self, tmp_path, capsys):
        path, message = unbuildable_schema(tmp_path, "link-kinds-differ")
        assert run_cli("build", path, capsys) == (2, message)

    @pytest.mark.parametrize("case", UNBUILDABLE)
    def test_verify_refuses_what_build_refuses(self, tmp_path, capsys, case):
        path, message = unbuildable_schema(tmp_path, case)
        assert run_cli("verify", path, capsys) == (2, message)

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_malformed_schema_exits_2(self, tmp_path, capsys, case):
        edit, message = UNREADABLE[case]
        path = make_schema(tmp_path)
        doc = json.loads(path.read_text())
        edited = edit(doc)
        write(path, json.dumps(doc if edited is None else edited))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_workspace(str(path))
        assert main(["build", "--schema", str(path), "--out", str(tmp_path / "x.cat")]) == 2
        assert message in capsys.readouterr().err

    def test_not_json(self, tmp_path):
        p = tmp_path / "schema.json"
        write(p, "not json {")
        with pytest.raises(ConfigError):
            load_workspace(str(p))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda r: r.update(name=["r"]), "'name' must be a string"),
            (lambda r: r.update(csv=7), "'csv' must be a string"),
            (lambda r: r.update(columns={"j": "numeric"}), "'columns' must be a list"),
            (lambda r: r["columns"].__setitem__(0, "j"), "column entry must be an object"),
            (lambda r: r["columns"][0].update(name=1), "'name' must be a string"),
            (lambda r: r["columns"][0].update(kind=["numeric"]), "'kind' must be a string"),
            (lambda r: r.update(join_columns="j"), "'join_columns' must be a list"),
            (lambda r: r.update(filter_columns=[["f"]]), "'filter_columns' must be a list"),
        ],
    )
    def test_wrongly_typed_fields(self, tmp_path, edit, match):
        path = make_schema(tmp_path)
        doc = json.loads(path.read_text())
        edit(doc["relations"][0])
        write(path, json.dumps(doc))
        with pytest.raises(ConfigError, match=match):
            load_workspace(str(path))

    def test_wrongly_typed_pk_fk(self, tmp_path):
        with pytest.raises(ConfigError, match="'fk' must be a string"):
            load_workspace(
                str(make_schema(tmp_path, pk_fk=[{"fact": "r", "fk": ["j"], "dim": "d", "pk": "k"}]))
            )
