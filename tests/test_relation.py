import json

import numpy as np
import pytest

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

    def test_unknown_role_column(self, tmp_path):
        path = make_schema(tmp_path)
        doc = json.loads(path.read_text())
        doc["relations"][0]["join_columns"] = ["nope"]
        write(path, json.dumps(doc))
        with pytest.raises(ConfigError):
            load_workspace(str(path))

    def test_duplicate_relation(self, tmp_path):
        path = make_schema(tmp_path)
        doc = json.loads(path.read_text())
        doc["relations"].append(doc["relations"][0])
        write(path, json.dumps(doc))
        with pytest.raises(ConfigError):
            load_workspace(str(path))

    def test_pk_fk_unknown_relation(self, tmp_path):
        path = make_schema(
            tmp_path, pk_fk=[{"fact": "zz", "fk": "j", "dim": "d", "pk": "k"}]
        )
        with pytest.raises(ConfigError):
            load_workspace(str(path))

    def test_pk_fk_columns_of_different_kinds(self, tmp_path):
        path = make_schema(
            tmp_path, pk_fk=[{"fact": "r", "fk": "s", "dim": "d", "pk": "k"}]
        )
        with pytest.raises(ConfigError, match="key columns must share a kind"):
            load_workspace(str(path))

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
