"""End-to-end command line flows over a small file-backed workspace."""

import json
import re

import pytest

from seqbound import oracle
from seqbound.catalog_io import decode_file, load_catalog
from seqbound.cli import main
from seqbound.stats import BuildParams, build_catalog

ORDERS_CSV = """cust,status,total
1,open,5
1,open,10
1,done,15
1,done,20
2,open,25
2,done,30
3,open,35
3,open,40
4,done,45
5,open,50
"""

CUSTOMERS_CSV = """id,region
1,east
2,east
3,west
4,west
5,east
"""

EAST_SQL = (
    "SELECT COUNT(*) FROM orders AS o, customers AS c"
    " WHERE o.cust = c.id AND c.region = 'east'"
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def shop_schema(tmp_path, params=None, orders_csv=ORDERS_CSV):
    write(tmp_path / "orders.csv", orders_csv)
    write(tmp_path / "customers.csv", CUSTOMERS_CSV)
    doc = {
        "relations": [
            {
                "name": "orders",
                "csv": "orders.csv",
                "columns": [
                    {"name": "cust", "kind": "numeric"},
                    {"name": "status", "kind": "text"},
                    {"name": "total", "kind": "numeric"},
                ],
                "join_columns": ["cust"],
                "filter_columns": ["status", "total"],
            },
            {
                "name": "customers",
                "csv": "customers.csv",
                "columns": [
                    {"name": "id", "kind": "numeric"},
                    {"name": "region", "kind": "text"},
                ],
                "join_columns": ["id"],
                "filter_columns": ["region"],
            },
        ],
        "pk_fk": [{"fact": "orders", "fk": "cust", "dim": "customers", "pk": "id"}],
        "params": {"compression_budget": 1e-9} if params is None else params,
    }
    return write(tmp_path / "schema.json", json.dumps(doc))


def solo_schema(tmp_path):
    # one relation, one row: no corruption by halving can push a ceiled
    # bound under a count of one
    write(tmp_path / "solo.csv", "j\n1\n")
    doc = {
        "relations": [
            {
                "name": "solo",
                "csv": "solo.csv",
                "columns": [{"name": "j", "kind": "numeric"}],
                "join_columns": ["j"],
                "filter_columns": [],
            }
        ],
        "pk_fk": [],
        "params": {},
    }
    return write(tmp_path / "solo.json", json.dumps(doc))


def built_catalog(tmp_path):
    schema = shop_schema(tmp_path)
    out = str(tmp_path / "shop.cat")
    assert main(["build", "--schema", schema, "--out", out]) == 0
    return out


class TestBuild:
    def test_build_reports_and_writes(self, tmp_path, capsys):
        schema = shop_schema(tmp_path)
        out = str(tmp_path / "shop.cat")
        assert main(["build", "--schema", schema, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "built catalog for 2 relation(s)" in stdout
        assert stdout.strip().endswith("-> " + out)
        assert load_catalog(out).relations["orders"].cardinality == 10

    def test_build_reports_the_stored_profile_table(self, tmp_path, capsys):
        schema = shop_schema(tmp_path)
        out = tmp_path / "shop.cat"
        assert main(["build", "--schema", schema, "--out", str(out)]) == 0
        payload = decode_file(out.read_bytes())
        stdout = capsys.readouterr().out
        assert "%d stored profile(s)" % len(payload["profiles"]) in stdout

    def test_schema_params_reach_the_catalog(self, tmp_path):
        schema = shop_schema(tmp_path, params={"compression_budget": 0.5, "mcv_size": 10})
        out = str(tmp_path / "shop.cat")
        assert main(["build", "--schema", schema, "--out", out]) == 0
        assert load_catalog(out).params == BuildParams(compression_budget=0.5, mcv_size=10)

    def test_help_lists_only_the_schema_and_the_output(self, capsys):
        # build parameters come from the schema's params, never from flags
        with pytest.raises(SystemExit) as exit_:
            main(["build", "--help"])
        assert exit_.value.code == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags == {"--help", "--schema", "--out"}

    def test_missing_schema_is_a_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "x.cat")
        assert main(["build", "--schema", str(tmp_path / "nope.json"), "--out", out]) == 2
        assert "error:" in capsys.readouterr().err

    # hist_depth and clusters were build parameters before catalog format 7
    @pytest.mark.parametrize("name", ["fanciness", "hist_depth", "clusters"])
    def test_unknown_param_is_a_config_error(self, tmp_path, capsys, name):
        schema = shop_schema(tmp_path, params={name: 3})
        assert main(["build", "--schema", schema, "--out", str(tmp_path / "x.cat")]) == 2
        assert "unknown build parameters: %s" % name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params",
        [{"compression_budget": "0.1"}, {"compression_budget": 10**400}, {"mcv_size": 2.5}, {"mcv_size": "3"}],
    )
    def test_wrongly_typed_param_is_a_config_error(self, tmp_path, capsys, params):
        schema = shop_schema(tmp_path, params=params)
        assert main(["build", "--schema", schema, "--out", str(tmp_path / "x.cat")]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--clusters", "auto"], ["--hist-depth", "7"], ["--c", "0.5"], ["--mcv", "10"]]
    )
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, flag):
        schema = shop_schema(tmp_path)
        argv = ["build", "--schema", schema, "--out", str(tmp_path / "x.cat")]
        with pytest.raises(SystemExit) as exit_:
            main(argv + flag)
        assert exit_.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("name", ["orders"]), ("join_columns", "cust")]
    )
    def test_wrongly_typed_schema_field_is_a_config_error(
        self, tmp_path, capsys, field, value
    ):
        schema = shop_schema(tmp_path)
        with open(schema, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["relations"][0][field] = value
        write(tmp_path / "schema.json", json.dumps(doc))
        assert main(["build", "--schema", schema, "--out", str(tmp_path / "x.cat")]) == 2
        assert "%r must be a" % field in capsys.readouterr().err

    def test_unparseable_cells_warn_but_build(self, tmp_path, capsys):
        broken = ORDERS_CSV.replace("1,open,5", "1,open,oops", 1)
        schema = shop_schema(tmp_path, orders_csv=broken)
        out = str(tmp_path / "shop.cat")
        assert main(["build", "--schema", schema, "--out", out]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "unparseable" in err

    @pytest.mark.parametrize(
        "body",
        [
            b"cust,status,total\n1,open,5\n1,\xffopen,10\n",
            b"cust,status,total\n1," + b"o" * 200_000 + b",5\n",
        ],
        ids=["undecodable bytes", "oversize field"],
    )
    def test_malformed_csv_exits_2_naming_the_file(self, tmp_path, capsys, body):
        schema = shop_schema(tmp_path)
        (tmp_path / "orders.csv").write_bytes(body)
        assert main(["build", "--schema", schema, "--out", str(tmp_path / "x.cat")]) == 2
        assert "orders.csv" in capsys.readouterr().err


class TestEstimate:
    def test_plain_bound_on_stdout(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--catalog", cat, "--query", EAST_SQL]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_json_output(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--catalog", cat, "--query", EAST_SQL, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bound"] == 7
        assert doc["strategy"] == "acyclic"
        assert "pushed c predicate across cust=id onto o" in doc["notes"]
        assert doc["steps"] == []

    def test_json_trace_carries_steps(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        capsys.readouterr()
        assert main([
            "estimate", "--catalog", cat, "--query", EAST_SQL, "--json", "--trace",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] and any("join" in s for s in doc["steps"])

    def test_text_trace_prefixes_comments(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        capsys.readouterr()
        assert main(["estimate", "--catalog", cat, "--query", EAST_SQL, "--trace"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "7"
        assert all(line.startswith("# ") for line in lines[:-1])
        assert len(lines) > 1

    def test_query_from_file(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        qfile = write(tmp_path / "q.sql", EAST_SQL + "\n")
        capsys.readouterr()
        assert main(["estimate", "--catalog", cat, "--query", "@" + qfile]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_malformed_query_exits_3(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        assert main(["estimate", "--catalog", cat, "--query", "SELECT nope"]) == 3
        assert "query error:" in capsys.readouterr().err

    def test_unsupported_query_exits_3(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        sql = "SELECT COUNT(*) FROM orders AS o, customers AS c"
        assert main(["estimate", "--catalog", cat, "--query", sql]) == 3
        assert "cross product" in capsys.readouterr().err

    def test_deeply_nested_query_exits_3(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        sql = "SELECT COUNT(*) FROM orders WHERE " + "(" * 330 + "orders.total = 1" + ")" * 330
        assert main(["estimate", "--catalog", cat, "--query", sql]) == 3
        assert "nested deeper than 100" in capsys.readouterr().err

    def test_missing_catalog_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cat")
        assert main(["estimate", "--catalog", missing, "--query", EAST_SQL]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_schema_workspace_is_sound(self, tmp_path, capsys):
        schema = shop_schema(tmp_path)
        assert main(["verify", "--schema", schema, "--trials", "6", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_corruption_is_detected(self, tmp_path, capsys):
        schema = shop_schema(tmp_path)
        assert main([
            "verify", "--schema", schema, "--trials", "6", "--seed", "4", "--corrupt",
        ]) == 0
        assert "corruption detected as expected" in capsys.readouterr().out

    def test_undetectable_corruption_fails_the_control(self, tmp_path, capsys):
        schema = solo_schema(tmp_path)
        assert main([
            "verify", "--schema", schema, "--trials", "5", "--seed", "0", "--corrupt",
        ]) == 1
        assert "negative control FAILED" in capsys.readouterr().out

    def test_invalid_schema_params_exit_2(self, tmp_path, capsys):
        schema = shop_schema(tmp_path, params={"mcv_size": -1, "bogus": 3})
        assert main(["verify", "--schema", schema, "--trials", "2"]) == 2
        assert "unknown build parameters: bogus" in capsys.readouterr().err

    def test_schema_params_reach_the_catalog(self, tmp_path, capsys, monkeypatch):
        built = []

        def recording_build(relations, roles, pkfk, params):
            built.append(params)
            return build_catalog(relations, roles, pkfk, params)

        monkeypatch.setattr(oracle, "build_catalog", recording_build)
        schema = shop_schema(tmp_path, params={"mcv_size": 1})
        assert main(["verify", "--schema", schema, "--trials", "4"]) == 0
        assert built == [BuildParams(mcv_size=1)]

    def test_relations_without_join_columns(self, tmp_path, capsys):
        # once an IndexError from drawing a join column out of an empty list
        write(tmp_path / "r.csv", "a,f\n1,5\n2,5\n2,6\n")
        doc = {
            "relations": [
                {
                    "name": "r",
                    "csv": "r.csv",
                    "columns": [{"name": "a", "kind": "numeric"}, {"name": "f", "kind": "numeric"}],
                    "join_columns": [],
                    "filter_columns": ["f"],
                }
            ],
        }
        schema = write(tmp_path / "schema.json", json.dumps(doc))
        assert main(["verify", "--schema", schema, "--trials", "20", "--seed", "3"]) == 0
        assert "trials=24 violations=0" in capsys.readouterr().out

    def test_random_workspaces(self, capsys):
        assert main(["verify", "--trials", "2", "--seed", "1"]) == 0
        assert "violations=0" in capsys.readouterr().out


class TestInspect:
    def test_describes_catalog(self, tmp_path, capsys):
        cat = built_catalog(tmp_path)
        capsys.readouterr()
        assert main(["inspect", "--catalog", cat]) == 0
        out = capsys.readouterr().out
        assert "params: budget=1e-09 mcv=1000\n" in out
        assert "relation orders: 10 rows" in out
        assert "column cust (numeric, join)" in out
        assert "column status (text, filter)" in out
        assert "column __customers__region (text, filter)" in out
        assert "equality stats cust|status:" in out
        assert "range stats cust|total:" in out
        assert "like stats cust|status:" in out
        assert "key link: orders.cust -> customers.id (1 propagated column(s))" in out

    def test_missing_catalog_exits_2(self, tmp_path, capsys):
        assert main(["inspect", "--catalog", str(tmp_path / "nope.cat")]) == 2
        assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
