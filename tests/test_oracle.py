"""Worst-case materialization, brute-force counting, and the randomized
soundness harness."""

import random

import numpy as np
import pytest

from seqbound.oracle import (
    GenerationImpossible,
    OracleCapExceeded,
    corrupt_catalog,
    generate_database,
    generate_query,
    run_soundness_suite,
    summarize,
    true_cardinality,
    verify_bound,
)
from seqbound.pwfn import DegreeSequence, PiecewiseLinearFn, cumulate
from seqbound.query import Query, fuse_parallel_joins, join_graph, parse_query
from seqbound.relation import Column, ColumnRole, Relation
from seqbound.stats import BuildParams, build_catalog
from worst_case import lossless_compress, materialize_from_compressed, materialize_worst_case

EX = DegreeSequence((4, 2, 2, 1, 1, 1))


def numeric_relation(name, col, values):
    arr = np.asarray(values, dtype=float)
    return Relation(name, [Column(col, "numeric")], {col: arr}, arr.size)


class TestMaterializeWorstCase:
    def test_single_column_layout(self):
        cols = materialize_worst_case({"a": EX})
        assert cols["a"].tolist() == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]

    def test_columns_align_by_rank(self):
        cols = materialize_worst_case(
            {"a": EX, "b": DegreeSequence((6, 3, 2))}
        )
        assert cols["b"].tolist() == [1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3]
        values, counts = np.unique(cols["a"], return_counts=True)
        assert sorted(counts.tolist(), reverse=True) == [4, 2, 2, 1, 1, 1]

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            materialize_worst_case({"a": EX, "b": DegreeSequence((1, 1))})

    def test_worst_case_instance_meets_min_of_cumulatives(self):
        cols = materialize_worst_case(
            {"a": EX, "b": DegreeSequence((6, 3, 2))}
        )
        fa = cumulate(lossless_compress(EX))
        fb = cumulate(lossless_compress(DegreeSequence((6, 3, 2))))
        for m1 in range(0, 7):
            for m2 in range(0, 4):
                expect = min(fa.value_at(m1), fb.value_at(m2))
                assert np.count_nonzero((cols["a"] <= m1) & (cols["b"] <= m2)) == expect


class TestMaterializeFromCompressed:
    def test_lossless_profile_reproduces_the_sequence(self):
        fn = cumulate(lossless_compress(EX))
        cols = materialize_from_compressed({"a": fn})
        assert cols["a"].tolist() == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6]

    def test_capped_profile_rounds_rank_by_rank(self):
        # single sloped segment to rank 2.75, then flat: per-rank cumulative
        # targets are 4, 8, 11, 11, ...
        fn = PiecewiseLinearFn((0.0, 2.75, 6.0), (0.0, 11.0, 11.0))
        cols = materialize_from_compressed({"a": fn})
        assert cols["a"].tolist() == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3]

    def test_realized_cumulative_dominates_the_profile(self):
        fn = PiecewiseLinearFn((0.0, 2.0), (0.0, 3.0))
        cols = materialize_from_compressed({"a": fn})
        assert cols["a"].tolist() == [1, 1, 2]
        for rank in (1, 2):
            realized = np.count_nonzero(cols["a"] <= rank)
            assert realized >= fn.value_at(rank) - 1e-6

    def test_shorter_columns_padded_with_fresh_values(self):
        fns = {
            "a": cumulate(lossless_compress(DegreeSequence((2, 1)))),
            "b": cumulate(lossless_compress(DegreeSequence((1, 1)))),
        }
        cols = materialize_from_compressed(fns)
        assert cols["a"].tolist() == [1, 1, 2]
        assert cols["b"].tolist() == [1, 2, 3]


class TestTrueCardinality:
    def test_two_way_join(self):
        rels = {
            "r": numeric_relation("r", "a", [1, 1, 2]),
            "s": numeric_relation("s", "a", [1, 2, 2]),
        }
        q = parse_query(
            "SELECT COUNT(*) FROM r, s WHERE r.a = s.a",
            {"r": {"a": "numeric"}, "s": {"a": "numeric"}},
        )
        assert true_cardinality(rels, q) == 4

    def test_nulls_do_not_join(self):
        rels = {
            "r": numeric_relation("r", "a", [1, np.nan, 2]),
            "s": numeric_relation("s", "a", [1, 2]),
        }
        q = parse_query(
            "SELECT COUNT(*) FROM r, s WHERE r.a = s.a",
            {"r": {"a": "numeric"}, "s": {"a": "numeric"}},
        )
        assert true_cardinality(rels, q) == 2

    def test_predicates_filter_before_joining(self):
        r = Relation(
            "r",
            [Column("a", "numeric"), Column("b", "numeric")],
            {"a": np.array([1.0, 1.0, 2.0]), "b": np.array([10.0, 20.0, 30.0])},
            3,
        )
        rels = {"r": r, "s": numeric_relation("s", "a", [1, 1, 2])}
        q = parse_query(
            "SELECT COUNT(*) FROM r, s WHERE r.a = s.a AND r.b >= 20",
            {"r": {"a": "numeric", "b": "numeric"}, "s": {"a": "numeric"}},
        )
        # surviving r rows: (1, 20) matching two s rows, (2, 30) matching one
        assert true_cardinality(rels, q) == 3

    def test_single_relation_count(self):
        rels = {"r": numeric_relation("r", "a", [1, 2, 2, 3])}
        q = parse_query(
            "SELECT COUNT(*) FROM r WHERE r.a = 2", {"r": {"a": "numeric"}}
        )
        assert true_cardinality(rels, q) == 2

    def test_self_join_squares_frequencies(self):
        rels = {"r": numeric_relation("r", "a", [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6])}
        q = parse_query(
            "SELECT COUNT(*) FROM r AS x, r AS y WHERE x.a = y.a",
            {"r": {"a": "numeric"}},
        )
        assert true_cardinality(rels, q) == 27

    def test_cyclic_query_counts_exactly(self):
        cols = {"u": np.array([1.0, 2.0]), "v": np.array([1.0, 2.0])}
        rels = {
            n: Relation(n, [Column("u", "numeric"), Column("v", "numeric")], dict(cols), 2)
            for n in ("e1", "e2", "e3")
        }
        schema = {n: {"u": "numeric", "v": "numeric"} for n in rels}
        q = parse_query(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u",
            schema,
        )
        assert true_cardinality(rels, q) == 2

    def test_ops_limit_trips(self):
        # the cap meters distinct-tuple work, so spread the values out
        rels = {
            "r": numeric_relation("r", "a", np.arange(100.0)),
            "s": numeric_relation("s", "a", np.arange(100.0)),
        }
        q = parse_query(
            "SELECT COUNT(*) FROM r, s WHERE r.a = s.a",
            {"r": {"a": "numeric"}, "s": {"a": "numeric"}},
        )
        with pytest.raises(OracleCapExceeded):
            true_cardinality(rels, q, ops_limit=50)

    def test_multi_column_variables_rejected(self):
        data = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 2.0])}
        rels = {
            "pa": Relation("pa", [Column("a", "numeric"), Column("b", "numeric")], dict(data), 2),
            "pb": Relation("pb", [Column("a", "numeric"), Column("b", "numeric")], dict(data), 2),
        }
        schema = {"pa": {"a": "numeric", "b": "numeric"}, "pb": {"a": "numeric", "b": "numeric"}}
        q = parse_query(
            "SELECT COUNT(*) FROM pa AS x, pb AS y WHERE x.a = y.a AND x.b = y.b", schema
        )
        fused = Query(fuse_parallel_joins(join_graph(q)).atoms, q.predicates)
        with pytest.raises(ValueError, match="single-column"):
            true_cardinality(rels, fused)


class TestGenerateDatabase:
    def test_shape_and_determinism(self):
        rels1, roles1, pkfk1 = generate_database(random.Random(7))
        rels2, roles2, pkfk2 = generate_database(random.Random(7))
        assert sorted(rels1) == sorted(rels2)
        assert 2 <= len(rels1) <= 4
        for name, rel in rels1.items():
            assert 10 <= rel.n_rows <= 200
            role = roles1[name]
            assert set(role.filter_columns) == {"f0", "s0"}
            for j in role.join_columns:
                assert rel.kind_of(j) == "numeric"
            assert all(isinstance(v, str) and len(v) == 3 for v in rel.data["s0"])
            assert rel.data[role.join_columns[0]].tolist() == (
                rels2[name].data[roles2[name].join_columns[0]].tolist()
            )
        assert pkfk1 == pkfk2

    def test_two_join_cols_mode(self):
        rels, roles, _ = generate_database(random.Random(3), two_join_cols=True)
        assert all(len(roles[n].join_columns) == 2 for n in rels)

    def test_pkfk_declarations_are_well_formed(self):
        seen = 0
        for seed in range(30):
            rels, roles, pkfk = generate_database(random.Random(seed))
            for decl in pkfk:
                seen += 1
                assert decl.fact != decl.dim
                assert decl.fk in roles[decl.fact].join_columns
                pk_vals = rels[decl.dim].data[decl.pk]
                assert len(set(pk_vals.tolist())) == pk_vals.size
        assert seen > 0


class TestGenerateQuery:
    def workspace(self, seed=11, **kw):
        return generate_database(random.Random(seed), **kw)

    def test_acyclic_queries_parse_and_classify(self):
        rels, roles, _ = self.workspace()
        schema = {n: {c.name: c.kind for c in r.columns} for n, r in rels.items()}
        for seed in range(20):
            sql, query = generate_query(random.Random(seed), rels, roles, "acyclic")
            assert parse_query(sql, schema) == query
            g = join_graph(query)
            assert g.connected
            assert g.acyclic

    def test_cyclic_and_multicol_shapes(self):
        rels, roles, _ = self.workspace(seed=5, two_join_cols=True)
        for seed in range(10):
            _, cyc = generate_query(random.Random(seed), rels, roles, "cyclic")
            assert not join_graph(cyc).acyclic
            _, multi = generate_query(random.Random(seed), rels, roles, "multicol")
            assert join_graph(multi).multi_column_pairs

    def test_multicol_impossible_without_wide_relations(self):
        rels, roles, _ = self.workspace(seed=2)
        narrow = {n: ColumnRole(roles[n].join_columns[:1], roles[n].filter_columns)
                  for n in roles}
        with pytest.raises(GenerationImpossible):
            generate_query(random.Random(0), rels, narrow, "multicol")

    def test_relations_without_join_columns(self):
        rels, roles, _ = self.workspace()
        bare = {n: ColumnRole((), roles[n].filter_columns) for n in roles}
        for seed in range(10):
            _, query = generate_query(random.Random(seed), rels, bare, "acyclic")
            assert len(query.atoms) == 1
        for shape in ("cyclic", "multicol"):
            with pytest.raises(GenerationImpossible):
                generate_query(random.Random(0), rels, bare, shape)
        # only the one relation with a join column joins
        one = {**bare, "r0": roles["r0"]}
        for seed in range(10):
            _, query = generate_query(random.Random(seed), rels, one, "acyclic")
            assert len(query.atoms) == 1 or {a.relation for a in query.atoms} == {"r0"}

    def test_max_predicates_zero(self):
        rels, roles, _ = self.workspace()
        for seed in range(5):
            _, query = generate_query(
                random.Random(seed), rels, roles, "acyclic", max_predicates=0
            )
            assert query.predicates == {}


class TestHarness:
    def tiny_workspace(self):
        rels = {
            "r": numeric_relation("r", "a", [1, 1, 2, 3]),
            "s": numeric_relation("s", "a", [1, 2]),
        }
        roles = {"r": ColumnRole(("a",), ()), "s": ColumnRole(("a",), ())}
        return rels, roles

    def test_verify_bound_record(self):
        rels, roles = self.tiny_workspace()
        catalog = build_catalog(rels, roles, params=BuildParams(compression_budget=1e-9))
        q = parse_query(
            "SELECT COUNT(*) FROM r, s WHERE r.a = s.a",
            {"r": {"a": "numeric"}, "s": {"a": "numeric"}},
        )
        record = verify_bound(catalog, rels, q, sql="...", shape="acyclic")
        assert record["true"] == 3
        assert record["bound"] >= 3
        assert record["ok"]
        assert record["ms"] >= 0.0

    def test_ratio_conventions_for_empty_results(self):
        rels, roles = self.tiny_workspace()
        catalog = build_catalog(rels, roles)
        q = parse_query(
            "SELECT COUNT(*) FROM r WHERE r.a = 99", {"r": {"a": "numeric"}}
        )
        record = verify_bound(catalog, rels, q)
        assert record["true"] == 0
        # bound 0 over true 0 counts as exact
        if record["bound"] == 0:
            assert record["ratio"] == 1.0
        else:
            assert record["ratio"] == float("inf")

    def test_summarize(self):
        records = [
            {"ratio": 1.0, "ok": True, "ms": 1.0},
            {"ratio": 3.0, "ok": True, "ms": 2.0},
            {"ratio": 0.5, "ok": False, "ms": 3.0},
            {"ratio": float("inf"), "ok": True, "ms": 4.0},
        ]
        s = summarize(records)
        assert s["trials"] == 4
        assert s["violations"] == 1
        assert s["ratio_p50"] == 1.0

    def test_summarize_empty(self):
        s = summarize([])
        assert s["trials"] == 0
        assert np.isnan(s["ratio_p50"])

    def test_small_campaign_is_sound(self):
        records, summary = run_soundness_suite(
            n_acyclic=6,
            n_cyclic=2,
            n_multicol=2,
            seed=1,
            queries_per_db=3,
        )
        assert summary["trials"] == 10
        assert summary["violations"] == 0
        assert len(records) == 10
        assert all(r["ok"] and r["bound"] >= r["true"] for r in records)
        assert {r["shape"].split("(")[0] for r in records} <= {
            "acyclic", "cyclic", "multicol"
        }

    def test_cyclic_trials_never_downgrade_on_random_databases(self):
        # databases that cannot host a cycle (all single join columns)
        # are redrawn, so every requested cyclic trial really is cyclic
        records, summary = run_soundness_suite(
            n_acyclic=0, n_cyclic=6, n_multicol=0, seed=5, queries_per_db=3
        )
        assert summary["trials"] == 6
        assert all(r["shape"] == "cyclic" for r in records)

    def test_fixed_workspace_campaign(self):
        rels, roles = self.tiny_workspace()
        records, summary = run_soundness_suite(
            n_acyclic=4,
            n_cyclic=0,
            n_multicol=0,
            seed=2,
            queries_per_db=2,
            workspace=(rels, roles, ()),
        )
        assert summary["trials"] == 4
        assert summary["violations"] == 0

    def test_corrupted_catalog_is_caught(self):
        _, summary = run_soundness_suite(
            n_acyclic=8,
            n_cyclic=0,
            n_multicol=0,
            seed=3,
            queries_per_db=4,
            catalog_mutator=lambda c: corrupt_catalog(c, 0.05),
        )
        assert summary["violations"] > 0


class TestCorruptCatalog:
    def test_scales_profiles_without_touching_the_original(self):
        rels = {"r": numeric_relation("r", "a", [1, 1, 2, 3])}
        catalog = build_catalog(
            rels, {"r": ColumnRole(("a",), ())}, params=BuildParams(compression_budget=1e-9)
        )
        before = catalog.relations["r"].fallback["a"].total
        shrunk = corrupt_catalog(catalog, 0.5)
        assert shrunk.relations["r"].fallback["a"].total == pytest.approx(before / 2)
        assert catalog.relations["r"].fallback["a"].total == before
        assert shrunk.pkfk == catalog.pkfk
