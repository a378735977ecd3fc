"""Conditioning, plan evaluation, and end-to-end query bounds.

Expected numbers are hand counts over tiny relations; profiles are built
with a near-zero compression budget so they stay exact and the engine's
arithmetic can be checked to the row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqbound.inference
import seqbound.query
from seqbound.inference import bound_query, condition_sequence, plan_bound
from seqbound.oracle import corrupt_catalog, true_cardinality
from seqbound.pwfn import PiecewiseLinearFn, pw_min, sample_integer_ranks, zero_cumulative
from seqbound.query import (
    And,
    Atom,
    BoundPlan,
    Eq,
    JoinStep,
    Like,
    MergeStep,
    Or,
    Query,
    Range,
    UnsupportedQueryError,
    like_matches,
    parse_query,
)
from seqbound.relation import Column, ColumnRole, PkFkDeclaration, Relation
from seqbound.stats import BuildParams, build_catalog

EXACT = BuildParams(compression_budget=1e-9)


def exact_profile(join_values: np.ndarray) -> PiecewiseLinearFn:
    """Exact cumulative degree profile of the non-null join values."""
    _, counts = np.unique(join_values[~np.isnan(join_values)], return_counts=True)
    running = np.cumsum(np.sort(counts)[::-1])
    if running.size == 0:
        return zero_cumulative()
    return PiecewiseLinearFn(
        np.arange(running.size + 1.0).tolist(), [0.0, *running.astype(float).tolist()]
    )


def skew_relation(name="rr"):
    # join column with frequencies 4, 2, 2, 1, 1, 1
    values = np.array([1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6], dtype=float)
    return Relation(name, [Column("j", "numeric")], {"j": values}, 11)


def skew_catalog():
    rel = skew_relation()
    return build_catalog({"rr": rel}, {"rr": ColumnRole(("j",), ())}, params=EXACT)


SKEW_SCHEMA = {"rr": {"j": "numeric"}, "ss": {"j": "numeric"}}


def shop_catalog():
    orders = Relation(
        "orders",
        [Column("cust", "numeric"), Column("status", "text"), Column("total", "numeric")],
        {
            "cust": np.array([1, 1, 1, 1, 2, 2, 3, 3, 4, 5], dtype=float),
            "status": ["open", "open", "done", "done", "open",
                       "done", "open", "open", "done", "open"],
            "total": np.arange(5.0, 55.0, 5.0),
        },
        10,
    )
    customers = Relation(
        "customers",
        [Column("id", "numeric"), Column("region", "text")],
        {
            "id": np.array([1, 2, 3, 4, 5], dtype=float),
            "region": ["east", "east", "west", "west", "east"],
        },
        5,
    )
    catalog = build_catalog(
        {"orders": orders, "customers": customers},
        {
            "orders": ColumnRole(("cust",), ("status", "total")),
            "customers": ColumnRole(("id",), ("region",)),
        },
        (PkFkDeclaration("orders", "cust", "customers", "id"),),
        EXACT,
    )
    return catalog, {"orders": orders, "customers": customers}


SHOP_SCHEMA = {
    "orders": {"cust": "numeric", "status": "text", "total": "numeric"},
    "customers": {"id": "numeric", "region": "text"},
}


PAIR_SQL = "SELECT COUNT(*) FROM pa AS x, pb AS y WHERE x.a = y.a AND x.b = y.b"


def pair_catalog():
    """Two relations joined on two columns (``PAIR_SQL``), and their schema."""
    data = {"a": np.array([1.0, 1.0, 2.0]), "b": np.array([1.0, 2.0, 1.0])}
    rels = {
        n: Relation(n, [Column("a", "numeric"), Column("b", "numeric")], dict(data), 3)
        for n in ("pa", "pb")
    }
    catalog = build_catalog(rels, {n: ColumnRole(("a", "b"), ()) for n in rels}, params=EXACT)
    return catalog, rels, {n: {"a": "numeric", "b": "numeric"} for n in rels}


class TestConditionSequence:
    def setup_method(self):
        self.catalog, _ = shop_catalog()
        self.fallback = self.catalog.relations["orders"].fallback["cust"]

    def conditioned(self, pred):
        return condition_sequence(self.catalog, "orders", "cust", pred)

    def test_no_predicate_returns_fallback(self):
        assert self.conditioned(None) is self.fallback
        assert self.fallback.total == 10.0

    def test_tracked_equality_selects_group(self):
        # 6 open rows over customers {1, 1, 2, 3, 3, 5}
        assert self.conditioned(Eq("status", "open")).total == 6.0

    def test_untracked_equality_falls_to_default(self):
        # every status value is tracked, so the leftover profile is empty
        assert self.conditioned(Eq("status", "nope")).total == 0.0

    def test_in_set_sums_but_never_beats_fallback(self):
        fn = self.conditioned(Or((Eq("status", "done"), Eq("status", "open"))))
        assert fn.total == 10.0

    def test_in_list_is_the_ascending_or_of_its_equalities(self):
        join = "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id AND "
        for in_list, equalities in [
            ("o.status IN ('open', 'done')", "(o.status = 'done' OR o.status = 'open')"),
            ("c.region IN ('west', 'east', 'west')", "(c.region = 'east' OR c.region = 'west')"),
            ("o.total IN (15, 5) AND c.region IN ('east')", "(o.total = 5 OR o.total = 15)"
             " AND c.region IN ('east')"),
        ]:
            q_in, q_or = (parse_query(join + s, SHOP_SCHEMA) for s in (in_list, equalities))
            assert q_in == q_or
            got, want = bound_query(self.catalog, q_in), bound_query(self.catalog, q_or)
            assert got == want and got.value.hex() == want.value.hex()

    def test_one_value_in_list_keeps_the_unconditioned_cap(self):
        q = parse_query("SELECT COUNT(*) FROM orders WHERE orders.status IN ('open')", SHOP_SCHEMA)
        assert q.predicates["orders"] == Or((Eq("status", "open"),))
        stats = self.catalog.relations["orders"].equality[("cust", "status")]
        key = stats.representatives[stats.keys["open"]]
        assert self.conditioned(q.predicates["orders"]) == pw_min([key, self.fallback])

    def test_and_takes_lower_envelope(self):
        fn = self.conditioned(And((Eq("status", "open"), Eq("status", "done"))))
        assert fn.total == 4.0

    def test_or_sums_branches(self):
        fn = self.conditioned(Or((Eq("status", "open"), Eq("status", "nope"))))
        assert fn.total == 6.0

    def test_range_uses_enclosing_bucket(self):
        # [5, 20] covers the 4 cheapest orders; the enclosing histogram
        # bucket at this depth holds 8 rows
        fn = self.conditioned(Range("total", 5.0, 20.0))
        assert fn.total == 8.0

    def test_like_intersects_tracked_grams(self):
        assert self.conditioned(Like("status", "%pen%")).total == 6.0

    def test_like_folds_case_as_the_build_did(self):
        # the default holds no rows here, so 6.0 means the tracked gram
        assert self.conditioned(Like("status", "%PEN%")).total == 6.0

    def test_like_below_gram_length_is_unconditioned(self):
        assert self.conditioned(Like("status", "%zz%")) is self.fallback

    def test_like_unseen_gram_hits_empty_default(self):
        assert self.conditioned(Like("status", "%xyz%")).total == 0.0

    def test_equality_on_numeric_filter(self):
        assert self.conditioned(Eq("total", 15.0)).total == 1.0

    def test_column_without_statistics_is_unconditioned(self):
        # cust is a join column, not a filter column, so no equality family
        # exists for it
        assert self.conditioned(Eq("cust", 1.0)) is self.fallback

    @pytest.mark.parametrize(
        "pred",
        [
            Eq("status", "open"),
            Range("total", 5.0, 20.0),
            Like("status", "%pen%"),
            Or((Eq("status", "open"),)),
        ],
    )
    def test_conditioning_never_exceeds_fallback(self, pred):
        fn = self.conditioned(pred)
        for x in np.linspace(0.0, fn.end, 9):
            assert fn.value_at(x) <= self.fallback.value_at(x) + 1e-9


def bound(catalog, sql, schema):
    return bound_query(catalog, parse_query(sql, schema))


class TestBoundQuery:
    def test_self_join_is_sum_of_squared_frequencies(self):
        res = bound(
            skew_catalog(),
            "SELECT COUNT(*) FROM rr AS a, rr AS b WHERE a.j = b.j",
            SKEW_SCHEMA,
        )
        # 16 + 4 + 4 + 1 + 1 + 1
        assert res.bound == 27
        assert res.value == 27.0
        assert res.strategy == "acyclic"

    def test_exact_integer_bound_survives_above_a_million(self):
        # a wide star whose bound lands exactly on a large integer; any
        # relative slack subtracted before rounding would undercut it
        rel = Relation(
            "big", [Column("j", "numeric")], {"j": np.full(40, 7.0)}, 40
        )
        catalog = build_catalog({"big": rel}, {"big": ColumnRole(("j",), ())}, params=EXACT)
        sql = (
            "SELECT COUNT(*) FROM big AS a, big AS b, big AS c, big AS d"
            " WHERE a.j = b.j AND a.j = c.j AND a.j = d.j"
        )
        schema = {"big": {"j": "numeric"}}
        res = bound(catalog, sql, schema)
        assert res.bound == 40**4
        assert res.bound == true_cardinality({"big": rel}, parse_query(sql, schema))

    def test_two_relation_chain_matches_rank_alignment(self):
        rr = skew_relation()
        ss = Relation(
            "ss", [Column("j", "numeric")],
            {"j": np.array([1, 1, 1, 2, 2, 3], dtype=float)}, 6,
        )
        catalog = build_catalog(
            {"rr": rr, "ss": ss},
            {"rr": ColumnRole(("j",), ()), "ss": ColumnRole(("j",), ())},
            params=EXACT,
        )
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM rr AS a, ss AS b WHERE a.j = b.j",
            SKEW_SCHEMA,
        )
        # frequencies aligned by rank: 4*3 + 2*2 + 2*1
        assert res.bound == 18
        # the bound is realized by some instance with these column shapes
        assert res.value == float(
            true_cardinality(
                {"rr": rr, "ss": ss},
                parse_query(
                    "SELECT COUNT(*) FROM rr AS a, ss AS b WHERE a.j = b.j",
                    SKEW_SCHEMA,
                ),
            )
        )

    def test_three_hop_chain_composes_through_middle_relation(self):
        l = Relation("l", [Column("x", "numeric")], {"x": np.array([1.0, 2.0])}, 2)
        m = Relation(
            "m", [Column("x", "numeric"), Column("y", "numeric")],
            {"x": np.array([1.0, 1.0, 2.0]), "y": np.array([7.0, 8.0, 9.0])}, 3,
        )
        r = Relation("r", [Column("y", "numeric")], {"y": np.array([7.0, 7.0, 8.0])}, 3)
        rels = {"l": l, "m": m, "r": r}
        catalog = build_catalog(
            rels,
            {"l": ColumnRole(("x",), ()), "m": ColumnRole(("x", "y"), ()),
             "r": ColumnRole(("y",), ())},
            params=EXACT,
        )
        schema = {"l": {"x": "numeric"}, "m": {"x": "numeric", "y": "numeric"},
                  "r": {"y": "numeric"}}
        sql = "SELECT COUNT(*) FROM l, m, r WHERE l.x = m.x AND m.y = r.y"
        res = bound(catalog, sql, schema)
        assert res.bound == 3
        assert res.bound == true_cardinality(rels, parse_query(sql, schema))
        assert any(s.startswith("s1: join m anchored at v0") for s in res.steps)
        assert any("merge" in s for s in res.steps)

    def test_single_table_equality_is_exact(self):
        catalog, _ = shop_catalog()
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM orders WHERE orders.status = 'open'",
            SHOP_SCHEMA,
        )
        assert res.bound == 6
        assert res.strategy == "single-relation" and res.steps == ()
        assert res.notes == (
            "orders is one relation; bounded by its row cap 6, least through orders.cust",
        )

    def test_single_table_count_includes_null_carrier_rows(self):
        rel = Relation(
            "r", [Column("j", "numeric")],
            {"j": np.array([1.0, np.nan, 2.0, np.nan])}, 4,
        )
        catalog = build_catalog({"r": rel}, {"r": ColumnRole(("j",), ())}, params=EXACT)
        res = bound(catalog, "SELECT COUNT(*) FROM r", {"r": {"j": "numeric"}})
        # the profile only sees the two non-null rows; the row cap adds the
        # two null rows back, and COUNT(*) is 4
        assert res.bound == 4
        assert res.notes == ("r is one relation; bounded by its row cap 4, least through r.j",)
        joined = bound(
            catalog,
            "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j",
            {"r": {"j": "numeric"}},
        )
        # null keys never join, so nothing is added there
        assert joined.bound == 2
        assert not any("row cap" in n for n in joined.notes)

    def test_single_table_takes_the_least_join_column_cap(self):
        # f = 'a' keeps rows 0 and 4: through j1 that is 2 non-null rows plus
        # j1's 2 null rows, through j2 one non-null row plus j2's 1 null row
        rel = Relation(
            "r",
            [Column("j1", "numeric"), Column("j2", "numeric"), Column("f", "text")],
            {
                "j1": np.array([1.0, 2.0, np.nan, np.nan, 3.0, 4.0]),
                "j2": np.array([1.0, 1.0, 1.0, 1.0, np.nan, 2.0]),
                "f": ["a", "b", "b", "b", "a", "b"],
            },
            6,
        )
        catalog = build_catalog({"r": rel}, {"r": ColumnRole(("j1", "j2"), ("f",))}, params=EXACT)
        schema = {"r": {"j1": "numeric", "j2": "numeric", "f": "text"}}
        res = bound(catalog, "SELECT COUNT(*) FROM r WHERE r.f = 'a'", schema)
        assert res.bound == 2
        assert res.notes == ("r is one relation; bounded by its row cap 2, least through r.j2",)

    def test_single_table_without_join_column_is_its_cardinality(self):
        rel = Relation("r", [Column("f", "text")], {"f": ["a", "b", None]}, 3)
        catalog = build_catalog({"r": rel}, {"r": ColumnRole((), ("f",))}, params=EXACT)
        res = bound(catalog, "SELECT COUNT(*) FROM r WHERE r.f = 'a'", {"r": {"f": "text"}})
        assert res.bound == 3
        assert res.notes == ("r is one relation; bounded by its row cap 3",)

    def test_api_variable_bound_by_one_alias_is_not_planned(self):
        # v1 binds r.x, not a declared join column, alone; planning over it
        # would anchor r at a column with one non-null row and bound the
        # join at 2, and reading it would add a note
        r = Relation(
            "r", [Column("j", "numeric"), Column("x", "numeric")],
            {"j": np.array([1.0, 1.0, 1.0, 2.0]), "x": np.array([np.nan, np.nan, np.nan, 5.0])}, 4,
        )
        s = Relation("s", [Column("j", "numeric")], {"j": np.array([1.0, 1.0, 2.0])}, 3)
        rels = {"r": r, "s": s}
        catalog = build_catalog(
            rels, {"r": ColumnRole(("j",), ()), "s": ColumnRole(("j",), ())}, params=EXACT
        )
        query = Query((
            Atom("r", "r", (("v0", ("j",)), ("v1", ("x",)))),
            Atom("s", "s", (("v0", ("j",)),)),
        ))
        res = bound_query(catalog, query)
        assert true_cardinality(rels, query) == 7
        assert (res.bound, res.notes) == (7, ())
        assert res.steps == (
            "s1: join r anchored at v0 (mass 4) -> integral 4",
            "s2: merge s1*s/v0 over v0 -> integral 7",
        )

    def test_impossible_predicate_bounds_to_zero(self):
        catalog, _ = shop_catalog()
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM orders WHERE orders.status = 'nope'",
            SHOP_SCHEMA,
        )
        assert res.bound == 0

    def test_dimension_predicate_pushes_across_key_link(self):
        catalog, rels = shop_catalog()
        sql = (
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.cust = c.id AND c.region = 'east'"
        )
        res = bound(catalog, sql, SHOP_SCHEMA)
        assert "pushed c predicate across cust=id onto o" in res.notes
        assert res.bound == 7
        assert res.bound == true_cardinality(rels, parse_query(sql, SHOP_SCHEMA))

    def test_key_join_without_predicate_bounds_to_fact_size(self):
        catalog, _ = shop_catalog()
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id",
            SHOP_SCHEMA,
        )
        assert res.bound == 10

    def test_join_on_undeclared_column_is_capped_and_noted(self):
        catalog, _ = shop_catalog()
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM orders AS a, orders AS b WHERE a.total = b.total",
            SHOP_SCHEMA,
        )
        assert res.bound == 10
        assert any("not a declared join column" in n for n in res.notes)

    def test_undeclared_join_counts_rows_whose_join_column_is_null(self):
        # the cap on x's profile must count the two rows whose declared
        # join column is null: all three rows share x, so 9 pairs join
        rel = Relation(
            "r", [Column("j", "numeric"), Column("x", "numeric")],
            {"j": np.array([1.0, np.nan, np.nan]), "x": np.ones(3)}, 3,
        )
        catalog = build_catalog({"r": rel}, {"r": ColumnRole(("j",), ())}, params=EXACT)
        res = bound(
            catalog,
            "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.x = b.x",
            {"r": {"j": "numeric", "x": "numeric"}},
        )
        assert res.bound == 9

    def test_fused_multi_column_join(self):
        catalog, rels, schema = pair_catalog()
        res = bound(catalog, PAIR_SQL, schema)
        assert "fused parallel join edges into multi-column variables" in res.notes
        assert res.strategy == "acyclic"
        # lower envelope of the two column profiles squares to 4 + 1
        assert res.bound == 5
        assert res.bound >= true_cardinality(rels, parse_query(PAIR_SQL, schema))

    def test_cyclic_query_takes_best_spanning_tree(self):
        cols = {"u": np.array([1.0, 2.0]), "v": np.array([1.0, 2.0])}
        rels = {
            n: Relation(n, [Column("u", "numeric"), Column("v", "numeric")], dict(cols), 2)
            for n in ("e1", "e2", "e3")
        }
        catalog = build_catalog(
            rels, {n: ColumnRole(("u", "v"), ()) for n in rels}, params=EXACT
        )
        schema = {n: {"u": "numeric", "v": "numeric"} for n in rels}
        sql = (
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u"
        )
        res = bound(catalog, sql, schema)
        assert res.strategy == "min-over-3-spanning-trees"
        assert len([n for n in res.notes if n.startswith("spanning tree")]) == 3
        assert res.bound == 2
        assert res.bound >= true_cardinality(rels, parse_query(sql, schema))

    def test_cross_product_rejected(self):
        catalog, _ = shop_catalog()
        with pytest.raises(UnsupportedQueryError, match="cross product"):
            bound(catalog, "SELECT COUNT(*) FROM orders AS o, customers AS c", SHOP_SCHEMA)

    def test_catalog_drift_rejected(self):
        catalog, _ = shop_catalog()
        ghost_schema = {"ghost": {"x": "numeric"}, **SHOP_SCHEMA}
        with pytest.raises(UnsupportedQueryError, match="no statistics"):
            bound(catalog, "SELECT COUNT(*) FROM ghost WHERE ghost.x = 1", ghost_schema)
        drifted = {"orders": {**SHOP_SCHEMA["orders"], "ghost": "numeric"},
                   "customers": SHOP_SCHEMA["customers"]}
        with pytest.raises(UnsupportedQueryError, match="has no column"):
            bound(catalog, "SELECT COUNT(*) FROM orders WHERE orders.ghost = 1", drifted)
        # a Query built without the parser is held to its alias rules: a
        # repeated alias, or a predicate on an alias no atom has
        rels = {
            "r": Relation("r", [Column("j", "numeric")], {"j": np.ones(50)}, 50),
            "s": Relation("s", [Column("j", "numeric")], {"j": np.array([1.0, 2.0, 3.0])}, 3),
        }
        catalog = build_catalog(rels, {n: ColumnRole(("j",), ()) for n in rels}, params=EXACT)
        on_j = (("v0", ("j",)),)
        for atoms in [(("a", "r"), ("a", "s")), (("a", "r"), ("a", "s"), ("b", "r"))]:
            query = Query(tuple(Atom(alias, rel, on_j) for alias, rel in atoms))
            with pytest.raises(UnsupportedQueryError, match="duplicate alias 'a'"):
                bound_query(catalog, query)
        query = Query((Atom("a", "r", on_j), Atom("b", "s", on_j)), {"c": Eq("j", 1.0)})
        with pytest.raises(UnsupportedQueryError, match="predicate on alias 'c'"):
            bound_query(catalog, query)


def counted(monkeypatch, name, *modules):
    """Wrap ``name`` where each module looks it up; returns the first
    argument of every call, in call order."""
    args = []
    for module in modules:
        original = getattr(module, name)

        def wrapper(first, *rest, _original=original, **kwargs):
            args.append(first)
            return _original(first, *rest, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return args


def ring_catalog(n, columns=("u", "v"), equal=False):
    """n relations e1..en over skewed join columns, and their schema; with
    ``equal`` every relation holds the same rows."""
    rng = np.random.default_rng(5)
    rels = {}
    cols = None
    for i in range(1, n + 1):
        if cols is None or not equal:
            cols = {c: rng.zipf(1.6, 40).clip(max=9).astype(float) for c in columns}
        rels["e%d" % i] = Relation(
            "e%d" % i, [Column(c, "numeric") for c in columns], dict(cols), 40
        )
    catalog = build_catalog(rels, {r: ColumnRole(columns, ()) for r in rels}, params=EXACT)
    return catalog, rels, {r: {c: "numeric" for c in columns} for r in rels}


def bound_per_tree(monkeypatch, catalog, query):
    """``bound_query`` with a fresh plan memo for every spanning tree, and
    the ``compose_ranks`` and ``pw_multiply`` calls it made."""
    unshared = seqbound.inference.plan_bound
    with monkeypatch.context() as patch:
        patch.setattr(
            seqbound.inference,
            "plan_bound",
            lambda plan, profiles, memo=None: unshared(plan, profiles),
        )
        composed = counted(patch, "compose_ranks", seqbound.inference)
        multiplied = counted(patch, "pw_multiply", seqbound.inference)
        return bound_query(catalog, query), len(composed), len(multiplied)


def flat(rate):
    """The one-segment profile with slope ``rate`` on (0, 1]."""
    return PiecewiseLinearFn((0.0, 1.0), (0.0, rate))


class TestWorkPerQuery:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id",
            # the dimension predicate is pushed onto the fact side
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.cust = c.id AND c.region = 'east'",
        ],
    )
    def test_acyclic_query_builds_one_join_graph(self, monkeypatch, sql):
        catalog, _ = shop_catalog()
        query = parse_query(sql, SHOP_SCHEMA)
        graphs = counted(monkeypatch, "join_graph", seqbound.inference, seqbound.query)
        assert bound_query(catalog, query).strategy == "acyclic"
        assert len(graphs) == 1

    def test_lone_relation_builds_no_join_graph(self, monkeypatch):
        catalog, _ = shop_catalog()
        query = parse_query("SELECT COUNT(*) FROM orders AS o WHERE o.status = 'open'", SHOP_SCHEMA)
        graphs = counted(monkeypatch, "join_graph", seqbound.inference, seqbound.query)
        res = bound_query(catalog, query)
        assert (res.strategy, res.bound, res.steps) == ("single-relation", 6, ())
        assert graphs == []

    def test_fused_query_builds_one_join_graph(self, monkeypatch):
        catalog, _, schema = pair_catalog()
        query = parse_query(PAIR_SQL, schema)
        graphs = counted(monkeypatch, "join_graph", seqbound.inference, seqbound.query)
        res = bound_query(catalog, query)
        assert "fused parallel join edges into multi-column variables" in res.notes
        assert len(graphs) == 1

    def test_cycle_builds_one_join_graph(self, monkeypatch):
        catalog, rels, schema = ring_catalog(5)
        query = parse_query(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c, e4 AS d, e5 AS e"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = d.u AND d.v = e.u AND e.v = a.u",
            schema,
        )
        # each tree planned from a join graph rebuilt from its atoms, with a
        # fresh plan memo
        planned, unshared = seqbound.inference.decompose, seqbound.inference.plan_bound
        with monkeypatch.context() as patch:
            patch.setattr(
                seqbound.inference,
                "decompose",
                lambda tree: planned(seqbound.query.join_graph(Query(tree.atoms))),
            )
            patch.setattr(
                seqbound.inference,
                "plan_bound",
                lambda plan, profiles, memo=None: unshared(plan, profiles),
            )
            per_tree_graphs = counted(patch, "join_graph", seqbound.inference, seqbound.query)
            want = bound_query(catalog, query)
        graphs = counted(monkeypatch, "join_graph", seqbound.inference, seqbound.query)
        got = bound_query(catalog, query)
        assert got == want
        assert got.value.hex() == want.value.hex()
        assert got.strategy == "min-over-5-spanning-trees"
        assert got.bound >= true_cardinality(rels, query)
        assert (len(graphs), len(per_tree_graphs)) == (1, 6)

    def test_cycle_derives_each_profile_once(self, monkeypatch):
        catalog, rels, schema = ring_catalog(5)
        query = parse_query(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c, e4 AS d, e5 AS e"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = d.u AND d.v = e.u AND e.v = a.u",
            schema,
        )
        unshared = seqbound.inference.plan_bound
        with monkeypatch.context() as patch:
            patch.setattr(
                seqbound.inference,
                "plan_bound",
                lambda plan, profiles, derivatives=None: unshared(plan, profiles),
            )
            derived_per_tree = counted(patch, "discrete_derivative", seqbound.inference)
            want = bound_query(catalog, query)
        derived = counted(monkeypatch, "discrete_derivative", seqbound.inference)
        got = bound_query(catalog, query)
        assert got == want
        assert got.strategy == "min-over-5-spanning-trees"
        assert got.bound >= true_cardinality(rels, query)
        assert len({id(fn) for fn in derived}) == len(derived)
        assert len(derived) < len(derived_per_tree)

    @pytest.mark.parametrize(
        "n, sql, per_tree, shared",
        [
            # a 5-ring: every spanning tree plans steps over equal profiles
            (
                5,
                "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c, e4 AS d, e5 AS e"
                " WHERE a.v = b.u AND b.v = c.u AND c.v = d.u AND d.v = e.u AND e.v = a.u",
                (15, 20),
                (5, 8),
            ),
            # a triangle whose variable u spans all three aliases
            (
                3,
                "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
                " WHERE a.u = b.u AND b.u = c.u AND a.v = c.v",
                (2, 10),
                (1, 4),
            ),
        ],
    )
    def test_spanning_trees_share_equal_plan_steps(self, monkeypatch, n, sql, per_tree, shared):
        catalog, rels, schema = ring_catalog(n, equal=True)
        query = parse_query(sql, schema)
        want, *calls_per_tree = bound_per_tree(monkeypatch, catalog, query)
        composed = counted(monkeypatch, "compose_ranks", seqbound.inference)
        multiplied = counted(monkeypatch, "pw_multiply", seqbound.inference)
        got = bound_query(catalog, query)
        assert got == want
        assert got.value.hex() == want.value.hex()
        assert got.strategy == "min-over-5-spanning-trees"
        assert got.bound >= true_cardinality(rels, query)
        # the (compose_ranks, pw_multiply) call counts, with and without sharing
        assert tuple(calls_per_tree) == per_tree
        assert (len(composed), len(multiplied)) == shared

    def test_join_step_key_holds_the_child_column_profiles(self):
        # the same anchor and child result, reached through two different
        # child columns of equal mass
        plan = BoundPlan((JoinStep("s1", "r", "x", (("y", "s/y"),)),), "s1", ())
        base = {
            ("r", "x"): PiecewiseLinearFn((0, 1, 3), (0, 4, 6)),
            ("s", "y"): PiecewiseLinearFn((0, 1, 2), (0, 3, 3.5)),
        }
        steep = {**base, ("r", "y"): PiecewiseLinearFn((0, 1, 4), (0, 3, 6))}
        gentle = {**base, ("r", "y"): PiecewiseLinearFn((0, 2, 4), (0, 5, 6))}
        memo: dict = {}
        assert plan_bound(plan, steep, memo) == plan_bound(plan, steep)
        got = plan_bound(plan, gentle, memo)
        assert got == plan_bound(plan, gentle)
        assert got[0] != plan_bound(plan, steep)[0]

    def test_merge_step_key_keeps_input_order(self):
        # (0.1 * 0.2) * 0.3 and (0.1 * 0.3) * 0.2 differ in the last bit
        profiles = {("x", "v"): flat(0.1), ("y", "v"): flat(0.2), ("z", "v"): flat(0.3)}
        xyz = BoundPlan((MergeStep("s1", "v", ("x/v", "y/v", "z/v")),), "s1", ())
        xzy = BoundPlan((MergeStep("s1", "v", ("x/v", "z/v", "y/v")),), "s1", ())
        memo: dict = {}
        first = plan_bound(xyz, profiles, memo)
        assert first == plan_bound(xyz, profiles)
        got = plan_bound(xzy, profiles, memo)
        assert got == plan_bound(xzy, profiles)
        assert got[0].hex() != first[0].hex()

    def test_fused_variable_takes_one_pw_min_per_alias(self, monkeypatch):
        # a.(u, v) = b.(u, v) fuses into one two-column variable on a 3-cycle
        catalog, rels, schema = ring_catalog(3, ("u", "v", "w"))
        query = parse_query(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.u = b.u AND a.v = b.v AND b.w = c.u AND c.v = a.w",
            schema,
        )
        merged = counted(monkeypatch, "pw_min", seqbound.inference)
        got = bound_query(catalog, query)
        assert got.strategy == "min-over-3-spanning-trees"
        assert "fused parallel join edges into multi-column variables" in got.notes
        assert got.bound >= true_cardinality(rels, query)
        assert len(merged) == 2

    def test_cycle_formats_the_kept_tree_only(self, monkeypatch):
        catalog, _, schema = ring_catalog(5)
        query = parse_query(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c, e4 AS d, e5 AS e"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = d.u AND d.v = e.u AND e.v = a.u",
            schema,
        )
        formatted = counted(monkeypatch, "_trace_line", seqbound.inference)
        got = bound_query(catalog, query)
        assert got.strategy == "min-over-5-spanning-trees"
        assert len(formatted) == len(got.steps) == 4


class TestMonotonicity:
    def test_adding_a_conjunct_never_raises_the_bound(self):
        catalog, _ = shop_catalog()
        base = bound(
            catalog,
            "SELECT COUNT(*) FROM orders WHERE orders.status = 'open'",
            SHOP_SCHEMA,
        )
        narrowed = bound(
            catalog,
            "SELECT COUNT(*) FROM orders"
            " WHERE orders.status = 'open' AND orders.total <= 20",
            SHOP_SCHEMA,
        )
        unfiltered = bound(catalog, "SELECT COUNT(*) FROM orders", SHOP_SCHEMA)
        assert narrowed.value <= base.value <= unfiltered.value

    def test_inflating_the_catalog_never_lowers_the_bound(self):
        catalog, _ = shop_catalog()
        sql = (
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.cust = c.id AND c.region = 'east'"
        )
        base = bound(catalog, sql, SHOP_SCHEMA).value
        assert bound(corrupt_catalog(catalog, 2.0), sql, SHOP_SCHEMA).value >= base
        assert bound(corrupt_catalog(catalog, 0.5), sql, SHOP_SCHEMA).value <= base


class TestSoundnessRegressions:
    def test_bloom_false_positive_falls_to_the_default(self):
        # 30 tracked values of 100 rows, one row on each key 1..100, and
        # 3000 untracked values of 5 rows, all on key 0, which 1000 rows of
        # the other relation join.  Every tail value must get the default
        # profile, never the flat representative of the tracked values.
        tracked_f = np.repeat(np.arange(1.0, 31.0), 100)
        tracked_j = np.tile(np.arange(1.0, 101.0), 30)
        tail = np.arange(1001.0, 4001.0)
        f = np.concatenate([tracked_f, np.repeat(tail, 5)])
        j = np.concatenate([tracked_j, np.zeros(tail.size * 5)])
        a = Relation("a", [Column("j", "numeric"), Column("f", "numeric")], {"j": j, "f": f}, f.size)
        b = Relation("b", [Column("j", "numeric")], {"j": np.zeros(1000)}, 1000)
        catalog = build_catalog(
            {"a": a, "b": b},
            {"a": ColumnRole(("j",), ("f",)), "b": ColumnRole(("j",), ())},
            params=BuildParams(mcv_size=30),
        )
        schema = {"a": {"j": "numeric", "f": "numeric"}, "b": {"j": "numeric"}}
        low = [
            v
            for v in tail
            if bound(
                catalog,
                "SELECT COUNT(*) FROM a, b WHERE a.j = b.j AND a.f = %d" % v,
                schema,
            ).bound
            < 5000
        ]
        assert low == []

    def test_like_default_covers_rows_with_a_tracked_gram(self):
        # 'aaaxyz' shares the tracked gram 'aaa' with 'aaabbb', but its
        # untracked gram 'xyz' still matches, so the default must count it
        text = ["aaaxyz"] * 30 + ["aaabbb"] * 500
        r = Relation(
            "r", [Column("j", "numeric"), Column("s", "text")],
            {"j": np.ones(len(text)), "s": text}, len(text),
        )
        catalog = build_catalog(
            {"r": r}, {"r": ColumnRole(("j",), ("s",))}, params=BuildParams(mcv_size=4)
        )
        schema = {"r": {"j": "numeric", "s": "text"}}
        for sql, true in (
            ("SELECT COUNT(*) FROM r WHERE r.s LIKE '%xyz%'", 30),
            ("SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j"
             " AND a.s LIKE '%xyz%' AND b.s LIKE '%xyz%'", 900),
            ("SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j AND a.s LIKE '%xyz%'", 15900),
        ):
            assert bound(catalog, sql, schema).bound >= true, sql

    def test_like_mixing_tracked_and_untracked_grams_takes_both(self):
        # 'aaa' is tracked and holds all 530 rows, but the pattern's
        # untracked grams hold only the 30 'aaaxyz' rows; a matching row
        # holds every gram, so their default tightens the tracked profile
        text = ["aaaxyz"] * 30 + ["aaabbb"] * 500
        j = np.arange(len(text)) % 7.0
        r = Relation(
            "r", [Column("j", "numeric"), Column("s", "text")], {"j": j, "s": text}, len(text)
        )
        catalog = build_catalog(
            {"r": r}, {"r": ColumnRole(("j",), ("s",))},
            params=BuildParams(mcv_size=4, compression_budget=1e-9),
        )
        stats = catalog.relations["r"].like[("j", "s")]
        assert "aaa" in stats.keys and "xyz" not in stats.keys
        tracked = stats.representatives[stats.keys["aaa"]]
        got = condition_sequence(catalog, "r", "j", Like("s", "%aaaxyz%"))
        assert got.total < tracked.total
        upto = int(np.ceil(max(got.end, tracked.end)))
        assert np.all(sample_integer_ranks(got, upto) <= sample_integer_ranks(tracked, upto))
        exact = exact_profile(j[:30])
        assert np.all(sample_integer_ranks(got, 7) >= sample_integer_ranks(exact, 7) - 1e-9)

    def test_negative_zero_rows_answer_a_zero_literal(self):
        # -0.0 and 0.0 are one tracked value; the literal 0 must find it
        f = np.array([-0.0] * 5 + [1.0] * 3)
        r = Relation(
            "r", [Column("j", "numeric"), Column("f", "numeric")],
            {"j": np.arange(8.0), "f": f}, f.size,
        )
        catalog = build_catalog({"r": r}, {"r": ColumnRole(("j",), ("f",))}, params=BuildParams())
        schema = {"r": {"j": "numeric", "f": "numeric"}}
        assert bound(catalog, "SELECT COUNT(*) FROM r WHERE r.f = 0", schema).bound >= 5

    def test_negative_literals_bound_negative_filter_values(self, monkeypatch):
        # equality, range and IN over negative filter values, on the MCV
        # path (default mcv_size) and the tail path (mcv_size=2), with
        # ranges resolved by histogram buckets and by the root
        f = np.array([-10.0, -10.0, -7.5, -3.0, -3.0, -3.0, -1.0, 2.0, 4.0, -3.0])
        j = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 1.0, 4.0, 1.0])
        r = Relation("r", [Column("j", "numeric"), Column("f", "numeric")], {"j": j, "f": f}, f.size)
        schema = {"r": {"j": "numeric", "f": "numeric"}}
        lookup = seqbound.inference.lookup_range_group
        paths = []

        def recorded(stats, *args):
            fn = lookup(stats, *args)
            paths.append("root" if fn is stats.default else "bucket")
            return fn

        monkeypatch.setattr(seqbound.inference, "lookup_range_group", recorded)
        for params in (BuildParams(), BuildParams(mcv_size=2)):
            paths.clear()
            catalog = build_catalog({"r": r}, {"r": ColumnRole(("j",), ("f",))}, params=params)
            for where in (
                "a.f = -3",
                "a.f = -7.5",
                "a.f < -2",
                "a.f >= -3 AND a.f <= -1",
                "a.f BETWEEN -10 AND -7.5",
                "-5 > a.f",
                "a.f IN (-10, -1)",
                "a.f > -1e1",
            ):
                for sql in (
                    "SELECT COUNT(*) FROM r AS a WHERE " + where,
                    "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j AND " + where,
                ):
                    query = parse_query(sql, schema)
                    true = true_cardinality({"r": r}, query)
                    assert true > 0, sql
                    assert bound_query(catalog, query).bound >= true, sql
            assert {"bucket", "root"} <= set(paths)

    def test_infinite_literals_bound_their_rows(self):
        # 1e999 parses as inf: a range up to it and an equality on -inf,
        # over a column holding both infinities, on the MCV path (default
        # mcv_size) and the tail path (mcv_size=1)
        f = np.array([-np.inf, -np.inf, 1.0, 1.0, 1.0, 2.0, np.inf, np.inf, np.nan])
        j = np.array([1.0, 2.0, 1.0, 1.0, 3.0, 3.0, 2.0, 1.0, 1.0])
        r = Relation("r", [Column("j", "numeric"), Column("f", "numeric")], {"j": j, "f": f}, f.size)
        schema = {"r": {"j": "numeric", "f": "numeric"}}
        for params in (BuildParams(), BuildParams(mcv_size=1)):
            catalog = build_catalog({"r": r}, {"r": ColumnRole(("j",), ("f",))}, params=params)
            for where in ("a.f < 1e999", "a.f = -1e999"):
                for sql in (
                    "SELECT COUNT(*) FROM r AS a WHERE " + where,
                    "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j AND " + where,
                ):
                    query = parse_query(sql, schema)
                    true = true_cardinality({"r": r}, query)
                    assert true > 0, sql
                    assert bound_query(catalog, query).bound >= true, sql


@st.composite
def undeclared_join_cases(draw):
    """A relation whose declared join columns hold nulls, and a self-join
    on its undeclared column x, with or without a predicate."""
    n = draw(st.integers(1, 12))

    def column(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    data = {c: column([1.0, 2.0, np.nan]) for c in ("j", "k", "x")}
    data["f"] = column([0.0, 1.0, 2.0])
    join_columns = draw(st.sampled_from([("j",), ("j", "k")]))
    where = draw(st.sampled_from(["", " AND a.f = 1", " AND a.f < 2", " AND b.f >= 1"]))
    return data, join_columns, "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.x = b.x" + where


class TestUndeclaredJoinSoundness:
    @settings(max_examples=150, deadline=None)
    @given(undeclared_join_cases())
    def test_join_on_an_undeclared_column_is_bounded(self, case):
        data, join_columns, sql = case
        columns = [Column(c, "numeric") for c in data]
        r = Relation("r", columns, data, data["f"].size)
        roles = {"r": ColumnRole(join_columns, ("f",))}
        catalog = build_catalog({"r": r}, roles, params=BuildParams())
        query = parse_query(sql, {"r": dict.fromkeys(data, "numeric")})
        assert bound_query(catalog, query).bound >= true_cardinality({"r": r}, query)


@st.composite
def like_cases(draw):
    """Rows drawn from a few texts over a few letters (with nulls and a
    character whose lower case is longer), a join column with nulls, an
    mcv budget, and patterns cut from those texts or drawn at random."""
    letters = "abcAİ"
    pool = draw(st.lists(st.text(letters, max_size=9), min_size=1, max_size=6))
    n = draw(st.integers(1, 40))
    texts = draw(st.lists(st.none() | st.sampled_from(pool), min_size=n, max_size=n))
    j = np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, np.nan]),
                               min_size=n, max_size=n)))
    mcv_size = draw(st.sampled_from([0, 1, 2, 4, 8]))
    cores = draw(st.lists(st.text(letters, min_size=3, max_size=6), max_size=2))
    for text in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        lo = draw(st.integers(0, len(text)))
        cores.append(text[lo : draw(st.integers(lo, len(text)))])
    forms = ("%{}%", "{}%", "%{}", "{}")
    patterns = [draw(st.sampled_from(forms)).format(core) for core in cores]
    return texts, j, mcv_size, patterns


class TestLikeSoundness:
    @settings(max_examples=200, deadline=None)
    @given(like_cases())
    def test_resolved_like_profiles_dominate_the_matching_rows(self, case):
        texts, j, mcv_size, patterns = case
        r = Relation(
            "r", [Column("j", "numeric"), Column("s", "text")], {"j": j, "s": texts}, len(texts)
        )
        catalog = build_catalog(
            {"r": r}, {"r": ColumnRole(("j",), ("s",))}, params=BuildParams(mcv_size=mcv_size)
        )
        for pattern in patterns:
            got = condition_sequence(catalog, "r", "j", Like("s", pattern))
            matching = np.array([like_matches(t, pattern) for t in texts], dtype=bool)
            exact = exact_profile(j[matching])
            upto = int(np.ceil(max(got.end, exact.end)))
            assert np.all(
                sample_integer_ranks(got, upto) >= sample_integer_ranks(exact, upto) - 1e-9
            ), pattern
