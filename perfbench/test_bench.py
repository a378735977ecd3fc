"""Checks of the benchmark itself: the independent counter against nested
loops, a negative control for the soundness check, and the metric lists
against BENCHMARK.json.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench_data  # noqa: E402
import run  # noqa: E402
from bench_data import BenchQuery, Dataset, Table, ladder_chain_count, ladder_dataset  # noqa: E402
from bench_queries import star_queries  # noqa: E402
from bench_truth import true_count  # noqa: E402


def holds(p: tuple | None, get) -> bool:
    """Row-at-a-time predicate evaluation, written apart from the counter."""
    if p is None:
        return True
    kind = p[0]
    if kind == "eq":
        return get(p[1]) == p[2]
    if kind == "in":
        return get(p[1]) in p[2]
    if kind == "range":
        _, col, lo, hi, lo_incl, hi_incl = p
        v = get(col)
        return (lo is None or v > lo or (lo_incl and v == lo)) and (
            hi is None or v < hi or (hi_incl and v == hi)
        )
    if kind == "like":
        return p[2].lower() in get(p[1]).lower()
    if kind == "and":
        return all(holds(c, get) for c in p[1])
    return any(holds(c, get) for c in p[1])


def nested_loop_count(ds: Dataset, q: BenchQuery) -> int:
    rel_of = dict(q.atoms)
    aliases = [a for a, _ in q.atoms]
    tables = [ds.tables[rel_of[a]] for a in aliases]
    total = 0
    for rows in itertools.product(*(range(t.n_rows) for t in tables)):
        row_of = dict(zip(aliases, rows))

        def value(alias, col):
            return ds.tables[rel_of[alias]].columns[col][row_of[alias]]

        if all(value(*a) == value(*b) for a, b in q.joins) and all(
            holds(q.preds.get(a), lambda c, a=a: value(a, c)) for a in aliases
        ):
            total += 1
    return total


def tiny_star(rng: np.random.Generator) -> Dataset:
    words = np.array(["Apple pie", "apple", "PIEcrust", "banana", "nap", "Bandana"], dtype=object)
    sales = Table(
        "sales",
        {
            "cust": rng.integers(1, 5, size=9).astype(np.float64),
            "prod": rng.integers(1, 4, size=9).astype(np.float64),
            "amount": rng.integers(1, 6, size=9).astype(np.float64),
            "note": words[rng.integers(0, words.size, size=9)],
        },
        ("cust", "prod"),
        ("amount", "note"),
    )
    customer = Table(
        "customer",
        {"id": np.arange(1.0, 5.0), "region": words[rng.integers(0, 3, size=4)]},
        ("id",),
        ("region",),
    )
    product = Table(
        "product",
        {"id": np.arange(1.0, 4.0), "price": rng.integers(1, 9, size=3).astype(np.float64)},
        ("id",),
        ("price",),
    )
    return Dataset(
        {"sales": sales, "customer": customer, "product": product},
        (("sales", "cust", "customer", "id"), ("sales", "prod", "product", "id")),
        {},
    )


def random_predicate(rng: np.random.Generator, rel: str, depth: int = 0) -> tuple:
    leaves = {
        "sales": [
            lambda: ("eq", "amount", float(rng.integers(1, 6))),
            lambda: ("in", "amount", (1.0, float(rng.integers(2, 6)))),
            lambda: ("range", "amount", float(rng.integers(1, 4)), None, bool(rng.integers(2)), True),
            lambda: ("range", "amount", None, float(rng.integers(2, 6)), True, bool(rng.integers(2))),
            lambda: ("like", "note", ["pie", "APP", "an", "nap", "zz"][int(rng.integers(5))]),
        ],
        "customer": [
            lambda: ("eq", "region", "apple"),
            lambda: ("like", "region", "ppl"),
        ],
        "product": [lambda: ("range", "price", 2.0, float(rng.integers(3, 9)), True, True)],
    }[rel]
    if depth == 0 and rng.random() < 0.4:
        kind = "and" if rng.random() < 0.5 else "or"
        return (kind, (random_predicate(rng, rel, 1), random_predicate(rng, rel, 1)))
    return leaves[int(rng.integers(len(leaves)))]()


STAR_SHAPES = (
    "fact", "dim", "fact-dim", "fact-fact", "star3", "fact-fact-dim", "star4", "fact-cycle",
)


@pytest.mark.parametrize("seed", range(6))
def test_counter_matches_nested_loops_on_star_shapes(seed):
    from bench_queries import _star_shape

    rng = np.random.default_rng(seed)
    ds = tiny_star(rng)
    for shape in STAR_SHAPES:
        atoms, joins = _star_shape(shape, int(rng.integers(2)))
        preds = {a: random_predicate(rng, rel) for a, rel in atoms if rng.random() < 0.7}
        q = BenchQuery(shape, atoms, joins, preds)
        assert true_count(ds, q) == nested_loop_count(ds, q), q.sql()


@pytest.mark.parametrize("seed", range(4))
def test_counter_matches_nested_loops_on_cycles_and_fused_joins(seed):
    rng = np.random.default_rng(100 + seed)
    tables = {
        "r%d" % i: Table(
            "r%d" % i,
            {
                "ja": rng.integers(1, 4, size=5).astype(np.float64),
                "jb": rng.integers(1, 4, size=5).astype(np.float64),
                "tag": rng.integers(1, 4, size=5).astype(np.float64),
            },
            ("ja", "jb"),
            ("tag",),
        )
        for i in range(4)
    }
    ds = Dataset(tables, (), {})
    for k in (2, 3, 4):
        atoms = tuple(("t%d" % i, "r%d" % i) for i in range(k))
        cycle = tuple((("t%d" % i, "jb"), ("t%d" % ((i + 1) % k), "ja")) for i in range(k))
        chain = cycle[:-1]
        for joins in (cycle, chain):
            preds = {"t0": ("in", "tag", (1.0, 2.0))} if rng.random() < 0.5 else {}
            q = BenchQuery("t", atoms, joins, preds)
            assert true_count(ds, q) == nested_loop_count(ds, q), q.sql()
    fused = BenchQuery(
        "fused", (("t0", "r0"), ("t1", "r1")),
        ((("t0", "ja"), ("t1", "ja")), (("t0", "jb"), ("t1", "jb"))),
    )
    assert true_count(ds, fused) == nested_loop_count(ds, fused)


def test_worst_case_ladder_chains_have_the_closed_form_count():
    ds = ladder_dataset(5)
    for k in (2, 4, 6):
        atoms = tuple(("t%d" % i, "w%d" % i) for i in range(k))
        joins = tuple((("t%d" % i, "jb"), ("t%d" % (i + 1), "ja")) for i in range(k - 1))
        assert true_count(ds, BenchQuery("chain", atoms, joins)) == ladder_chain_count(k)


def test_halved_profiles_make_the_soundness_check_fail(monkeypatch):
    """Negative control: with every stored profile halved, bounds fall below
    the true counts and the check reports failed operations."""
    api = run.import_program()
    from seqbound.oracle import corrupt_catalog

    monkeypatch.setitem(bench_data.STAR_SIZES, "star-estimate", (3000, 200, 80, {"mcv_size": 32}))
    ds = bench_data.star_dataset(3, "star-estimate")
    queries = star_queries(ds, scale=0.2)
    sqls = [q.sql() for q in queries]
    truths = [true_count(ds, q) for q in queries]
    closed = [None] * len(queries)
    relations = {
        name: api.Relation(
            name,
            [api.Column(c, t.kind(c)) for c in t.columns],
            {c: (list(v) if v.dtype == object else v) for c, v in t.columns.items()},
            t.n_rows,
        )
        for name, t in ds.tables.items()
    }
    roles = {n: api.ColumnRole(t.join_columns, t.filter_columns) for n, t in ds.tables.items()}
    links = tuple(api.PkFkDeclaration(*link) for link in ds.pk_fk)
    catalog = api.build_catalog(relations, roles, links, api.BuildParams(**ds.params))

    _, failures = run.check_estimates(api, catalog, ds.schema(), sqls, truths, closed)
    assert failures == []
    _, failures = run.check_estimates(
        api, corrupt_catalog(catalog, 0.5), ds.schema(), sqls, truths, closed)
    assert any("below true count" in reason for _, reason in failures)


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_puts_the_program_back():
    api = run.import_program()
    import seqbound.inference as inference

    before = (api.bound_query, inference.pw_multiply, api.BuildParams)
    tracer = run.Tracer()
    tracer.install()
    assert api.bound_query is not before[0] and inference.pw_multiply is not before[1]
    tracer.uninstall()
    assert (api.bound_query, inference.pw_multiply, api.BuildParams) == before
    assert tracer.missing == []
