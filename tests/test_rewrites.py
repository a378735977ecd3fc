"""Bounds do not depend on how a query is written.

Every ``star-estimate`` and ``deep-estimate`` query of perfbench at seed 1
(star joins with every predicate kind, chains, cycles and fused two-column
joins) is bounded as generated and rewritten five ways.  Reordering FROM
or WHERE, swapping the sides of each join and shuffling both lists must
keep ``value`` bit for bit; renaming aliases must keep ``bound``.  The
generators are imported from ``perfbench/`` and never modified.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from bench_data import _render, ladder_dataset, star_dataset  # noqa: E402
from bench_queries import deep_queries, star_queries  # noqa: E402

from seqbound import bound_query, build_catalog, load_workspace, make_build_params, parse_query  # noqa: E402


def sql_of(atoms, joins, preds, order=None) -> str:
    """The query's SQL with FROM in the order of ``atoms`` and WHERE in
    ``order`` (a permutation of the joins, then the predicates), each join
    written as given."""
    conds = ["%s.%s = %s.%s" % (a1, c1, a2, c2) for (a1, c1), (a2, c2) in joins]
    conds += [_render(preds[alias], alias) for alias, _ in atoms if alias in preds]
    if order is not None:
        conds = [conds[i] for i in order]
    tables = ", ".join("%s AS %s" % (rel, alias) for alias, rel in atoms)
    return "SELECT COUNT(*) FROM " + tables + (" WHERE " + " AND ".join(conds) if conds else "")


def rewrites(q, rng: random.Random) -> dict[str, str]:
    atoms, joins, preds = q.atoms, q.joins, q.preds
    n_conds = len(joins) + len(preds)
    shuffled = list(atoms)
    rng.shuffle(shuffled)
    order = list(range(n_conds))
    rng.shuffle(order)
    names = {alias: "q%d" % i for i, (alias, _) in enumerate(reversed(atoms))}
    return {
        "reverse-from": sql_of(atoms[::-1], joins, preds),
        "reverse-where": sql_of(atoms, joins, preds, order=range(n_conds - 1, -1, -1)),
        "swap-join-sides": sql_of(atoms, [(r, l) for l, r in joins], preds),
        "shuffle": sql_of(shuffled, joins, preds, order=order),
        "rename-aliases": sql_of(
            [(names[a], rel) for a, rel in atoms],
            [((names[a1], c1), (names[a2], c2)) for (a1, c1), (a2, c2) in joins],
            {names[a]: p for a, p in preds.items()},
        ),
    }


@pytest.fixture(scope="module", params=["star-estimate", "deep-estimate"])
def workload(request, tmp_path_factory):
    ds = star_dataset(1, request.param) if request.param == "star-estimate" else ladder_dataset(1)
    queries = star_queries(ds) if request.param == "star-estimate" else deep_queries(ds)
    ws = load_workspace(ds.write(str(tmp_path_factory.mktemp(request.param))))
    catalog = build_catalog(ws.relations, ws.roles, ws.pkfk, make_build_params(ws.params))
    return catalog, ds.schema(), queries


def test_rewritten_queries_keep_their_bounds(workload):
    catalog, schema, queries = workload
    rng = random.Random(1)
    strategies = set()
    for q in queries:
        base_sql = q.sql()
        assert sql_of(q.atoms, q.joins, q.preds) == base_sql
        base = bound_query(catalog, parse_query(base_sql, schema))
        strategies.add(base.strategy)
        for name, sql in rewrites(q, rng).items():
            got = bound_query(catalog, parse_query(sql, schema))
            if name == "rename-aliases":
                assert got.bound == base.bound, (name, base_sql, sql)
            else:
                assert got.value.hex() == base.value.hex(), (name, base_sql, sql)
    # cyclic queries are among them (star's fact-cycle, deep's cycle-k), and
    # deep-estimate's list holds fused joins
    assert any(s.startswith("min-over-") for s in strategies)
    assert "fused" in {q.shape for q in queries} or "fact-cycle" in {q.shape for q in queries}
