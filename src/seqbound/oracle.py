"""Ground truth and randomized verification.

This module evaluates COUNT(*) queries exactly by brute force, and drives
randomized soundness campaigns comparing the engine's bound against the
exact count on generated schemas and queries.
"""

from __future__ import annotations

import math
import random
import string
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

from .inference import bound_query
from .pwfn import PiecewiseLinearFn
from .query import (
    Query,
    UnsupportedQueryError,
    _format_literal,
    join_graph,
    parse_query,
    predicate_matches,
)
from .relation import Column, ColumnRole, PkFkDeclaration, Relation
from .stats import (
    FAMILIES,
    BuildParams,
    FilterStats,
    StatisticsCatalog,
    build_catalog,
)

__all__ = [
    "OracleCapExceeded",
    "true_cardinality",
    "generate_database",
    "generate_query",
    "verify_bound",
    "run_soundness_suite",
    "summarize",
    "corrupt_catalog",
]


class OracleCapExceeded(RuntimeError):
    """Brute-force evaluation exceeded its operation budget."""


# ----------------------------------------------------------- brute force

def _row_getter(rel: Relation, row: int):
    def get(col: str):
        data = rel.data[col]
        if isinstance(data, np.ndarray):
            v = data[row]
            return None if np.isnan(v) else float(v)
        return data[row]

    return get


def true_cardinality(
    relations: dict[str, Relation], query: Query, ops_limit: int = 5_000_000
) -> int:
    """Exact COUNT(*) of the query, by filtered hash joins over the data.

    Intermediate work is capped at ``ops_limit`` elementary join
    operations; exceeding it raises :class:`OracleCapExceeded`.
    """
    join_vars = join_graph(query).variables
    atom_tuples: dict[str, Counter] = {}
    atom_vars: dict[str, tuple[str, ...]] = {}
    for atom in query.atoms:
        rel = relations[atom.relation]
        vars_here = tuple(sorted(v for v in atom.variables() if v in join_vars))
        cols = {}
        for v in vars_here:
            vc = atom.columns_for(v)
            if len(vc) != 1:
                raise ValueError("brute force expects single-column variables")
            cols[v] = vc[0]
        pred = query.predicates.get(atom.alias)
        tuples: Counter = Counter()
        for row in range(rel.n_rows):
            get = _row_getter(rel, row)
            if pred is not None and not predicate_matches(pred, get):
                continue
            key = tuple(get(cols[v]) for v in vars_here)
            if any(k is None for k in key):
                continue
            tuples[key] += 1
        atom_tuples[atom.alias] = tuples
        atom_vars[atom.alias] = vars_here
    order: list[str] = []
    remaining = [a.alias for a in query.atoms]
    covered: set[str] = set()
    while remaining:
        pick = None
        for alias in remaining:
            if not order or covered & set(atom_vars[alias]):
                pick = alias
                break
        if pick is None:
            pick = remaining[0]
        order.append(pick)
        covered |= set(atom_vars[pick])
        remaining.remove(pick)
    state: dict[tuple, int] = {(): 1}
    live: tuple[str, ...] = ()
    ops = 0
    for idx, alias in enumerate(order):
        future: set[str] = set()
        for later in order[idx + 1 :]:
            future |= set(atom_vars[later])
        vars_here = atom_vars[alias]
        shared = tuple(v for v in live if v in vars_here)
        new_live = tuple(sorted((set(live) | set(vars_here)) & future))
        bucket: dict[tuple, list[tuple[tuple, int]]] = defaultdict(list)
        shared_idx = [vars_here.index(v) for v in shared]
        for t, c in atom_tuples[alias].items():
            bucket[tuple(t[i] for i in shared_idx)].append((t, c))
        live_pos = {v: i for i, v in enumerate(live)}
        here_pos = {v: i for i, v in enumerate(vars_here)}
        new_state: dict[tuple, int] = defaultdict(int)
        for key, count in state.items():
            sk = tuple(key[live_pos[v]] for v in shared)
            for t, c in bucket.get(sk, ()):
                ops += 1
                if ops > ops_limit:
                    raise OracleCapExceeded("join work exceeded %d operations" % ops_limit)
                nk = tuple(
                    key[live_pos[v]] if v in live_pos else t[here_pos[v]]
                    for v in new_live
                )
                new_state[nk] += count * c
        state = dict(new_state)
        live = new_live
        if not state:
            return 0
    return sum(state.values())


# ------------------------------------------------------------ generators

_LETTERS = string.ascii_lowercase[:8]


def _zipf_counts(rng: random.Random, n: int, distinct: int) -> list[int]:
    d = min(distinct, n)
    skew = rng.uniform(0.2, 1.4)
    weights = [1.0 / (k ** skew) for k in range(1, d + 1)]
    counts = [1] * d
    for pick in rng.choices(range(d), weights=weights, k=n - d):
        counts[pick] += 1
    return counts


def _zipf_column(rng: random.Random, n: int, distinct: int) -> list[float]:
    counts = _zipf_counts(rng, n, distinct)
    vals: list[float] = []
    for value, count in enumerate(counts, start=1):
        vals.extend([float(value)] * count)
    rng.shuffle(vals)
    return vals


def generate_database(
    rng: random.Random,
    two_join_cols: bool = False,
) -> tuple[dict[str, Relation], dict[str, ColumnRole], tuple[PkFkDeclaration, ...]]:
    """A small random star/snowflake-ish workspace for soundness trials."""
    n_rel = rng.randint(2, 4)
    relations: dict[str, Relation] = {}
    roles: dict[str, ColumnRole] = {}
    key_cols: list[tuple[str, str]] = []
    for i in range(n_rel):
        name = "r%d" % i
        n = rng.randint(10, 200)
        cols: list[Column] = []
        data: dict[str, object] = {}
        n_join = 2 if two_join_cols else rng.randint(1, 2)
        for j in range(n_join):
            cname = "j%d" % j
            if rng.random() < 0.2:
                perm = [float(v) for v in range(1, n + 1)]
                rng.shuffle(perm)
                data[cname] = np.asarray(perm)
                key_cols.append((name, cname))
            else:
                data[cname] = np.asarray(
                    _zipf_column(rng, n, rng.randint(2, min(40, n)))
                )
            cols.append(Column(cname, "numeric"))
        data["f0"] = np.asarray(_zipf_column(rng, n, rng.randint(2, 12)))
        cols.append(Column("f0", "numeric"))
        words = sorted(
            {"".join(rng.choice(_LETTERS) for _ in range(3)) for _ in range(rng.randint(3, 10))}
        )
        counts = _zipf_counts(rng, n, len(words))
        text: list[str | None] = []
        for w, c in zip(words, counts):
            text.extend([w] * c)
        text.extend([words[0]] * (n - len(text)))
        rng.shuffle(text)
        data["s0"] = text
        cols.append(Column("s0", "text"))
        relations[name] = Relation(name, cols, data, n)
        roles[name] = ColumnRole(
            tuple("j%d" % j for j in range(n_join)), ("f0", "s0")
        )
    pkfk: list[PkFkDeclaration] = []
    if key_cols and rng.random() < 0.4:
        dim, pk = rng.choice(key_cols)
        fact_candidates = [r for r in relations if r != dim]
        if fact_candidates:
            fact = rng.choice(fact_candidates)
            fk = roles[fact].join_columns[0]
            pk_vals = relations[dim].data[pk].tolist()
            n = relations[fact].n_rows
            weights = [1.0 / (k + 1) for k in range(len(pk_vals))]
            drawn = rng.choices(pk_vals, weights=weights, k=n)
            for i in range(n):
                if rng.random() < 0.1:
                    drawn[i] = float(max(pk_vals) + rng.randint(1, 5))
            relations[fact].data[fk] = np.asarray(drawn)
            pkfk.append(PkFkDeclaration(fact, fk, dim, pk))
    return relations, roles, tuple(pkfk)


def _schema_of(relations: dict[str, Relation]) -> dict[str, dict[str, str]]:
    return {
        name: {c.name: c.kind for c in rel.columns} for name, rel in relations.items()
    }


def _sample_numeric(rng: random.Random, rel: Relation, col: str) -> float:
    data = rel.data[col]
    vals = data[~np.isnan(data)]
    if vals.size and rng.random() < 0.8:
        return float(rng.choice(vals.tolist()))
    return float(np.nanmax(data) if vals.size else 0.0) + rng.randint(1, 5)


def _sample_text(rng: random.Random, rel: Relation, col: str) -> str:
    vals = [v for v in rel.data[col] if v is not None]
    if vals and rng.random() < 0.8:
        return rng.choice(vals)
    return "".join(rng.choice(_LETTERS) for _ in range(3))


def _predicate_sql(
    rng: random.Random, alias: str, rel: Relation, roles: ColumnRole
) -> str | None:
    candidates = list(dict.fromkeys(roles.filter_columns + roles.join_columns))
    if not candidates:
        return None
    col = rng.choice(candidates + list(roles.filter_columns))
    kind = rel.kind_of(col)
    ref = "%s.%s" % (alias, col)
    if kind == "text":
        choice = rng.random()
        if choice < 0.4:
            return "%s = %s" % (ref, _format_literal(_sample_text(rng, rel, col)))
        if choice < 0.7:
            word = _sample_text(rng, rel, col)
            if len(word) >= 3:
                start = rng.randrange(len(word) - 2)
                return "%s LIKE '%%%s%%'" % (ref, word[start : start + 3])
            return "%s = %s" % (ref, _format_literal(word))
        values = {_sample_text(rng, rel, col) for _ in range(rng.randint(2, 3))}
        return "%s IN (%s)" % (ref, ", ".join(sorted(_format_literal(v) for v in values)))
    choice = rng.random()
    if choice < 0.3:
        return "%s = %s" % (ref, _format_literal(_sample_numeric(rng, rel, col)))
    if choice < 0.5:
        a = _sample_numeric(rng, rel, col)
        b = _sample_numeric(rng, rel, col)
        lo, hi = _format_literal(min(a, b)), _format_literal(max(a, b))
        return "%s BETWEEN %s AND %s" % (ref, lo, hi)
    if choice < 0.7:
        op = rng.choice(("<", "<=", ">", ">="))
        return "%s %s %s" % (ref, op, _format_literal(_sample_numeric(rng, rel, col)))
    if choice < 0.85:
        values = {_sample_numeric(rng, rel, col) for _ in range(rng.randint(2, 3))}
        return "%s IN (%s)" % (ref, ", ".join(_format_literal(v) for v in sorted(values)))
    v1 = _sample_numeric(rng, rel, col)
    v2 = _sample_numeric(rng, rel, col)
    return "(%s = %s OR %s = %s)" % (ref, _format_literal(v1), ref, _format_literal(v2))


class GenerationImpossible(RuntimeError):
    pass


def generate_query(
    rng: random.Random,
    relations: dict[str, Relation],
    roles: dict[str, ColumnRole],
    shape: str = "acyclic",
    max_predicates: int = 4,
) -> tuple[str, Query]:
    """Random supported query of the requested join shape, as SQL + AST."""
    names = sorted(relations)
    # only relations with a join column can join; when every relation has
    # one, the draws are those of drawing from all of them
    joinable = [r for r in names if roles[r].join_columns]
    if shape != "acyclic" and not joinable:
        raise GenerationImpossible("no relation has a join column")
    schema = _schema_of(relations)
    for _ in range(40):
        if shape == "multicol":
            wide = [r for r in names if len(roles[r].join_columns) >= 2]
            if not wide:
                raise GenerationImpossible("no relation has two join columns")
            k = rng.choice((2, 2, 3))
            chosen = [rng.choice(wide), rng.choice(wide)]
            chosen += [rng.choice(joinable) for _ in range(k - 2)]
        else:
            k = rng.choice((1, 2, 2, 3, 3, 4)) if shape == "acyclic" else rng.choice((3, 3, 4))
            # with no join column anywhere, an acyclic query is one relation
            k = k if joinable else 1
            chosen = [rng.choice(names if k == 1 else joinable) for _ in range(k)]
        aliases = ["t%d" % i for i in range(len(chosen))]
        conds: list[str] = []
        start = 1
        if shape == "multicol":
            j1, j2 = roles[chosen[0]].join_columns[:2]
            k1, k2 = roles[chosen[1]].join_columns[:2]
            conds += ["t0.%s = t1.%s" % (j1, k1), "t0.%s = t1.%s" % (j2, k2)]
            start = 2
        for i in range(start, len(chosen)):
            p = rng.randrange(i)
            ci = rng.choice(roles[chosen[i]].join_columns)
            cp = rng.choice(roles[chosen[p]].join_columns)
            conds.append("t%d.%s = t%d.%s" % (p, cp, i, ci))
        if shape == "cyclic":
            a, b = 0, len(chosen) - 1
            ca = rng.choice(roles[chosen[a]].join_columns)
            cb = rng.choice(roles[chosen[b]].join_columns)
            conds.append("t%d.%s = t%d.%s" % (a, ca, b, cb))
        for _ in range(rng.randint(0, max_predicates)):
            i = rng.randrange(len(chosen))
            pred = _predicate_sql(rng, aliases[i], relations[chosen[i]], roles[chosen[i]])
            if pred:
                conds.append(pred)
        tables = ", ".join(
            "%s AS %s" % (rel, alias) for rel, alias in zip(chosen, aliases)
        )
        sql = "SELECT COUNT(*) FROM " + tables
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        try:
            query = parse_query(sql, schema)
        except UnsupportedQueryError:
            # e.g. a closing edge that transitively equates two columns of
            # one alias; such drawings are discarded and retried
            continue
        graph = join_graph(query)
        if shape == "cyclic" and graph.acyclic:
            continue
        if shape == "multicol" and not graph.multi_column_pairs:
            continue
        return sql, query
    raise GenerationImpossible("could not generate a %s query" % shape)


# --------------------------------------------------------------- harness

def verify_bound(
    catalog: StatisticsCatalog,
    relations: dict[str, Relation],
    query: Query,
    sql: str = "",
    shape: str = "",
) -> dict:
    t0 = time.perf_counter()
    result = bound_query(catalog, query)
    elapsed = (time.perf_counter() - t0) * 1000.0
    true = true_cardinality(relations, query)
    if true > 0:
        ratio = result.bound / true
    else:
        ratio = math.inf if result.bound > 0 else 1.0
    return {
        "sql": sql,
        "shape": shape,
        "bound": result.bound,
        "true": true,
        "ok": result.bound >= true,
        "ratio": ratio,
        "ms": elapsed,
        "strategy": result.strategy,
    }


def summarize(records: list[dict]) -> dict:
    ratios = sorted(r["ratio"] for r in records if math.isfinite(r["ratio"]))

    def quantile(q: float) -> float:
        if not ratios:
            return math.nan
        return ratios[min(len(ratios) - 1, int(q * len(ratios)))]

    return {
        "trials": len(records),
        "violations": sum(1 for r in records if not r["ok"]),
        "ratio_p50": quantile(0.50),
        "ratio_p90": quantile(0.90),
        "ratio_p99": quantile(0.99),
        "median_ms": sorted(r["ms"] for r in records)[len(records) // 2] if records else math.nan,
    }


def run_soundness_suite(
    n_acyclic: int = 500,
    n_cyclic: int = 50,
    n_multicol: int = 50,
    seed: int = 0,
    queries_per_db: int = 10,
    params: BuildParams | None = None,
    workspace: tuple[dict[str, Relation], dict[str, ColumnRole], tuple] | None = None,
    catalog_mutator=None,
) -> tuple[list[dict], dict]:
    """Randomized soundness campaign; returns per-trial records and a summary.

    ``catalog_mutator`` (catalog -> catalog) is applied to every catalog
    before use; it exists so negative controls can damage the statistics
    and confirm the harness notices.
    """
    records: list[dict] = []
    fixed_catalog = None
    if workspace is not None:
        relations, roles, pkfk = workspace
        fixed_catalog = build_catalog(relations, roles, pkfk, params)
        if catalog_mutator is not None:
            fixed_catalog = catalog_mutator(fixed_catalog)
    for shape_idx, (shape, count) in enumerate(
        (("acyclic", n_acyclic), ("cyclic", n_cyclic), ("multicol", n_multicol))
    ):
        done = 0
        block = 0
        while done < count:
            rng = random.Random(seed * 1_000_003 + shape_idx * 65_537 + block)
            if workspace is None:
                relations, roles, pkfk = generate_database(
                    rng, two_join_cols=(shape == "multicol")
                )
                catalog = build_catalog(relations, roles, pkfk, params)
                if catalog_mutator is not None:
                    catalog = catalog_mutator(catalog)
            else:
                relations, roles, _ = workspace
                catalog = fixed_catalog
            for _ in range(queries_per_db):
                if done >= count:
                    break
                try:
                    sql, query = generate_query(rng, relations, roles, shape)
                except GenerationImpossible:
                    if workspace is None:
                        # e.g. a database whose relations all have a single
                        # join column can never host a cycle; draw another
                        break
                    sql, query = generate_query(rng, relations, roles, "acyclic")
                    shape_used = "acyclic(downgraded)"
                else:
                    shape_used = shape
                try:
                    record = verify_bound(catalog, relations, query, sql, shape_used)
                except OracleCapExceeded:
                    continue
                records.append(record)
                done += 1
            block += 1
    return records, summarize(records)


# ------------------------------------------------------ negative control

def _scale_fn(fn: PiecewiseLinearFn, scale: float) -> PiecewiseLinearFn:
    return PiecewiseLinearFn(fn.knots, tuple(v * scale for v in fn.values))


def _scale_stats(stats: FilterStats, scale: float) -> FilterStats:
    return replace(
        stats,
        representatives=tuple(_scale_fn(fn, scale) for fn in stats.representatives),
        default=_scale_fn(stats.default, scale),
    )


def corrupt_catalog(catalog: StatisticsCatalog, scale: float) -> StatisticsCatalog:
    """Deliberately rescale every stored profile (a negative control: with
    scale < 1 the catalog under-reports and soundness checks must fail)."""
    relations = {}
    for name, rs in catalog.relations.items():
        relations[name] = replace(
            rs,
            fallback={c: _scale_fn(fn, scale) for c, fn in rs.fallback.items()},
            **{
                family: {
                    key: _scale_stats(st, scale) for key, st in getattr(rs, family).items()
                }
                for family in FAMILIES
            },
        )
    return StatisticsCatalog(catalog.params, relations, catalog.pkfk)
