"""Cardinality bound inference over a statistics catalog.

Given a parsed query, the engine conditions every join column's cumulative
profile on the predicates of its relation occurrence, rewrites the query
where structure allows (dimension predicates pushed across declared
key/foreign-key joins, parallel join edges fused, cyclic shapes reduced to
spanning trees), plans each acyclic shape bottom-up, and evaluates the
plan with the piecewise kernel.  The reported count is a guaranteed upper
bound on the query's true result size under the statistics' view of the
data.

Queries against one catalog share its memo (:class:`stats.Memo`): the
``pw_min`` and ``pw_sum`` that conditioning and fused variables take over
resolved profiles, each plan step's output and each profile's discrete
derivative are computed once per catalog.  A key holds an op tag and the
input profiles, compared by value, never the SQL text, the query, an
alias or a predicate, so equal work is shared however it was reached and
a warm memo changes no result.  The memo holds at most
``stats.MEMO_ENTRIES`` entries (about 4.2 MB when full) and empties when
full.  Every cached value is a pure function of its key, so concurrent
queries on one catalog are safe: a thread that misses computes what any
other would, and storing takes a lock so the cap holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .pwfn import (
    InconsistentStatisticsError,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
    cumulate,  # noqa: F401  unused; perfbench/bench_trace.py wraps it by this module's name
    compose_ranks,
    discrete_derivative,
    pw_max,  # noqa: F401  unused; perfbench/bench_trace.py wraps it by this module's name
    pw_min,
    pw_multiply,
    pw_sum,
    restrict_domain,
    truncate_cumulative,
)
from .query import (
    And,
    Atom,
    BoundPlan,
    Eq,
    Like,
    MergeStep,
    Or,
    Predicate,
    Query,
    Range,
    UnsupportedQueryError,
    decompose,
    fuse_parallel_joins,
    join_graph,
    like_parts,
    spanning_trees,
)
from .stats import (
    FilterStats,
    Memo,
    StatisticsCatalog,
    grams,
    lookup_range_group,
)

__all__ = ["BoundResult", "condition_sequence", "plan_bound", "bound_query"]


@dataclass(frozen=True)
class BoundResult:
    bound: int
    value: float
    strategy: str
    notes: tuple[str, ...] = ()
    steps: tuple[str, ...] = ()


def _resolve_key(stats: FilterStats, key: object) -> PiecewiseLinearFn:
    """Profile of a key's group, or the default for an untracked key."""
    group = stats.keys.get(key)
    return stats.default if group is None else stats.representatives[group]


def _min(memo: Memo, fns: list[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    return memo.cached(("min", tuple(fns)), pw_min, fns)


def _sum(memo: Memo, fns: list[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    return memo.cached(("sum", tuple(fns)), pw_sum, fns)


def condition_sequence(
    catalog: StatisticsCatalog,
    relation: str,
    join_col: str,
    predicate: Predicate | None,
) -> PiecewiseLinearFn:
    """Cumulative profile of a join column under a relation's predicate.

    Every resolution is an upper envelope of the profile of the rows that
    can satisfy the predicate, so the result is always safe to use in a
    bound; when no statistic applies the unconditioned profile is used.
    The ``pw_min`` and ``pw_sum`` that ``AND``, ``OR`` (and so ``IN``) and
    multi-gram ``LIKE`` take over resolved profiles go through the
    catalog's memo, keyed by op and input profiles: literals that resolve
    to the same representatives share one combination across queries.
    """
    rel = catalog.relations[relation]
    unconditioned = rel.fallback[join_col]
    memo = catalog.memo

    def resolve(node: Predicate) -> PiecewiseLinearFn:
        if isinstance(node, Eq):
            stats = rel.equality.get((join_col, node.column))
            return unconditioned if stats is None else _resolve_key(stats, node.value)
        if isinstance(node, Range):
            stats = rel.range.get((join_col, node.column))
            if stats is None:
                return unconditioned
            return lookup_range_group(stats, node.lo, node.hi, node.hi_incl)
        if isinstance(node, Like):
            # rows matching the pattern hold every one of its grams, so
            # each gram's profile covers them
            stats = rel.like.get((join_col, node.column))
            keys = sorted(grams(like_parts(node.pattern)[1]))
            if stats is None or not keys:
                return unconditioned
            return _min(memo, [_resolve_key(stats, g) for g in keys])
        if isinstance(node, And):
            return _min(memo, [resolve(c) for c in node.children])
        if isinstance(node, Or):
            return _min(memo, [_sum(memo, [resolve(c) for c in node.children]), unconditioned])
        raise TypeError("unknown predicate node %r" % (node,))

    if predicate is None:
        return unconditioned
    return resolve(predicate)


def _derive(memo: Memo, fn: PiecewiseLinearFn) -> PiecewiseConstantFn:
    return memo.cached(("derive", fn), discrete_derivative, fn)


def _merge(fns: tuple[PiecewiseConstantFn, ...]) -> tuple[PiecewiseConstantFn, float]:
    end = min(f.end for f in fns)
    out = functools.reduce(pw_multiply, (restrict_domain(f, end) for f in fns))
    return out, out.integral()


def _join(
    memo: Memo,
    anchor_fn: PiecewiseLinearFn,
    child_fns: tuple[PiecewiseLinearFn, ...],
    child_outs: tuple[PiecewiseConstantFn, ...],
) -> tuple[PiecewiseConstantFn, float, float]:
    mass = min([anchor_fn.total, *(c.total for c in child_fns)])
    anchor_fn = truncate_cumulative(anchor_fn, mass)
    out = _derive(memo, anchor_fn)
    for child_out, child_col in zip(child_outs, child_fns):
        through = truncate_cumulative(child_col, mass)
        out = pw_multiply(out, compose_ranks(child_out, through, anchor_fn))
    return out, out.integral(), mass


def plan_bound(
    plan: BoundPlan,
    profiles: dict[tuple[str, str], PiecewiseLinearFn],
    memo: Memo | None = None,
) -> tuple[float, tuple[tuple, ...]]:
    """Evaluate a plan against per-(alias, variable) conditioned profiles.

    Returns the plan's value and one (step, integral, mass) record per
    step, mass None for a merge step; ``bound_query`` formats the records
    of the tree it keeps only.

    Join steps first clamp the anchor's and every child column's profile of
    the same atom to their common minimum mass (a row must be non-null in
    all of them to join), then multiply the anchor's frequency profile by
    each child's profile re-expressed in anchor ranks.  Merge steps multiply
    unary profiles after restricting them to the shortest domain.  The
    plan's value is the integral of the root profile.

    ``memo`` (a fresh one when None) maps each profile to its discrete
    derivative and each step's inputs to its result: a join step's key is
    its anchor profile and its (child-column profile, child result) pairs,
    a merge step's key its inputs in order, all compared by value and
    tagged by op.  Every step is a pure function of those inputs, so a hit
    reuses the stored output, integral and mass, and threads that share a
    memo get what each would compute.  ``bound_query`` passes the
    catalog's memo, so spanning trees of one query, and queries that plan
    equal steps, compute each step once; it holds at most
    ``stats.MEMO_ENTRIES`` entries, about 4.2 MB, and empties when full.
    """
    results: dict[str, tuple] = {}  # step output -> (profile, integral[, mass])
    trace: list[tuple] = []
    if memo is None:
        memo = Memo()

    def fetch(uid: str | tuple[str, str]) -> PiecewiseConstantFn:
        return results[uid][0] if isinstance(uid, str) else _derive(memo, profiles[uid])

    for step in plan.steps:
        if isinstance(step, MergeStep):
            fns = tuple(fetch(i) for i in step.inputs)
            got = memo.cached(("merge", fns), _merge, fns)
            trace.append((step, got[1], None))
        else:
            anchor_fn = profiles[(step.alias, step.anchor)]
            child_fns = tuple(profiles[(step.alias, var)] for var, _ in step.children)
            child_outs = tuple(fetch(uid) for _, uid in step.children)
            key = ("join", anchor_fn, tuple(zip(child_fns, child_outs)))
            got = memo.cached(key, _join, memo, anchor_fn, child_fns, child_outs)
            trace.append((step, got[1], got[2]))
        results[step.out] = got
    return results[plan.root][1], tuple(trace)


def _trace_line(record: tuple) -> str:
    """One ``plan_bound`` step record as a line of ``BoundResult.steps``."""
    step, integral, mass = record
    if isinstance(step, MergeStep):
        names = (i if isinstance(i, str) else "%s/%s" % i for i in step.inputs)
        return "%s: merge %s over %s -> integral %.6g" % (
            step.out, "*".join(names), step.var, integral
        )
    return "%s: join %s anchored at %s (mass %.6g) -> integral %.6g" % (
        step.out, step.alias, step.anchor, mass, integral
    )


def _rewrite_onto_fact(node: Predicate, mapping: dict[str, str]) -> Predicate | None:
    if isinstance(node, (Eq, Range, Like)):
        col = mapping.get(node.column)
        return None if col is None else replace(node, column=col)
    if isinstance(node, And):
        kept = [r for r in (_rewrite_onto_fact(c, mapping) for c in node.children) if r is not None]
        if not kept:
            return None
        return kept[0] if len(kept) == 1 else And(tuple(kept))
    if isinstance(node, Or):
        kept = [_rewrite_onto_fact(c, mapping) for c in node.children]
        if any(k is None for k in kept):
            return None
        return Or(tuple(kept))
    raise TypeError("unknown predicate node %r" % (node,))


def _apply_pkfk(catalog: StatisticsCatalog, query: Query, notes: list[str]) -> Query:
    if not catalog.pkfk:
        return query
    predicates = dict(query.predicates)
    for edge in catalog.pkfk:
        for dim_atom in query.atoms:
            if dim_atom.relation != edge.dim:
                continue
            dim_pred = predicates.get(dim_atom.alias)
            if dim_pred is None:
                continue
            for fact_atom in query.atoms:
                if fact_atom.relation != edge.fact:
                    continue
                linked = any(
                    edge.fk in fact_atom.columns_for(v) and edge.pk in dim_atom.columns_for(v)
                    for v in set(fact_atom.variables()) & set(dim_atom.variables())
                )
                if not linked:
                    continue
                rewritten = _rewrite_onto_fact(dim_pred, edge.propagated)
                if rewritten is None:
                    continue
                existing = predicates.get(fact_atom.alias)
                predicates[fact_atom.alias] = (
                    rewritten if existing is None else And((existing, rewritten))
                )
                notes.append(
                    "pushed %s predicate across %s=%s onto %s"
                    % (dim_atom.alias, edge.fk, edge.pk, fact_atom.alias)
                )
    return Query(query.atoms, predicates)


def _validate(catalog: StatisticsCatalog, query: Query) -> None:
    if not query.atoms:
        raise UnsupportedQueryError("query has no relations")
    aliases: set[str] = set()
    for atom in query.atoms:
        if atom.alias in aliases:
            raise UnsupportedQueryError("duplicate alias %r" % atom.alias)
        aliases.add(atom.alias)
        if not all(cols for _, cols in atom.var_columns):
            raise UnsupportedQueryError("%s binds a variable to no column" % atom.alias)
        rel = catalog.relations.get(atom.relation)
        if rel is None:
            raise UnsupportedQueryError("no statistics for relation %r" % atom.relation)
        joined = [col for _, cols in atom.var_columns for col in cols]
        for col in joined + _leaf_columns(query.predicates.get(atom.alias)):
            if col not in rel.column_kinds:
                raise UnsupportedQueryError("relation %r has no column %r" % (atom.relation, col))
    for alias, pred in query.predicates.items():
        if pred is not None and alias not in aliases:
            raise UnsupportedQueryError("predicate on alias %r, which names no relation" % alias)


def _leaf_columns(node: Predicate | None) -> list[str]:
    """The columns a predicate tree's leaves test, in order."""
    if node is None:
        return []
    if isinstance(node, (And, Or)):
        return [col for c in node.children for col in _leaf_columns(c)]
    return [node.column]


class _Conditioner:
    """Per-query cache of conditioned profiles and per-atom row caps."""

    def __init__(self, catalog: StatisticsCatalog, query: Query, notes: list[str]):
        self.catalog = catalog
        self.predicates = query.predicates
        self.notes = notes
        self.profiles: dict[tuple[str, tuple[str, ...]], PiecewiseLinearFn] = {}
        self.caps: dict[str, tuple[float, str | None]] = {}

    def atom_cap(self, atom: Atom) -> tuple[float, str | None]:
        """The most rows ``atom`` can hold under its predicate, and the join
        column giving it: the least over join columns of the conditioned
        total plus the column's null rows, else the cardinality and None."""
        got = self.caps.get(atom.alias)
        if got is None:
            rel = self.catalog.relations[atom.relation]
            caps = [
                (self.variable_profile(atom, (j,)).total + rel.cardinality - rel.fallback[j].total, j)
                for j in rel.join_columns
            ]
            got = self.caps[atom.alias] = min(caps, default=(float(rel.cardinality), None))
        return got

    def variable_profile(self, atom: Atom, cols: tuple[str, ...]) -> PiecewiseLinearFn:
        """Profile of the variable ``atom`` binds to ``cols``: a declared join
        column's conditioned profile, an undeclared one's fallback capped at
        the atom's row cap, or the pointwise minimum of a fused variable's."""
        key = (atom.alias, cols)
        got = self.profiles.get(key)
        if got is None:
            rel = self.catalog.relations[atom.relation]
            if len(cols) > 1:
                got = _min(self.catalog.memo, [self.variable_profile(atom, (c,)) for c in cols])
            elif cols[0] in rel.join_columns:
                pred = self.predicates.get(atom.alias)
                got = condition_sequence(self.catalog, atom.relation, cols[0], pred)
            else:
                got = truncate_cumulative(rel.fallback[cols[0]], self.atom_cap(atom)[0])
                self.notes.append(
                    "%s.%s is not a declared join column; capped its profile at the "
                    "conditioned row count" % (atom.alias, cols[0])
                )
            self.profiles[key] = got
        return got


def bound_query(catalog: StatisticsCatalog, query: Query) -> BoundResult:
    """Upper-bound the COUNT(*) of a join query against the catalog."""
    _validate(catalog, query)
    notes: list[str] = []
    q = _apply_pkfk(catalog, query, notes)
    conditioner = _Conditioner(catalog, q, notes)
    if len(q.atoms) == 1:  # COUNT(*) is the rows the predicate keeps
        atom = q.atoms[0]
        best, col = conditioner.atom_cap(atom)
        notes.append(
            "%s is one relation; bounded by its row cap %.6g" % (atom.alias, best)
            + ("" if col is None else ", least through %s.%s" % (atom.alias, col))
        )
        strategy, best_steps = "single-relation", ()
    else:
        graph = join_graph(q)
        fused = fuse_parallel_joins(graph)
        if fused is not graph:
            notes.append("fused parallel join edges into multi-column variables")
            graph = fused
        if not graph.connected:
            raise UnsupportedQueryError(
                "query is a cross product; every relation must join the rest"
            )
        trees = spanning_trees(graph)
        strategy = "acyclic" if graph.acyclic else "min-over-%d-spanning-trees" % len(trees)
        best = math.inf
        best_steps = ()
        for idx, tree in enumerate(trees):
            profiles = {
                (atom.alias, var): conditioner.variable_profile(atom, cols)
                for atom in tree.atoms
                for var, cols in atom.var_columns
                if var in tree.variables
            }
            value, steps = plan_bound(decompose(tree), profiles, catalog.memo)
            if len(trees) > 1:
                notes.append("spanning tree %d/%d -> %.6g" % (idx + 1, len(trees), value))
            if value < best:
                best = value
                best_steps = steps
    # Counts are integers, so a value within float noise of an integer is
    # snapped to it: a genuinely fractional value can only cover integer
    # counts at or below its floor, so snapping never loses soundness,
    # while a plain ceil would inflate exact results by one.
    if not math.isfinite(best):
        raise InconsistentStatisticsError("the bound overflows a float: profile values too large")
    nearest = round(best)
    if abs(best - nearest) <= 1e-9 * max(1.0, abs(best)):
        bound = max(0, int(nearest))
    else:
        bound = max(0, math.ceil(best))
    return BoundResult(bound, best, strategy, tuple(notes), tuple(map(_trace_line, best_steps)))
