"""Cardinality bound inference over a statistics catalog.

Given a parsed query, the engine conditions every join column's cumulative
profile on the predicates of its relation occurrence, rewrites the query
where structure allows (dimension predicates pushed across declared
key/foreign-key joins, parallel join edges fused, cyclic shapes reduced to
spanning trees), plans each acyclic shape bottom-up, and evaluates the
plan with the piecewise kernel.  The reported count is a guaranteed upper
bound on the query's true result size under the statistics' view of the
data.
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
    StatisticsCatalog,
    _grams,
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
    """
    rel = catalog.relations[relation]
    unconditioned = rel.fallback[join_col]

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
            grams = sorted(_grams(like_parts(node.pattern)[1]))
            if stats is None or not grams:
                return unconditioned
            return pw_min([_resolve_key(stats, g) for g in grams])
        if isinstance(node, And):
            return pw_min([resolve(c) for c in node.children])
        if isinstance(node, Or):
            return pw_min([pw_sum([resolve(c) for c in node.children]), unconditioned])
        raise TypeError("unknown predicate node %r" % (node,))

    if predicate is None:
        return unconditioned
    return resolve(predicate)


def plan_bound(
    plan: BoundPlan,
    profiles: dict[tuple[str, str], PiecewiseLinearFn],
    memo: dict | None = None,
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

    ``memo`` maps each profile to its discrete derivative and each step's
    inputs to its result: a join step's key is its anchor profile and its
    (child-column profile, child result) pairs, a merge step's key its
    inputs in order, all compared by value.  Every step is a pure function
    of those inputs, so a hit reuses the stored output, integral and mass;
    ``bound_query`` shares one memo across a query's spanning trees.
    """
    values: dict[str, PiecewiseConstantFn] = {}
    trace: list[tuple] = []
    if memo is None:
        memo = {}

    def derive(fn: PiecewiseLinearFn) -> PiecewiseConstantFn:
        got = memo.get(fn)
        if got is None:
            got = memo[fn] = discrete_derivative(fn)
        return got

    def fetch(uid: str) -> PiecewiseConstantFn:
        got = values.get(uid)
        if got is not None:
            return got
        alias, var = uid.split("/", 1)
        return derive(profiles[(alias, var)])

    for step in plan.steps:
        if isinstance(step, MergeStep):
            fns = tuple(fetch(i) for i in step.inputs)
            key = ("merge", fns)
            got = memo.get(key)
            if got is None:
                end = min(f.end for f in fns)
                out = functools.reduce(pw_multiply, (restrict_domain(f, end) for f in fns))
                got = memo[key] = (out, out.integral())
            out, integral = got
            trace.append((step, integral, None))
        else:
            anchor_fn = profiles[(step.alias, step.anchor)]
            child_fns = [profiles[(step.alias, var)] for var, _ in step.children]
            child_outs = [fetch(uid) for _, uid in step.children]
            key = ("join", anchor_fn, tuple(zip(child_fns, child_outs)))
            got = memo.get(key)
            if got is None:
                mass = min([anchor_fn.total, *(c.total for c in child_fns)])
                anchor_fn = truncate_cumulative(anchor_fn, mass)
                out = derive(anchor_fn)
                for child_out, child_col in zip(child_outs, child_fns):
                    through = truncate_cumulative(child_col, mass)
                    out = pw_multiply(out, compose_ranks(child_out, through, anchor_fn))
                got = memo[key] = (out, out.integral(), mass)
            out, integral, mass = got
            trace.append((step, integral, mass))
        values[step.out] = out
    root = values[plan.root] if plan.root in values else fetch(plan.root)
    return root.integral(), tuple(trace)


def _trace_line(record: tuple) -> str:
    """One ``plan_bound`` step record as a line of ``BoundResult.steps``."""
    step, integral, mass = record
    if isinstance(step, MergeStep):
        return "%s: merge %s over %s -> integral %.6g" % (
            step.out, "*".join(step.inputs), step.var, integral
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
        self.by_column: dict[tuple[str, str], PiecewiseLinearFn] = {}
        self.fused: dict[tuple[str, tuple[str, ...]], PiecewiseLinearFn] = {}
        self.caps: dict[str, tuple[float, str | None]] = {}

    def column_profile(self, atom: Atom, col: str) -> PiecewiseLinearFn:
        key = (atom.alias, col)
        got = self.by_column.get(key)
        if got is not None:
            return got
        rel = self.catalog.relations[atom.relation]
        pred = self.predicates.get(atom.alias)
        if col in rel.join_columns:
            fn = condition_sequence(self.catalog, atom.relation, col, pred)
        else:
            fn = truncate_cumulative(rel.fallback[col], self.atom_cap(atom)[0])
            self.notes.append(
                "%s.%s is not a declared join column; capped its profile at the "
                "conditioned row count" % (atom.alias, col)
            )
        self.by_column[key] = fn
        return fn

    def atom_cap(self, atom: Atom) -> tuple[float, str | None]:
        """The most rows ``atom`` can hold under its predicate, and the join
        column giving it: the least over join columns of the conditioned
        total plus the column's null rows, else the cardinality and None."""
        got = self.caps.get(atom.alias)
        if got is None:
            rel = self.catalog.relations[atom.relation]
            caps = [
                (self.column_profile(atom, j).total + rel.cardinality - rel.fallback[j].total, j)
                for j in rel.join_columns
            ]
            got = self.caps[atom.alias] = min(caps, default=(float(rel.cardinality), None))
        return got

    def variable_profile(self, atom: Atom, cols: tuple[str, ...]) -> PiecewiseLinearFn:
        """Profile of the variable ``atom`` binds to ``cols``: the pointwise
        minimum over those columns when a fused variable has several."""
        if len(cols) == 1:
            return self.column_profile(atom, cols[0])
        key = (atom.alias, cols)
        got = self.fused.get(key)
        if got is None:
            got = self.fused[key] = pw_min([self.column_profile(atom, c) for c in cols])
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
        memo: dict = {}
        for idx, tree in enumerate(trees):
            # a variable only one alias binds constrains nothing the plan reads
            profiles = {
                (atom.alias, var): conditioner.variable_profile(atom, cols)
                for atom in tree.atoms
                for var, cols in atom.var_columns
                if len(tree.variables[var]) >= 2
            }
            value, steps = plan_bound(decompose(tree), profiles, memo)
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
