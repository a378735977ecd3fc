"""Catalog construction: per-column profiles, conditioned statistics,
clustering into groups, and key/foreign-key precomputation.

For every declared join column the builder stores a compressed cumulative
profile of the whole column, and for every (join column, filter column)
pair one :class:`FilterStats` per predicate family.  Each holds the
dominating representatives of clustered conditioned profiles, a default
profile, and a key that picks one representative:

* keyed (equality on filter values, substring on the 3-grams of text
  filters): one profile for each of the ``mcv_size`` keys with the most
  rows; ``keys`` maps each tracked key to its group, and the default is
  the least concave majorant of the exact profiles of every untracked
  key.  The rows a predicate can match are a subset of the rows of any
  one of its keys (a row matching a pattern holds every gram of it), so
  each key's profile, tracked or default, covers them;
* range (numeric filters): nested equi-depth histogram levels whose
  buckets each point at a representative; the default is the
  unconditioned profile of the join column.

Every compressed profile is audited against the exact sequence it stands
for, and every representative and keyed default against the exact
profiles they cover, before they enter the catalog.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .compress import (
    CompressionConfig,
    distances_to,
    drop_vectors,
    is_valid_compression,
    valid_compress,
)
from .pwfn import (
    DegreeSequence,
    PiecewiseLinearFn,
    _upper_concave_envelope,
    pw_max,
    sample_integer_ranks,
    zero_cumulative,
)
from .relation import ColumnRole, Column, ConfigError, PkFkDeclaration, Relation

__all__ = [
    "BuildParams",
    "StatsBuildError",
    "FilterStats",
    "FAMILIES",
    "RelationStats",
    "PkFkEdge",
    "StatisticsCatalog",
    "make_build_params",
    "extract_degree_sequence",
    "cluster_sequence_groups",
    "build_equality_stats",
    "build_range_stats",
    "build_like_stats",
    "lookup_range_group",
    "precompute_pk_fk",
    "build_catalog",
]

GRAM_LEN = 3


class StatsBuildError(RuntimeError):
    """A build-time audit or integrity check failed."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class BuildParams:
    """Catalog build knobs and their defaults."""

    compression_budget: float = 0.01
    hist_depth: int = 7
    mcv_size: int = 1000
    clusters: int | str = "auto"
    max_segments: int | None = None

    def __post_init__(self) -> None:
        if not (_is_number(self.compression_budget) and self.compression_budget > 0.0):
            raise ConfigError("compression_budget must be a positive number")
        if not (_is_int(self.hist_depth) and self.hist_depth >= 1):
            raise ConfigError("hist_depth must be an integer of at least 1")
        if not (_is_int(self.mcv_size) and self.mcv_size >= 0):
            raise ConfigError("mcv_size must be a non-negative integer")
        if self.clusters != "auto" and not (_is_int(self.clusters) and self.clusters >= 1):
            raise ConfigError("clusters must be 'auto' or an integer of at least 1")
        if self.max_segments is not None and not (
            _is_int(self.max_segments) and self.max_segments >= 2
        ):
            raise ConfigError("max_segments must be an integer of at least 2")

    def compression(self) -> CompressionConfig:
        return CompressionConfig(self.compression_budget, self.max_segments)


_PARAM_KEYS = {
    "compression_budget",
    "hist_depth",
    "mcv_size",
    "clusters",
    "max_segments",
}


def make_build_params(raw: dict) -> BuildParams:
    unknown = set(raw) - _PARAM_KEYS
    if unknown:
        raise ConfigError("unknown build parameters: %s" % ", ".join(sorted(unknown)))
    return BuildParams(**raw)


@dataclass(frozen=True)
class FilterStats:
    """Conditioned profiles of one join column under one filter column.

    ``representatives`` dominate the profiles of their groups' members.
    Keyed statistics (equality and substring) share one shape: ``keys``
    maps a tracked filter value or 3-gram to the index of its group's
    representative, and any other key resolves to ``default``, the least
    concave majorant of every untracked key's exact profile.  Range
    statistics have no keys: ``levels`` holds the nested histogram
    levels, finest first, each as (cuts, representative index per
    bucket), and ``default`` is the join column's unconditioned profile.
    """

    representatives: tuple[PiecewiseLinearFn, ...]
    default: PiecewiseLinearFn
    keys: dict = field(default_factory=dict)
    levels: tuple[tuple[tuple[float, ...], tuple[int, ...]], ...] = ()


# The predicate families, as the names of RelationStats' FilterStats maps.
FAMILIES = ("equality", "range", "like")


@dataclass
class RelationStats:
    name: str
    cardinality: int
    column_kinds: dict[str, str]
    join_columns: tuple[str, ...]
    filter_columns: tuple[str, ...]
    fallback: dict[str, PiecewiseLinearFn]
    equality: dict[tuple[str, str], FilterStats]
    range: dict[tuple[str, str], FilterStats]
    like: dict[tuple[str, str], FilterStats]


@dataclass(frozen=True)
class PkFkEdge:
    fact: str
    fk: str
    dim: str
    pk: str
    propagated: dict[str, str] = field(default_factory=dict)


@dataclass
class StatisticsCatalog:
    params: BuildParams
    relations: dict[str, RelationStats]
    pkfk: tuple[PkFkEdge, ...] = ()


def extract_degree_sequence(
    rel: Relation, column: str, rows: np.ndarray | None = None
) -> DegreeSequence:
    """Degree sequence of a column restricted to the given row indices
    (all rows when omitted); nulls are dropped, they never join."""
    data = rel.data[column]
    if isinstance(data, np.ndarray):
        vals = data if rows is None else data[rows]
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            return DegreeSequence(())
        _, counts = np.unique(vals, return_counts=True)
        return DegreeSequence(sorted(counts.tolist(), reverse=True))
    if rows is None:
        it = data
    else:
        it = (data[i] for i in rows.tolist())
    counts_map: dict[str, int] = defaultdict(int)
    for v in it:
        if v is not None:
            counts_map[v] += 1
    return DegreeSequence(sorted(counts_map.values(), reverse=True))


def _audited_profile(
    rel: Relation, column: str, rows: np.ndarray | None, params: BuildParams
) -> PiecewiseLinearFn:
    seq = extract_degree_sequence(rel, column, rows)
    fn = valid_compress(seq, params.compression())
    report = is_valid_compression(seq, fn)
    if not report.ok:
        raise StatsBuildError(
            "compression audit failed for %s.%s: %s" % (rel.name, column, report.reason)
        )
    return fn


def _cluster_count(policy: int | str, n_members: int) -> int:
    if isinstance(policy, str):
        return min(n_members, max(4, math.ceil(n_members / 8)))
    return min(n_members, policy)


def cluster_sequence_groups(
    fns: list[PiecewiseLinearFn], n_groups: int
) -> list[list[int]]:
    """Group cumulative profiles into at most ``n_groups`` clusters of
    similar shape, by farthest-first traversal (Gonzalez 1985, a
    2-approximation of the smallest largest distance to a centre).

    Profiles are compared by the :func:`compress.distances_to` distance
    of their drop vectors.  The first live profile is the first centre;
    each next centre is the profile farthest from its nearest centre (the
    first such on ties), until there are ``n_groups`` centres or every
    profile is identical to one.  Each profile joins its nearest centre,
    the earliest on ties.  That takes O(m * k * S) time and O(m * S)
    memory for m profiles, k centres and S <= FULL_GRID_RANKS drop ranks.
    Zero-mass profiles have no defined distance and are collected into a
    cluster of their own, which counts towards ``n_groups`` unless that is
    1: the live profiles always get at least one cluster.

    Returns member-index clusters, each sorted, ordered by smallest member.
    """
    n = len(fns)
    if n == 0:
        return []
    zero = [i for i in range(n) if fns[i].total <= 1e-12]
    live = [i for i in range(n) if fns[i].total > 1e-12]
    clusters: list[list[int]] = []
    if zero:
        clusters.append(zero)
        n_groups = max(1, n_groups - 1)
    if live:
        drops, sq = drop_vectors([fns[i] for i in live])
        nearest = distances_to(drops, sq, 0)
        owner = np.zeros(len(live), dtype=np.intp)
        for centre in range(1, n_groups):
            far = int(np.argmax(nearest))
            if nearest[far] <= 2.0:
                break
            dist = distances_to(drops, sq, far)
            owner[dist < nearest] = centre
            np.minimum(nearest, dist, out=nearest)
        groups: dict[int, list[int]] = defaultdict(list)
        for i, centre in zip(live, owner.tolist()):
            groups[centre].append(i)
        clusters.extend(groups.values())
    return sorted(clusters, key=lambda c: c[0])


def _audit_dominates(rep: PiecewiseLinearFn, top: np.ndarray, context: str) -> None:
    """Check a profile against the per-integer-rank maximum of the
    cumulatives it stands for (ranks 0 .. len(top) - 1)."""
    rep_grid = sample_integer_ranks(rep, top.size - 1)
    if np.any(rep_grid + 1e-9 * np.maximum(1.0, top) < top):
        raise StatsBuildError("profile fails to dominate what it stands for (%s)" % context)


def _audit_representative(
    rep: PiecewiseLinearFn, member_fns: list[PiecewiseLinearFn], context: str
) -> None:
    upto = int(np.ceil(rep.end))
    top = np.zeros(upto + 1)
    for fn in member_fns:
        np.maximum(top, sample_integer_ranks(fn, upto), out=top)
    _audit_dominates(rep, top, context)


def _build_groups(
    members: list[tuple[object, PiecewiseLinearFn]],
    params: BuildParams,
    context: str,
) -> tuple[tuple[PiecewiseLinearFn, ...], dict[object, int]]:
    """Cluster keyed profiles; returns the groups' audited representatives
    and the index of every key's representative."""
    if not members:
        return (), {}
    fns = [fn for _, fn in members]
    n_groups = _cluster_count(params.clusters, len(members))
    representatives: list[PiecewiseLinearFn] = []
    key_to_group: dict[object, int] = {}
    for cluster in cluster_sequence_groups(fns, n_groups):
        member_fns = [fns[i] for i in cluster]
        rep = pw_max(member_fns)
        _audit_representative(rep, member_fns, context)
        for i in cluster:
            key_to_group[members[i][0]] = len(representatives)
        representatives.append(rep)
    return tuple(representatives), key_to_group


def _codes(data) -> tuple[list, np.ndarray]:
    """Distinct non-null values of a column and every row's index into
    them, -1 for null.  Numbers are coded with ``np.unique``, so -0.0 and
    0.0 are one value, as in :func:`extract_degree_sequence`."""
    if isinstance(data, np.ndarray):
        codes = np.full(data.size, -1, dtype=np.intp)
        live = ~np.isnan(data)
        values, codes[live] = np.unique(data[live], return_inverse=True)
        return values.tolist(), codes
    distinct = dict.fromkeys(data)
    distinct.pop(None, None)
    keys = list(distinct)
    index = {v: i for i, v in enumerate(keys)}
    index[None] = -1
    return keys, np.fromiter(map(index.__getitem__, data), dtype=np.intp, count=len(data))


def _rows_by_value(rel: Relation, column: str) -> dict:
    """Row indices (ascending) of every non-null value of a column."""
    keys, all_codes = _codes(rel.data[column])
    rows = np.flatnonzero(all_codes >= 0)
    codes = all_codes[rows]
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(keys))
    parts = np.split(rows[order], np.cumsum(counts)[:-1])
    return dict(zip(keys, parts))


def _tail_majorant(
    rel: Relation, join_col: str, tail: list[list[np.ndarray]], context: str
) -> PiecewiseLinearFn:
    """Least concave majorant of the exact join-column profiles of the
    given row sets, each a list of disjoint row-index parts.

    Equal to ``pw_max`` of the exact cumulatives: the per-rank maximum of
    the running sums of each set's descending degrees, extended flat past
    each set's distinct count, then its upper concave hull.  Whole sets go
    through in batches of about ``rel.n_rows`` rows, so the work arrays
    stay near the relation's size however many sets share a row.
    """
    join_values, join_codes = _codes(rel.data[join_col])
    width = len(join_values)
    top = np.zeros(width + 1)
    sizes = [sum(part.size for part in parts) for parts in tail]
    # a set joins the batch in which its last row falls
    batch_of = (np.cumsum(sizes) - 1) // rel.n_rows
    cuts = [0, *(np.flatnonzero(np.diff(batch_of)) + 1).tolist(), len(tail)]
    for lo, hi in zip(cuts, cuts[1:]):
        keys = join_codes[np.concatenate([part for parts in tail[lo:hi] for part in parts])]
        owner = np.repeat(np.arange(lo, hi, dtype=np.int64), sizes[lo:hi])
        live = keys >= 0
        pairs, counts = np.unique(owner[live] * width + keys[live], return_counts=True)
        owner = pairs // width
        order = np.lexsort((-counts, owner))
        owner = owner[order]
        counts = counts[order]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        runs = np.diff(starts, append=owner.size)
        running = np.cumsum(counts)
        running -= np.repeat(running[starts] - counts[starts], runs)
        rank = np.arange(owner.size) - np.repeat(starts, runs) + 1
        np.maximum.at(top, rank, running.astype(np.float64))
    reached = np.flatnonzero(top)
    if reached.size == 0:
        return zero_cumulative()
    top = np.maximum.accumulate(top[: reached[-1] + 1])
    knots, values = _upper_concave_envelope(
        np.arange(top.size, dtype=np.float64).tolist(), top.tolist()
    )
    majorant = PiecewiseLinearFn(knots, values)
    _audit_dominates(majorant, top, context)
    return majorant


def _keyed_stats(
    rel: Relation,
    join_col: str,
    rows_by_key: dict[object, list[np.ndarray]],
    params: BuildParams,
    context: str,
) -> FilterStats:
    """Statistics keyed by filter value or 3-gram, each key's rows given as
    disjoint parts: audited and clustered profiles of the ``mcv_size`` keys
    with the most rows, and the tail majorant of every other key."""
    ordered = sorted(
        rows_by_key.items(), key=lambda kv: (-sum(p.size for p in kv[1]), kv[0])
    )
    members = [
        (key, _audited_profile(rel, join_col, np.concatenate(parts), params))
        for key, parts in ordered[: params.mcv_size]
    ]
    representatives, keys = _build_groups(members, params, context)
    tail = [parts for _, parts in ordered[params.mcv_size :]]
    default = _tail_majorant(rel, join_col, tail, context) if tail else zero_cumulative()
    return FilterStats(representatives, default, keys)


def build_equality_stats(
    rel: Relation, join_col: str, filter_col: str, params: BuildParams
) -> FilterStats:
    rows_by_value = {v: [rows] for v, rows in _rows_by_value(rel, filter_col).items()}
    context = "%s.%s | %s =" % (rel.name, join_col, filter_col)
    return _keyed_stats(rel, join_col, rows_by_value, params, context)


def _equi_depth_cuts(values: np.ndarray, depth: int) -> list[float]:
    """Cuts splitting the values into 2**depth buckets of near-equal count;
    each cut is the smallest value of the bucket that it starts."""
    uniq, counts = np.unique(values, return_counts=True)
    if uniq.size < 2:
        return []
    cum = np.cumsum(counts)
    total = int(cum[-1])
    # With 2**depth >= 2 * total the targets lie at most half a row apart,
    # so every value but the smallest starts a bucket.  Deciding this first
    # keeps a deep histogram on few rows from looping 2**depth times.
    if (total - 1).bit_length() < depth:
        return uniq[1:].tolist()
    parts = 2 ** depth
    cuts: list[float] = []
    for j in range(1, parts):
        target = j * total / parts
        idx = int(np.searchsorted(cum, target, side="left"))
        if idx + 1 < uniq.size:
            cut = float(uniq[idx + 1])
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
    return cuts


def build_range_stats(
    rel: Relation,
    join_col: str,
    filter_col: str,
    params: BuildParams,
    root: PiecewiseLinearFn,
) -> FilterStats:
    data = rel.data[filter_col]
    if not isinstance(data, np.ndarray):
        raise StatsBuildError("range statistics need a numeric filter column")
    mask = ~np.isnan(data)
    values = data[mask]
    row_ids = np.nonzero(mask)[0]
    if values.size == 0:
        return FilterStats((), root)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    sorted_rows = row_ids[order]
    finest = _equi_depth_cuts(values, params.hist_depth)
    level_cuts: list[list[float]] = []
    cuts = finest
    while cuts:
        level_cuts.append(cuts)
        cuts = cuts[1::2]
    members: list[tuple[object, PiecewiseLinearFn]] = []
    level_keys: list[list[tuple[int, int]]] = []
    for li, lc in enumerate(level_cuts):
        bounds = np.searchsorted(sorted_vals, np.asarray(lc), side="left")
        starts = [0, *bounds.tolist()]
        ends = [*bounds.tolist(), sorted_vals.size]
        keys: list[tuple[int, int]] = []
        for bi, (s, e) in enumerate(zip(starts, ends)):
            key = (li, bi)
            rows = sorted_rows[s:e]
            members.append((key, _audited_profile(rel, join_col, rows, params)))
            keys.append(key)
        level_keys.append(keys)
    context = "%s.%s | %s range" % (rel.name, join_col, filter_col)
    representatives, key_to_group = _build_groups(members, params, context)
    levels = tuple(
        (tuple(lc), tuple(key_to_group[k] for k in keys))
        for lc, keys in zip(level_cuts, level_keys)
    )
    return FilterStats(representatives, root, levels=levels)


def lookup_range_group(
    stats: FilterStats, lo: float | None, hi: float | None, hi_incl: bool
) -> PiecewiseLinearFn:
    """Profile of the smallest histogram bucket fully containing [lo, hi];
    the unconditioned root profile when no bucket does."""
    lo_eff = lo if lo is not None else -math.inf
    hi_eff = hi if hi is not None else math.inf
    for cuts, bucket_reps in stats.levels:
        j = bisect.bisect_right(cuts, lo_eff)
        upper = cuts[j] if j < len(cuts) else math.inf
        if hi_eff < upper or (hi_eff == upper and not hi_incl):
            return stats.representatives[bucket_reps[j]]
    return stats.default


def _grams(text: str) -> set[str]:
    low = text.lower()
    return {low[i : i + GRAM_LEN] for i in range(len(low) - GRAM_LEN + 1)}


def build_like_stats(
    rel: Relation, join_col: str, filter_col: str, params: BuildParams
) -> FilterStats:
    if isinstance(rel.data[filter_col], np.ndarray):
        raise StatsBuildError("substring statistics need a text filter column")
    # Gram-less rows (null or shorter than a gram) can never match a
    # pattern long enough to consult these statistics.
    rows_by_gram: dict[str, list[np.ndarray]] = defaultdict(list)
    for text, rows in _rows_by_value(rel, filter_col).items():
        for g in _grams(text):
            rows_by_gram[g].append(rows)
    context = "%s.%s | %s like" % (rel.name, join_col, filter_col)
    return _keyed_stats(rel, join_col, rows_by_gram, params, context)


def precompute_pk_fk(
    fact: Relation,
    dim: Relation,
    fk: str,
    pk: str,
    dim_filter_cols: tuple[str, ...],
) -> tuple[Relation, dict[str, str]]:
    """Push a dimension's filter columns down onto the fact table.

    The primary key must be unique and non-null.  Each fact row gets, for
    every dimension filter column, the value of its matching dimension row
    (null when the foreign key matches nothing).  Predicates on the
    dimension can then be evaluated against the fact's own statistics.
    """
    if dim.kind_of(pk) != fact.kind_of(fk):
        raise StatsBuildError(
            "%s.%s (%s) cannot reference %s.%s (%s): key columns must share a kind"
            % (fact.name, fk, fact.kind_of(fk), dim.name, pk, dim.kind_of(pk))
        )
    pk_data, fk_data = dim.data[pk], fact.data[fk]
    if isinstance(pk_data, np.ndarray):
        keys, codes = _codes(np.concatenate([pk_data, fk_data]))
    else:
        keys, codes = _codes([*pk_data, *fk_data])
    pk_codes = codes[: dim.n_rows]
    # the first null or repeated key in row order names the error
    first = np.zeros(dim.n_rows, dtype=bool)
    first[np.unique(pk_codes, return_index=True)[1]] = True
    bad = np.flatnonzero((pk_codes < 0) | ~first)
    if bad.size:
        row = bad[0]
        if pk_codes[row] < 0:
            raise StatsBuildError("%s.%s: null in primary key" % (dim.name, pk))
        dup = (pk_data.tolist() if isinstance(pk_data, np.ndarray) else pk_data)[row]
        raise StatsBuildError("%s.%s: duplicate primary key %r" % (dim.name, pk, dup))
    # Index -1 names the slot past the last key, and past the last row of
    # each padded dimension column: a null or unmatched key reads a null.
    row_of = np.full(len(keys) + 1, -1, dtype=np.intp)
    row_of[pk_codes] = np.arange(dim.n_rows)
    matches = row_of[codes[dim.n_rows :]]
    columns = list(fact.columns)
    data = dict(fact.data)
    propagated: dict[str, str] = {}
    for col in dim_filter_cols:
        prop = "__%s__%s" % (dim.name, col)
        if fact.has_column(prop):
            raise StatsBuildError("propagated column name %r collides" % prop)
        src = dim.data[col]
        if isinstance(src, np.ndarray):
            data[prop] = np.append(src, np.nan)[matches]
        else:
            data[prop] = list(map([*src, None].__getitem__, matches.tolist()))
        columns.append(Column(prop, dim.kind_of(col)))
        propagated[col] = prop
    return Relation(fact.name, columns, data, fact.n_rows), propagated


def build_catalog(
    relations: dict[str, Relation],
    roles: dict[str, ColumnRole],
    pkfk: tuple[PkFkDeclaration, ...] = (),
    params: BuildParams | None = None,
) -> StatisticsCatalog:
    """Build the full statistics catalog for a workspace."""
    params = params or BuildParams()
    for name, role in roles.items():
        rel = relations[name]
        for c in role.join_columns + role.filter_columns:
            if not rel.has_column(c):
                raise ConfigError("relation %r: role names unknown column %r" % (name, c))
    work = dict(relations)
    work_roles = dict(roles)
    edges: list[PkFkEdge] = []
    for decl in pkfk:
        fact = work[decl.fact]
        dim = work[decl.dim]
        new_fact, propagated = precompute_pk_fk(
            fact, dim, decl.fk, decl.pk, roles[decl.dim].filter_columns
        )
        work[decl.fact] = new_fact
        old = work_roles[decl.fact]
        work_roles[decl.fact] = ColumnRole(
            old.join_columns, old.filter_columns + tuple(propagated.values())
        )
        edges.append(PkFkEdge(decl.fact, decl.fk, decl.dim, decl.pk, propagated))
    rel_stats: dict[str, RelationStats] = {}
    for name in sorted(work):
        rel = work[name]
        role = work_roles[name]
        fallback = {
            col.name: _audited_profile(rel, col.name, None, params)
            for col in rel.columns
        }
        equality: dict[tuple[str, str], FilterStats] = {}
        range_: dict[tuple[str, str], FilterStats] = {}
        like: dict[tuple[str, str], FilterStats] = {}
        for j in role.join_columns:
            for f in role.filter_columns:
                equality[(j, f)] = build_equality_stats(rel, j, f, params)
                if rel.kind_of(f) == "numeric":
                    range_[(j, f)] = build_range_stats(rel, j, f, params, fallback[j])
                else:
                    like[(j, f)] = build_like_stats(rel, j, f, params)
        rel_stats[name] = RelationStats(
            name=name,
            cardinality=rel.n_rows,
            column_kinds={c.name: c.kind for c in rel.columns},
            join_columns=role.join_columns,
            filter_columns=role.filter_columns,
            fallback=fallback,
            equality=equality,
            range=range_,
            like=like,
        )
    return StatisticsCatalog(params, rel_stats, tuple(edges))
