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

Every profile is a degree sequence: the descending value frequencies of
one column over some rows.  :func:`_codes` is the only definition of
value identity (nulls dropped, -0.0 equal to 0.0).  The builder codes
each column of a relation once, and a column's fallback is the bincount
of its codes (:func:`extract_degree_sequence`).  It groups the rows of
one filter column at a time by value, for all of that column's families.
The exact join-column degrees of tracked keys, histogram buckets and the
keyed tail all come from one batched pass, :func:`_degree_batches`,
which counts (row set, join code) pairs a batch of whole row sets at a
time, a quarter of the column's rows or ``BATCH_MIN_ROWS`` per batch.

Every compressed profile is audited against the exact sequence it stands
for, and every representative and keyed default against the exact
profiles they cover, before they enter the catalog.  Equal sequences
(one-value buckets and their value, short groups, relations of one
shape) share one audited profile object: :func:`build_catalog` hands
every builder one profile table per call, keyed by exact run-length form.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import islice, pairwise
from typing import NamedTuple

import numpy as np

from .compress import distances_to, drop_vectors, is_valid_compression, shortfall, valid_compress
from .pwfn import (
    DegreeSequence,
    PiecewiseLinearFn,
    _upper_concave_envelope,
    pw_max,
    sample_integer_ranks,  # noqa: F401  unused; perfbench/bench_trace.py wraps it here
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
# Range histograms split a filter column into at most 2**HIST_DEPTH
# equi-depth buckets at the finest level.
HIST_DEPTH = 7
# Smallest batch of _degree_batches, in rows: below it numpy's fixed cost
# per batch outweighs the smaller work arrays.
BATCH_MIN_ROWS = 16384


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
    mcv_size: int = 1000

    def __post_init__(self) -> None:
        budget = self.compression_budget
        # an integer past the float range would overflow in valid_compress
        if not (
            _is_number(budget)
            and budget > 0.0
            and (type(budget) is float or budget <= sys.float_info.max)
        ):
            raise ConfigError("compression_budget must be a positive number within the float range")
        if not (_is_int(self.mcv_size) and self.mcv_size >= 0):
            raise ConfigError("mcv_size must be a non-negative integer")


def make_build_params(raw: dict) -> BuildParams:
    """Build parameters from outside input (schema, catalog payload);
    raises ConfigError for an unknown key or an invalid value."""
    unknown = set(raw) - {f.name for f in fields(BuildParams)}
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
    statistics have no keys: ascending ``cuts`` split the finest level into
    ``len(cuts) + 1`` buckets, level k < ``len(cuts).bit_length()`` has
    ``(len(cuts) >> k) + 1``, its bucket m the union of finest buckets
    m * 2**k .. (m + 1) * 2**k - 1 with representative ``levels[k][m]``,
    and ``default`` is the join column's unconditioned profile.
    """

    representatives: tuple[PiecewiseLinearFn, ...]
    default: PiecewiseLinearFn
    keys: dict = field(default_factory=dict)
    cuts: tuple[float, ...] = ()
    levels: tuple[tuple[int, ...], ...] = ()


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


def _codes(data) -> tuple[list, np.ndarray]:
    """The one definition of value identity: the distinct non-null values
    of a column and every row's index into them, -1 for null.  Numbers are
    coded with ``np.unique`` (ascending, and -0.0 and 0.0 are one value);
    texts keep the order in which they first appear."""
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


def extract_degree_sequence(codes: np.ndarray) -> DegreeSequence:
    """Degree sequence of a coded column (see :func:`_codes`); nulls, coded
    -1, are dropped: they never join."""
    return DegreeSequence.from_counts(np.bincount(codes[codes >= 0]))


class RowGroups(NamedTuple):
    """The non-null rows of a filter column grouped by value: ``rows``
    lists them value by value, in ascending row order within one, and
    ``values[i]`` holds ``rows[bounds[i]:bounds[i + 1]]``."""

    column: str
    values: list
    rows: np.ndarray
    bounds: np.ndarray

    def parts(self) -> list[np.ndarray]:
        return np.split(self.rows, self.bounds[1:-1])


def _row_groups(column: str, values: list, codes: np.ndarray) -> RowGroups:
    live = np.flatnonzero(codes >= 0)
    keys = codes[live]
    # numpy's stable sort of 16-bit integers is a radix sort, several times faster
    order = np.argsort(keys.astype(np.uint16) if len(values) <= 1 << 16 else keys, kind="stable")
    counts = np.bincount(keys, minlength=len(values))
    return RowGroups(column, values, live[order], np.concatenate(([0], np.cumsum(counts))))


def _degree_batches(join_codes: np.ndarray, sets: list[list[np.ndarray]]):
    """Exact degrees of a coded join column over row sets, each given as
    one or more disjoint row-index parts.

    ``np.bincount`` counts the (set, join code) pairs of a batch when sets
    x codes is at most 4 per live row, ``np.unique`` otherwise; one sort of
    set * (c + 1) + (c - count), c the largest count, orders each set's
    counts descending.  Whole sets go through in batches: a set joins the
    batch in which its last row falls, at a quarter of the column's rows or
    ``BATCH_MIN_ROWS`` per batch, whichever is more, so the work arrays stay
    near that plus the largest set however many sets share a row.  Each
    batch yields ``(degrees, offsets)``: its k-th set's degrees are
    ``degrees[offsets[k]:offsets[k + 1]]``.
    """
    width = int(join_codes.max(initial=-1)) + 1
    sizes = np.array([sum(part.size for part in parts) for parts in sets], dtype=np.int64)
    batch_of = (np.cumsum(sizes) - 1) // max(BATCH_MIN_ROWS, join_codes.size // 4)
    cuts = [*np.flatnonzero(np.diff(batch_of, prepend=-2)).tolist(), len(sets)]
    for lo, hi in zip(cuts, cuts[1:]):
        keys = join_codes[np.concatenate([part for parts in sets[lo:hi] for part in parts])]
        owner = np.repeat(np.arange(hi - lo, dtype=np.int64), sizes[lo:hi])
        live = keys >= 0
        pair = owner[live] * width + keys[live]
        if (hi - lo) * width <= 4 * pair.size:
            tally = np.bincount(pair)
            pairs = np.flatnonzero(tally)
            counts = tally[pairs]
        else:
            pairs, counts = np.unique(pair, return_counts=True)
        owner = pairs // width
        offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=hi - lo))))
        # One sort of an int64 key orders by set, then by count descending.
        # A count is at most the batch's rows, so the key fits while sets x
        # rows < 2^63: a batch of 3 * 10^9 rows and as many sets is far past memory.
        top = int(counts.max(initial=0)) + 1
        assert (hi - lo) * top <= np.iinfo(np.int64).max
        yield top - 1 - np.sort(owner * top + (top - 1 - counts)) % top, offsets


def _audited_profile(seq, params: BuildParams, context: str) -> PiecewiseLinearFn:
    fn = valid_compress(seq, params.compression_budget)
    report = is_valid_compression(seq, fn)
    if not report.ok:
        raise StatsBuildError("compression audit failed for %s: %s" % (context, report.reason))
    return fn


def _audit(fn: PiecewiseLinearFn, curves: list, context: str) -> None:
    """Check that a stored profile dominates the curves it stands for."""
    rank = shortfall(fn, curves)
    if rank is not None:
        raise StatsBuildError(
            "profile fails to dominate what it stands for at rank %r (%s)" % (rank, context)
        )


def _member_profiles(
    batches, params: BuildParams, context: str, profiles: dict
) -> list[PiecewiseLinearFn]:
    """Audited compressed profiles of the degree sequences in ``batches``,
    given as :func:`_degree_batches` yields them, through the build's
    profile table: its key is a sequence's (degree, run length) pairs as
    int64 bytes, and only a sequence not in it is compressed and audited."""
    fns = []
    for degrees, offsets in batches:
        head = np.diff(degrees, prepend=0) != 0
        head[offsets[:-1][offsets[:-1] < degrees.size]] = True
        starts = np.flatnonzero(head)
        runs = np.stack((degrees[starts], np.diff(starts, append=degrees.size)), axis=1)
        first = np.searchsorted(starts, offsets).tolist()
        for k in range(len(first) - 1):
            seq = runs[first[k] : first[k + 1]]
            key = seq.tobytes()
            if key not in profiles:
                profiles[key] = _audited_profile(seq, params, context)
            fns.append(profiles[key])
    return fns


def _cluster_count(n_members: int) -> int:
    """Groups per family: at most max(4, ceil(members / 8))."""
    return min(n_members, max(4, math.ceil(n_members / 8)))


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


def _build_groups(
    fns: list[PiecewiseLinearFn], context: str
) -> tuple[tuple[PiecewiseLinearFn, ...], list[int]]:
    """Cluster member profiles; returns the groups' audited representatives
    and the index of every member's representative."""
    representatives: list[PiecewiseLinearFn] = []
    group_of = [0] * len(fns)
    for cluster in cluster_sequence_groups(fns, _cluster_count(len(fns))):
        member_fns = [fns[i] for i in cluster]
        rep = pw_max(member_fns)
        members = {id(fn): fn for fn in member_fns}.values()
        _audit(rep, [(fn.knots, fn.values) for fn in members], context)
        for i in cluster:
            group_of[i] = len(representatives)
        representatives.append(rep)
    return tuple(representatives), group_of


def _tail_majorant(
    join_codes: np.ndarray, sets: list[list[np.ndarray]], context: str
) -> PiecewiseLinearFn:
    """Least concave majorant of the exact join-column profiles of the
    given row sets, :func:`zero_cumulative` when there are none.

    Equal to ``pw_max`` of the exact cumulatives: the per-rank maximum of
    the running sums of each set's descending degrees, extended flat past
    each set's distinct count, then its upper concave hull.
    """
    top = np.zeros(int(join_codes.max(initial=-1)) + 2)
    for degrees, offsets in _degree_batches(join_codes, sets):
        sizes = np.diff(offsets)
        running = np.concatenate(([0], np.cumsum(degrees)))
        running = running[1:] - np.repeat(running[offsets[:-1]], sizes)
        rank = np.arange(1, degrees.size + 1) - np.repeat(offsets[:-1], sizes)
        np.maximum.at(top, rank, running.astype(np.float64))
    reached = np.flatnonzero(top)
    if reached.size == 0:
        return zero_cumulative()
    top = np.maximum.accumulate(top[: reached[-1] + 1])
    knots, values = _upper_concave_envelope(
        np.arange(top.size, dtype=np.float64).tolist(), top.tolist()
    )
    majorant = PiecewiseLinearFn(knots, values)
    _audit(majorant, [(np.arange(top.size, dtype=np.float64), top)], context)
    return majorant


def _keyed_stats(
    join_codes: np.ndarray, rows_by_key: dict, params: BuildParams, context: str, profiles: dict
) -> FilterStats:
    """Statistics keyed by filter value or 3-gram, each key's rows given as
    disjoint parts: audited and clustered profiles of the ``mcv_size`` keys
    with the most rows, and the tail majorant of every other key."""
    ordered = sorted(rows_by_key.items(), key=lambda kv: (-sum(p.size for p in kv[1]), kv[0]))
    tracked = ordered[: params.mcv_size]
    batches = _degree_batches(join_codes, [parts for _, parts in tracked])
    fns = _member_profiles(batches, params, context, profiles)
    representatives, group_of = _build_groups(fns, context)
    tail = [parts for _, parts in ordered[params.mcv_size :]]
    default = _tail_majorant(join_codes, tail, context)
    keys = {key: group for (key, _), group in zip(tracked, group_of)}
    return FilterStats(representatives, default, keys)


def build_equality_stats(
    rel: Relation,
    join_col: str,
    join_codes: np.ndarray,
    groups: RowGroups,
    params: BuildParams,
    profiles: dict,
) -> FilterStats:
    rows_by_value = {v: [rows] for v, rows in zip(groups.values, groups.parts())}
    context = "%s.%s | %s =" % (rel.name, join_col, groups.column)
    return _keyed_stats(join_codes, rows_by_value, params, context, profiles)


def _equi_depth_cuts(uniq: np.ndarray, counts: np.ndarray) -> list[float]:
    """Cuts splitting values (``uniq`` ascending, ``counts`` rows of each)
    into 2**HIST_DEPTH buckets of near-equal count; each cut is the
    smallest value of the bucket that it starts."""
    if uniq.size < 2:
        return []
    cum = np.cumsum(counts)
    parts = 2**HIST_DEPTH
    idx = np.searchsorted(cum, np.arange(1, parts) * int(cum[-1]) / parts, side="left")
    return np.unique(uniq[idx[idx + 1 < uniq.size] + 1]).tolist()


def build_range_stats(
    rel: Relation,
    join_col: str,
    join_codes: np.ndarray,
    groups: RowGroups,
    params: BuildParams,
    root: PiecewiseLinearFn,
    profiles: dict,
) -> FilterStats:
    if not isinstance(rel.data[groups.column], np.ndarray):
        raise StatsBuildError("range statistics need a numeric filter column")
    uniq = np.array(groups.values, dtype=np.float64)
    cuts = _equi_depth_cuts(uniq, np.diff(groups.bounds))
    edges = groups.bounds[[0, *np.searchsorted(uniq, cuts).tolist(), uniq.size]].tolist()
    depth = len(cuts).bit_length()
    # level k's edges, finest level first: every 2**k-th finest edge, and the last
    spans = [pairwise([*edges[: -1 : 1 << k], edges[-1]]) for k in range(depth)]
    buckets = [[groups.rows[s:e]] for level in spans for s, e in level]
    context = "%s.%s | %s range" % (rel.name, join_col, groups.column)
    fns = _member_profiles(_degree_batches(join_codes, buckets), params, context, profiles)
    representatives, group_of = _build_groups(fns, context)
    ids = iter(group_of)
    levels = tuple(tuple(islice(ids, (len(cuts) >> k) + 1)) for k in range(depth))
    return FilterStats(representatives, root, cuts=tuple(cuts), levels=levels)


def lookup_range_group(
    stats: FilterStats, lo: float | None, hi: float | None, hi_incl: bool
) -> PiecewiseLinearFn:
    """Profile of the smallest histogram bucket fully containing [lo, hi];
    the unconditioned root profile when no bucket does.  One search finds
    the finest bucket j holding lo; level k's bucket j >> k holds it too,
    and ends at the finest cut at index ((j >> k) + 1 << k) - 1."""
    cuts = stats.cuts
    j = bisect.bisect_right(cuts, -math.inf if lo is None else lo)
    hi_eff = math.inf if hi is None else hi
    for k, ids in enumerate(stats.levels):
        end = ((j >> k) + 1 << k) - 1
        upper = cuts[end] if end < len(cuts) else math.inf
        if hi_eff < upper or (hi_eff == upper and not hi_incl):
            return stats.representatives[ids[j >> k]]
    return stats.default


def _grams(text: str) -> set[str]:
    low = text.lower()
    return {low[i : i + GRAM_LEN] for i in range(len(low) - GRAM_LEN + 1)}


def build_like_stats(
    rel: Relation,
    join_col: str,
    join_codes: np.ndarray,
    groups: RowGroups,
    params: BuildParams,
    profiles: dict,
) -> FilterStats:
    if isinstance(rel.data[groups.column], np.ndarray):
        raise StatsBuildError("substring statistics need a text filter column")
    # Gram-less rows (null or shorter than a gram) can never match a
    # pattern long enough to consult these statistics.
    rows_by_gram: dict[str, list[np.ndarray]] = defaultdict(list)
    for text, rows in zip(groups.values, groups.parts()):
        for g in _grams(text):
            rows_by_gram[g].append(rows)
    context = "%s.%s | %s like" % (rel.name, join_col, groups.column)
    return _keyed_stats(join_codes, rows_by_gram, params, context, profiles)


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
    for rel, col in ((fact, fk), (dim, pk)):
        if not rel.has_column(col):
            raise ConfigError("pk_fk names unknown column %r.%r" % (rel.name, col))
    for col in dim_filter_cols:
        if not dim.has_column(col):
            raise ConfigError("relation %r: role names unknown column %r" % (dim.name, col))
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


def _relation_stats(
    rel: Relation, role: ColumnRole, params: BuildParams, profiles: dict
) -> RelationStats:
    """Every statistic of one relation.  Each column is coded once, and
    the row groups of one filter column at a time serve all its families."""
    fallback: dict[str, PiecewiseLinearFn] = {}

    def coded(column: str) -> tuple[list, np.ndarray]:
        values, codes = _codes(rel.data[column])
        seq = extract_degree_sequence(codes)
        batch = np.array(seq.freqs, dtype=np.int64), np.array([0, seq.distinct])
        context = "%s.%s" % (rel.name, column)
        [fallback[column]] = _member_profiles([batch], params, context, profiles)
        return values, codes

    joins = {j: coded(j)[1] for j in role.join_columns}
    families: dict[str, dict[tuple[str, str], FilterStats]] = {f: {} for f in FAMILIES}
    for f in role.filter_columns:
        groups = _row_groups(f, *coded(f))
        for j, codes in joins.items():
            args = (rel, j, codes, groups, params)
            families["equality"][(j, f)] = build_equality_stats(*args, profiles)
            if rel.kind_of(f) == "numeric":
                families["range"][(j, f)] = build_range_stats(*args, fallback[j], profiles)
            else:
                families["like"][(j, f)] = build_like_stats(*args, profiles)
    for col in rel.columns:
        if col.name not in fallback:
            coded(col.name)
    return RelationStats(
        name=rel.name,
        cardinality=rel.n_rows,
        column_kinds={c.name: c.kind for c in rel.columns},
        join_columns=role.join_columns,
        filter_columns=role.filter_columns,
        fallback={c.name: fallback[c.name] for c in rel.columns},
        **families,
    )


def build_catalog(
    relations: dict[str, Relation],
    roles: dict[str, ColumnRole],
    pkfk: tuple[PkFkDeclaration, ...] = (),
    params: BuildParams | None = None,
) -> StatisticsCatalog:
    """Build the full statistics catalog for a workspace.  Every caller's
    relation, role and link names are checked here (ConfigError), and the
    key columns of each link in :func:`precompute_pk_fk`."""
    params = params or BuildParams()
    if relations.keys() - roles.keys():
        raise ConfigError("relation %r has no role" % min(relations.keys() - roles.keys()))
    for name, role in roles.items():
        if name not in relations:
            raise ConfigError("role names unknown relation %r" % name)
        for c in role.join_columns + role.filter_columns:
            if not relations[name].has_column(c):
                raise ConfigError("relation %r: role names unknown column %r" % (name, c))
    for decl in pkfk:
        for rel_name, col in ((decl.fact, decl.fk), (decl.dim, decl.pk)):
            if rel_name not in relations:
                raise ConfigError("pk_fk names unknown relation %r" % rel_name)
            if not relations[rel_name].has_column(col):
                raise ConfigError("pk_fk names unknown column %r.%r" % (rel_name, col))
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
    profiles: dict[bytes, PiecewiseLinearFn] = {}
    rel_stats = {n: _relation_stats(work[n], work_roles[n], params, profiles) for n in sorted(work)}
    return StatisticsCatalog(params, rel_stats, tuple(edges))
