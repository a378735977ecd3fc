import bisect
import math
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqbound import stats as stats_module
from seqbound.compress import distances_to, drop_vectors, valid_compress
from seqbound.pwfn import (
    DegreeSequence,
    PiecewiseLinearFn,
    pw_max,
    sample_integer_ranks,
    zero_cumulative,
)
from seqbound.relation import Column, ColumnRole, ConfigError, PkFkDeclaration, Relation
from seqbound.stats import (
    BuildParams,
    FilterStats,
    StatsBuildError,
    build_catalog,
    build_equality_stats,
    build_like_stats,
    build_range_stats,
    cluster_sequence_groups,
    extract_degree_sequence,
    lookup_range_group,
    make_build_params,
    precompute_pk_fk,
)


def cum(freqs) -> PiecewiseLinearFn:
    knots = [0.0]
    values = [0.0]
    for i, f in enumerate(freqs, start=1):
        knots.append(float(i))
        values.append(values[-1] + f)
    return PiecewiseLinearFn(knots, values)


def codes_of(rel: Relation, column: str) -> np.ndarray:
    return stats_module._codes(rel.data[column])[1]


def row_groups(rel: Relation, column: str) -> stats_module.RowGroups:
    return stats_module._row_groups(column, *stats_module._codes(rel.data[column]))


def family(build, rel: Relation, join_col: str, filter_col: str, params: BuildParams, *root):
    """A family builder called as ``build_catalog`` calls it, with a fresh
    profile table."""
    codes, groups = codes_of(rel, join_col), row_groups(rel, filter_col)
    return build(rel, join_col, codes, groups, params, *root, {})


def audited(rel: Relation, rows: np.ndarray, params: BuildParams) -> PiecewiseLinearFn:
    """The compressed, audited profile of ``j`` over the given rows."""
    return stats_module._audited_profile(
        extract_degree_sequence(codes_of(rel, "j")[rows]), params, "r.j"
    )


class TestBuildParams:
    def test_defaults(self):
        assert asdict(BuildParams()) == {"compression_budget": 0.01, "mcv_size": 1000}
        assert stats_module.HIST_DEPTH == 7

    def test_validation(self):
        with pytest.raises(ConfigError):
            BuildParams(compression_budget=-1)
        with pytest.raises(ConfigError):
            BuildParams(mcv_size=-1)

    @pytest.mark.parametrize(
        "raw",
        [
            {"mcv_size": 2.5},
            {"mcv_size": "3"},
            {"compression_budget": "0.1"},
            {"compression_budget": float("nan")},
            # once passed, then overflowed converting to a float in valid_compress
            {"compression_budget": 10**400},
        ],
    )
    def test_wrongly_typed_values_are_config_errors(self, raw):
        with pytest.raises(ConfigError):
            make_build_params(raw)

    def test_make_rejects_unknown_keys(self):
        # max_segments, hist_depth and clusters were parameters of earlier formats
        for key in ("fanciness", "max_segments", "hist_depth", "clusters"):
            with pytest.raises(ConfigError, match="unknown build parameters: %s" % key):
                make_build_params({key: 3})
        assert make_build_params({"mcv_size": 7}).mcv_size == 7


class TestExtractDegreeSequence:
    def test_numeric_with_nulls(self):
        rel = Relation(
            "r",
            [Column("a", "numeric")],
            {"a": np.array([1.0, 1.0, 2.0, np.nan, 1.0])},
            5,
        )
        assert extract_degree_sequence(codes_of(rel, "a")) == DegreeSequence((3, 1))

    def test_text_restricted_rows(self):
        rel = Relation(
            "r",
            [Column("s", "text")],
            {"s": ["x", "y", "x", None, "x"]},
            5,
        )
        rows = np.array([0, 2, 3], dtype=np.intp)
        assert extract_degree_sequence(codes_of(rel, "s")[rows]) == DegreeSequence((2,))


class TestRowGroups:
    @pytest.mark.parametrize("distinct", [1 << 16, (1 << 16) + 1])
    def test_matches_stable_argsort(self, distinct):
        # codes 0..distinct-1, each on one to three rows, and nulls, shuffled:
        # the uint16 sort stops at 2^16 distinct values
        rng = np.random.default_rng(distinct)
        codes = np.repeat(np.arange(-1, distinct), rng.integers(1, 4, distinct + 1))
        codes = rng.permutation(codes)
        groups = stats_module._row_groups("f", list(range(distinct)), codes)
        live = np.flatnonzero(codes >= 0)
        assert groups.rows.tolist() == live[np.argsort(codes[live], kind="stable")].tolist()
        assert groups.bounds.tolist() == [0, *np.cumsum(np.bincount(codes[live])).tolist()]


def counter_degrees(cells: list, sets: list[list[np.ndarray]]) -> list[list[int]]:
    """Descending degrees of each row set, counted cell by cell; Python's ==
    makes -0.0 and 0.0 one key, and None and NaN never join."""
    out = []
    for parts in sets:
        keys = [cells[r] for part in parts for r in part.tolist()]
        live = Counter(k for k in keys if k is not None and k == k)
        out.append(sorted(live.values(), reverse=True))
    return out


FLOOR = stats_module.BATCH_MIN_ROWS


def padded(column, sets: list[list[np.ndarray]], pad: int, nulls=()):
    """The join codes of a column with ``pad`` null rows appended, and the
    sets with the first ``nulls[k]`` of those rows added to set k as one
    more part.  Null rows never join, but they count towards the batches
    (``BATCH_MIN_ROWS`` rows or a quarter of the column, whichever is more),
    so they move batch boundaries into the sets."""
    n = len(column)
    if isinstance(column, np.ndarray):
        column = np.append(column, np.full(pad, np.nan))
    else:
        column = column + [None] * pad
    extra = [[np.arange(n, n + k, dtype=np.intp)] for k in nulls]
    grown = [parts + more for parts, more in zip(sets, extra)] + sets[len(extra) :]
    return stats_module._codes(column)[1], grown


def straddles(codes: np.ndarray, sets: list[list[np.ndarray]]) -> int:
    """How many sets have rows in more than one batch of the shared pass."""
    width = max(FLOOR, codes.size // 4)
    sizes = np.array([sum(part.size for part in parts) for parts in sets], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    return int(np.sum((ends > starts) & (starts // width != (ends - 1) // width)))


def shared_pass(column, sets: list[list[np.ndarray]], pad: int, nulls=()) -> list[list[int]]:
    """The shared pass over :func:`padded` sets."""
    codes, sets = padded(column, sets, pad, nulls)
    return [
        degrees.tolist()
        for batch, offsets in stats_module._degree_batches(codes, sets)
        for degrees in np.split(batch, offsets[1:-1])
    ]


@st.composite
def coded_sets(draw):
    """A numeric join column with NaN, -0.0 and 0.0 keys, or a text one
    with None keys, row sets of one to three disjoint parts, and null
    padding in multiples of the batch floor, some of it added to the sets."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        pool = st.sampled_from([0.0, -0.0, 1.0, 2.5, 7.0, np.nan])
        column = np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=np.float64)
    else:
        column = draw(st.lists(st.sampled_from(["a", "b", "", "cc", None]), min_size=n, max_size=n))
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        rows = draw(st.lists(st.integers(0, max(0, n - 1)), unique=True, max_size=n)) if n else []
        cut = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        bounds = [0, *cut, len(rows)]
        sets.append([np.array(rows[a:b], dtype=np.intp) for a, b in zip(bounds, bounds[1:])])
    pad = FLOOR * draw(st.integers(0, 2))
    nulls = draw(st.lists(st.integers(0, pad), max_size=len(sets)))
    return column, sets, pad, nulls


class TestSharedDegreePass:
    @settings(max_examples=300, deadline=None)
    @given(coded_sets())
    def test_matches_counting_every_set(self, case):
        column, sets, pad, nulls = case
        cells = column.tolist() if isinstance(column, np.ndarray) else column
        assert shared_pass(column, sets, pad, nulls) == counter_degrees(cells, sets)

    def test_pinned_sets_across_batch_boundaries(self):
        column = np.array([0.0, -0.0, np.nan, 1.0, 1.0, 0.0, np.nan, 2.0, -0.0, 1.0])
        sets = [
            [np.array([0, 1, 3])],
            [np.array([2, 6])],  # only null keys
            [np.array([], dtype=np.intp)],  # no rows
            [np.array([4, 5]), np.array([8, 9, 7])],  # two parts
            [np.array([0, 1, 5, 8, 3, 4, 9])],  # longer than most batches
            [np.array([7])],
        ]
        want = [[2, 1], [], [], [2, 2, 1], [4, 3], [1]]
        assert counter_degrees(column.tolist(), sets) == want
        # one batch holds every set; null rows added to the sets then put
        # batch boundaries (every FLOOR, FLOOR + 2 or 2 * FLOOR + 2 rows)
        # inside two to four of them
        assert shared_pass(column, sets, 0) == want
        assert straddles(*padded(column, sets, 0)) == 0
        for pad, nulls in (
            (FLOOR, (FLOOR // 2,) * 6),
            (FLOOR, (FLOOR, 1, 0, FLOOR - 3, 2, FLOOR)),
            (4 * FLOOR, (0, 3 * FLOOR, FLOOR, 2, 0, 4 * FLOOR)),
            (8 * FLOOR, (8 * FLOOR, 0, 0, 5 * FLOOR)),
        ):
            assert straddles(*padded(column, sets, pad, nulls)) >= 1
            assert shared_pass(column, sets, pad, nulls) == want
        assert shared_pass(column, [], 0) == []
        text = ["a", None, "b", "a", None]
        assert shared_pass(text, [[np.array([1, 4])], [np.array([0, 3, 2])]], 0) == [[], [2, 1]]


def sorted_degree_batches(join_codes: np.ndarray, sets: list[list[np.ndarray]]):
    """``_degree_batches`` as it was before the dense tally: one
    ``np.unique`` counts the pairs of a batch, one ``np.lexsort`` orders
    each set's counts descending; the same batches."""
    width = int(join_codes.max(initial=-1)) + 1
    sizes = np.array([sum(part.size for part in parts) for parts in sets], dtype=np.int64)
    batch_of = (np.cumsum(sizes) - 1) // max(FLOOR, join_codes.size // 4)
    cuts = [*np.flatnonzero(np.diff(batch_of, prepend=-2)).tolist(), len(sets)]
    for lo, hi in zip(cuts, cuts[1:]):
        keys = join_codes[np.concatenate([part for parts in sets[lo:hi] for part in parts])]
        owner = np.repeat(np.arange(hi - lo, dtype=np.int64), sizes[lo:hi])
        live = keys >= 0
        pairs, counts = np.unique(owner[live] * width + keys[live], return_counts=True)
        owner = pairs // width
        offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=hi - lo))))
        yield counts[np.lexsort((-counts, owner))], offsets


@st.composite
def tally_cases(draw):
    """Join codes with nulls (-1), sets of one to three disjoint parts, and
    null padding of zero to two batch floors, some of it added to the sets.
    Dense cases have at most 4 codes and a live row in every set, so every
    batch has sets * width <= 4 * live rows and is tallied; sparse cases
    have more than 4 codes per row, so no batch is."""
    dense = draw(st.booleans())
    n = draw(st.integers(1, 60))
    width = draw(st.integers(1, 4)) if dense else 4 * n + draw(st.integers(1, 1000))
    codes = np.array(draw(st.lists(st.integers(-1, width - 1), min_size=n, max_size=n)))
    codes[draw(st.integers(0, n - 1))] = width - 1
    live = np.flatnonzero(codes >= 0).tolist()
    sets = []
    for _ in range(draw(st.integers(0, 8))):
        rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if dense and not set(rows) & set(live):
            rows.append(draw(st.sampled_from(live)))
        cut = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        bounds = [0, *cut, len(rows)]
        sets.append([np.array(rows[a:b], dtype=np.intp) for a, b in zip(bounds, bounds[1:])])
    pad = FLOOR * draw(st.integers(0, 2))
    for k, extra in enumerate(draw(st.lists(st.integers(0, pad), max_size=len(sets)))):
        sets[k].append(np.arange(n, n + extra, dtype=np.intp))
    return np.concatenate([codes, np.full(pad, -1)]).astype(np.intp), sets


class TestDenseTally:
    @settings(max_examples=300, deadline=None)
    @given(tally_cases())
    def test_matches_sorting_the_pairs(self, case):
        codes, sets = case
        got = list(stats_module._degree_batches(codes, sets))
        want = list(sorted_degree_batches(codes, sets))
        assert len(got) == len(want)
        for (degrees, offsets), (want_degrees, want_offsets) in zip(got, want):
            assert degrees.dtype == want_degrees.dtype and offsets.dtype == want_offsets.dtype
            assert degrees.tolist() == want_degrees.tolist()
            assert offsets.tolist() == want_offsets.tolist()


@st.composite
def member_sets(draw):
    """A join column whose first 12 rows give the sequences (3, 1), (2, 2)
    and (2, 1, 1), equal in length or total, then random keys; the sets of
    those rows, an empty set and random sets, in any order, with null
    padding in multiples of the batch floor, some of it added to the sets."""
    tail = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, np.nan]), max_size=30))
    column = np.array([10, 10, 10, 11, 12, 12, 13, 13, 14, 14, 15, 16, *tail], dtype=np.float64)
    sets = [[np.arange(0, 4)], [np.arange(4, 8)], [np.arange(8, 12)], [np.arange(0)]]
    for _ in range(draw(st.integers(0, 6))):
        rows = draw(st.lists(st.integers(0, column.size - 1), unique=True, max_size=column.size))
        sets.append([np.array(rows, dtype=np.intp)])
    sets = draw(st.permutations(sets))
    pad = FLOOR * draw(st.integers(0, 2))
    return column, sets, pad, draw(st.lists(st.integers(0, pad), max_size=len(sets)))


def counting(monkeypatch, *names: str) -> dict[str, list]:
    """Wrap the named ``seqbound.stats`` functions to record the degree
    sequence of every call: the builder passes each as its (degree, run
    length) pairs, which are expanded back to a DegreeSequence."""
    calls: dict[str, list] = {name: [] for name in names}
    for name in names:
        fn, log = getattr(stats_module, name), calls[name]

        def wrapped(first, *args, _fn=fn, _log=log, **kwargs):
            _log.append(DegreeSequence(np.repeat(first[:, 0], first[:, 1])))
            return _fn(first, *args, **kwargs)

        monkeypatch.setattr(stats_module, name, wrapped)
    return calls


def twin_relations() -> dict[str, Relation]:
    """Two equal relations; each of the five values of f has 5 rows and
    its own join-column degrees (5), (4, 1), (3, 1, 1), (2, 2, 1), (1,) * 5."""
    j = np.array([0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 1, 1, 2, 0, 1, 2, 3, 4.0])
    f = np.repeat(np.arange(5.0), 5)
    columns = [Column("j", "numeric"), Column("f", "numeric")]
    return {name: Relation(name, columns, {"j": j.copy(), "f": f.copy()}, 25) for name in "rs"}


def member_profiles(codes, sets, params: BuildParams, profiles: dict) -> list[PiecewiseLinearFn]:
    batches = stats_module._degree_batches(codes, sets)
    return stats_module._member_profiles(batches, params, "r.j", profiles)


class TestProfileTable:
    ROLES = {name: ColumnRole(("j",), ("f",)) for name in "rs"}

    def test_each_distinct_sequence_is_compressed_and_audited_once(self, monkeypatch):
        relations = twin_relations()
        calls = counting(monkeypatch, "valid_compress", "is_valid_compression")
        members = []
        cluster = stats_module.cluster_sequence_groups

        def recorded(fns, n_groups):
            members.append(fns)
            return cluster(fns, n_groups)

        monkeypatch.setattr(stats_module, "cluster_sequence_groups", recorded)
        # 2**HIST_DEPTH buckets over 25 rows: the finest range level has one
        # bucket per value
        catalog = build_catalog(relations, self.ROLES)
        r_eq, r_range, s_eq, s_range = members
        assert all(a is b for a, b in zip(r_eq + r_range, s_eq + s_range, strict=True))
        assert all(a is b for a, b in zip(r_eq, r_range[:5], strict=True))
        r, s = catalog.relations["r"], catalog.relations["s"]
        assert r.fallback["j"] is s.fallback["j"] is s.range[("j", "f")].default
        # every sequence a profile stands for: both fallbacks, each value
        # and each bucket of every histogram level
        rel = relations["r"]
        codes, f = codes_of(rel, "j"), rel.data["f"]
        seqs = {extract_degree_sequence(codes_of(rel, c)) for c in ("j", "f")}
        seqs |= {extract_degree_sequence(codes[f == v]) for v in range(5)}
        rs = r.range[("j", "f")]
        for k in range(len(rs.levels)):
            # level k's cuts are every 2**k-th finest cut
            edges = [-np.inf, *rs.cuts[(1 << k) - 1 :: 1 << k], np.inf]
            for lo, hi in zip(edges, edges[1:]):
                seqs.add(extract_degree_sequence(codes[(f >= lo) & (f < hi)]))
        assert len(seqs) == 10 < len(r_eq + r_range + s_eq + s_range) + 4
        for name in ("valid_compress", "is_valid_compression"):
            assert Counter(calls[name]) == Counter(dict.fromkeys(seqs, 1))

    def test_no_table_outlives_a_build(self, monkeypatch):
        relations = twin_relations()
        calls = counting(monkeypatch, "valid_compress")["valid_compress"]
        build_catalog(relations, self.ROLES)
        first = len(calls)
        build_catalog(relations, self.ROLES)
        assert len(calls) == 2 * first > 0

    @settings(max_examples=100, deadline=None)
    @given(member_sets())
    def test_profiles_match_their_own_sequences(self, case):
        column, sets, pad, nulls = case
        codes, grown = padded(column, sets, pad, nulls)
        params = BuildParams()
        profiles: dict = {}
        # two calls on one table: the second also reads what the first stored
        half = len(grown) // 2
        got = [
            *member_profiles(codes, grown[:half], params, profiles),
            *member_profiles(codes, grown[half:], params, profiles),
        ]
        want = counter_degrees(column.tolist(), sets)
        for fn, degrees in zip(got, want, strict=True):
            assert fn == stats_module._audited_profile(DegreeSequence(degrees), params, "r.j")


class TestClustering:
    def test_distance_drives_merge(self):
        # two identical [2,2] profiles pair up before either joins [4]
        fns = [cum((2, 2)), cum((2, 2)), cum((4,))]
        assert cluster_sequence_groups(fns, 2) == [[0, 1], [2]]

    def test_zero_mass_gets_own_cluster(self):
        fns = [cum((3, 1)), PiecewiseLinearFn((0, 2), (0, 0)), cum((3, 1))]
        clusters = cluster_sequence_groups(fns, 2)
        assert [1] in clusters

    def test_repeated_objects_cluster_like_copies(self):
        short = [cum(freqs) for freqs in [(2, 2), (4,), (3, 1), (9, 1), (2, 2, 1)]]
        # a profile longer than FULL_GRID_RANKS switches to the log sketch
        for pool in (short, short + [cum((1,) * 300)]):
            repeated = [pool[i % len(pool)] for i in (0, 1, 0, 2, 3, 0, 1, 4, 2, 5, 5)]
            copies = [PiecewiseLinearFn(fn.knots, fn.values) for fn in repeated]
            for n_groups in (1, 2, 3, 5):
                want = cluster_sequence_groups(copies, n_groups)
                assert cluster_sequence_groups(repeated, n_groups) == want

    def test_fewer_members_than_groups(self):
        fns = [cum((2,)), cum((9, 1))]
        assert cluster_sequence_groups(fns, 5) == [[0], [1]]

    def test_empty(self):
        assert cluster_sequence_groups([], 3) == []

    def test_group_count_respected(self):
        fns = [cum((k, 1)) for k in range(2, 12)]
        assert len(cluster_sequence_groups(fns, 3)) == 3

    def test_two_families_of_long_profiles(self):
        # about 5 000 ranks each, so distances come from the log-rank
        # sketch: steep Zipf-like profiles and flat ones
        rng = np.random.default_rng(8)
        fns = []
        for i in range(12):
            d = int(rng.integers(4800, 5200))
            if i % 2:
                freqs = np.full(d, int(rng.integers(3, 5)))
            else:
                freqs = np.maximum(1, 2000 // np.arange(1, d + 1) ** rng.uniform(1.0, 1.2))
            fns.append(cum(freqs.astype(int).tolist()))
        assert cluster_sequence_groups(fns, 2) == [list(range(0, 12, 2)), list(range(1, 12, 2))]

    def test_ties_go_to_the_earlier_centre(self):
        # [4,2,2,2] envelopes both centres, whose squared drops both sum
        # to 16, so it lies at exactly 1 + 28/16 from each
        fns = [cum((2, 2, 2, 2)), cum((4,)), cum((4, 2, 2, 2))]
        assert cluster_sequence_groups(fns, 2) == [[0, 2], [1]]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(1, 30), min_size=1, max_size=12).map(
                lambda f: sorted(f, reverse=True)
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(0, 7), min_size=1, max_size=30),
        st.integers(1, 10),
    )
    def test_farthest_first_properties(self, pool, picks, n_groups):
        # members drawn with repetition from a small pool, so some are identical
        freqs = [pool[i % len(pool)] for i in picks]
        fns = [cum(f) for f in freqs]
        clusters = cluster_sequence_groups(fns, n_groups)
        assert clusters == cluster_sequence_groups(fns, n_groups)
        assert sorted(i for c in clusters for i in c) == list(range(len(fns)))
        assert all(c == sorted(c) for c in clusters)
        assert [c[0] for c in clusters] == sorted(c[0] for c in clusters)
        assert len(clusters) <= n_groups
        group_of = {i: g for g, c in enumerate(clusters) for i in c}
        for i in range(len(fns)):
            for j in range(i):
                if freqs[i] == freqs[j]:
                    assert group_of[i] == group_of[j]
        # replay the traversal on the same distances: the first member is
        # the first centre, each next one the first farthest from its
        # nearest centre, until n_groups or only copies of centres remain
        drops, sq = drop_vectors(fns)
        dist = [distances_to(drops, sq, i) for i in range(len(fns))]
        centres = [0]
        while len(centres) < n_groups:
            near = [min(dist[c][j] for c in centres) for j in range(len(fns))]
            far = max(range(len(fns)), key=lambda j: (near[j], -j))
            if near[far] <= 2.0:
                break
            centres.append(far)
        assert len(clusters) == len(centres)
        for cluster in clusters:
            (own,) = [k for k, c in enumerate(centres) if c in cluster]
            for j in cluster:
                assert all(dist[centres[own]][j] <= dist[c][j] for c in centres)
                # ties go to the centre picked first
                assert all(dist[c][j] > dist[centres[own]][j] for c in centres[:own])

    def test_clustering_memory_is_linear_in_members(self):
        # 3 000 profiles of 2-400 ranks, as many as a deep histogram gives
        # one (join, filter) pair; an m x m float matrix alone is 72 MB
        rng = np.random.default_rng(12)
        fns = []
        for _ in range(3000):
            d = int(rng.integers(2, 401))
            freqs = rng.integers(2, 60) // np.arange(1, d + 1) ** rng.uniform(0, 1)
            seq = DegreeSequence(np.maximum(1, freqs).astype(int).tolist())
            fns.append(valid_compress(seq, 0.05))
        n_groups = stats_module._cluster_count(len(fns))
        tracemalloc.start()
        try:
            clusters = cluster_sequence_groups(fns, n_groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clusters) <= n_groups
        assert peak < 16 * 2**20


def little_relation() -> Relation:
    # join column j is a key; filter f has counts a:3 b:2 c:1
    return Relation(
        "r",
        [Column("j", "numeric"), Column("f", "text")],
        {
            "j": np.arange(1.0, 7.0),
            "f": ["a", "a", "a", "b", "b", "c"],
        },
        6,
    )


class TestEqualityStats:
    def test_mcv_split_and_keys(self):
        rel = little_relation()
        stats = family(build_equality_stats, rel, "j", "f", BuildParams(mcv_size=2))
        assert set(stats.keys) == {"a", "b"}
        assert sorted(set(stats.keys.values())) == list(range(len(stats.representatives)))
        assert stats.default.total == pytest.approx(1.0)

    def test_conditioned_masses(self):
        rel = little_relation()
        stats = family(build_equality_stats, rel, "j", "f", BuildParams(mcv_size=10))
        by_value = {m: stats.representatives[g] for m, g in stats.keys.items()}
        assert by_value["a"].total >= 3.0 - 1e-9
        assert by_value["b"].total >= 2.0 - 1e-9
        assert stats.default.total == 0.0

    def test_representatives_dominate_members(self):
        rng = np.random.default_rng(5)
        j = rng.integers(1, 30, size=200).astype(float)
        f = rng.integers(0, 12, size=200).astype(float)
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("f", "numeric")],
            {"j": j, "f": f},
            200,
        )
        stats = family(build_equality_stats, rel, "j", "f", BuildParams())
        # 12 values in max(4, ceil(12 / 8)) groups: some group has several
        assert len(stats.representatives) == 4 < len(stats.keys) == 12
        for g, representative in enumerate(stats.representatives):
            upto = int(np.ceil(representative.end))
            rep = sample_integer_ranks(representative, upto)
            for value in [v for v, group in stats.keys.items() if group == g]:
                rows = np.nonzero(f == value)[0]
                exact = extract_degree_sequence(codes_of(rel, "j")[rows])
                grid = sample_integer_ranks(cum(exact.freqs), upto) if exact.distinct else None
                if grid is not None:
                    assert np.all(rep >= grid - 1e-9)

    def test_audit_catches_a_repeated_member(self, monkeypatch):
        # a representative that is only the first member: the audit reads
        # each distinct member once and must still see the larger one
        small, big = cum((2, 1)), cum((3, 1))
        monkeypatch.setattr(stats_module, "pw_max", lambda fns: fns[0])
        # one group of every member
        monkeypatch.setattr(
            stats_module, "cluster_sequence_groups", lambda fns, n: [list(range(len(fns)))]
        )
        with pytest.raises(StatsBuildError, match="fails to dominate"):
            stats_module._build_groups([small, big, small, big, big], "r.j")

    def test_audit_checks_fractional_ranks(self, monkeypatch):
        # the member is 2 at rank 0.5, where the representative is 1.25;
        # at every integer rank the representative is at least the member
        member = PiecewiseLinearFn((0.0, 0.5, 2.0), (0.0, 2.0, 3.0))
        rep = PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 2.5, 3.0))
        assert np.all(sample_integer_ranks(rep, 2) >= sample_integer_ranks(member, 2))
        monkeypatch.setattr(stats_module, "pw_max", lambda fns: rep)
        with pytest.raises(StatsBuildError, match="at rank 0.5"):
            stats_module._build_groups([member], "r.j")


@st.composite
def tail_relations(draw):
    """A relation whose filter column has more distinct values than
    mcv_size, with null join cells, -0.0 keys or text join keys."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        pool = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 7.0, 11.0, np.nan])
        j = np.array(draw(st.lists(pool, min_size=n, max_size=n)))
        join_kind = "numeric"
    else:
        pool = st.sampled_from(["a", "b", "c", "dd", "", None])
        j = draw(st.lists(pool, min_size=n, max_size=n))
        join_kind = "text"
    f = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, np.nan]),
                               min_size=n, max_size=n)))
    distinct = np.unique(f[~np.isnan(f)]).size
    mcv_size = draw(st.integers(0, max(0, distinct - 1)))
    budget = draw(st.sampled_from([0.01, 0.3, 1.0]))
    rel = Relation("r", [Column("j", join_kind), Column("f", "numeric")], {"j": j, "f": f}, n)
    return rel, BuildParams(compression_budget=budget, mcv_size=mcv_size)


def tail_row_sets(rel: Relation, params: BuildParams) -> list[np.ndarray]:
    groups = row_groups(rel, "f")
    by_value = dict(zip(groups.values, groups.parts()))
    ordered = sorted(by_value.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return [rows for _, rows in ordered[params.mcv_size :]]


def exact_cumulative(rel: Relation, rows: np.ndarray) -> PiecewiseLinearFn:
    seq = extract_degree_sequence(codes_of(rel, "j")[rows])
    return cum(seq.freqs) if seq.distinct else zero_cumulative()


class TestEqualityDefault:
    @settings(max_examples=150, deadline=None)
    @given(tail_relations())
    def test_default_is_the_least_concave_majorant_of_the_tail(self, case):
        rel, params = case
        tail = tail_row_sets(rel, params)
        default = family(build_equality_stats, rel, "j", "f", params).default
        if not tail:
            assert default == zero_cumulative()
            return
        exact = [exact_cumulative(rel, rows) for rows in tail]
        parent = pw_max([audited(rel, rows, params) for rows in tail])
        upto = int(np.ceil(max(default.end, parent.end)))
        got = sample_integer_ranks(default, upto)
        majorant = sample_integer_ranks(pw_max(exact), upto)
        np.testing.assert_allclose(got, majorant, rtol=1e-12, atol=1e-12)
        for fn in exact:
            assert np.all(got >= sample_integer_ranks(fn, upto) - 1e-9)
        assert np.all(got <= sample_integer_ranks(parent, upto) + 1e-9)

    def test_majorant_that_fails_to_dominate_is_rejected(self, monkeypatch):
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("f", "numeric")],
            {"j": np.array([1.0, 1.0, 2.0, 3.0, 1.0, 2.0]), "f": np.arange(6.0)},
            6,
        )
        envelope = stats_module._upper_concave_envelope

        def halved(knots, values):
            hull_x, hull_y = envelope(knots, values)
            return hull_x, [y / 2.0 for y in hull_y]

        monkeypatch.setattr(stats_module, "_upper_concave_envelope", halved)
        with pytest.raises(StatsBuildError, match="fails to dominate"):
            family(build_equality_stats, rel, "j", "f", BuildParams(mcv_size=1))

    @staticmethod
    def compressed_with_four_tracked(monkeypatch, head: list[float]):
        """The sequences ``valid_compress`` gets while the equality family
        of 50 values of 6 rows each is built with ``mcv_size`` 4; the join
        column starts with ``head`` and then cycles through 7 keys."""
        n = 50 * 6
        j = np.concatenate([head, np.arange(len(head), n) % 7.0])
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("f", "numeric")],
            {"j": j, "f": np.repeat(np.arange(50.0), 6)},
            n,
        )
        calls = counting(monkeypatch, "valid_compress")["valid_compress"]
        stats = family(build_equality_stats, rel, "j", "f", BuildParams(mcv_size=4))
        assert len(stats.keys) == 4
        assert stats.default.total == pytest.approx(6.0)
        return calls

    def test_tail_values_are_not_compressed_one_by_one(self, monkeypatch):
        # the 4 tracked values (the first 24 rows) all have the degree
        # sequence (1, 1, 1, 1, 1, 1), so one compression serves them
        calls = self.compressed_with_four_tracked(monkeypatch, [])
        assert calls == [DegreeSequence((1,) * 6)]

    def test_distinct_tracked_sequences_are_compressed_once_each(self, monkeypatch):
        head = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2, 0, 0, 0, 1, 1, 2]
        calls = self.compressed_with_four_tracked(monkeypatch, head)
        assert [c.freqs for c in calls] == [(6,), (5, 1), (4, 1, 1), (3, 2, 1)]


def target_loop_cuts(values: np.ndarray) -> list[float]:
    """Equi-depth cuts by one ``searchsorted`` per target, keeping each cut
    above the last: the reference for ``_equi_depth_cuts``' single search."""
    uniq, counts = np.unique(values, return_counts=True)
    if uniq.size < 2:
        return []
    cum = np.cumsum(counts)
    total = int(cum[-1])
    parts = 2**stats_module.HIST_DEPTH
    cuts: list[float] = []
    for j in range(1, parts):
        idx = int(np.searchsorted(cum, j * total / parts, side="left"))
        if idx + 1 < uniq.size:
            cut = float(uniq[idx + 1])
            if not cuts or cut > cuts[-1]:
                cuts.append(cut)
    return cuts


def reference_range_lookup(stats, lo, hi, hi_incl):
    """The smallest bucket holding [lo, hi], searched level by level, each
    level's cuts every second cut of the level below; else the default."""
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    cuts = list(stats.cuts)
    for ids in stats.levels:
        j = bisect.bisect_right(cuts, lo)
        upper = cuts[j] if j < len(cuts) else math.inf
        if hi < upper or (hi == upper and not hi_incl):
            return stats.representatives[ids[j]]
        cuts = cuts[1::2]
    return stats.default


class TestRangeStats:
    def make(self):
        # four values of two rows each: 2**HIST_DEPTH buckets over 8 rows cut
        # at every value but the smallest
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("f", "numeric")],
            {"j": np.arange(1.0, 9.0), "f": np.repeat([1.0, 3.0, 5.0, 7.0], 2)},
            8,
        )
        root = cum((1,) * 8)
        return family(build_range_stats, rel, "j", "f", BuildParams(), root), root

    def test_level_structure(self):
        stats, _ = self.make()
        # level 0 splits at 3, 5 and 7; level 1 at 5 only, so its two
        # buckets are level 0's first two and last two
        assert stats.cuts == (3.0, 5.0, 7.0)
        assert stats.levels == ((0, 0, 0, 0), (1, 1))
        assert stats.representatives[0].total == pytest.approx(2.0)
        assert stats.representatives[1].total == pytest.approx(4.0)
        assert stats.keys == {}

    def test_enclosing_bucket_selection(self):
        stats, root = self.make()
        assert lookup_range_group(stats, 1.0, 2.0, True).total == pytest.approx(2.0)
        assert lookup_range_group(stats, 3.0, 4.0, True).total == pytest.approx(2.0)
        # straddles the finest cut at 3 but fits the coarser [.., 5) bucket
        assert lookup_range_group(stats, 2.0, 4.0, True).total == pytest.approx(4.0)
        # straddles every cut; only the whole column encloses it
        assert lookup_range_group(stats, 2.0, 6.0, True) is root
        assert lookup_range_group(stats, None, None, True) is root

    def test_exclusive_upper_endpoint_fits_tighter(self):
        stats, root = self.make()
        # [3, 5) fits the finest bucket exactly; closing the endpoint pulls
        # in value 5, which no bucket boundary encloses short of the root
        assert lookup_range_group(stats, 3.0, 5.0, False).total == pytest.approx(2.0)
        assert lookup_range_group(stats, 3.0, 5.0, True) is root

    def test_text_column_rejected(self):
        rel = little_relation()
        with pytest.raises(StatsBuildError):
            family(build_range_stats, rel, "j", "f", BuildParams(), cum((1,) * 6))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["integers", "zipf", "normal"]),
        st.integers(1, 3000),
    )
    def test_equi_depth_cuts_match_the_target_loop(self, seed, shape, n):
        rng = np.random.default_rng(seed)
        if shape == "integers":
            values = rng.integers(0, int(rng.integers(1, 2 * n + 2)), n).astype(np.float64)
        elif shape == "zipf":
            values = rng.zipf(1.0 + rng.uniform(0.1, 2.0), n).astype(np.float64)
        else:
            values = rng.normal(0.0, 10.0, n).round(int(rng.integers(0, 3)))
        uniq, counts = np.unique(values, return_counts=True)
        got = stats_module._equi_depth_cuts(uniq, counts)
        assert got == target_loop_cuts(values)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False), max_size=200, unique=True).map(sorted),
        st.data(),
    )
    def test_dyadic_lookup_matches_per_level_search(self, cuts, data):
        # one representative per (level, bucket), so the profile names
        # the bucket the lookup chose
        levels, reps = [], []
        for k in range(len(cuts).bit_length()):
            levels.append(tuple(range(len(reps), len(reps) + (len(cuts) >> k) + 1)))
            reps += [cum((i + 1,)) for i in levels[-1]]
        stats = FilterStats(tuple(reps), cum((1, 1)), cuts=tuple(cuts), levels=tuple(levels))
        end = st.none() | st.sampled_from([-math.inf, math.inf]) | st.floats(allow_nan=False)
        if cuts:
            end |= st.sampled_from(cuts)
        for _ in range(10):
            lo, hi, hi_incl = data.draw(end), data.draw(end), data.draw(st.booleans())
            expected = reference_range_lookup(stats, lo, hi, hi_incl)
            assert lookup_range_group(stats, lo, hi, hi_incl) is expected, (lo, hi, hi_incl)


class TestLikeStats:
    def test_gram_profiles(self):
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("s", "text")],
            {
                "j": np.arange(1.0, 5.0),
                "s": ["grape", "grapefruit", "banana", None],
            },
            4,
        )
        stats = family(build_like_stats, rel, "j", "s", BuildParams())
        assert "gra" in stats.keys  # grape + grapefruit share it
        assert stats.representatives[stats.keys["gra"]].total >= 2.0 - 1e-9
        # every gram of every row is tracked at the default mcv budget, so
        # the default profile covers only the null row, i.e. nothing
        assert stats.default.total == 0.0

    def test_default_covers_untracked_rows(self):
        rel = Relation(
            "r",
            [Column("j", "numeric"), Column("s", "text")],
            {
                "j": np.arange(1.0, 5.0),
                "s": ["aaa", "aaa", "bbb", "ccc"],
            },
            4,
        )
        stats = family(build_like_stats, rel, "j", "s", BuildParams(mcv_size=1))
        assert set(stats.keys) == {"aaa"}
        # the untracked grams bbb and ccc hold one row each, and a pattern
        # of untracked grams matches at most the rows of any one of them
        assert stats.default.total == pytest.approx(1.0)

    def test_batched_default_is_the_majorant_of_every_gram(self):
        # Gram k (k = 1..K, one CJK token each) holds join values 1..k with
        # a - k rows apiece, nested so that row i of value v holds the run
        # of grams v..min(K, a - i).  Gram k alone reaches the strictly
        # concave maximum k * (a - k) at rank k, and the grams crossing two
        # tokens stay below it, so a batch that drops or splits any set
        # lowers the default somewhere.
        K, a = 20, 42
        token = ["".join(chr(0x4E00 + 3 * k + c) for c in range(3)) for k in range(K + 1)]
        j, s = [], []
        for v in range(1, K + 1):
            for i in range(1, a - v + 1):
                j.append(float(v))
                s.append("".join(token[v : min(K, a - i) + 1]))
        rel = Relation(
            "r", [Column("j", "numeric"), Column("s", "text")],
            {"j": np.array(j), "s": s}, len(s),
        )
        rows_by_gram: dict[str, list[int]] = {}
        for row, text in enumerate(s):
            for g in stats_module._grams(text):
                rows_by_gram.setdefault(g, []).append(row)
        # the tail's gram-rows span at least three batches of n_rows rows
        assert sum(map(len, rows_by_gram.values())) >= 3 * rel.n_rows
        default = family(build_like_stats, rel, "j", "s", BuildParams(mcv_size=0)).default
        exact = [exact_cumulative(rel, np.array(rows)) for rows in rows_by_gram.values()]
        want = sample_integer_ranks(pw_max(exact), K + 1)
        np.testing.assert_allclose(want[1 : K + 1], [k * (a - k) for k in range(1, K + 1)])
        np.testing.assert_allclose(
            sample_integer_ranks(default, K + 1), want, rtol=0, atol=1e-9
        )


class TestPkFk:
    def make_pair(self):
        dim = Relation(
            "d",
            [Column("k", "numeric"), Column("g", "text")],
            {"k": np.array([1.0, 2.0, 3.0]), "g": ["x", "y", "z"]},
            3,
        )
        fact = Relation(
            "f",
            [Column("fk", "numeric")],
            {"fk": np.array([1.0, 1.0, 3.0, 9.0, np.nan])},
            5,
        )
        return fact, dim

    def test_propagation(self):
        fact, dim = self.make_pair()
        out, propagated = precompute_pk_fk(fact, dim, "fk", "k", ("g",))
        assert propagated == {"g": "__d__g"}
        assert out.data["__d__g"] == ["x", "x", "z", None, None]
        assert out.n_rows == 5

    def test_duplicate_pk_rejected(self):
        fact, dim = self.make_pair()
        dim.data["k"][1] = 1.0
        with pytest.raises(StatsBuildError):
            precompute_pk_fk(fact, dim, "fk", "k", ("g",))

    def test_null_pk_rejected(self):
        fact, dim = self.make_pair()
        dim.data["k"][0] = np.nan
        with pytest.raises(StatsBuildError):
            precompute_pk_fk(fact, dim, "fk", "k", ("g",))

    def test_key_columns_of_different_kinds_rejected(self):
        _, dim = self.make_pair()
        fact = Relation("f", [Column("fk", "text")], {"fk": ["1", "3", None, "9", "1"]}, 5)
        with pytest.raises(StatsBuildError, match="key columns must share a kind"):
            precompute_pk_fk(fact, dim, "fk", "k", ("g",))

    @pytest.mark.parametrize(
        "fk, pk, cols, match",
        [
            ("nope", "k", (), r"pk_fk names unknown column 'f'\.'nope'"),
            ("fk", "nope", (), r"pk_fk names unknown column 'd'\.'nope'"),
            ("fk", "k", ("nope",), "relation 'd': role names unknown column 'nope'"),
        ],
        ids=["unknown-fk", "unknown-pk", "unknown-filter-column"],
    )
    def test_unknown_column_is_a_config_error(self, fk, pk, cols, match):
        # each once ended in a bare KeyError
        fact, dim = self.make_pair()
        with pytest.raises(ConfigError, match=match):
            precompute_pk_fk(fact, dim, fk, pk, cols)


def cells(data) -> list:
    """A column as Python values, null as None."""
    if isinstance(data, np.ndarray):
        return [None if v != v else v for v in data.tolist()]
    return list(data)


def reference_pk_fk(fact, dim, fk, pk, cols) -> dict[str, list]:
    """Row-by-row dict lookups; Python's == makes -0.0 and 0.0 one key."""
    index: dict = {}
    for i, v in enumerate(cells(dim.data[pk])):
        if v is None:
            raise StatsBuildError("%s.%s: null in primary key" % (dim.name, pk))
        if v in index:
            raise StatsBuildError("%s.%s: duplicate primary key %r" % (dim.name, pk, v))
        index[v] = i
    rows = [index.get(v) for v in cells(fact.data[fk])]
    return {c: [None if r is None else cells(dim.data[c])[r] for r in rows] for c in cols}


def key_pair(kind: str, pk: list, fk: list) -> tuple[Relation, Relation]:
    def col(values):
        return np.array(values, dtype=float) if kind == "numeric" else list(values)

    n = len(pk)
    dim = Relation(
        "d",
        [Column("k", kind), Column("g", "text"), Column("x", "numeric")],
        {
            "k": col(pk),
            "g": ["g%d" % i for i in range(n)],
            "x": np.array([-0.0 if i == 1 else 10.0 * i for i in range(n)]),
        },
        n,
    )
    return Relation("f", [Column("fk", kind)], {"fk": col(fk)}, len(fk)), dim


class TestPkFkValueIdentity:
    @pytest.mark.parametrize(
        "kind, pk, fk",
        [
            ("text", ["a", "b", "c"], ["b", None, "zz", "a", "b", "C"]),
            ("numeric", [3.0, -0.0, 7.5], [0.0, -0.0, np.nan, 7.5, 4.0, 3.0]),
            ("numeric", [0.0, 1.0], [-0.0, 1.0, 2.0]),
            ("numeric", [1.0, 2.0], []),
            ("text", [], ["a", None]),
        ],
    )
    def test_matches_dict_lookups(self, kind, pk, fk):
        fact, dim = key_pair(kind, pk, fk)
        out, propagated = precompute_pk_fk(fact, dim, "fk", "k", ("g", "x"))
        assert propagated == {"g": "__d__g", "x": "__d__x"}
        want = reference_pk_fk(fact, dim, "fk", "k", ("g", "x"))
        assert cells(out.data["__d__g"]) == want["g"]
        got_x = out.data["__d__x"]
        assert isinstance(got_x, np.ndarray) and got_x.dtype == np.float64
        assert cells(got_x) == want["x"]
        # propagated numbers keep their bits, the sign of -0.0 included
        assert [str(v) for v in cells(got_x)] == [str(v) for v in want["x"]]

    @pytest.mark.parametrize(
        "kind, pk",
        [
            ("numeric", [1.0, 2.0, 1.0]),
            ("numeric", [0.0, 5.0, -0.0]),
            ("numeric", [4.0, np.nan, 4.0]),
            ("numeric", [4.0, 4.0, np.nan]),
            ("text", ["x", "y", "x"]),
            ("text", ["x", None, "x"]),
            ("text", ["x", "x", None]),
        ],
    )
    def test_bad_primary_keys_give_the_reference_message(self, kind, pk):
        fact, dim = key_pair(kind, pk, pk[:1])
        with pytest.raises(StatsBuildError) as want:
            reference_pk_fk(fact, dim, "fk", "k", ("g",))
        with pytest.raises(StatsBuildError) as got:
            precompute_pk_fk(fact, dim, "fk", "k", ("g",))
        assert str(got.value) == str(want.value)


class TestBuildCatalog:
    def test_families_per_column_pair(self):
        rel = little_relation()
        catalog = build_catalog({"r": rel}, {"r": ColumnRole(("j",), ("f",))})
        rs = catalog.relations["r"]
        assert set(rs.fallback) == {"j", "f"}
        assert set(rs.equality) == {("j", "f")}
        assert set(rs.like) == {("j", "f")}
        assert rs.range == {}
        assert rs.cardinality == 6

    def test_pkfk_grows_fact_families(self):
        fact = Relation(
            "f",
            [Column("fk", "numeric")],
            {"fk": np.array([1.0, 2.0, 2.0])},
            3,
        )
        dim = Relation(
            "d",
            [Column("k", "numeric"), Column("g", "text")],
            {"k": np.array([1.0, 2.0]), "g": ["x", "y"]},
            2,
        )
        catalog = build_catalog(
            {"f": fact, "d": dim},
            {"f": ColumnRole(("fk",), ()), "d": ColumnRole(("k",), ("g",))},
            (PkFkDeclaration("f", "fk", "d", "k"),),
        )
        fs = catalog.relations["f"]
        assert ("fk", "__d__g") in fs.equality
        assert "__d__g" in fs.fallback
        assert catalog.pkfk[0].propagated == {"g": "__d__g"}

    def test_unknown_role_column(self):
        rel = little_relation()
        with pytest.raises(ConfigError):
            build_catalog({"r": rel}, {"r": ColumnRole(("nope",), ())})

    @pytest.mark.parametrize(
        "roles, link, match",
        [
            ({"zz": ColumnRole(("j",), ())}, None, "role names unknown relation 'zz'"),
            ({"d": None}, None, "relation 'd' has no role"),
            ({}, ("r", "j", "zz", "k"), "pk_fk names unknown relation 'zz'"),
            ({}, ("r", "nope", "d", "k"), r"pk_fk names unknown column 'r'\.'nope'"),
            ({"d": None}, ("r", "j", "d", "k"), "relation 'd' has no role"),
        ],
        ids=["role-of-unknown-relation", "relation-without-role", "link-to-unknown-relation",
             "link-on-unknown-column", "link-to-relation-without-role"],
    )
    def test_unknown_name_is_a_config_error(self, roles, link, match):
        # each once ended in a bare KeyError
        relations = {
            "r": Relation("r", [Column("j", "numeric"), Column("f", "numeric")],
                          {"j": np.array([1.0, 2.0]), "f": np.array([3.0, 4.0])}, 2),
            "d": Relation("d", [Column("k", "numeric"), Column("g", "text")],
                          {"k": np.array([1.0, 2.0]), "g": ["x", "y"]}, 2),
        }
        # roles maps a relation to its role, or to None to leave it out
        roles = {"r": ColumnRole(("j",), ("f",)), "d": ColumnRole(("k",), ("g",)), **roles}
        pkfk = (PkFkDeclaration(*link),) if link else ()
        with pytest.raises(ConfigError, match=match):
            build_catalog(relations, {n: r for n, r in roles.items() if r is not None}, pkfk)

    def test_each_column_is_coded_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 300
        data = {
            "j1": rng.integers(0, 20, n).astype(np.float64),
            "j2": rng.integers(0, 7, n).astype(np.float64),
            "a": rng.integers(0, 30, n).astype(np.float64),
            "b": rng.normal(size=n).round(1),
            "s": [["ab", "abc", "bcd", "xyz", None][i] for i in rng.integers(0, 5, n)],
        }
        rel = Relation("r", [Column(c, "text" if c == "s" else "numeric") for c in data], data, n)
        column_of = {id(cells): c for c, cells in data.items()}
        coded: Counter = Counter()
        grouped: Counter = Counter()
        codes, row_groups_of = stats_module._codes, stats_module._row_groups

        def counting_codes(cells):
            coded[column_of.get(id(cells), "?")] += 1
            return codes(cells)

        def counting_row_groups(column, *args):
            grouped[column] += 1
            return row_groups_of(column, *args)

        monkeypatch.setattr(stats_module, "_codes", counting_codes)
        monkeypatch.setattr(stats_module, "_row_groups", counting_row_groups)
        catalog = build_catalog(
            {"r": rel},
            {"r": ColumnRole(("j1", "j2"), ("a", "b", "s"))},
            params=BuildParams(mcv_size=3),
        )
        assert coded == Counter(dict.fromkeys(data, 1))
        assert grouped == Counter({"a": 1, "b": 1, "s": 1})
        rs = catalog.relations["r"]
        assert (len(rs.equality), len(rs.range), len(rs.like)) == (6, 4, 2)
