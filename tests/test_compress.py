import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqbound import compress as compress_module
from seqbound.compress import (
    distances_to,
    drop_vectors,
    is_valid_compression,
    self_join_bound,
    shortfall,
    valid_compress,
)
from seqbound.pwfn import (
    DegreeSequence,
    PiecewiseLinearFn,
    cumulate,
    pw_min,
    sample_integer_ranks,
)
from worst_case import lossless_compress

EX = DegreeSequence((4, 2, 2, 1, 1, 1))


def random_seq(rng: random.Random, max_distinct=60, max_freq=50) -> DegreeSequence:
    d = rng.randint(1, max_distinct)
    return DegreeSequence(
        sorted((rng.randint(1, max_freq) for _ in range(d)), reverse=True)
    )


class TestSelfJoinBound:
    def test_running_example(self):
        assert self_join_bound(EX) == 27

    def test_key_column(self):
        assert self_join_bound(DegreeSequence((1,) * 9)) == 9

    def test_empty(self):
        assert self_join_bound(DegreeSequence(())) == 0

    def test_squares_beyond_int64_stay_exact(self):
        # (2^32)^2 = 2^64 overflows an int64 on its own
        assert self_join_bound(DegreeSequence((2**32, 2**32, 3))) == 2**65 + 9
        # the int64 sum would wrap past 2^63 - 1 only in the sum, not in a square
        seq = DegreeSequence((3 * 10**9,) * 2)
        assert self_join_bound(seq) == 18 * 10**18

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 2**40) | st.integers(2**62, 2**66), min_size=1, max_size=40))
    def test_matches_python_sum(self, freqs):
        seq = DegreeSequence(sorted(freqs, reverse=True))
        assert self_join_bound(seq) == sum(f * f for f in seq.freqs)


class TestLossless:
    def test_round_trip(self):
        steps = lossless_compress(EX)
        F = cumulate(steps)
        acc = 0
        for i, f in enumerate(EX.freqs, start=1):
            acc += f
            assert F.value_at(i) == pytest.approx(acc)
        assert F.total == EX.total

    def test_equal_runs_coalesce(self):
        steps = lossless_compress(EX)
        assert steps.edges == (1.0, 3.0, 6.0)
        assert steps.values == (4.0, 2.0, 1.0)

    def test_empty(self):
        steps = lossless_compress(DegreeSequence(()))
        assert steps.integral() == 0.0


class TestValidCompress:
    def test_loose_budget_single_slope(self):
        # budget 1.0 lets one slope-4 segment absorb everything; the flat
        # cap then runs from rank 2.75 to rank 6 at the full mass 11
        got = valid_compress(EX, 1.0)
        assert got.knots == (0.0, 2.75, 6.0)
        assert got.values == (0.0, 11.0, 11.0)
        assert is_valid_compression(EX, got) is None

    def test_tight_budget_three_slopes(self):
        got = valid_compress(EX, 0.1)
        assert got.knots == (0.0, 1.0, 4.0, 5.0, 6.0)
        assert got.values == (0.0, 4.0, 10.0, 11.0, 11.0)
        assert is_valid_compression(EX, got) is None

    def test_key_column_is_one_segment(self):
        key = DegreeSequence((1,) * 100)
        got = valid_compress(key, 0.01)
        assert got.knots == (0.0, 100.0)
        assert got.values == (0.0, 100.0)

    def test_uniform_column_is_one_segment(self):
        uni = DegreeSequence((7,) * 12)
        got = valid_compress(uni, 0.001)
        assert len(got.knots) == 2

    def test_empty_sequence(self):
        got = valid_compress(DegreeSequence(()), 0.01)
        assert got.total == 0.0

    def test_segment_count_never_exceeds_sqrt_bound(self):
        rng = random.Random(11)
        for _ in range(100):
            seq = random_seq(rng)
            got = valid_compress(seq, 0.01)
            limit = min(math.isqrt(2 * seq.total) + 1, seq.freqs[0] + 1)
            assert len(got.knots) - 1 <= limit + 1


class TestValidity:
    def test_accepts_exact(self):
        knots = [0.0]
        values = [0.0]
        for i, f in enumerate(EX.freqs, start=1):
            knots.append(float(i))
            values.append(values[-1] + f)
        assert is_valid_compression(EX, PiecewiseLinearFn(knots, values)) is None

    def test_rejects_undershoot(self):
        low = PiecewiseLinearFn((0.0, 6.0), (0.0, 11.0))
        assert "rank" in is_valid_compression(EX, low)

    def test_rejects_wrong_total(self):
        fat = PiecewiseLinearFn((0.0, 2.75, 6.0), (0.0, 12.0, 12.0))
        assert "row count" in is_valid_compression(EX, fat)

    def test_rejects_short_domain(self):
        short = PiecewiseLinearFn((0.0, 3.0), (0.0, 11.0))
        assert "distinct count" in is_valid_compression(EX, short)

    def test_rejects_mass_on_an_empty_sequence(self):
        got = is_valid_compression(DegreeSequence(()), PiecewiseLinearFn((0, 1), (0, 3)))
        assert got == "nonzero mass for an empty sequence"


class TestErrorGuarantee:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40),
        st.sampled_from([0.001, 0.01, 0.1, 1.0]),
    )
    def test_self_join_error_tracks_segments(self, freqs, budget):
        seq = DegreeSequence(sorted(freqs, reverse=True))
        got = valid_compress(seq, budget)
        assert is_valid_compression(seq, got) is None
        exact = float(self_join_bound(seq))
        approx = sum(s * s * w for s, w in zip(got.slopes, _widths(got)))
        sloped = sum(1 for s in got.slopes if s > 0)
        assert approx <= exact * (1.0 + budget * sloped) + 1e-6 * exact

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError, match="error_budget must be positive"):
            valid_compress(EX, budget)


def _widths(fn: PiecewiseLinearFn):
    return [b - a for a, b in zip(fn.knots, fn.knots[1:])]


def per_rank_walk(freqs: list[int], budget: float) -> tuple[list[Fraction], list[int]]:
    """The greedy rule of ``valid_compress`` rank by rank, in exact
    arithmetic: the knots (positions and row counts) up to the end of the
    last sloped segment, without the flat cap."""
    threshold = Fraction(budget * float(sum(f * f for f in freqs)))
    knots, values = [Fraction(0)], [0]
    slope, err, mass = freqs[0], 0, 0
    for f in freqs:
        err += f * (slope - f)
        if err >= threshold:
            knots.append(knots[-1] + Fraction(mass, slope))
            values.append(values[-1] + mass)
            slope, err, mass = f, 0, 0
        mass += f
    knots.append(knots[-1] + Fraction(mass, slope))
    values.append(values[-1] + mass)
    return knots, values


def per_rank_audit(seq: DegreeSequence, candidate: PiecewiseLinearFn) -> bool:
    """Whether the audit that ``is_valid_compression`` had before it walked
    runs accepts: domination checked at every integer rank and every knot."""
    d, total = seq.distinct, seq.total
    if abs(candidate.end - d) > 1e-6 * max(1.0, d):
        return False
    for a, b in zip(candidate.slopes, candidate.slopes[1:]):
        if b > a + 1e-7 * max(1.0, b):
            return False
    exact = np.concatenate(([0.0], np.cumsum(np.asarray(seq.freqs, dtype=np.float64))))
    approx = sample_integer_ranks(candidate, d)
    if np.any(approx + 1e-9 * np.maximum(1.0, exact) < exact):
        return False
    for x in candidate.knots:
        if 0.0 < x < d:
            i0 = int(x)
            exact_x = exact[i0] + (x - i0) * seq.freqs[i0]
            if candidate.value_at(x) + 1e-9 * max(1.0, exact_x) < exact_x:
                return False
    return abs(candidate.total - total) <= 1e-6 * max(1.0, total)


@st.composite
def run_sequences(draw):
    """Degree sequences of up to 8 runs: small degrees, degrees above 2^31
    and above 2^63, single ranks, short runs and runs of thousands of ranks."""
    degree = st.one_of(st.integers(1, 60), st.integers(2**31, 2**40), st.integers(2**63, 2**66))
    length = st.one_of(st.just(1), st.integers(1, 6), st.integers(500, 3000))
    runs = draw(st.lists(st.tuples(degree, length), min_size=1, max_size=8))
    merged: dict[int, int] = {}
    for f, r in runs:
        merged[f] = merged.get(f, 0) + r
    return DegreeSequence([f for f in sorted(merged, reverse=True) for _ in range(merged[f])])


BUDGETS = st.sampled_from([1e-9, 0.001, 0.01, 0.1, 1.0, 5.0])


def as_runs(seq: DegreeSequence) -> np.ndarray:
    """The (degree, run length) pairs the catalog builder passes."""
    degrees, counts = np.unique(np.array(seq.freqs, dtype=object), return_counts=True)
    return np.array([[int(f), int(r)] for f, r in zip(degrees[::-1], counts[::-1])], dtype=object)


class TestRunWalk:
    @settings(max_examples=150, deadline=None)
    @given(run_sequences(), BUDGETS)
    def test_opens_segments_where_the_per_rank_walk_does(self, seq, budget):
        got = valid_compress(seq, budget)
        knots, values = per_rank_walk(list(seq.freqs), budget)
        if len(got.knots) == len(knots) + 1:  # the flat cap
            assert got.knots[-1] == seq.distinct and got.values[-1] == float(seq.total)
        else:
            assert len(got.knots) == len(knots)
        # each knot's value is the exact count of the ranks before it,
        # which names the rank that opens the next segment
        assert list(got.values[: len(values)]) == [float(v) for v in values]
        for x, want in zip(got.knots, knots):
            assert x == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert got.values[-1] == float(seq.total)

    @settings(max_examples=150, deadline=None)
    @given(run_sequences(), BUDGETS)
    def test_audit_accepts_every_output(self, seq, budget):
        got = valid_compress(seq, budget)
        assert is_valid_compression(seq, got) is None
        runs = as_runs(seq)
        assert valid_compress(runs, budget) == got
        assert is_valid_compression(runs, got) is None


def lowered_candidates(draw, seq: DegreeSequence, fn: PiecewiseLinearFn):
    """``fn`` lowered by more than 1e-6 relative in one of three ways: at
    one knot; at a fractional rank inside a run, below the exact
    cumulative there, by its minimum with a concave tent that dips there;
    or at the domain end, by moving the last knot past it.  None when the
    lowered knot leaves no concave profile."""
    knots, values = list(fn.knots), list(fn.values)
    drop = draw(st.floats(2e-6, 0.5))
    how = draw(st.sampled_from(["knot", "inside-run", "end"]))
    if how == "inside-run":
        rank = draw(st.integers(0, seq.distinct - 1)) + draw(st.floats(0.01, 0.99))
        i0 = int(rank)
        low = (sum(seq.freqs[:i0]) + (rank - i0) * seq.freqs[i0]) * (1.0 - drop)
        rise = min(low / rank, seq.freqs[i0])
        tent = PiecewiseLinearFn((0.0, rank, fn.end), (0.0, low, low + rise * (fn.end - rank)))
        return pw_min([fn, tent])
    if how == "knot":
        i = draw(st.integers(1, len(knots) - 1))
        values[i] *= 1.0 - drop
    else:
        knots[-1] += min(drop, 1e-6) * max(1.0, seq.distinct)
    try:
        return PiecewiseLinearFn(knots, values)
    except ValueError:
        return None


class TestRunAudit:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), run_sequences(), BUDGETS)
    def test_rejects_what_the_per_rank_audit_rejects(self, data, seq, budget):
        low = lowered_candidates(data.draw, seq, valid_compress(seq, budget))
        if low is not None and not per_rank_audit(seq, low):
            assert is_valid_compression(seq, low) is not None
            assert is_valid_compression(as_runs(seq), low) is not None

    def test_rejects_a_profile_below_only_at_the_domain_end(self):
        # EX = (4, 2, 2, 1, 1, 1): the last knot sits 5e-6 past d = 6, so
        # the profile is 11 only there and about 10.999995 at rank 6; no
        # knot lies inside the last run
        fn = PiecewiseLinearFn((0.0, 1.0, 3.0, 6.000005), (0.0, 4.0, 8.0, 11.0))
        assert not per_rank_audit(EX, fn)
        assert "at rank 6" in is_valid_compression(EX, fn)


class TestDistance:
    def test_frozen_example(self):
        a = cumulate(lossless_compress(DegreeSequence((2, 2))))
        b = cumulate(lossless_compress(DegreeSequence((4,))))
        drops, sq = drop_vectors([a, b])
        assert distances_to(drops, sq, 0)[1] == pytest.approx(3.75)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            a = cumulate(lossless_compress(random_seq(rng, 20, 20)))
            b = cumulate(lossless_compress(random_seq(rng, 20, 20)))
            drops, sq = drop_vectors([a, b])
            assert distances_to(drops, sq, 0)[1] == pytest.approx(distances_to(drops, sq, 1)[0])

    def test_self_distance_is_two(self):
        f = cumulate(lossless_compress(EX))
        drops, sq = drop_vectors([f, f])
        assert distances_to(drops, sq, 0)[1] == pytest.approx(2.0)

    def test_zero_mass_has_no_distance(self):
        f = cumulate(lossless_compress(EX))
        z = PiecewiseLinearFn((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            drop_vectors([f, z])

    def test_full_grid_up_to_256_ranks(self):
        rng = random.Random(11)
        fns = [cumulate(lossless_compress(random_seq(rng, 256, 40))) for _ in range(12)]
        fns.append(cumulate(lossless_compress(DegreeSequence((3,) * 256))))
        fns.append(valid_compress(random_seq(rng, 255, 40), 0.2))
        # the full integer grid, unit weights, every pair at once
        upto = int(np.ceil(max(fn.end for fn in fns)))
        assert upto == 256
        drops = np.diff(np.stack([sample_integer_ranks(fn, upto) for fn in fns]), axis=1)
        sq = np.einsum("ij,ij->i", drops, drops)
        pairwise = np.maximum(drops[:, None, :], drops[None, :, :])
        msq = np.einsum("bij,bij->bi", pairwise, pairwise)
        reference = msq / sq[:, None] + msq / sq[None, :]
        got_drops, got_sq = drop_vectors(fns)
        assert np.array_equal(got_drops, drops)
        assert np.array_equal(got_sq, sq)
        for i in range(len(fns)):
            assert np.array_equal(distances_to(got_drops, got_sq, i), reference[i])

    @pytest.mark.parametrize("length", [40, 3000])
    def test_repeated_profiles_are_read_once(self, monkeypatch, length):
        rng = random.Random(length)
        seqs = [sorted((rng.randint(1, 30) for _ in range(length)), reverse=True) for _ in range(4)]
        pool = [valid_compress(DegreeSequence(seq), 0.01) for seq in seqs]
        repeated = [pool[i] for i in (0, 1, 0, 2, 3, 3, 1, 0)]
        copies = [PiecewiseLinearFn(fn.knots, fn.values) for fn in repeated]
        want_drops, want_sq = drop_vectors(copies)
        sampled = []
        sample = compress_module.sample_integer_ranks

        def counted(fn, upto):
            sampled.append(fn)
            return sample(fn, upto)

        monkeypatch.setattr(compress_module, "sample_integer_ranks", counted)
        drops, sq = drop_vectors(repeated)
        assert np.array_equal(drops, want_drops)
        assert np.array_equal(sq, want_sq)
        # the full grid samples each distinct profile once; the log sketch
        # above FULL_GRID_RANKS reads knots directly
        assert sampled == (pool if length <= 256 else [])

    def test_sketch_beyond_256_ranks(self):
        rng = random.Random(5)
        seqs = [
            DegreeSequence(sorted((rng.randint(1, 400) for _ in range(d)), reverse=True))
            for d in (rng.randint(4500, 5500) for _ in range(10))
        ]
        fns = [valid_compress(seq, 0.01) for seq in seqs]
        fns += [cumulate(lossless_compress(DegreeSequence((2,) * d))) for d in (4800, 5000)]
        drops, sq = drop_vectors(fns)
        assert drops.shape[1] <= 64
        dist = np.stack([distances_to(drops, sq, i) for i in range(len(fns))])
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 2.0)
        assert np.all(dist >= 2.0)


def _quarters(draw, low: int, high: int, n: int) -> list[float]:
    """Up to ``n`` distinct ascending multiples of 1/4 in [low/4, high/4]:
    exact in binary, so no rounding hides or invents a shortfall."""
    return sorted({k / 4 for k in draw(st.lists(st.integers(low, high), min_size=1, max_size=n))})


def _curves(draw, n: int):
    """``n`` non-decreasing piecewise linear curves from (0, 0), ending
    anywhere in (0, 6]."""
    curves = []
    for _ in range(n):
        ends = _quarters(draw, 1, 24, 5)
        rises = draw(st.lists(st.integers(0, 16), min_size=len(ends), max_size=len(ends)))
        curves.append((np.array([0.0, *ends]), np.cumsum([0.0, *rises]) / 4))
    return curves


class TestShortfall:
    def test_fractional_rank_and_flat_ends(self):
        fn = PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 2.5, 3.0))
        member = (np.array([0.0, 0.5, 2.0]), np.array([0.0, 2.0, 3.0]))
        short = (np.array([0.0, 0.5]), np.array([0.0, 1.0]))  # flat at 1 past 0.5
        longer = (np.array([0.0, 2.0, 3.0]), np.array([0.0, 3.0, 3.5]))  # fn is flat past 2
        assert shortfall(fn, [short]) is None
        assert shortfall(fn, [short, member]) == 0.5
        assert shortfall(fn, [longer, short]) == 3.0

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_agrees_with_reading_each_curve_alone(self, data, n):
        curves = _curves(data.draw, n)
        knots = _quarters(data.draw, 1, 24, 4)
        slopes = sorted(data.draw(st.lists(st.integers(0, 12), min_size=len(knots),
                                           max_size=len(knots))), reverse=True)
        rises = np.diff([0.0, *knots]) * slopes / 4
        fn = PiecewiseLinearFn([0.0, *knots], np.cumsum([0.0, *rises]))
        want = None
        for k, v in curves:
            ranks = np.union1d(k, fn.knots)
            curve, have = np.interp(ranks, k, v), np.interp(ranks, fn.knots, fn.values)
            short = ranks[have + 1e-9 * np.maximum(1.0, curve) < curve]
            if short.size:
                want = short[0] if want is None else min(want, short[0])
        assert shortfall(fn, curves) == want
