import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqbound import compress as compress_module
from seqbound.compress import (
    compression_distance,
    distances_to,
    drop_vectors,
    is_valid_compression,
    lossless_compress,
    self_join_bound,
    valid_compress,
)
from seqbound.pwfn import DegreeSequence, PiecewiseLinearFn, cumulate, sample_integer_ranks

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
    @given(st.lists(st.integers(1, 2**40), min_size=1, max_size=40))
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
        assert is_valid_compression(EX, got).ok

    def test_tight_budget_three_slopes(self):
        got = valid_compress(EX, 0.1)
        assert got.knots == (0.0, 1.0, 4.0, 5.0, 6.0)
        assert got.values == (0.0, 4.0, 10.0, 11.0, 11.0)
        assert is_valid_compression(EX, got).ok

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
        got = valid_compress(DegreeSequence(()))
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
        assert is_valid_compression(EX, PiecewiseLinearFn(knots, values)).ok

    def test_rejects_undershoot(self):
        low = PiecewiseLinearFn((0.0, 6.0), (0.0, 11.0))
        report = is_valid_compression(EX, low)
        assert not report.ok
        assert "rank" in report.reason

    def test_rejects_wrong_total(self):
        fat = PiecewiseLinearFn((0.0, 2.75, 6.0), (0.0, 12.0, 12.0))
        report = is_valid_compression(EX, fat)
        assert not report.ok

    def test_rejects_short_domain(self):
        short = PiecewiseLinearFn((0.0, 3.0), (0.0, 11.0))
        assert not is_valid_compression(EX, short).ok


class TestErrorGuarantee:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=40),
        st.sampled_from([0.001, 0.01, 0.1, 1.0]),
    )
    def test_self_join_error_tracks_segments(self, freqs, budget):
        seq = DegreeSequence(sorted(freqs, reverse=True))
        got = valid_compress(seq, budget)
        assert is_valid_compression(seq, got).ok
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


class TestDistance:
    def test_frozen_example(self):
        a = cumulate(lossless_compress(DegreeSequence((2, 2))))
        b = cumulate(lossless_compress(DegreeSequence((4,))))
        assert compression_distance(a, b) == pytest.approx(3.75)

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            a = cumulate(lossless_compress(random_seq(rng, 20, 20)))
            b = cumulate(lossless_compress(random_seq(rng, 20, 20)))
            assert compression_distance(a, b) == pytest.approx(
                compression_distance(b, a)
            )

    def test_self_distance_is_two(self):
        f = cumulate(lossless_compress(EX))
        assert compression_distance(f, f) == pytest.approx(2.0)

    def test_zero_mass_has_no_distance(self):
        f = cumulate(lossless_compress(EX))
        z = PiecewiseLinearFn((0.0, 1.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            compression_distance(f, z)

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
        pool = [valid_compress(DegreeSequence(seq)) for seq in seqs]
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
        fns = [valid_compress(seq) for seq in seqs]
        fns += [cumulate(lossless_compress(DegreeSequence((2,) * d))) for d in (4800, 5000)]
        drops, sq = drop_vectors(fns)
        assert drops.shape[1] <= 64
        dist = np.stack([distances_to(drops, sq, i) for i in range(len(fns))])
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 2.0)
        assert np.all(dist >= 2.0)
