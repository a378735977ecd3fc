import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqbound.pwfn import (
    DegreeSequence,
    InconsistentStatisticsError,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
    compose_ranks,
    cumulate,
    discrete_derivative,
    pw_max,
    pw_min,
    pw_multiply,
    pw_sum,
    restrict_domain,
    sample_integer_ranks,
    truncate_cumulative,
    zero_cumulative,
)

# The running example throughout the suite: frequencies 4,2,2,1,1,1 over
# 6 distinct values, 11 rows.  Its exact cumulative profile takes the
# values 4, 6, 8, 9, 10, 11 at integer ranks.
EX = DegreeSequence((4, 2, 2, 1, 1, 1))


def seqs(max_distinct=12, max_freq=20):
    return st.lists(
        st.integers(min_value=1, max_value=max_freq), min_size=1, max_size=max_distinct
    ).map(lambda fs: DegreeSequence(sorted(fs, reverse=True)))


def concave_fns(max_segments=6):
    """Cumulative profiles with real-valued knots and flat stretches."""
    widths = st.floats(min_value=0.05, max_value=5.0)
    slopes = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0))
    return st.lists(st.tuples(widths, slopes), min_size=1, max_size=max_segments).map(
        _from_segments
    )


def _from_segments(segments):
    knots = [0.0]
    values = [0.0]
    for w, s in zip(
        (w for w, _ in segments), sorted((s for _, s in segments), reverse=True)
    ):
        knots.append(knots[-1] + w)
        values.append(values[-1] + w * s)
    return PiecewiseLinearFn(knots, values)


def exact_cumulative(seq: DegreeSequence) -> PiecewiseLinearFn:
    knots = [0.0]
    values = [0.0]
    for i, f in enumerate(seq.freqs, start=1):
        knots.append(float(i))
        values.append(values[-1] + f)
    return PiecewiseLinearFn(knots, values)


class TestDegreeSequence:
    def test_totals(self):
        assert EX.total == 11
        assert EX.distinct == 6
        assert list(EX) == [4, 2, 2, 1, 1, 1]

    def test_from_counts_sorts_and_drops_zeros(self):
        assert DegreeSequence.from_counts([1, 0, 4, 2]) == DegreeSequence((4, 2, 1))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DegreeSequence((2, 0))


class TestPiecewiseConstantFn:
    def test_coalesces_equal_runs(self):
        fn = PiecewiseConstantFn((1, 2, 3), (5, 5, 2))
        assert fn.edges == (2.0, 3.0)
        assert fn.values == (5.0, 2.0)

    def test_value_at_is_right_closed(self):
        fn = PiecewiseConstantFn((1, 3), (4, 2))
        assert fn.value_at(1.0) == 4
        assert fn.value_at(1.5) == 2
        assert fn.value_at(0.0) == 4

    def test_value_beyond_end_raises(self):
        fn = PiecewiseConstantFn((1,), (4,))
        with pytest.raises(ValueError):
            fn.value_at(2.0)

    def test_integral(self):
        fn = PiecewiseConstantFn((1.0, 3.0, 6.0), (4.0, 2.0, 1.0))
        assert fn.integral() == pytest.approx(11.0)

    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError):
            PiecewiseConstantFn((1, 2), (2, 5))

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            PiecewiseConstantFn((2, 1), (3, 2))


class TestPiecewiseLinearFn:
    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((1, 2), (0, 1))
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 2), (1, 2))

    def test_rejects_convex(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 1, 2), (0, 1, 5))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            PiecewiseLinearFn((0, 1, 2), (0, 3, 2))

    def test_value_and_rank(self):
        fn = PiecewiseLinearFn((0, 1, 3, 6), (0, 4, 8, 11))
        assert fn.value_at(2.0) == pytest.approx(6.0)
        assert fn.rank_at(6.0) == pytest.approx(2.0)
        assert fn.rank_at(0.0) == 0.0
        assert fn.end == 6.0
        assert fn.total == 11.0

    def test_rank_at_total_returns_flat_onset(self):
        capped = PiecewiseLinearFn((0, 2.75, 6), (0, 11, 11))
        assert capped.rank_at(11.0) == pytest.approx(2.75)

    def test_rank_beyond_total_raises(self):
        fn = PiecewiseLinearFn((0, 2), (0, 4))
        with pytest.raises(ValueError):
            fn.rank_at(5.0)


class TestCumulateAndDerivative:
    def test_running_example_integer_ranks(self):
        steps = PiecewiseConstantFn((1.0, 3.0, 6.0), (4.0, 2.0, 1.0))
        F = cumulate(steps)
        got = [F.value_at(r) for r in range(1, 7)]
        assert got == pytest.approx([4, 6, 8, 9, 10, 11])

    def test_round_trip(self):
        steps = PiecewiseConstantFn((1.0, 3.0, 6.0), (4.0, 2.0, 1.0))
        assert discrete_derivative(cumulate(steps)) == steps

    @given(seqs())
    def test_cumulative_is_sane(self, seq):
        F = exact_cumulative(seq)
        assert F.total == seq.total
        assert F.end == seq.distinct
        for i, f in enumerate(seq.freqs, start=1):
            assert F.value_at(i) - F.value_at(i - 1) == pytest.approx(f)


class TestSampling:
    def test_integer_grid(self):
        F = PiecewiseLinearFn((0, 1, 3, 6), (0, 4, 8, 11))
        got = sample_integer_ranks(F, 8)
        np.testing.assert_allclose(got, [0, 4, 6, 8, 9, 10, 11, 11, 11])

    def test_zero_profile(self):
        z = zero_cumulative(3.0)
        assert z.total == 0.0
        assert z.value_at(2.0) == 0.0


class TestRestrictAndMultiply:
    def test_restrict(self):
        fn = PiecewiseConstantFn((1, 3, 6), (4, 2, 1))
        cut = restrict_domain(fn, 2.0)
        assert cut.edges == (1.0, 2.0)
        assert cut.values == (4.0, 2.0)

    def test_restrict_noop(self):
        fn = PiecewiseConstantFn((1, 3), (4, 2))
        assert restrict_domain(fn, 3.0) is fn

    def test_multiply(self):
        f = PiecewiseConstantFn((1, 3), (4, 2))
        g = PiecewiseConstantFn((2, 3), (5, 1))
        prod = pw_multiply(f, g)
        assert prod.edges == (1.0, 2.0, 3.0)
        assert prod.values == (20.0, 10.0, 2.0)
        assert prod.integral() == pytest.approx(20 + 10 + 2)

    def test_multiply_demands_shared_end(self):
        f = PiecewiseConstantFn((1,), (4,))
        g = PiecewiseConstantFn((2,), (5,))
        with pytest.raises(InconsistentStatisticsError):
            pw_multiply(f, g)


class TestPointwiseCombinators:
    A = PiecewiseLinearFn((0, 2, 4), (0, 8, 10))
    B = PiecewiseLinearFn((0, 4), (0, 9))

    def test_min_frozen(self):
        lo = pw_min([self.A, self.B])
        assert lo.knots == (0.0, 2.0, 4.0)
        assert lo.values == (0.0, 4.5, 9.0)

    def test_max_frozen(self):
        hi = pw_max([self.A, self.B])
        assert hi.knots == (0.0, 2.0, 4.0)
        assert hi.values == (0.0, 8.0, 10.0)

    def test_sum_frozen(self):
        tot = pw_sum([self.A, self.B])
        assert tot.values == (0.0, 12.5, 19.0)

    def test_max_envelopes_non_concave_overlay(self):
        # raw max of these crosses twice; the result must still be concave
        steep = PiecewiseLinearFn((0, 1, 6), (0, 5, 6))
        late = PiecewiseLinearFn((0, 6), (0, 6))
        hi = pw_max([steep, late])
        for a, b in zip(hi.slopes, hi.slopes[1:]):
            assert b <= a + 1e-9
        for x in np.linspace(0, 6, 25):
            assert hi.value_at(x) >= steep.value_at(x) - 1e-9
            assert hi.value_at(x) >= late.value_at(x) - 1e-9

    @given(
        st.lists(
            st.one_of(seqs().map(exact_cumulative), concave_fns()),
            min_size=1,
            max_size=5,
        )
    )
    def test_max_is_least_concave_majorant(self, fns):
        hi = pw_max(fns)
        end = max(fn.end for fn in fns)
        assert hi.end == end

        def extended(fn, x):
            return fn.total if x >= fn.end else fn.value_at(x)

        # concave: the slopes never increase
        for a, b in zip(hi.slopes, hi.slopes[1:]):
            assert b <= a + 1e-9 * max(1.0, a)
        # a majorant: at least every input at each of its knots and on its
        # flat extension out to the common end
        for fn in fns:
            for x, y in zip(fn.knots, fn.values):
                assert hi.value_at(x) >= y - 1e-9 * max(1.0, y)
            assert hi.total >= fn.total
        # least: every knot is an input point that attains the maximum there
        points = {p for fn in fns for p in zip(fn.knots, fn.values)}
        points |= {(end, fn.total) for fn in fns}
        for x, y in zip(hi.knots, hi.values):
            assert (x, y) in points
            assert y >= max(extended(fn, x) for fn in fns) - 1e-9 * max(1.0, y)

    @given(st.lists(seqs(), min_size=2, max_size=4))
    def test_min_max_sum_envelope_properties(self, batch):
        fns = [exact_cumulative(s) for s in batch]
        lo, hi, tot = pw_min(fns), pw_max(fns), pw_sum(fns)
        end = max(fn.end for fn in fns)
        for x in np.linspace(0.0, end, 17):
            vals = [fn.value_at(min(x, fn.end)) for fn in fns]
            assert lo.value_at(min(x, lo.end)) <= min(vals) + 1e-9
            assert hi.value_at(min(x, hi.end)) >= max(vals) - 1e-9
            assert tot.value_at(min(x, tot.end)) == pytest.approx(sum(vals))

    def test_noise_width_knots_are_coalesced(self):
        # a knot a rounding error away from another must not survive as a
        # sliver segment, whose interpolated slope would be garbage
        f = PiecewiseLinearFn((0, 1, 4), (0, 5, 8))
        g = PiecewiseLinearFn((0, 1 + 1e-13, 4), (0, 5.2, 8.3))
        tot = pw_sum([f, g])
        lo = pw_min([f, g])
        hi = pw_max([f, g])
        assert len(tot.knots) == 3
        assert min(b - a for a, b in zip(lo.knots, lo.knots[1:])) > 1e-9
        assert min(b - a for a, b in zip(hi.knots, hi.knots[1:])) > 1e-9
        assert tot.knots[0] == 0.0 and tot.end == 4.0


class TestTruncate:
    F = PiecewiseLinearFn((0, 1, 3, 6), (0, 4, 8, 11))

    def test_interior_cap(self):
        cut = truncate_cumulative(self.F, 6.0)
        assert cut.knots == (0.0, 1.0, 2.0, 6.0)
        assert cut.values == (0.0, 4.0, 6.0, 6.0)

    def test_cap_above_total_is_noop(self):
        assert truncate_cumulative(self.F, 11.0) is self.F
        assert truncate_cumulative(self.F, 99.0) is self.F

    def test_zero_cap(self):
        cut = truncate_cumulative(self.F, 0.0)
        assert cut.total == 0.0
        assert cut.end == 6.0

    @given(seqs(), st.floats(min_value=0.5, max_value=250.0))
    def test_truncation_dominance(self, seq, cap):
        F = exact_cumulative(seq)
        cut = truncate_cumulative(F, cap)
        assert cut.total <= min(cap, F.total) + 1e-9
        for x in np.linspace(0, F.end, 13):
            assert cut.value_at(x) <= F.value_at(x) + 1e-9
            assert cut.value_at(x) <= cap + 1e-9


class TestComposeRanks:
    F = PiecewiseLinearFn((0, 1, 3, 6), (0, 4, 8, 11))

    def test_identity(self):
        out = compose_ranks(discrete_derivative(self.F), self.F, self.F)
        assert out == discrete_derivative(self.F)
        assert out.integral() == pytest.approx(11.0)

    def test_constant_one_child(self):
        one = PiecewiseConstantFn((11.0,), (1.0,))
        rows = PiecewiseLinearFn((0, 11), (0, 11))
        out = compose_ranks(one, rows, self.F)
        assert out.edges == (6.0,)
        assert out.values == (1.0,)

    def test_two_to_one_remap(self):
        child = PiecewiseConstantFn((1.0, 2.0), (2.0, 1.0))
        through = PiecewiseLinearFn((0, 1, 2), (0, 2, 3))
        anchor = PiecewiseLinearFn((0, 1), (0, 3))
        out = compose_ranks(child, through, anchor)
        assert out.edges == pytest.approx((2.0 / 3.0, 1.0))
        assert out.values == (2.0, 1.0)

    def test_anchor_mass_must_fit(self):
        child = PiecewiseConstantFn((2.0,), (1.0,))
        through = PiecewiseLinearFn((0, 2), (0, 2))
        anchor = PiecewiseLinearFn((0, 1), (0, 5))
        with pytest.raises(InconsistentStatisticsError):
            compose_ranks(child, through, anchor)

    def test_zero_anchor(self):
        child = PiecewiseConstantFn((2.0,), (3.0,))
        through = PiecewiseLinearFn((0, 2), (0, 2))
        out = compose_ranks(child, through, zero_cumulative(4.0))
        assert out.integral() == 0.0
        assert out.end == 4.0
