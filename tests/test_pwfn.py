import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
from seqbound.pwfn import _dedupe_knots, _merged_knots, _rise_slack, _slack, _values_at_sorted

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

    def test_reports_the_first_offence_in_order(self):
        with pytest.raises(ValueError, match=r"positive, got 0$"):
            DegreeSequence((5, 3, 0, -2))
        with pytest.raises(ValueError, match="non-increasing"):
            DegreeSequence((5, 6, 0))
        with pytest.raises(ValueError, match=r"positive, got -1$"):
            DegreeSequence((5, -1, 6))

    @given(st.lists(st.integers(min_value=-3, max_value=2**64), max_size=8))
    def test_validation_matches_a_left_to_right_scan(self, freqs):
        def scan(fs):
            prev = None
            for f in fs:
                if f <= 0:
                    return "frequencies must be positive, got %r" % (f,)
                if prev is not None and f > prev:
                    return "frequencies must be non-increasing"
                prev = f
            return None

        for fs in (freqs, sorted(freqs, reverse=True)):
            want = scan(fs)
            if want is None:
                assert DegreeSequence(fs).freqs == tuple(fs)
            else:
                with pytest.raises(ValueError) as info:
                    DegreeSequence(fs)
                assert str(info.value) == want

    @pytest.mark.parametrize(
        "given, freqs",
        [
            (iter([3, 2, 2]), (3, 2, 2)),
            (np.array([4, 4, 1], dtype=np.int32), (4, 4, 1)),
            (np.array([4, 1], dtype=np.uint8), (4, 1)),
            ([2.7, 1.2], (2, 1)),
            ([True], (1,)),
            ([2**70, 2**63, 5], (2**70, 2**63, 5)),
            ([], ()),
        ],
    )
    def test_accepts_any_iterable_as_python_ints(self, given, freqs):
        seq = DegreeSequence(given)
        assert seq.freqs == freqs
        assert all(type(f) is int for f in seq.freqs)
        assert seq.total == sum(freqs)


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
        # a rank within rounding slack past the end reads the last value;
        # one past that tolerance is outside the domain
        assert fn.value_at(3.0 + _slack(3.0) / 2) == 2
        with pytest.raises(ValueError, match="beyond domain end"):
            fn.value_at(3.0 + 2 * _slack(3.0))

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

    def test_rejects_no_segments(self):
        with pytest.raises(ValueError, match="non-empty"):
            PiecewiseConstantFn((), ())

    @given(concave_fns())
    def test_equal_functions_hash_equal(self, cumulative):
        fn = discrete_derivative(cumulative)
        twin = PiecewiseConstantFn(list(fn.edges), list(fn.values))
        assert twin is not fn and twin == fn
        assert hash(fn) == hash(twin) == hash((fn.edges, fn.values))
        # the cached hash is the one a second call returns
        assert hash(fn) == hash((fn.edges, fn.values))
        other = PiecewiseConstantFn((*fn.edges[:-1], fn.end + 1.0), fn.values)
        assert other != fn


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

    def test_flat_onset_of_a_rising_segment_whose_slope_underflows(self):
        # the values rise, but 1e-30 / 1e300 rounds to a slope of 0.0: the
        # total is first reached at the segment's right knot
        fn = PiecewiseLinearFn((0.0, 1e300), (0.0, 1e-30))
        assert fn.slopes == (0.0,)
        assert fn.rank_at(1e-30) == 1e300

    def test_rank_beyond_total_raises(self):
        fn = PiecewiseLinearFn((0, 2), (0, 4))
        with pytest.raises(ValueError):
            fn.rank_at(5.0)

    @given(concave_fns())
    def test_equal_functions_hash_equal(self, fn):
        twin = PiecewiseLinearFn(list(fn.knots), list(fn.values))
        assert twin is not fn and twin == fn
        assert hash(fn) == hash(twin) == hash((fn.knots, fn.values))


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
        # B lies below A at every knot and reaches the common end, so B is
        # the minimum: it comes back without A's collinear knot at 2
        lo = pw_min([self.A, self.B])
        assert lo.knots == (0.0, 4.0)
        assert lo.values == (0.0, 9.0)

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

    def test_infinite_cap_is_noop(self):
        assert truncate_cumulative(self.F, math.inf) is self.F

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


# ---------------------------------------------------------------------------
# The kernel's fast paths against per-point references.  Each reference is
# the plain algorithm: one bisection per point, one generalized inverse per
# point, and a cumulative built only to read its total.  Agreement is
# checked with == on floats, so every path must produce the same bits.


def extended_value(fn, x):
    """fn(x) with flat extension beyond the domain end, by bisection."""
    if x >= fn.end:
        return fn.total
    return fn.value_at(x)


def ref_pw_min(fns):
    result = fns[0]
    for other in fns[1:]:
        f, g = result, other
        end = max(f.end, g.end)
        knots = _merged_knots((f, g), end)
        # an input at or below the other at every knot that reaches the
        # common end is the minimum as it stands
        f_at = [extended_value(f, x) for x in knots]
        g_at = [extended_value(g, x) for x in knots]
        if f.end == end and all(a <= b for a, b in zip(f_at, g_at)):
            continue
        if g.end == end and all(a >= b for a, b in zip(f_at, g_at)):
            result = g
            continue
        extra = []
        for a, b in zip(knots, knots[1:]):
            d0 = extended_value(f, a) - extended_value(g, a)
            d1 = extended_value(f, b) - extended_value(g, b)
            s = _slack(d0, d1)
            if (d0 > s and d1 < -s) or (d0 < -s and d1 > s):
                t = d0 / (d0 - d1)
                extra.append(a + t * (b - a))
        knots = _dedupe_knots(sorted(set(knots) | set(extra)))
        values = [min(extended_value(f, x), extended_value(g, x)) for x in knots]
        result = PiecewiseLinearFn(knots, values)
    return result


def ref_pw_sum(fns):
    if len(fns) == 1:
        return fns[0]
    knots = _merged_knots(fns, max(fn.end for fn in fns))
    return PiecewiseLinearFn(
        knots, [sum(extended_value(fn, x) for fn in fns) for x in knots]
    )


def ref_compose_ranks(child, through, anchor):
    mass_a = anchor.total
    if mass_a > through.total + _slack(mass_a, through.total):
        raise InconsistentStatisticsError("anchor mass exceeds child-side mass")
    d_anchor = anchor.end
    if mass_a <= _slack(mass_a):
        return PiecewiseConstantFn((d_anchor,), (0.0,))
    d_t = through.end
    edges = list(child.edges)
    values = list(child.values)
    while edges and edges[-1] >= d_t + _slack(edges[-1], d_t):
        if len(edges) >= 2 and edges[-2] >= d_t - _slack(edges[-2], d_t):
            edges.pop()
            values.pop()
        else:
            edges[-1] = d_t
            break
    if not edges or edges[-1] < d_t - _slack(edges[-1], d_t):
        edges.append(d_t)
        values.append(0.0)
    out_edges, out_values = [], []
    prev = 0.0
    for e, v in zip(edges, values):
        y = min(through.value_at(min(e, d_t)), mass_a)
        r = anchor.rank_at(y)
        if r > prev + 1e-12:
            out_edges.append(r)
            out_values.append(v)
            prev = r
        if y >= mass_a - _slack(y, mass_a):
            break
    tail = values[-1]
    if not out_edges:
        return PiecewiseConstantFn((d_anchor,), (tail,))
    if out_edges[-1] < d_anchor - 1e-12:
        if abs(out_values[-1] - tail) < 1e-15:
            out_edges[-1] = d_anchor
        else:
            out_edges.append(d_anchor)
            out_values.append(tail)
    else:
        out_edges[-1] = d_anchor
    return PiecewiseConstantFn(out_edges, out_values)


def ref_pw_multiply(f, g):
    """pw_multiply with a full ``min`` and ``_slack`` at every edge step."""
    if abs(f.end - g.end) > _slack(f.end, g.end):
        raise InconsistentStatisticsError("domain ends differ")
    end = min(f.end, g.end)
    edges, values = [], []
    i = j = 0
    while i < len(f.edges) and j < len(g.edges):
        fe, ge = f.edges[i], g.edges[j]
        e = min(fe, ge, end)
        edges.append(e)
        values.append(f.values[i] * g.values[j])
        if fe <= e + _slack(e, fe):
            i += 1
        if ge <= e + _slack(e, ge):
            j += 1
        if e >= end:
            break
    edges[-1] = end
    for k in reversed(range(len(values) - 1)):
        if values[k + 1] > values[k] + _rise_slack(values[k], values[k + 1]):
            values[k] = values[k + 1]
    return PiecewiseConstantFn(edges, values)


def cumulatives():
    return st.one_of(seqs().map(exact_cumulative), concave_fns())


def same_linear(a, b):
    return a.knots == b.knots and a.values == b.values and a.slopes == b.slopes


# Its slope times its first knot is not bit-equal to its value there, and
# its first value divided by its slope is not bit-equal to its first knot,
# so evaluating or inverting it on the wrong segment shows.
ROUNDING = PiecewiseLinearFn((0.0, 2.25, 3.25), (0.0, 24.84, 30.36))
ROUNDING_INVERSE = PiecewiseLinearFn((0.0, 3.38, 4.38), (0.0, 15.48, 15.48 + 15.48 / 3.38 / 2))


class TestFastPathsMatchPerPointReferences:
    def test_rounding_examples_are_sharp(self):
        assert ROUNDING.slopes[0] * 2.25 != 24.84
        assert 15.48 / ROUNDING_INVERSE.slopes[0] != 3.38

    @given(cumulatives(), st.lists(st.floats(min_value=-1.0, max_value=40.0), max_size=30))
    @example(ROUNDING, [])
    def test_values_at_sorted(self, fn, extra):
        xs = sorted([*fn.knots, *extra, fn.end * 0.5, fn.end * 2.0])
        assert _values_at_sorted(fn, xs) == [extended_value(fn, x) for x in xs]

    @given(st.lists(cumulatives(), min_size=1, max_size=4))
    def test_pw_min(self, fns):
        assert same_linear(pw_min(fns), ref_pw_min(fns))

    @given(st.lists(cumulatives(), min_size=1, max_size=4))
    def test_pw_sum(self, fns):
        assert same_linear(pw_sum(fns), ref_pw_sum(fns))

    @given(
        cumulatives(),
        cumulatives(),
        cumulatives(),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @example(ROUNDING, ROUNDING, ROUNDING, 1.0)
    @example(ROUNDING_INVERSE, ROUNDING_INVERSE, ROUNDING_INVERSE, 1.0)
    # a child longer than `through`, clipped to its end
    @example(PiecewiseLinearFn((0, 1, 2, 5), (0, 6, 9, 11)), ROUNDING, ROUNDING, 0.7)
    # a child with two edges past through's end by less than the slack, and
    # an anchor whose mass passes through's by less than the slack: through
    # reads its total past its end, not a value along its last slope
    @example(
        PiecewiseLinearFn((0, 1, 2 + 1e-10, 2 + 3e-10), (0, 3, 5, 5 + 2e-10)),
        PiecewiseLinearFn((0, 1, 2), (0, 4, 6)),
        PiecewiseLinearFn((0, 1, 3), (0, 5, 6 + 1e-9)),
        1.0,
    )
    # a child shorter than `through`, padded with zero frequency
    @example(
        PiecewiseLinearFn((0, 1), (0, 2)),
        PiecewiseLinearFn((0, 1, 3), (0, 4, 6)),
        PiecewiseLinearFn((0, 2, 4), (0, 4, 5)),
        0.5,
    )
    # a zero-mass anchor
    @example(ROUNDING, ROUNDING, ROUNDING, 0.0)
    # an anchor with a flat tail, whose mass through passes mid-segment
    @example(ROUNDING, ROUNDING, PiecewiseLinearFn((0, 1, 2, 4), (0, 5, 6, 6)), 1.0)
    # an anchor mass below through's by less than the slack
    @example(
        ROUNDING,
        ROUNDING,
        PiecewiseLinearFn(ROUNDING.knots, (0.0, 24.84, 30.36 * (1 - 1e-11))),
        1.0,
    )
    # child edges 1e-13 apart, which map to anchor ranks closer than 1e-12
    @example(
        PiecewiseLinearFn((0, 1, 1 + 1e-13, 2), (0, 4, 4 + 3e-13, 6)),
        PiecewiseLinearFn((0, 2), (0, 6)),
        PiecewiseLinearFn((0, 2), (0, 6)),
        1.0,
    )
    def test_compose_ranks(self, child_col, through, anchor, share):
        # as in plan_bound: the anchor's mass never exceeds the child side's
        anchor = truncate_cumulative(anchor, through.total * share)
        child = discrete_derivative(child_col)
        got = compose_ranks(child, through, anchor)
        want = ref_compose_ranks(child, through, anchor)
        assert got.edges == want.edges and got.values == want.values

    @given(cumulatives(), cumulatives(), st.floats(min_value=-1e-9, max_value=1e-9))
    @example(ROUNDING, ROUNDING, 5e-10)
    def test_pw_multiply(self, f, g, nudge):
        # g stretched onto f's domain, its end moved by rounding and nudge
        g = _rescaled(g, f.end / g.end * (1.0 + nudge), 1.0)
        f, g = discrete_derivative(f), discrete_derivative(g)
        try:
            want = ref_pw_multiply(f, g)
        except InconsistentStatisticsError:
            with pytest.raises(InconsistentStatisticsError):
                pw_multiply(f, g)
            return
        got = pw_multiply(f, g)
        assert got.edges == want.edges and got.values == want.values

    @given(cumulatives())
    def test_integral(self, fn):
        steps = discrete_derivative(fn)
        assert steps.integral() == cumulate(steps).total


def _rescaled(fn, dx, dy):
    """fn with its rank axis stretched by dx and its mass by dy."""
    return PiecewiseLinearFn([k * dx for k in fn.knots], [v * dy for v in fn.values])


def _min_pair(kind, f, g, dx, dy, swap):
    if kind == "same":
        g = f
    elif kind == "truncated":  # touches f up to the cap, then lies below
        g = truncate_cumulative(f, f.total * min(dy, 0.9))
    elif kind == "rescaled":  # above, below or crossing f, ends unequal
        g = _rescaled(f, dx, dy)
    elif kind == "equal-totals" and g.total > 0.0 and f.total / g.total < math.inf:
        # a g.total near the smallest float makes the ratio overflow
        g = _rescaled(g, 1.0, f.total / g.total)
    elif kind == "equal-ends":
        g = _rescaled(g, f.end / g.end, 1.0)
    return (g, f) if swap else (f, g)


def min_pairs():
    """Pairs of cumulative profiles that cross, touch, dominate one another,
    share their totals or ends, or are one object."""
    kinds = st.sampled_from(
        ("independent", "same", "truncated", "rescaled", "equal-totals", "equal-ends")
    )
    factors = st.floats(min_value=0.25, max_value=4.0)
    return st.tuples(kinds, cumulatives(), cumulatives(), factors, factors, st.booleans()).map(
        lambda args: _min_pair(*args)
    )


SHORT_LOW = PiecewiseLinearFn((0, 1), (0, 1))
LONG_HIGH = PiecewiseLinearFn((0, 2), (0, 4))
CROSSES = PiecewiseLinearFn((0, 1, 2), (0, 4, 5))


class TestMinDominance:
    @given(min_pairs())
    @example((SHORT_LOW, LONG_HIGH))  # below everywhere but ends early
    @example((LONG_HIGH, SHORT_LOW))
    @example((TestPointwiseCombinators.A, TestPointwiseCombinators.B))
    @example((TestPointwiseCombinators.B, TestPointwiseCombinators.A))
    @example((CROSSES, LONG_HIGH))
    # they cross 1.6e-8 before a knot at value 16, and f's last slope sits
    # at the concavity tolerance
    @example(
        _min_pair(
            "equal-totals",
            _from_segments([(1.0, 1.0), (1.0, 15.0), (3.5, 1e-07)]),
            exact_cumulative(DegreeSequence([1, 1, 1, 1, 1])),
            1.0,
            1.0,
            False,
        )
    )
    def test_min_of_two(self, pair):
        f, g = pair
        lo = pw_min([f, g])
        end = max(f.end, g.end)
        assert lo.end == end
        xs = sorted({*f.knots, *g.knots})
        f_at = [extended_value(f, x) for x in xs]
        g_at = [extended_value(g, x) for x in xs]
        diffs = [a - b for a, b in zip(f_at, g_at)]
        crossings = [
            a + d0 / (d0 - d1) * (b - a)
            for a, b, d0, d1 in zip(xs, xs[1:], diffs, diffs[1:])
            if (d0 > 0.0 > d1) or (d0 < 0.0 < d1)
        ]
        for x in xs + crossings:
            want = min(extended_value(f, x), extended_value(g, x))
            assert abs(extended_value(lo, x) - want) <= _slack(want)
        dominated = [
            h
            for h, h_at, other_at in ((f, f_at, g_at), (g, g_at, f_at))
            if h.end == end and all(a <= b for a, b in zip(h_at, other_at))
        ]
        if dominated:
            assert any(lo is h for h in dominated)


class TestToleranceEdges:
    """Each invariant check accepts values just inside its tolerance and
    rejects values just outside it."""

    def test_step_values_non_negative(self):
        PiecewiseConstantFn((1.0, 2.0), (3.0, -0.5e-9))
        with pytest.raises(ValueError, match="non-negative"):
            PiecewiseConstantFn((1.0, 2.0), (3.0, -2e-9))

    def test_step_values_non_increasing(self):
        # tolerance 1e-7 * 100, as for a cumulative profile's slopes
        fn = PiecewiseConstantFn((1.0, 2.0), (100.0, 100.0 + 0.5e-5))
        assert fn.values == (100.0, 100.0 + 0.5e-5)
        with pytest.raises(ValueError, match="non-increasing"):
            PiecewiseConstantFn((1.0, 2.0), (100.0, 100.0 + 2e-5))

    @pytest.mark.parametrize("rise, accepted", [(1.5e-7, True), (2.5e-7, False)])
    def test_slopes_and_steps_share_one_rule(self, rise, accepted):
        # slopes 2 then 2 + rise against a tolerance of 1e-7 * 2: a profile
        # the cumulative check accepts has a derivative the step check accepts
        values = (0.0, 2.0, 2.0 + 2.0 * (2.0 + rise))
        for build in (
            lambda: discrete_derivative(PiecewiseLinearFn((0.0, 1.0, 3.0), values)),
            lambda: PiecewiseConstantFn((1.0, 3.0), (2.0, 2.0 + rise)),
        ):
            if accepted:
                assert build().values[0] == 2.0
            else:
                with pytest.raises(ValueError, match="non-increasing"):
                    build()

    def test_cumulative_non_decreasing(self):
        # tolerance 1e-9 * 10; a dip inside it becomes a flat segment
        fn = PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 10.0, 10.0 - 0.5e-8))
        assert fn.slopes == (10.0, 0.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 10.0, 10.0 - 2e-8))

    def test_cumulative_concave(self):
        # slopes 2 then 2 + d against a tolerance of 1e-7 * 2
        PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 2.0, 4.0 + 1e-7))
        with pytest.raises(ValueError, match="slopes must be non-increasing"):
            PiecewiseLinearFn((0.0, 1.0, 2.0), (0.0, 2.0, 4.0 + 4e-7))

    def test_multiply_edge_advance(self):
        # an edge within 1e-9 of the other input's edge is the same edge;
        # one just beyond it leaves a sliver segment
        f = PiecewiseConstantFn((1.0, 3.0), (4.0, 2.0))
        near = PiecewiseConstantFn((1.0 + 0.5e-9, 3.0), (5.0, 1.0))
        far = PiecewiseConstantFn((1.0 + 2e-9, 3.0), (5.0, 1.0))
        assert pw_multiply(f, near).edges == pw_multiply(near, f).edges == (1.0, 3.0)
        assert pw_multiply(f, far).edges == pw_multiply(far, f).edges == (1.0, 1.0 + 2e-9, 3.0)

    def test_multiply_raises_a_segment_the_product_rises_above(self):
        # slopes 2 then 2 + 1.5e-7 rise inside the tolerance 1e-7 * 2, and
        # their squares rise outside the tolerance 1e-7 * 4: the first
        # segment takes the second's value, an upper bound of the product
        f = discrete_derivative(
            PiecewiseLinearFn((0.0, 1.0, 3.0), (0.0, 2.0, 2.0 + 2.0 * (2.0 + 1.5e-7)))
        )
        assert f.values == (2.0, 2.0 + 1.5e-7)
        prod = pw_multiply(f, f)
        assert prod == ref_pw_multiply(f, f)
        assert prod.edges == (3.0,) and prod.values == (f.values[1] * f.values[1],)

    def test_compose_ranks_stops_at_anchor_mass(self):
        # through reaches the anchor's mass, to within 1e-9 of it, at rank 1;
        # the child's later segments collapse into its final value
        child = PiecewiseConstantFn((1.0, 1.5, 2.0), (5.0, 3.0, 1.0))
        through = PiecewiseLinearFn((0.0, 1.0, 1.5, 2.0), (0.0, 10.0, 10.0 + 0.5e-12, 10.0 + 1e-12))
        anchor = PiecewiseLinearFn((0.0, 1.0, 3.0), (0.0, 10.0, 10.0 + 1e-12))
        out = compose_ranks(child, through, anchor)
        assert out == ref_compose_ranks(child, through, anchor)
        assert out.edges == (1.0, 3.0) and out.values == (5.0, 1.0)
