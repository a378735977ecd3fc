"""Piecewise-function kernel over the real rank axis.

A column's value frequencies, sorted descending, form a degree sequence
f(1) >= f(2) >= ... >= f(d).  The engine works with two continuous
relaxations of such sequences defined on the interval (0, d]:

* :class:`PiecewiseConstantFn` is a step function, the frequency profile
  itself (constant on half-open segments, closed on the right).
* :class:`PiecewiseLinearFn` is its running total: continuous, F(0) = 0,
  non-decreasing and concave.

Every bound computation in this package reduces to a handful of
operations on these two shapes, collected here.  All functions are pure
and the types are immutable value objects.
"""

from __future__ import annotations

import bisect
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

ABS_TOL = 1e-9

__all__ = [
    "ABS_TOL",
    "DegreeSequence",
    "PiecewiseConstantFn",
    "PiecewiseLinearFn",
    "InconsistentStatisticsError",
    "cumulate",
    "discrete_derivative",
    "pw_multiply",
    "pw_min",
    "pw_max",
    "pw_sum",
    "compose_ranks",
    "truncate_cumulative",
    "restrict_domain",
    "sample_integer_ranks",
    "zero_cumulative",
]


class InconsistentStatisticsError(ValueError):
    """Raised when two profiles that must agree (e.g. on total mass) do not."""


def _slack(*vals: float) -> float:
    m = 1.0
    for v in vals:
        a = abs(v)
        if a > m:
            m = a
    return ABS_TOL * m


def _rise_slack(a: float, b: float) -> float:
    """How far ``b`` may rise above the ``a`` just before it in a sequence
    of non-negative numbers that counts as non-increasing.  ``pw_min``
    leaves slopes that rise by a few roundings, so this is wider than
    ``_slack``."""
    return 1e-7 * max(1.0, a, b)


class DegreeSequence:
    """Value frequencies of one column, sorted descending, all positive."""

    __slots__ = ("freqs", "total", "distinct")

    def __init__(self, freqs: Iterable[int]):
        fs = tuple(int(f) for f in freqs)
        prev = None
        for f in fs:
            if f <= 0:
                raise ValueError("frequencies must be positive, got %r" % (f,))
            if prev is not None and f > prev:
                raise ValueError("frequencies must be non-increasing")
            prev = f
        self.freqs = fs
        self.total = sum(fs)
        self.distinct = len(fs)

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "DegreeSequence":
        """Build from unsorted per-value counts (zeros dropped)."""
        return cls(sorted((int(c) for c in counts if c > 0), reverse=True))

    def __iter__(self) -> Iterator[int]:
        return iter(self.freqs)

    def __len__(self) -> int:
        return self.distinct

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DegreeSequence) and self.freqs == other.freqs

    def __hash__(self) -> int:
        return hash(self.freqs)

    def __repr__(self) -> str:
        return "DegreeSequence(%r)" % (list(self.freqs),)


class PiecewiseConstantFn:
    """Step function on (0, end]: value ``values[i]`` on ``(edges[i-1], edges[i]]``.

    Edges are the strictly increasing right endpoints of the segments; the
    implicit left endpoint of the first segment is 0.  Values must be
    non-negative and non-increasing (frequency profiles only ever descend).
    Adjacent segments with exactly equal values are coalesced, so equal
    functions compare equal regardless of how they were assembled.
    Instances are immutable, so the hash is computed once, on first use.
    """

    __slots__ = ("edges", "values", "_hash")

    def __init__(self, edges: Sequence[float], values: Sequence[float]):
        if len(edges) != len(values) or not edges:
            raise ValueError("edges and values must be equal-length and non-empty")
        es: list[float] = []
        vs: list[float] = []
        prev_e = 0.0
        last = None
        for e, v in zip(map(float, edges), map(float, values)):
            if e <= prev_e:
                raise ValueError("edges must be strictly increasing and positive")
            prev_e = e
            # The tolerance is never negative, so it is only worth computing
            # once the exact comparison has already failed.
            if v < 0.0 and v < -_slack(v):
                raise ValueError("segment values must be non-negative")
            if v == last:
                es[-1] = e
                continue
            if last is not None and v > last and v > last + _rise_slack(last, v):
                raise ValueError("segment values must be non-increasing")
            es.append(e)
            vs.append(v)
            last = v
        self.edges = tuple(es)
        self.values = tuple(vs)
        self._hash = None

    @property
    def end(self) -> float:
        return self.edges[-1]

    def segments(self) -> Iterator[tuple[float, float]]:
        """Yield (right_edge, value) pairs in order."""
        return zip(self.edges, self.values)

    def value_at(self, x: float) -> float:
        """Value at rank x in (0, end]; x = 0 returns the first segment's value."""
        end = self.edges[-1]
        if x > end:
            if x <= end + _slack(x, end):
                x = end
            else:
                raise ValueError("rank %r beyond domain end %r" % (x, end))
        if x <= 0.0:
            return self.values[0]
        i = bisect.bisect_left(self.edges, x)
        return self.values[i]

    def integral(self) -> float:
        total = 0.0
        prev = 0.0
        for e, v in zip(self.edges, self.values):
            total += v * (e - prev)
            prev = e
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PiecewiseConstantFn)
            and self.edges == other.edges
            and self.values == other.values
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.edges, self.values))
        return h

    def __repr__(self) -> str:
        parts = ", ".join("%g:%g" % (e, v) for e, v in zip(self.edges, self.values))
        return "PiecewiseConstantFn(%s)" % parts


class PiecewiseLinearFn:
    """Continuous concave non-decreasing function with F(0) = 0.

    Stored as knot positions (starting at 0.0, strictly increasing) and the
    function values at those knots (starting at 0.0); linear in between.
    The final knot is the domain end, the final value the total mass.
    Instances are immutable, so the hash is computed once, on first use.
    """

    __slots__ = ("knots", "values", "slopes", "_hash")

    def __init__(self, knots: Sequence[float], values: Sequence[float]):
        if len(knots) != len(values) or len(knots) < 2:
            raise ValueError("need matching knots/values with at least two knots")
        ks = [float(k) for k in knots]
        vs = [float(v) for v in values]
        if ks[0] != 0.0 or vs[0] != 0.0:
            raise ValueError("function must start at (0, 0)")
        slopes: list[float] = []
        for i in range(1, len(ks)):
            w = ks[i] - ks[i - 1]
            if w <= 0.0:
                raise ValueError("knots must be strictly increasing")
            dv = vs[i] - vs[i - 1]
            if dv < 0.0:
                if dv < -_slack(vs[i], vs[i - 1]):
                    raise ValueError("function must be non-decreasing")
                dv = 0.0
            slopes.append(dv / w)
        for a, b in zip(slopes, slopes[1:]):
            if b > a and b > a + _rise_slack(a, b):
                raise ValueError("slopes must be non-increasing (got %r after %r)" % (b, a))
        self.knots = tuple(ks)
        self.values = tuple(vs)
        self.slopes = tuple(slopes)
        self._hash = None

    @property
    def end(self) -> float:
        return self.knots[-1]

    @property
    def total(self) -> float:
        return self.values[-1]

    def value_at(self, x: float) -> float:
        end = self.knots[-1]
        if x <= 0.0:
            return 0.0
        if x >= end:
            if x <= end + _slack(x, end):
                return self.values[-1]
            raise ValueError("rank %r beyond domain end %r" % (x, end))
        i = bisect.bisect_right(self.knots, x) - 1
        return self.values[i] + self.slopes[i] * (x - self.knots[i])

    def rank_at(self, y: float) -> float:
        """Smallest rank x with F(x) >= y (the generalized inverse)."""
        total = self.values[-1]
        if y <= 0.0:
            return 0.0
        if y >= total:
            if y <= total + _slack(y, total):
                return _flat_onset(self)
            raise ValueError("mass %r beyond total %r" % (y, total))
        j = bisect.bisect_left(self.values, y)
        # values[j-1] < y <= values[j]; the slope on that segment is positive.
        return self.knots[j - 1] + (y - self.values[j - 1]) / self.slopes[j - 1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PiecewiseLinearFn)
            and self.knots == other.knots
            and self.values == other.values
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.knots, self.values))
        return h

    def __repr__(self) -> str:
        parts = ", ".join("%g:%g" % (k, v) for k, v in zip(self.knots, self.values))
        return "PiecewiseLinearFn(%s)" % parts


def _flat_onset(fn: PiecewiseLinearFn) -> float:
    """Leftmost rank where fn first reaches its total mass."""
    total = fn.values[-1]
    j = bisect.bisect_left(fn.values, total)
    if j == 0:
        return 0.0
    if fn.slopes[j - 1] > 0.0:
        return fn.knots[j - 1] + (total - fn.values[j - 1]) / fn.slopes[j - 1]
    return fn.knots[j]


def zero_cumulative(end: float = 1.0) -> PiecewiseLinearFn:
    """The all-zero cumulative profile on (0, end]."""
    return PiecewiseLinearFn((0.0, float(end)), (0.0, 0.0))


def cumulate(fn: PiecewiseConstantFn) -> PiecewiseLinearFn:
    """Running integral of a step function, as a piecewise linear function."""
    knots = [0.0]
    values = [0.0]
    prev = 0.0
    acc = 0.0
    for e, v in fn.segments():
        acc += v * (e - prev)
        knots.append(e)
        values.append(acc)
        prev = e
    return PiecewiseLinearFn(knots, values)


def discrete_derivative(fn: PiecewiseLinearFn) -> PiecewiseConstantFn:
    """Slope profile of a cumulative function, as a step function."""
    return PiecewiseConstantFn(fn.knots[1:], fn.slopes)


def sample_integer_ranks(fn: PiecewiseLinearFn, upto: int) -> np.ndarray:
    """Values of fn at ranks 0, 1, ..., upto, flat-extended past the domain end."""
    grid = np.arange(upto + 1, dtype=np.float64)
    return np.interp(grid, fn.knots, fn.values)


def restrict_domain(fn: PiecewiseConstantFn, end: float) -> PiecewiseConstantFn:
    """Drop the part of a step function beyond the given domain end."""
    if end >= fn.end - _slack(end, fn.end):
        return fn
    if end <= 0.0:
        raise ValueError("domain end must be positive")
    edges: list[float] = []
    values: list[float] = []
    for e, v in fn.segments():
        if e >= end:
            edges.append(end)
            values.append(v)
            break
        edges.append(e)
        values.append(v)
    return PiecewiseConstantFn(edges, values)


def pw_multiply(f: PiecewiseConstantFn, g: PiecewiseConstantFn) -> PiecewiseConstantFn:
    """Pointwise product of two step functions sharing a domain end."""
    if abs(f.end - g.end) > _slack(f.end, g.end):
        raise InconsistentStatisticsError(
            "domain ends differ: %r vs %r" % (f.end, g.end)
        )
    end = f.end if f.end <= g.end else g.end
    f_edges, f_values, g_edges, g_values = f.edges, f.values, g.edges, g.values
    n_f, n_g = len(f_edges), len(g_edges)
    edges: list[float] = []
    values: list[float] = []
    i = j = 0
    while i < n_f and j < n_g:
        fe = f_edges[i]
        ge = g_edges[j]
        e = fe if fe <= ge else ge
        edges.append(e)
        values.append(f_values[i] * g_values[j])
        # Edges are positive and e <= fe, so this tolerance is _slack(e, fe).
        if fe <= e or fe <= e + ABS_TOL * (fe if fe > 1.0 else 1.0):
            i += 1
        if ge <= e or ge <= e + ABS_TOL * (ge if ge > 1.0 else 1.0):
            j += 1
        if e >= end:
            break
    edges[-1] = end
    # Each input may rise by up to _rise_slack from one segment to the
    # next, so their product may rise by about twice that.  A segment that
    # a later one rises above by more than the tolerance takes that later
    # value: raising a frequency keeps the product an upper bound.
    if any(map(operator.lt, values, values[1:])):
        for k in range(len(values) - 2, -1, -1):
            a, b = values[k], values[k + 1]
            if b > a + _rise_slack(a, b):
                values[k] = b
    return PiecewiseConstantFn(edges, values)


def _dedupe_knots(knots: list[float]) -> list[float]:
    """Coalesce sorted knots that differ only by rounding noise.

    Crossing points can land a rounding error away from a structural knot;
    the sliver segment between them carries no information, but its
    interpolated endpoint values wobble enough to fake a slope inversion.
    Clusters keep their largest member, except that the leading 0.0 always
    survives.  Knots are never negative, so the scale is k itself above 1.
    """
    out = [knots[0]]
    for k in knots[1:]:
        if k - out[-1] <= 1e-12 * (k if k > 1.0 else 1.0):
            if len(out) > 1:
                out[-1] = k
            continue
        out.append(k)
    return out


def _merged_knots(fns: Sequence[PiecewiseLinearFn], end: float) -> list[float]:
    merged: set[float] = set()
    for fn in fns:
        for k in fn.knots:
            if k < end:
                merged.add(k)
    merged.add(end)
    return _dedupe_knots(sorted(merged))


def _values_at_sorted(fn: PiecewiseLinearFn, xs: Iterable[float]) -> list[float]:
    """fn(x), flat-extended beyond the domain end, for each x of an
    ascending sequence.

    One forward walk over the knots replaces a bisection per point: the
    segment used is still the last knot at or below x, and the value is
    computed by the same expression as :meth:`PiecewiseLinearFn.value_at`.
    """
    knots, values, slopes = fn.knots, fn.values, fn.slopes
    end = knots[-1]
    total = values[-1]
    out: list[float] = []
    i = 0
    for x in xs:
        if x >= end:
            out.append(total)
        elif x <= 0.0:
            out.append(0.0)
        else:
            while knots[i + 1] <= x:
                i += 1
            out.append(values[i] + slopes[i] * (x - knots[i]))
    return out


def _combine(f: PiecewiseLinearFn, g: PiecewiseLinearFn) -> PiecewiseLinearFn:
    """Pointwise minimum of two cumulative profiles.

    Both are evaluated once at their merged knots.  An input at or below
    the other at every one of them that also reaches the common end is the
    minimum, and comes back as it is.  Otherwise the minimum gains a knot
    wherever the difference changes sign by more than rounding noise.
    """
    if f is g:
        return f
    end = max(f.end, g.end)
    knots = _merged_knots((f, g), end)
    f_at = _values_at_sorted(f, knots)
    g_at = _values_at_sorted(g, knots)
    diffs = [a - b for a, b in zip(f_at, g_at)]
    if f.end == end and max(diffs) <= 0.0:
        return f
    if g.end == end and min(diffs) >= 0.0:
        return g
    extra: list[float] = []
    for a, b, d0, d1 in zip(knots, knots[1:], diffs, diffs[1:]):
        if (d0 > 0.0 and d1 < 0.0) or (d0 < 0.0 and d1 > 0.0):
            s = _slack(d0, d1)
            if (d0 > s and d1 < -s) or (d0 < -s and d1 > s):
                t = d0 / (d0 - d1)
                extra.append(a + t * (b - a))
    values = list(map(min, f_at, g_at))
    if extra:
        at = dict(zip(knots, values))
        at.update(zip(extra, map(min, _values_at_sorted(f, extra), _values_at_sorted(g, extra))))
        knots = _dedupe_knots(sorted(at))
        values = [at[k] for k in knots]
    try:
        return PiecewiseLinearFn(knots, values)
    except ValueError:
        # A crossing just before a knot leaves a short segment whose slope,
        # the difference of two nearly equal values over a small width, can
        # round past the concavity tolerance; the upper concave envelope of
        # the same points only raises values.
        return PiecewiseLinearFn(*_upper_concave_envelope(knots, values))


def _upper_concave_envelope(
    knots: Sequence[float], values: Sequence[float]
) -> tuple[list[float], list[float]]:
    hull_x = [knots[0]]
    hull_y = [values[0]]
    for x, y in zip(knots[1:], values[1:]):
        while len(hull_x) >= 2:
            s_prev = (hull_y[-1] - hull_y[-2]) / (hull_x[-1] - hull_x[-2])
            s_new = (y - hull_y[-1]) / (x - hull_x[-1])
            if s_new >= s_prev - 1e-15:
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(x)
        hull_y.append(y)
    return hull_x, hull_y


def pw_min(fns: Sequence[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    """Pointwise minimum of cumulative profiles (flat-extended to a common end).

    Inputs merge left to right; where one of two already lies at or below
    the other and reaches their common end, that input object is the result.
    """
    if not fns:
        raise ValueError("need at least one function")
    result = fns[0]
    for other in fns[1:]:
        result = _combine(result, other)
    return result


def pw_max(fns: Sequence[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    """Least concave majorant of cumulative profiles (flat-extended to a
    common end).

    Every input is linear between its knots and flat past its end, so the
    upper concave hull of all knot points plus each input's ``(end, total)``
    at the common end is the smallest concave function dominating every
    input; where the raw pointwise maximum is already concave it is that
    maximum, without collinear knots.
    """
    if not fns:
        raise ValueError("need at least one function")
    if len(fns) == 1:
        return fns[0]
    end = max(fn.end for fn in fns)
    top: dict[float, float] = {}  # largest input value at each knot position
    for fn in fns:
        for x, y in (*zip(fn.knots, fn.values), (end, fn.values[-1])):
            if y > top.get(x, -1.0):
                top[x] = y
    xs = sorted(top)
    knots, values = _upper_concave_envelope(xs, [top[x] for x in xs])
    return PiecewiseLinearFn(knots, values)


def pw_sum(fns: Sequence[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    """Pointwise sum of cumulative profiles (flat-extended to a common end)."""
    if not fns:
        raise ValueError("need at least one function")
    if len(fns) == 1:
        return fns[0]
    end = max(fn.end for fn in fns)
    knots = _merged_knots(fns, end)
    columns = [_values_at_sorted(fn, knots) for fn in fns]
    values = [sum(at_x) for at_x in zip(*columns)]
    return PiecewiseLinearFn(knots, values)


def truncate_cumulative(fn: PiecewiseLinearFn, cap: float) -> PiecewiseLinearFn:
    """Clamp a cumulative profile so its total mass never exceeds cap."""
    if cap <= ABS_TOL:
        return zero_cumulative(fn.end)
    if cap >= fn.total - _slack(cap, fn.total):
        return fn
    x = fn.rank_at(cap)
    knots = [k for k in fn.knots if k < x - 1e-12]
    values = list(fn.values[: len(knots)])
    knots.append(x)
    values.append(cap)
    if x < fn.end - 1e-12:
        knots.append(fn.end)
        values.append(cap)
    return PiecewiseLinearFn(knots, values)


def compose_ranks(
    child: PiecewiseConstantFn,
    through: PiecewiseLinearFn,
    anchor: PiecewiseLinearFn,
) -> PiecewiseConstantFn:
    """Re-express a child multiplicity profile in the anchor column's rank domain.

    ``child`` gives, per rank of the column behind ``through``, how many
    result rows each matching value contributes.  This maps each of the
    child's segment boundaries x to the anchor rank holding the same
    cumulative mass, i.e. anchor_rank = anchor^{-1}(through(x)), producing
    a step function over the anchor's domain (0, anchor.end].  Requires
    anchor.total <= through.total; ranks past the anchor's own mass reuse
    the child's final segment value.
    """
    mass_a = anchor.total
    mass_t = through.total
    if mass_a > mass_t + _slack(mass_a, mass_t):
        raise InconsistentStatisticsError(
            "anchor mass %r exceeds child-side mass %r" % (mass_a, mass_t)
        )
    d_anchor = anchor.end
    slack_a = _slack(mass_a)
    if mass_a <= slack_a:
        return PiecewiseConstantFn((d_anchor,), (0.0,))
    d_t = through.end
    # Align the child profile to the domain of `through`: clip past d_t,
    # pad with zero frequency when the child is shorter.
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
    # One forward walk over the child's edges evaluates through(x) as
    # _values_at_sorted does (x >= d_t reads the total; edges are positive)
    # and inverts the anchor at y = min(through(x), mass_a).  y never
    # decreases, so anchor^{-1}(y) is found as in PiecewiseLinearFn.rank_at
    # but by a forward walk over the anchor's values.  Since y <= mass_a,
    # the stopping tolerance _slack(y, mass_a) is slack_a for y >= 0, and a
    # negative y fails the stopping test under either tolerance.
    t_knots, t_values, t_slopes = through.knots, through.values, through.slopes
    a_knots, a_values, a_slopes = anchor.knots, anchor.values, anchor.slopes
    i = 0
    j = 1
    out_edges: list[float] = []
    out_values: list[float] = []
    prev = 0.0
    for e, v in zip(edges, values):
        if e >= d_t:
            t = mass_t
        else:
            while t_knots[i + 1] <= e:
                i += 1
            t = t_values[i] + t_slopes[i] * (e - t_knots[i])
        y = mass_a if mass_a < t else t
        if y <= 0.0:
            r = 0.0
        elif y >= mass_a:
            r = _flat_onset(anchor)
        else:
            while a_values[j] < y:
                j += 1
            r = a_knots[j - 1] + (y - a_values[j - 1]) / a_slopes[j - 1]
        if r > prev + 1e-12:
            out_edges.append(r)
            out_values.append(v)
            prev = r
        if y >= mass_a - slack_a:
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
