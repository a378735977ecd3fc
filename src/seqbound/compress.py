"""Compression of degree sequences into few-segment cumulative profiles.

The compressor replaces a column's exact cumulative frequency profile by a
piecewise linear function with a small number of sloped segments plus a
flat cap, chosen so that the result never under-estimates the exact
profile at any rank and matches the total row count exactly.  Each sloped
segment is opened greedily: the current segment keeps absorbing ranks
while the overestimation it induces on the column's self-join size stays
below a fixed fraction of that size, so a compression with k sloped
segments overestimates the self-join size by at most a factor 1 + k times
the configured budget.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import accumulate, groupby
from operator import mul

import numpy as np

from .pwfn import (
    DegreeSequence,
    PiecewiseLinearFn,
    sample_integer_ranks,
    zero_cumulative,
)

__all__ = [
    "self_join_bound",
    "valid_compress",
    "is_valid_compression",
    "shortfall",
    "drop_vectors",
    "distances_to",
]


def _runs(seq) -> tuple[list[int], list[int]]:
    """The degrees and run lengths, as Python ints, of a degree sequence:
    a :class:`DegreeSequence`, or its (degree, run length) pairs as rows."""
    if not isinstance(seq, DegreeSequence):
        return seq[:, 0].tolist(), seq[:, 1].tolist()
    runs = [(f, len(list(ranks))) for f, ranks in groupby(seq.freqs)]
    return [f for f, _ in runs], [r for _, r in runs]


def self_join_bound(seq) -> int:
    """Exact size of the column joined with itself: sum of squared frequencies."""
    return sum(f * f * r for f, r in zip(*_runs(seq)))


def valid_compress(seq, error_budget: float) -> PiecewiseLinearFn:
    """Compress a degree sequence (see :func:`_runs`) into a dominating
    cumulative profile.

    A sloped segment of slope s (the degree of its first rank) absorbs
    ranks while the self-join overestimation they add, f * (s - f) for a
    rank of degree f, stays below error_budget * sum(f^2); the rank at
    which it reaches that opens the next segment, of slope f.  The walk
    goes run by run in exact integers, one division per run that opens a
    segment.  A knot's value is the exact row count before it, its position
    the previous knot's plus the segment's rows over its slope.  A flat cap
    at the total closes the domain (0, d].  Raises ValueError unless
    error_budget > 0.
    """
    if not error_budget > 0.0:
        raise ValueError("error_budget must be positive")
    degrees, lengths = _runs(seq)
    if not degrees:
        return zero_cumulative(1.0)
    d = sum(lengths)
    # threshold is exactly limit / den, so err, den times the overestimation,
    # reaches it at limit; an infinite threshold (den 0) is never reached
    threshold = error_budget * float(self_join_bound(seq))
    limit, den = (1, 0) if math.isinf(threshold) else threshold.as_integer_ratio()
    knots, values = [0.0], [0]
    slope = degrees[0]
    err = mass = 0  # den * overestimation, and rows, of the open segment
    for f, r in zip(degrees, lengths):
        step = den * f * (slope - f)
        if step and err + step * r >= limit:
            t, rest = divmod(limit - err, step)
            t += rest > 0  # the run's t-th rank (from 1) opens the next segment
            mass += (t - 1) * f
            knots.append(knots[-1] + mass / slope)
            values.append(values[-1] + mass)
            slope, err, mass = f, 0, (r - t + 1) * f
        else:
            err += step * r
            mass += r * f
    knots.append(knots[-1] + mass / slope)
    values.append(values[-1] + mass)
    if knots[-1] < d - 1e-9 * max(1.0, d):
        knots.append(float(d))
        values.append(values[-1])
    return PiecewiseLinearFn(knots, values)


def shortfall(fn: PiecewiseLinearFn, curves: list[tuple[Sequence, Sequence]]) -> float | None:
    """The least rank at which ``fn`` falls below one of ``curves``, None
    when it dominates them all: the one definition of domination.

    Each curve is its knots (ascending from 0) and its values there; like
    ``fn`` it is linear between its knots and flat past its last.  So fn
    minus a curve is linear between consecutive points of the union of
    the curve's knots and fn's, and those points decide it exactly: fn is
    read at every curve's knots in one ``np.interp``, and each curve at
    fn's knots.  A value is short when it is below the curve's by more
    than 1e-9 times max(1, the curve's value).
    """
    knots = np.array(fn.knots)
    ranks = np.concatenate([knots, *(k for k, _ in curves)])
    at_knots = functools.reduce(np.maximum, [np.interp(knots, k, v) for k, v in curves])
    want = np.concatenate([at_knots, *(v for _, v in curves)])
    short = ranks[np.interp(ranks, knots, fn.values) + 1e-9 * np.maximum(1.0, want) < want]
    return float(short.min()) if short.size else None


def is_valid_compression(seq, candidate: PiecewiseLinearFn) -> str | None:
    """Why a cumulative profile cannot soundly stand in for a degree
    sequence (see :func:`_runs`), None when it can.

    Required: the profile dominates the exact cumulative profile on all of
    [0, d] (:func:`shortfall`), its total equals the sequence total
    (relative tolerance 1e-6), and its domain ends at the distinct count
    d.  Its slopes never increase: every ``PiecewiseLinearFn`` is concave.
    """
    degrees, lengths = _runs(seq)
    ranks = [*accumulate(lengths, initial=0)]
    counts = [*accumulate(map(mul, degrees, lengths), initial=0)]
    d, total = ranks[-1], counts[-1]
    if d == 0:
        if abs(candidate.total) <= 1e-6:
            return None
        return "nonzero mass for an empty sequence"
    if abs(candidate.end - d) > 1e-6 * max(1.0, d):
        return "domain ends at %r, expected the distinct count %d" % (candidate.end, d)
    exact = (np.array(ranks, dtype=np.float64), np.array(counts, dtype=np.float64))
    rank = shortfall(candidate, [exact])
    if rank is not None:
        return "under-estimates the exact profile at rank %r" % rank
    if abs(candidate.total - total) > 1e-6 * max(1.0, total):
        return "total mass %r differs from row count %d" % (candidate.total, total)
    return None


# Profile ends beyond which drop_vectors reads a log-rank sketch, and the
# number of sketch ranks.
FULL_GRID_RANKS = 256
SKETCH_RANKS = 64


def drop_vectors(fns: list[PiecewiseLinearFn]) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-rank frequency drops of cumulative profiles, one row
    each, and each row's squared norm, for :func:`distances_to`.

    Every profile is read back as per-rank drops, flat-extended past its
    end.  When the largest end D is at most FULL_GRID_RANKS the drops are
    read at every integer rank with unit weights.  Above it they are read
    at the SKETCH_RANKS ranks r = round(geomspace(1, D)), each drop
    F(r) - F(r-1) scaled by the square root of the ranks w = r - r_prev it
    stands for, so the cost is independent of D.  A profile object that
    appears several times is read once and its row repeated.  Raises
    ValueError when a profile has zero mass: it has no defined distance.
    """
    row_of: dict[int, int] = {}
    index = [row_of.setdefault(id(fn), len(row_of)) for fn in fns]
    fns = list({id(fn): fn for fn in fns}.values())
    upto = int(np.ceil(max(fn.end for fn in fns)))
    if upto <= FULL_GRID_RANKS:
        drops = np.empty((len(fns), upto))
        for row, fn in zip(drops, fns):
            grid = sample_integer_ranks(fn, upto)
            np.subtract(grid[1:], grid[:-1], out=row)
    else:
        ranks = np.unique(np.round(np.geomspace(1, upto, SKETCH_RANKS)))
        drops = np.empty((len(fns), ranks.size))
        for row, fn in zip(drops, fns):
            np.subtract(
                np.interp(ranks, fn.knots, fn.values),
                np.interp(ranks - 1.0, fn.knots, fn.values),
                out=row,
            )
        # sum(w*x^2) is sum((sqrt(w)*x)^2), and scaling by sqrt(w) > 0
        # commutes with the pointwise maximum
        drops *= np.sqrt(np.diff(ranks, prepend=0.0))
    sq = np.einsum("ij,ij->i", drops, drops)
    if np.any(sq <= 0.0):
        raise ValueError("profiles with zero mass have no defined distance")
    return drops[index], sq[index]


def distances_to(drops: np.ndarray, sq: np.ndarray, i: int) -> np.ndarray:
    """Dissimilarity of every row of :func:`drop_vectors` to row i.

    With m the pointwise maximum of two drop vectors a and b, their
    distance is sum(m^2)/sum(a^2) + sum(m^2)/sum(b^2): always at least 2,
    exactly 2 for identical rows, and growing as either profile must be
    inflated to envelope the other.  Clustering is a heuristic: soundness
    rests on the representatives and their audit, not on this distance.
    """
    top = np.maximum(drops, drops[i])
    msq = np.einsum("ij,ij->i", top, top)
    return msq / sq + msq / sq[i]
