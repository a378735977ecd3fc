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

from dataclasses import dataclass

import numpy as np

from .pwfn import (
    DegreeSequence,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
    sample_integer_ranks,
    zero_cumulative,
)

__all__ = [
    "CompressionConfig",
    "ValidityReport",
    "self_join_bound",
    "lossless_compress",
    "valid_compress",
    "is_valid_compression",
    "compression_distance",
    "drop_vectors",
    "distances_to",
]


@dataclass(frozen=True)
class CompressionConfig:
    """Knobs for :func:`valid_compress`.

    error_budget: per-segment relative self-join overestimation allowance,
        must be positive.
    max_segments: optional hard cap on the number of output segments
        (sloped segments plus the flat cap); at least 2 when given.
    """

    error_budget: float = 0.01
    max_segments: int | None = None

    def __post_init__(self) -> None:
        if self.error_budget <= 0.0:
            raise ValueError("error_budget must be positive")
        if self.max_segments is not None and self.max_segments < 2:
            raise ValueError("max_segments must be at least 2")


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    reason: str | None = None


INT64_MAX = int(np.iinfo(np.int64).max)


def self_join_bound(seq: DegreeSequence) -> int:
    """Exact size of the column joined with itself: sum of squared frequencies."""
    freqs = seq.freqs
    # freqs descend, so the int64 dot product cannot overflow when
    # len * freqs[0]^2 fits; past that, Python ints stay exact
    if not freqs or len(freqs) * freqs[0] * freqs[0] > INT64_MAX:
        return sum(f * f for f in freqs)
    a = np.asarray(freqs, dtype=np.int64)
    return int(np.dot(a, a))


def lossless_compress(seq: DegreeSequence) -> PiecewiseConstantFn:
    """Exact step-function form of a degree sequence (equal runs coalesced)."""
    if seq.distinct == 0:
        return PiecewiseConstantFn((1.0,), (0.0,))
    return PiecewiseConstantFn(
        tuple(float(i) for i in range(1, seq.distinct + 1)),
        tuple(float(f) for f in seq.freqs),
    )


def valid_compress(
    seq: DegreeSequence, config: CompressionConfig | None = None
) -> PiecewiseLinearFn:
    """Compress a degree sequence into a dominating cumulative profile.

    Walks ranks in order, extending the current sloped segment by the
    fractional width f(i) / slope so the segment's running total lands
    exactly on the exact cumulative value, and opens a new segment (at the
    current fractional rank, with slope f(i)) once the accumulated
    self-join overestimation of the current one reaches
    error_budget * sum(f^2).  A flat cap at the total row count closes the
    domain (0, d].
    """
    cfg = config or CompressionConfig()
    freqs = seq.freqs
    d = len(freqs)
    if d == 0:
        return zero_cumulative(1.0)
    total = float(seq.total)
    threshold = cfg.error_budget * float(self_join_bound(seq))
    sloped_budget = None if cfg.max_segments is None else cfg.max_segments - 1

    knots = [0.0]
    values = [0.0]
    slope = float(freqs[0])
    err = 0.0
    pos = 0.0
    seg_start = 0.0
    base = 0.0
    nseg = 1
    for f in freqs:
        fi = float(f)
        err += slope * slope * (fi / slope) - fi * fi
        if err >= threshold and (sloped_budget is None or nseg < sloped_budget):
            closed = base + slope * (pos - seg_start)
            knots.append(pos)
            values.append(closed)
            base = closed
            seg_start = pos
            slope = fi
            err = 0.0
            nseg += 1
        pos += fi / slope
    final = base + slope * (pos - seg_start)
    if abs(final - total) <= 1e-6 * max(1.0, total):
        final = total
    knots.append(pos)
    values.append(final)
    if pos < d - 1e-9 * max(1.0, d):
        knots.append(float(d))
        values.append(total)
    return PiecewiseLinearFn(knots, values)


def is_valid_compression(
    seq: DegreeSequence, candidate: PiecewiseLinearFn
) -> ValidityReport:
    """Check that a cumulative profile soundly stands in for a degree sequence.

    Required: the profile's slopes never increase, it dominates the exact
    cumulative profile at every rank, its total equals the sequence total
    (relative tolerance 1e-6), and its domain ends at the distinct count.
    """
    d = seq.distinct
    total = seq.total
    if d == 0:
        if abs(candidate.total) <= 1e-6:
            return ValidityReport(True)
        return ValidityReport(False, "nonzero mass for an empty sequence")
    if abs(candidate.end - d) > 1e-6 * max(1.0, d):
        return ValidityReport(
            False,
            "domain ends at %r, expected the distinct count %d" % (candidate.end, d),
        )
    for i in range(1, len(candidate.slopes)):
        if candidate.slopes[i] > candidate.slopes[i - 1] + 1e-7 * max(
            1.0, candidate.slopes[i]
        ):
            return ValidityReport(False, "slopes increase at segment %d" % i)
    exact = np.concatenate(([0.0], np.cumsum(np.asarray(seq.freqs, dtype=np.float64))))
    approx = sample_integer_ranks(candidate, d)
    slack = 1e-9 * np.maximum(1.0, exact[: d + 1])
    bad = np.nonzero(approx + slack < exact[: d + 1])[0]
    if bad.size:
        i = int(bad[0])
        return ValidityReport(
            False,
            "under-estimates the exact profile at rank %d (%r < %r)"
            % (i, float(approx[i]), float(exact[i])),
        )
    freqs = seq.freqs
    for x in candidate.knots:
        if x <= 0.0 or x >= d:
            continue
        i0 = int(x)
        exact_x = exact[i0] + (x - i0) * freqs[i0]
        if candidate.value_at(x) + 1e-9 * max(1.0, exact_x) < exact_x:
            return ValidityReport(
                False, "under-estimates the exact profile at rank %r" % (x,)
            )
    if abs(candidate.total - total) > 1e-6 * max(1.0, total):
        return ValidityReport(
            False,
            "total mass %r differs from row count %d" % (candidate.total, total),
        )
    return ValidityReport(True)


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


def compression_distance(f1: PiecewiseLinearFn, f2: PiecewiseLinearFn) -> float:
    """The :func:`distances_to` distance of two profiles."""
    drops, sq = drop_vectors([f1, f2])
    return float(distances_to(drops, sq, 0)[1])
