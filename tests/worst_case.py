"""Worst-case instances and the exact step form of degree sequences.

The tests build the adversarial instance a profile set describes (columns
independently laid out most-frequent-first, so equal ranks co-occur) to
check that a bound is attained, and read a degree sequence's exact
cumulative profile through its step form.
"""

from __future__ import annotations

import math

import numpy as np

from seqbound.pwfn import (
    DegreeSequence,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
    sample_integer_ranks,
)


def lossless_compress(seq: DegreeSequence) -> PiecewiseConstantFn:
    """Exact step-function form of a degree sequence (equal runs coalesced)."""
    if seq.distinct == 0:
        return PiecewiseConstantFn((1.0,), (0.0,))
    return PiecewiseConstantFn(
        tuple(float(i) for i in range(1, seq.distinct + 1)),
        tuple(float(f) for f in seq.freqs),
    )


def materialize_worst_case(seqs: dict[str, DegreeSequence]) -> dict[str, np.ndarray]:
    """Lay out each column independently by descending frequency.

    Value labels are ranks 1..d; row r of a column holds the rank whose
    cumulative span covers r.  All sequences must carry the same total.
    """
    totals = {c: s.total for c, s in seqs.items()}
    if len(set(totals.values())) > 1:
        raise ValueError("sequences disagree on the row count: %r" % totals)
    return {
        c: np.repeat(
            np.arange(1, s.distinct + 1, dtype=np.float64),
            np.asarray(s.freqs, dtype=np.intp),
        )
        for c, s in seqs.items()
    }


def materialize_from_compressed(
    fns: dict[str, PiecewiseLinearFn],
) -> dict[str, np.ndarray]:
    """Worst-case instance realizing compressed profiles at integer ranks.

    Each profile is rounded up rank by rank (so the realized cumulative
    dominates it), turned into per-rank frequencies, and laid out
    most-frequent-first.  Columns whose realized totals fall short of the
    largest one are padded with fresh single-occurrence values.
    """
    cols: dict[str, np.ndarray] = {}
    for c, fn in fns.items():
        upto = int(math.ceil(fn.end - 1e-9))
        grid = sample_integer_ranks(fn, upto)
        cum = np.ceil(grid - 1e-9 * np.maximum(1.0, np.abs(grid))).astype(np.int64)
        cum[0] = 0
        cum = np.maximum.accumulate(cum)
        freqs = np.diff(cum)
        cols[c] = np.repeat(np.arange(1, upto + 1, dtype=np.float64), freqs)
    n = max((arr.size for arr in cols.values()), default=0)
    for c, arr in cols.items():
        if arr.size < n:
            upto = int(arr[-1]) if arr.size else 0
            pad = np.arange(upto + 1, upto + 1 + (n - arr.size), dtype=np.float64)
            cols[c] = np.concatenate([arr, pad])
    return cols
