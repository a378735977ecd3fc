#!/usr/bin/env python3
"""Time every perfbench query of a workload against one catalog, in process.

    python3 tools/time_queries.py star-estimate 7

The workload's dataset and query list come from perfbench's generators,
and the catalog is built, saved and loaded again as the benchmark does
(both through ``tools/dump_bounds.py``).  Each estimate is timed as the
benchmark times it: parse and bound together.  The first pass bounds each
query once on the loaded catalog, whose memo starts empty; STEADY_PASSES
more passes follow with the memo warm.  The first pass has one sample per
query, so its p99 is close to its largest sample.

The script then bounds one more pass on a copy of the catalog with an
empty memo, under ``tracemalloc``, and drops that copy: the bytes this
frees are what the memo retains.  It prints one JSON line: the p50 and p99
latency in ms of the first pass and of the steady passes, the memo's
entry count after that pass and the bytes it retains.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from dump_bounds import WORKLOADS, saved_catalog  # sets up sys.path for seqbound

import seqbound

STEADY_PASSES = 5


def timed_pass(catalog, schema, sqls: list[str]) -> list[float]:
    """Seconds to parse and bound each query, in order."""
    out = []
    for sql in sqls:
        t0 = perf_counter()
        seqbound.bound_query(catalog, seqbound.parse_query(sql, schema))
        out.append(perf_counter() - t0)
    return out


def ms(samples: list[float], q: float) -> float:
    return round(1000.0 * float(np.quantile(samples, q)), 4)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS or not argv[1].isdigit():
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: time_queries.py {%s} SEED" % ",".join(WORKLOADS), file=sys.stderr)
        return 2
    workload, seed = argv[0], int(argv[1])
    ds, queries, _, catalog = saved_catalog(workload, seed)
    schema = ds.schema()
    sqls = [q.sql() for q in queries]
    first = timed_pass(catalog, schema, sqls)
    steady = [t for _ in range(STEADY_PASSES) for t in timed_pass(catalog, schema, sqls)]
    cold = dataclasses.replace(catalog)  # shares the statistics, not the memo
    tracemalloc.start()
    try:
        timed_pass(cold, schema, sqls)
        entries = len(cold.memo)
        gc.collect()  # so that only what the copy holds is freed below
        held = tracemalloc.get_traced_memory()[0]
        del cold
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    print(json.dumps({
        "workload": workload, "seed": seed, "queries": len(sqls),
        "first_p50_ms": ms(first, 0.5), "first_p99_ms": ms(first, 0.99),
        "steady_p50_ms": ms(steady, 0.5), "steady_p99_ms": ms(steady, 0.99),
        "memo_entries": entries, "memo_bytes": retained,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
