#!/usr/bin/env python3
"""Dump every perfbench query's bound, one JSON line per query.

    python3 tools/dump_bounds.py deep-estimate 1 > deep-1.jsonl
    python3 tools/dump_bounds.py 1 > all-1.jsonl

Given only a seed, it dumps every workload in turn and each line starts
with a ``workload`` field.

Each workload's dump opens with one record of its saved catalog file's
byte count and SHA-256 (``catalog_bytes``, ``catalog_sha256``), so one
``diff`` shows a catalog whose bytes changed next to query lines that did
not.

The workload's dataset and query list come from perfbench's generators,
which are imported and never modified.  The catalog is built, saved and
loaded again as the benchmark does, and each query is bounded once, in the
generators' order.  A line holds the SQL text, the bound, ``value.hex()``,
the strategy, the notes and the plan steps; a query that raises gets its
error class and message instead.  Two dumps of the same workload and seed,
one per checkout, are bit-identical exactly when ``diff`` prints nothing.

The seed only relabels keys and reorders rows and queries (perfbench's
``--seed``, see ``perfbench/bench_data.py``): the statistics, the catalog
bytes and every bound are the same on every seed, so dumps at two seeds
are byte-identical and one seed covers the query list.

The program is imported from ``src/`` of the checkout this file sits in.
A reader that closes early, as ``| head`` does, ends the dump quietly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import seqbound  # noqa: E402
from bench_data import ladder_dataset, star_dataset  # noqa: E402
from bench_queries import deep_queries, star_queries  # noqa: E402


WORKLOADS = ("star-build", "star-estimate", "deep-estimate")


def workload_inputs(workload: str, seed: int):
    """The dataset and query list ``perfbench/run.py`` uses."""
    if workload in ("star-build", "star-estimate"):
        ds = star_dataset(seed, workload)
        return ds, star_queries(ds)
    if workload == "deep-estimate":
        ds = ladder_dataset(seed)
        return ds, deep_queries(ds)
    raise SystemExit("unknown workload %r (%s)" % (workload, ", ".join(WORKLOADS)))


def saved_catalog(workload: str, seed: int):
    """The workload's dataset and query list, the bytes of the catalog file
    built from its schema and saved as the benchmark does, and the catalog
    loaded back from that file."""
    ds, queries = workload_inputs(workload, seed)
    with tempfile.TemporaryDirectory() as work:
        ws = seqbound.load_workspace(ds.write(work))
        catalog = seqbound.build_catalog(
            ws.relations, ws.roles, ws.pkfk, seqbound.make_build_params(ws.params)
        )
        path = os.path.join(work, "catalog.bin")
        seqbound.save_catalog(catalog, path)
        with open(path, "rb") as fh:
            return ds, queries, fh.read(), seqbound.load_catalog(path)


def dump(workload: str, seed: int, out, labelled: bool = False) -> None:
    ds, queries, blob, catalog = saved_catalog(workload, seed)
    schema = ds.schema()
    head = {"catalog_bytes": len(blob), "catalog_sha256": hashlib.sha256(blob).hexdigest()}
    out.write(json.dumps({"workload": workload, **head}) + "\n")
    for q in queries:
        sql = q.sql()
        try:
            r = seqbound.bound_query(catalog, seqbound.parse_query(sql, schema))
        except Exception as exc:  # recorded, so a change in what raises shows
            row = {"sql": sql, "error": "%s: %s" % (type(exc).__name__, exc)}
        else:
            row = {
                "sql": sql,
                "bound": r.bound,
                "value": r.value.hex(),
                "strategy": r.strategy,
                "notes": list(r.notes),
                "steps": list(r.steps),
            }
        if labelled:
            row = {"workload": workload, **row}
        out.write(json.dumps(row) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) == 1 and argv[0].isdigit():
        for workload in WORKLOADS:
            dump(workload, int(argv[0]), sys.stdout, labelled=True)
        return 0
    if len(argv) != 2 or not argv[1].isdigit():
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: dump_bounds.py [WORKLOAD] SEED", file=sys.stderr)
        return 2
    dump(argv[0], int(argv[1]), sys.stdout)
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stop, and send the interpreter's last flush of
        # what is still buffered to /dev/null rather than to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
