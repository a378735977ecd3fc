#!/usr/bin/env python3
"""Mutation campaigns against the catalog loader and the build's input gate.

    python3 tools/fuzz_catalog.py 1 10000
    python3 tools/fuzz_catalog.py --build 1 2000
    python3 tools/fuzz_catalog.py --workload deep-estimate 7 500

*Catalog mode* (the default) builds, saves and decodes the catalog of each
perfbench workload (``star-build``, ``star-estimate``, ``deep-estimate``)
as ``tools/dump_bounds.py`` does, from perfbench's generators, which are
imported and never modified.  Mutant i changes one node of one workload's
payload (the workloads take turns), is re-encoded by
``catalog_io.encode_file`` (so its stream and checksum are valid) and is
loaded.  It must either fail to load with ``CatalogFormatError``,
or answer each of ``QUERIES`` queries spread over the workload's list
with a non-negative integer bound, a ``QueryError`` or an
``InconsistentStatisticsError``.

*Build mode* (``--build``) writes each workload's schema and CSVs, each
table cut to its first ``BUILD_ROWS`` rows.  Mutant i changes one node of one
schema (relations, roles, ``pk_fk`` links, ``params``) or one CSV cell,
and runs ``seqbound build`` on it in this process; it must exit 0 or 2.

Anything else is a crash: an exception of another class, another exit
code, or a mutant that runs past ``TIME_LIMIT`` seconds.  Crashes are
grouped by class (the exception and the innermost ``seqbound`` frame).
The script prints one JSON line of outcome counts, then one line per crash
class with its count and the first mutant that showed it, and exits 1 when
there is a crash.  Mutant i of a seed is always the same edit, so a crash
is reproduced by the seed and the ``mutant`` number of its line.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import resource
import signal
import sys
import tempfile
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

from seqbound.catalog_io import (  # noqa: E402
    CatalogFormatError,
    decode_file,
    encode_file,
    load_catalog,
)
from seqbound.cli import main as seqbound_main  # noqa: E402
from seqbound.inference import bound_query  # noqa: E402
from seqbound.pwfn import InconsistentStatisticsError  # noqa: E402
from seqbound.query import QueryError, parse_query  # noqa: E402

WORKLOADS = ("star-build", "star-estimate", "deep-estimate")
QUERIES = 25
BUILD_ROWS = 500
TIME_LIMIT = 60
MEMORY_LIMIT = 3 * 2**30
# Values a mutated node may take: every JSON type, zero, signs, the
# limits of floats and of exact integers, and strings a catalog stores.
ODD_VALUES = (
    None, True, False, 0, 1, -1, 3, 2**53 + 1, 10**400, 0.5, -0.0, 1e300, -1e300,
    math.inf, -math.inf, math.nan, "", "x", "ALP", "numeric", "text", [], {}, [0], ["x"], [[]],
)
# A CSV cell that the file holds as bytes that are not UTF-8.
GARBLED = "<not utf-8>"
ODD_CELLS = ("", " ", "nan", "inf", "-inf", "-0", "1e308", "1e999", "abc", "0x10", '"', "a,b", "\n")


class Crash(Exception):
    """A mutant ended in neither an accepted result nor a documented error."""


def _descend(doc, rng: random.Random) -> list:
    """A random path into a JSON document: from the root, step into a random
    child, then go on with probability 0.85 while the node has children."""
    path: list = []
    node = doc
    while isinstance(node, (dict, list)) and node and (not path or rng.random() < 0.85):
        key = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        path.append(key)
        node = node[key]
    return path


def _at(doc, path: list):
    for key in path:
        doc = doc[key]
    return doc


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def mutate(doc, rng: random.Random) -> str:
    """Apply one random edit to one node of a JSON document in place, and
    describe it.  The edit sets the node to an odd value or to a copy of
    another node, scales a number, deletes, duplicates or swaps a list
    item, or renames an object key."""
    path = _descend(doc, rng)
    if not path:
        return "no edit: empty document"
    parent, key = _at(doc, path[:-1]), path[-1]
    node = parent[key]
    op = rng.choice(("set", "splice", "scale", "delete", "duplicate", "swap", "rename"))
    if op == "scale" and type(node) in (int, float):
        factor = rng.choice((2, 0.5, -1, 1e6, 1 + 1e-9))
        new = node * factor if rng.random() < 0.7 else node + rng.choice((1, -1))
    elif op == "delete":
        del parent[key]
        return "%s delete" % "/".join(map(str, path))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
        return "%s duplicate" % "/".join(map(str, path))
    elif op == "swap" and isinstance(parent, list) and len(parent) > 1:
        other = rng.choice([i for i in range(len(parent)) if i != key])
        parent[key], parent[other] = parent[other], parent[key]
        return "%s swap with %d" % ("/".join(map(str, path)), other)
    elif op == "rename" and isinstance(parent, dict):
        name = _at(doc, _descend(doc, rng))
        name = name if isinstance(name, str) else rng.choice(("x", "", key + "x"))
        parent[name] = parent.pop(key)
        return "%s rename to %s" % ("/".join(map(str, path)), _short(name))
    elif op == "splice":
        new = copy.deepcopy(_at(doc, _descend(doc, rng)))
    else:
        op, new = "set", copy.deepcopy(rng.choice(ODD_VALUES))
    parent[key] = new
    return "%s %s -> %s" % ("/".join(map(str, path)), op, _short(new))


def check_catalog(path: str, queries: list[str]) -> str:
    """Load a catalog file and bound each query against it: ``refused`` when
    the load raises CatalogFormatError, ``answered`` when every query gets a
    bound or a documented error; anything else raises Crash."""
    try:
        catalog = load_catalog(path)
    except CatalogFormatError:
        return "refused"
    schema = {name: dict(rs.column_kinds) for name, rs in catalog.relations.items()}
    for sql in queries:
        try:
            result = bound_query(catalog, parse_query(sql, schema))
        except (QueryError, InconsistentStatisticsError):
            continue
        if type(result.bound) is not int or result.bound < 0:
            raise Crash("bound %r for %s" % (result.bound, sql))
    return "answered"


def crash_class(exc: BaseException) -> str:
    """The exception's class and its innermost frame inside the package."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "seqbound" in f.filename]
    where = ""
    if frames:
        f = frames[-1]
        where = " at %s:%d %s" % (os.path.basename(f.filename), f.lineno, f.name)
    return type(exc).__name__ + where


def _on_alarm(signum, frame):
    raise Crash("ran past %d s" % TIME_LIMIT)


def campaign(seed: int, n: int, cases, make_mutant) -> int:
    """Run mutants 0 .. n-1 of a seed over ``cases`` (workload, data) in
    turn.  ``make_mutant(data, rng, work)`` writes one mutant under
    ``work`` and returns its edit and a check that returns the outcome.
    Prints the summary lines and returns the exit status."""
    outcomes: Counter = Counter()
    crashes: dict[str, dict] = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    with tempfile.TemporaryDirectory() as work:
        for i in range(n):
            workload, data = cases[i % len(cases)]
            edit, check = make_mutant(data, random.Random(seed * 1_000_003 + i), work)
            signal.alarm(TIME_LIMIT)
            try:
                outcome = check()
            except Exception as exc:  # every other exception is a finding
                outcome = "crash"
                cls = crash_class(exc)
                entry = crashes.setdefault(
                    cls, {"class": cls, "count": 0, "mutant": i, "workload": workload,
                          "edit": edit, "message": _short(str(exc))},
                )
                entry["count"] += 1
            finally:
                signal.alarm(0)
            outcomes[outcome] += 1
    print(json.dumps({"seed": seed, "mutants": n, "outcomes": dict(sorted(outcomes.items()))}))
    for entry in sorted(crashes.values(), key=lambda e: -e["count"]):
        print(json.dumps(entry))
    return 1 if crashes else 0


def catalog_cases(seed: int, workloads) -> list:
    """Each workload's saved catalog payload and its spread query sample."""
    # imported here, so that tests can import this file for its mutator
    from dump_bounds import saved_catalog

    cases = []
    for workload in workloads:
        _, queries, blob, _ = saved_catalog(workload, seed)
        step = max(1, len(queries) // QUERIES)
        cases.append((workload, (decode_file(blob), [q.sql() for q in queries[::step][:QUERIES]])))
    return cases


def catalog_mutant(data, rng: random.Random, work: str):
    plain, queries = data
    mutant = copy.deepcopy(plain)
    edit = mutate(mutant, rng)
    path = os.path.join(work, "mutant.bin")
    with open(path, "wb") as fh:
        fh.write(encode_file(mutant))
    return edit, lambda: check_catalog(path, queries)


def build_cases(seed: int, workloads) -> list:
    """Each workload's schema document and CSV rows, tables cut to
    ``BUILD_ROWS`` rows."""
    from dump_bounds import workload_inputs

    cases = []
    for workload in workloads:
        ds, _ = workload_inputs(workload, seed)
        for table in ds.tables.values():
            table.columns = {c: col[:BUILD_ROWS] for c, col in table.columns.items()}
        with tempfile.TemporaryDirectory() as work:
            with open(ds.write(work), encoding="utf-8") as fh:
                doc = json.load(fh)
            tables = {}
            for entry in doc["relations"]:
                with open(os.path.join(work, entry["csv"]), newline="", encoding="utf-8") as fh:
                    tables[entry["csv"]] = list(csv.reader(fh))
        cases.append((workload, (doc, tables)))
    return cases


def _mutate_cell(tables: dict, rng: random.Random) -> tuple[str, bytes | None]:
    """Set, drop or garble one CSV cell (the header row now and then);
    returns the edit and, for a garbled cell, the bytes it holds."""
    name = rng.choice(sorted(tables))
    rows = tables[name]
    r = 0 if rng.random() < 0.1 else rng.randrange(len(rows))
    c = rng.randrange(len(rows[r]))
    op = rng.choice(("set", "set", "splice", "drop", "bytes"))
    where = "%s row %d cell %d" % (name, r, c)
    if op == "drop":
        del rows[r][c:]
        return "%s drop to end of row" % where, None
    if op == "bytes":
        rows[r][c] = GARBLED
        return "%s -> b'\\xff\\xfe'" % where, b"\xff\xfe"
    new = rng.choice(rng.choice(rows)) if op == "splice" and rows[r] else rng.choice(ODD_CELLS)
    rows[r][c] = new
    return "%s %s -> %s" % (where, op, _short(new)), None


def build_mutant(data, rng: random.Random, work: str):
    doc, tables = copy.deepcopy(data)
    garbled = None
    if rng.random() < 0.5:
        edit = "schema " + mutate(doc, rng)
    else:
        edit, garbled = _mutate_cell(tables, rng)
    for name, rows in tables.items():
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue().encode("utf-8")
        if garbled is not None:
            text = text.replace(GARBLED.encode(), garbled)
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(text)
    schema = os.path.join(work, "schema.json")
    with open(schema, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return edit, lambda: check_build(schema, os.path.join(work, "catalog.bin"))


def check_build(schema: str, out: str) -> str:
    """Run ``seqbound build``: ``built`` on exit 0, ``refused`` on exit 2;
    any other exit code raises Crash."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = seqbound_main(["build", "--schema", schema, "--out", out])
    if code not in (0, 2):
        raise Crash("build exited %r" % code)
    return "built" if code == 0 else "refused"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("n", type=int, help="number of mutants")
    parser.add_argument("--build", action="store_true", help="mutate build inputs, not catalogs")
    parser.add_argument("--workload", choices=WORKLOADS, action="append", help="repeatable; default all")
    args = parser.parse_args(argv)
    # a mutant that allocates without bound fails with MemoryError, a crash
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    workloads = args.workload or WORKLOADS
    if args.build:
        return campaign(args.seed, args.n, build_cases(args.seed, workloads), build_mutant)
    return campaign(args.seed, args.n, catalog_cases(args.seed, workloads), catalog_mutant)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
