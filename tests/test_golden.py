"""Golden corpus of bounds over fixed oracle-generated workspaces.

``golden_bounds.jsonl`` holds, for about a thousand queries drawn with
``oracle.generate_database`` and ``oracle.generate_query`` from fixed
seeds, the integer bound under two build settings (the defaults, and
``mcv_size=5`` so that multi-member groups, the equality default and the
LIKE default are all reached, as ``test_small_setting_reaches_every_path``
checks) and the true COUNT(*).
Each database's record also holds, per setting, the SHA-256 of its
saved catalog's canonical JSON payload, decoded from the file by
``catalog_io.decode_file``, so a change that alters any stored statistic
shows even where no corpus query reads it, while the corpus does not pin
the bytes of one zlib build.  A refactor must reproduce every
bound and every fingerprint exactly; a change that moves one on purpose
regenerates the file and names each moved entry.

Regenerate with::

    PYTHONPATH=src python tests/test_golden.py

which prints every catalog fingerprint that moved (seed, setting) and
every bound that moved against the stored file (seed, setting, stored ->
new bound, true count), and how many moved up and down, before
overwriting it.  If any new bound is below its true count it
prints those, leaves the file as it was and exits with status 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from collections import Counter

import numpy as np

from seqbound.catalog_io import decode_file, save_catalog
from seqbound.oracle import (
    GenerationImpossible,
    OracleCapExceeded,
    generate_database,
    generate_query,
    true_cardinality,
)
from seqbound.inference import bound_query
from seqbound.query import parse_query
from seqbound.stats import BuildParams, build_catalog

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_bounds.jsonl")
PARAMS = {
    "default": BuildParams(),
    "small": BuildParams(mcv_size=5),
}
# (shape, databases, queries per database); cyclic and multi-column shapes
# draw databases whose relations all carry two join columns
SHAPES = (("acyclic", 50, 12), ("cyclic", 20, 10), ("multicol", 20, 10))


def _workspaces():
    for shape_idx, (shape, n_db, n_q) in enumerate(SHAPES):
        for i in range(n_db):
            seed = 1000 * (shape_idx + 1) + i
            rng = random.Random(seed)
            relations, roles, pkfk = generate_database(rng, two_join_cols=shape != "acyclic")
            yield seed, shape, n_q, rng, relations, roles, pkfk


def _schema(relations):
    return {name: {c.name: c.kind for c in rel.columns} for name, rel in relations.items()}


def _digest(relations) -> str:
    h = hashlib.sha256()
    for name in sorted(relations):
        rel = relations[name]
        for col in rel.columns:
            h.update(("%s.%s:" % (name, col.name)).encode())
            data = rel.data[col.name]
            if isinstance(data, np.ndarray):
                h.update(np.ascontiguousarray(data, dtype=np.float64).tobytes())
            else:
                h.update("\x00".join("\x01" if v is None else v for v in data).encode())
    return h.hexdigest()[:16]


def _fingerprints(catalogs) -> dict[str, str]:
    """SHA-256 of each saved catalog's canonical payload, by setting."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.bin")
        for name, cat in catalogs.items():
            save_catalog(cat, path)
            with open(path, "rb") as fh:
                plain = decode_file(fh.read())
            payload = json.dumps(plain, sort_keys=True, separators=(",", ":")).encode()
            out[name] = hashlib.sha256(payload).hexdigest()
    return out


def _bounds(catalogs, query) -> dict[str, int]:
    return {name: bound_query(cat, query).bound for name, cat in catalogs.items()}


def generate() -> list[dict]:
    """One record per database (seed, shape, data digest, catalog
    fingerprint per setting), each followed by one record per query (seed,
    sql, true count, bound per setting)."""
    records = []
    for seed, shape, n_q, rng, relations, roles, pkfk in _workspaces():
        catalogs = {n: build_catalog(relations, roles, pkfk, p) for n, p in PARAMS.items()}
        schema = _schema(relations)
        records.append(
            {
                "seed": seed,
                "shape": shape,
                "digest": _digest(relations),
                "catalogs": _fingerprints(catalogs),
            }
        )
        for _ in range(n_q):
            try:
                sql, query = generate_query(rng, relations, roles, shape)
            except GenerationImpossible:
                sql, query = generate_query(rng, relations, roles, "acyclic")
            try:
                true = true_cardinality(relations, query)
            except OracleCapExceeded:
                continue
            query = parse_query(sql, schema)
            records.append(
                {"seed": seed, "sql": sql, "true": true, "bounds": _bounds(catalogs, query)}
            )
    return records


def _load() -> tuple[dict[int, dict], list[dict]]:
    with open(CORPUS, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    databases = {r["seed"]: r for r in records if "digest" in r}
    return databases, [r for r in records if "sql" in r]


def test_golden_bounds_reproduce():
    databases, queries = _load()
    by_seed: dict[int, list[dict]] = {}
    for q in queries:
        by_seed.setdefault(q["seed"], []).append(q)
    changed = []
    unsound = []
    rebuilt = []
    for seed, shape, _, _, relations, roles, pkfk in _workspaces():
        assert databases[seed]["shape"] == shape
        assert databases[seed]["digest"] == _digest(relations), (
            "generator output moved for seed %d" % seed
        )
        catalogs = {n: build_catalog(relations, roles, pkfk, p) for n, p in PARAMS.items()}
        stored = databases[seed]["catalogs"]
        rebuilt += [(seed, n) for n, fp in _fingerprints(catalogs).items() if stored[n] != fp]
        schema = _schema(relations)
        for entry in by_seed.get(seed, ()):
            got = _bounds(catalogs, parse_query(entry["sql"], schema))
            for name, bound in got.items():
                if bound < entry["true"]:
                    unsound.append((seed, name, entry["sql"], bound, entry["true"]))
                if bound != entry["bounds"][name]:
                    changed.append((seed, name, entry["sql"], entry["bounds"][name], bound))
    assert set(by_seed) <= set(databases)
    assert not unsound, "bounds below the true count: %r" % unsound[:5]
    assert not rebuilt, "%d catalogs moved (seed, setting): %r" % (len(rebuilt), rebuilt[:10])
    assert not changed, "%d bounds moved (seed, setting, sql, stored, now): %r" % (
        len(changed),
        changed[:5],
    )


def test_golden_corpus_covers_shapes_and_settings():
    databases, queries = _load()
    assert len(queries) >= 900
    assert {databases[q["seed"]]["shape"] for q in queries} == {s for s, _, _ in SHAPES}
    assert all(set(q["bounds"]) == set(PARAMS) for q in queries)
    assert all(set(d["catalogs"]) == set(PARAMS) for d in databases.values())
    # the small setting must differ from the defaults somewhere, or it
    # exercises nothing the default catalog does not
    assert any(q["bounds"]["small"] != q["bounds"]["default"] for q in queries)


def _path_counts(catalog) -> tuple[int, int, int]:
    """How many equality statistics have a group of several tracked
    values, how many a non-zero default, and how many LIKE statistics a
    non-zero default."""
    multi = eq_default = like_default = 0
    for rs in catalog.relations.values():
        for st in rs.equality.values():
            multi += max(Counter(st.keys.values()).values(), default=0) >= 2
            eq_default += st.default.total > 0
        like_default += sum(st.default.total > 0 for st in rs.like.values())
    return multi, eq_default, like_default


def test_small_setting_reaches_every_path():
    # exact counts over the corpus workspaces, so that a change of the
    # setting or of the builder that loses a path shows here
    totals = [0, 0, 0]
    for _, _, _, _, relations, roles, pkfk in _workspaces():
        counts = _path_counts(build_catalog(relations, roles, pkfk, PARAMS["small"]))
        totals = [a + b for a, b in zip(totals, counts)]
    assert totals == [779, 668, 345]


def _moves(stored: list[dict], records: list[dict]):
    """(seed, setting, stored bound, new bound, true count) of every query
    in both lists whose bound differs."""
    before = {(q["seed"], q["sql"]): q["bounds"] for q in stored}
    for r in records:
        old = before.get((r["seed"], r.get("sql")), {})
        for name, bound in r.get("bounds", {}).items():
            if name in old and old[name] != bound:
                yield r["seed"], name, old[name], bound, r["true"]


def _moved_catalogs(databases: dict[int, dict], records: list[dict]):
    """(seed, setting) of every stored catalog fingerprint that differs."""
    for r in records:
        old = databases.get(r["seed"], {}).get("catalogs", {})
        for name, fp in r.get("catalogs", {}).items():
            if name in old and old[name] != fp:
                yield r["seed"], name


if __name__ == "__main__":
    databases, stored = _load() if os.path.exists(CORPUS) else ({}, [])
    records = generate()
    rebuilt = list(_moved_catalogs(databases, records))
    for seed, name in rebuilt:
        print("%d %s catalog fingerprint moved" % (seed, name))
    print("%d catalog fingerprints moved" % len(rebuilt))
    moves = list(_moves(stored, records))
    for seed, name, old, new, true in moves:
        print("%d %s %d -> %d (true %d)" % (seed, name, old, new, true))
    up = sum(new > old for _, _, old, new, _ in moves)
    print("%d bounds moved: %d up, %d down" % (len(moves), up, len(moves) - up))
    unsound = [
        (r["seed"], name, r["sql"], bound, r["true"])
        for r in records
        for name, bound in r.get("bounds", {}).items()
        if bound < r["true"]
    ]
    for seed, name, sql, bound, true in unsound:
        print("UNSOUND %d %s %s: bound %d < true %d" % (seed, name, sql, bound, true))
    if unsound:
        print("%d bounds below their true count; %s left as it was" % (len(unsound), CORPUS))
        raise SystemExit(1)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("wrote %d records to %s" % (len(records), CORPUS))
