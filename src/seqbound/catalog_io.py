"""Catalog persistence.

A catalog file is a fixed header (magic string, format version, payload
length), a JSON payload, and a SHA-256 checksum of the payload.  The
payload is canonical: object keys are sorted and no optional whitespace is
written, so saving the same catalog twice produces byte-identical files.
Floats are written as their shortest round-tripping decimal (``Infinity``
for infinities), so a load/save round trip reproduces every float bit for
bit.

Every statistic is a cumulative profile, and many are equal (a range
default is its join column's fallback; clusters and buckets share
representatives).  The payload's ``profiles`` list holds each distinct
profile once, as ``[knots, values]``, in the order a walk of relations by
name, fallbacks by column, families, entries by (join, filter),
representatives and then the default first uses it; every statistic
stores its profile's index in that list, and loading builds one object
per entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections.abc import Callable
from dataclasses import asdict

from .pwfn import PiecewiseLinearFn
from .stats import (
    FAMILIES,
    BuildParams,
    FilterStats,
    PkFkEdge,
    RelationStats,
    StatisticsCatalog,
)

__all__ = ["CatalogFormatError", "save_catalog", "load_catalog", "MAGIC", "VERSION"]

MAGIC = b"SEQBOUND-STATS"
VERSION = 4


class CatalogFormatError(RuntimeError):
    """The file is not a readable statistics catalog."""


# ------------------------------------------------- catalog <-> plain data

def _profiles_load(plain: list) -> list[PiecewiseLinearFn]:
    fns = []
    for knots, values in plain:
        if not all(map(math.isfinite, knots + values)):
            raise ValueError("profile knots and values must be finite")
        fns.append(PiecewiseLinearFn(knots, values))
    return fns


def _fn_load(ref: object, fns: list[PiecewiseLinearFn]) -> PiecewiseLinearFn:
    if type(ref) is not int or not 0 <= ref < len(fns):
        raise ValueError("profile reference %r outside a table of %d profile(s)" % (ref, len(fns)))
    return fns[ref]


def _stats_plain(
    join: str, filter_: str, stats: FilterStats, ref: Callable[[PiecewiseLinearFn], int]
) -> dict:
    keys: list[list] = [[] for _ in stats.representatives]
    for key, group in stats.keys.items():
        keys[group].append(key)
    return {
        "join": join,
        "filter": filter_,
        "groups": [
            {"keys": k, "representative": ref(fn)}
            for k, fn in zip(keys, stats.representatives)
        ],
        "default": ref(stats.default),
        "levels": [{"cuts": c, "groups": g} for c, g in stats.levels],
    }


def _stats_load(plain: dict, fns: list[PiecewiseLinearFn]) -> FilterStats:
    groups = plain["groups"]
    keys = {k: i for i, g in enumerate(groups) for k in g["keys"]}
    levels = []
    for lv in plain["levels"]:
        cuts, ids = tuple(lv["cuts"]), tuple(lv["groups"])
        # A range lookup indexes a level's ids by bucket, then the
        # representatives by id, so both must be in range.
        if len(ids) != len(cuts) + 1 or not all(
            type(i) is int and 0 <= i < len(groups) for i in ids
        ):
            raise ValueError(
                "histogram level with %d cut(s) has bucket ids %r for %d representative(s)"
                % (len(cuts), list(ids), len(groups))
            )
        levels.append((cuts, ids))
    return FilterStats(
        tuple(_fn_load(g["representative"], fns) for g in groups),
        _fn_load(plain["default"], fns),
        keys,
        tuple(levels),
    )


def _catalog_plain(catalog: StatisticsCatalog) -> dict:
    # Relations and fallbacks are walked by name, so the profile table's
    # first-use order does not depend on the catalog's dict order.
    index: dict[PiecewiseLinearFn, int] = {}

    def ref(fn: PiecewiseLinearFn) -> int:
        return index.setdefault(fn, len(index))

    relations = {
        name: {
            "cardinality": rs.cardinality,
            "column_kinds": rs.column_kinds,
            "join_columns": rs.join_columns,
            "filter_columns": rs.filter_columns,
            "fallback": {c: ref(fn) for c, fn in sorted(rs.fallback.items())},
            **{
                family: [
                    _stats_plain(j, f, st, ref)
                    for (j, f), st in sorted(getattr(rs, family).items())
                ]
                for family in FAMILIES
            },
        }
        for name, rs in sorted(catalog.relations.items())
    }
    return {
        "params": asdict(catalog.params),
        "pkfk": [asdict(e) for e in catalog.pkfk],
        "profiles": [[fn.knots, fn.values] for fn in index],
        "relations": relations,
    }


def _check_references(rs: RelationStats) -> None:
    """Reject a relation whose statistics name columns it does not declare;
    the bound engine would otherwise fail on a missing profile mid-query."""
    for col in rs.join_columns + rs.filter_columns:
        if col not in rs.column_kinds:
            raise ValueError("relation %r: role column %r has no declared kind" % (rs.name, col))
    for col in rs.column_kinds:
        if col not in rs.fallback:
            raise ValueError("relation %r: column %r has no fallback profile" % (rs.name, col))
    for family in FAMILIES:
        for join, filter_ in getattr(rs, family):
            if join not in rs.join_columns or filter_ not in rs.filter_columns:
                raise ValueError(
                    "relation %r: %s stats name undeclared column pair (%r, %r)"
                    % (rs.name, family, join, filter_)
                )


def _catalog_load(plain: dict) -> StatisticsCatalog:
    fns = _profiles_load(plain["profiles"])
    relations = {}
    for name, rp in plain["relations"].items():
        if type(rp["cardinality"]) is not int or rp["cardinality"] < 0:
            raise ValueError(
                "relation %r: cardinality must be a non-negative integer, got %r"
                % (name, rp["cardinality"])
            )
        relations[name] = RelationStats(
            name=name,
            cardinality=rp["cardinality"],
            column_kinds=dict(rp["column_kinds"]),
            join_columns=tuple(rp["join_columns"]),
            filter_columns=tuple(rp["filter_columns"]),
            fallback={c: _fn_load(ref, fns) for c, ref in rp["fallback"].items()},
            **{
                family: {(e["join"], e["filter"]): _stats_load(e, fns) for e in rp[family]}
                for family in FAMILIES
            },
        )
        _check_references(relations[name])
    pkfk = tuple(PkFkEdge(**e) for e in plain["pkfk"])
    return StatisticsCatalog(BuildParams(**plain["params"]), relations, pkfk)


# ------------------------------------------------------------- file I/O

def save_catalog(catalog: StatisticsCatalog, path: str) -> None:
    payload = json.dumps(
        _catalog_plain(catalog), sort_keys=True, separators=(",", ":")
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(payload)))
        fh.write(payload)
        fh.write(hashlib.sha256(payload).digest())


def load_catalog(path: str) -> StatisticsCatalog:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12 + 32 or blob[: len(MAGIC)] != MAGIC:
        raise CatalogFormatError("%s: not a statistics catalog" % path)
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != VERSION:
        raise CatalogFormatError(
            "%s: format version %d not supported (reader handles %d)"
            % (path, version, VERSION)
        )
    (length,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    payload = blob[pos : pos + length]
    if len(payload) != length or len(blob) < pos + length + 32:
        raise CatalogFormatError("%s: truncated catalog" % path)
    digest = blob[pos + length : pos + length + 32]
    if hashlib.sha256(payload).digest() != digest:
        raise CatalogFormatError("%s: checksum mismatch, file corrupted" % path)
    try:
        plain = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise CatalogFormatError("%s: malformed payload: %s" % (path, exc)) from exc
    if not isinstance(plain, dict):
        raise CatalogFormatError("%s: payload is not a JSON object" % path)
    try:
        return _catalog_load(plain)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CatalogFormatError("%s: invalid catalog structure: %s" % (path, exc)) from exc
