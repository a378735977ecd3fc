"""Catalog persistence.

A catalog file is a fixed header (magic string, format version, stored
length, inflated length), the zlib stream (RFC 1950, level 6) of a JSON
payload, and a SHA-256 checksum of that stream.  The payload is canonical:
object keys are sorted and no optional whitespace is written, so saving
the same catalog twice produces byte-identical files.  :func:`encode_file`
and :func:`decode_file` are the only code that knows this layout.
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
per entry.  A conditioned statistic is stored as its :class:`FilterStats`
fields, with one key list per representative.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import zlib
from collections.abc import Callable
from dataclasses import asdict

from .pwfn import PiecewiseLinearFn
from .stats import (
    FAMILIES,
    GRAM_LEN,
    FilterStats,
    PkFkEdge,
    RelationStats,
    StatisticsCatalog,
    make_build_params,
)

__all__ = [
    "CatalogFormatError", "save_catalog", "load_catalog", "encode_file", "decode_file",
    "MAGIC", "VERSION", "HEADER",
]

MAGIC = b"SEQBOUND-STATS"
VERSION = 8
HEADER = struct.Struct("<IQQ")  # version, stored length, inflated length


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
        "representatives": [ref(fn) for fn in stats.representatives],
        "keys": keys,
        "default": ref(stats.default),
        "cuts": stats.cuts,
        "levels": stats.levels,
    }


def _stats_load(plain: dict, fns: list[PiecewiseLinearFn]) -> FilterStats:
    reps = tuple(_fn_load(ref, fns) for ref in plain["representatives"])
    keys, cuts, levels = plain["keys"], tuple(plain["cuts"]), tuple(map(tuple, plain["levels"]))
    if len(keys) != len(reps):
        raise ValueError("%d key list(s) for %d representative(s)" % (len(keys), len(reps)))
    # A range lookup bisects the cuts once, then indexes level k's ids by
    # a bucket up to len(cuts) >> k and the representatives by id.
    numbers = all(type(c) in (int, float) and not math.isnan(c) for c in cuts)
    if not numbers or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise ValueError("histogram cuts %r are not ascending numbers" % (list(cuts),))
    if len(levels) != len(cuts).bit_length():
        raise ValueError("%d histogram level(s) for %d cut(s)" % (len(levels), len(cuts)))
    for k, ids in enumerate(levels):
        valid = all(type(i) is int and 0 <= i < len(reps) for i in ids)
        if not valid or len(ids) != (len(cuts) >> k) + 1:
            raise ValueError(
                "histogram level %d of %d cut(s) has bucket ids %r for %d representative(s)"
                % (k, len(cuts), list(ids), len(reps))
            )
    keyed = {k: i for i, ks in enumerate(keys) for k in ks}
    return FilterStats(reps, _fn_load(plain["default"], fns), keyed, cuts, levels)


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


def _key_fits(key: object, family: str, filter_kind: str) -> bool:
    """Whether a key of one family's statistics on a filter column of one
    kind can ever be looked up: a query literal or lower-cased gram is
    looked up by equality, so a key of another kind would never match, and
    its rows would fall to a default that lacks them."""
    if family == "like":
        return type(key) is str and len(key) == GRAM_LEN and key == key.lower()
    if filter_kind == "numeric":
        return type(key) in (int, float)
    return type(key) is str


def _check_relation(rs: RelationStats) -> None:
    """Reject a relation whose statistics name columns it does not declare,
    which the bound engine would otherwise miss mid-query, hold keys of the
    wrong kind (see :func:`_key_fits`), or whose profiles hold more rows
    than the relation (beyond 1e-9 relative): a lone relation's row cap
    subtracts its fallbacks' totals from the cardinality."""
    for col in rs.join_columns + rs.filter_columns:
        if col not in rs.column_kinds:
            raise ValueError("relation %r: role column %r has no declared kind" % (rs.name, col))
    for col in rs.column_kinds:
        if col not in rs.fallback:
            raise ValueError("relation %r: column %r has no fallback profile" % (rs.name, col))
    fns = [*rs.fallback.values()]
    for family in FAMILIES:
        for (join, filter_), st in getattr(rs, family).items():
            if join not in rs.join_columns or filter_ not in rs.filter_columns:
                raise ValueError(
                    "relation %r: %s stats name undeclared column pair (%r, %r)"
                    % (rs.name, family, join, filter_)
                )
            kind = rs.column_kinds[filter_]
            bad = [k for k in st.keys if not _key_fits(k, family, kind)]
            if bad:
                raise ValueError(
                    "relation %r: %s stats (%r, %r) hold key %r of the wrong kind for a %s filter"
                    % (rs.name, family, join, filter_, bad[0], kind)
                )
            fns += [*st.representatives, st.default]
    most = max((fn.total for fn in fns), default=0.0)
    if most > rs.cardinality + 1e-9 * max(1, rs.cardinality):
        raise ValueError(
            "relation %r: a profile holds %r rows, more than its cardinality %d"
            % (rs.name, most, rs.cardinality)
        )


def _catalog_load(plain: dict) -> StatisticsCatalog:
    fns = _profiles_load(plain["profiles"])
    relations = {}
    for name, rp in plain["relations"].items():
        if type(rp["cardinality"]) is not int or not 0 <= rp["cardinality"] <= 2**53:
            raise ValueError(
                "relation %r: cardinality must be a non-negative integer of at most 2**53, got %r"
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
        _check_relation(relations[name])
    pkfk = tuple(PkFkEdge(**e) for e in plain["pkfk"])
    for e in pkfk:  # the pushdown reads every key and pushed-down column
        if not isinstance(e.propagated, dict):
            raise ValueError("pkfk edge %r: propagated must map strings to strings" % (e,))
        pushed = [(e.dim, c) for c in e.propagated] + [(e.fact, c) for c in e.propagated.values()]
        for rel, col in [(e.fact, e.fk), (e.dim, e.pk), *pushed]:
            if not type(rel) is type(col) is str:
                raise ValueError("pkfk edge %r: fields must be strings" % (e,))
            if col not in getattr(relations.get(rel), "column_kinds", ()):
                raise ValueError("pkfk edge names unknown column %s.%s" % (rel, col))
    return StatisticsCatalog(make_build_params(plain["params"]), relations, pkfk)


# ------------------------------------------------------------- file I/O

def encode_file(plain: dict) -> bytes:
    """The bytes of a catalog file holding a plain payload."""
    payload = json.dumps(plain, sort_keys=True, separators=(",", ":")).encode()
    stored = zlib.compress(payload, 6)
    header = HEADER.pack(VERSION, len(stored), len(payload))
    return MAGIC + header + stored + hashlib.sha256(stored).digest()


def decode_file(blob: bytes) -> dict:
    """The plain payload of a catalog file's bytes; raises CatalogFormatError."""
    pos = len(MAGIC) + HEADER.size
    if blob[: len(MAGIC)] != MAGIC or len(blob) < pos:
        raise CatalogFormatError("not a statistics catalog")
    # the version comes first in every format's header
    version, length, size = HEADER.unpack_from(blob, len(MAGIC))
    if version != VERSION:
        raise CatalogFormatError(
            "format version %d not supported (reader handles %d)" % (version, VERSION)
        )
    stored, digest = blob[pos : pos + length], blob[pos + length : pos + length + 32]
    if len(digest) != 32:
        raise CatalogFormatError("truncated catalog")
    if len(blob) != pos + length + 32:
        raise CatalogFormatError("%d byte(s) after the checksum" % (len(blob) - pos - length - 32))
    if hashlib.sha256(stored).digest() != digest:
        raise CatalogFormatError("checksum mismatch, file corrupted")
    inflater = zlib.decompressobj()
    try:
        # inflate at most the declared length (a limit of 0 means none)
        payload = inflater.decompress(stored, max(size, 1))
    except (OverflowError, zlib.error) as exc:
        raise CatalogFormatError("malformed payload: %s" % exc) from exc
    if len(payload) != size or not inflater.eof or inflater.unused_data:
        raise CatalogFormatError("malformed payload: stream does not end at %d bytes" % size)
    try:
        plain = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise CatalogFormatError("malformed payload: %s" % exc) from exc
    if not isinstance(plain, dict):
        raise CatalogFormatError("payload is not a JSON object")
    return plain


def save_catalog(catalog: StatisticsCatalog, path: str) -> int:
    """Write catalog to path; returns the number of distinct profiles stored.
    The file is written beside path and then renamed onto it, so a save
    that fails partway leaves any earlier catalog at path intact."""
    plain = _catalog_plain(catalog)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            fh.write(encode_file(plain))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(plain["profiles"])


def load_catalog(path: str) -> StatisticsCatalog:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _catalog_load(decode_file(blob))
    except CatalogFormatError as exc:
        raise CatalogFormatError("%s: %s" % (path, exc)) from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CatalogFormatError("%s: invalid catalog structure: %s" % (path, exc)) from exc
