"""Binary catalog persistence.

Catalog files are a fixed header (magic string, format version, payload
length), a tagged binary payload, and a SHA-256 checksum of the payload.
The payload encoding is fully deterministic: map keys are written sorted,
floats as raw IEEE-754 bits, so saving the same catalog twice produces
byte-identical files and a load/save round trip is exact.
"""

from __future__ import annotations

import hashlib
import struct
from typing import BinaryIO

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
VERSION = 2


class CatalogFormatError(RuntimeError):
    """The file is not a readable statistics catalog."""


# ---------------------------------------------------------------- codec

_TAG_NULL = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"
_TAG_LIST = b"L"
_TAG_MAP = b"M"


def _encode(obj, out: bytearray) -> None:
    if obj is None:
        out += _TAG_NULL
    elif obj is True:
        out += _TAG_TRUE
    elif obj is False:
        out += _TAG_FALSE
    elif isinstance(obj, int):
        out += _TAG_INT
        out += struct.pack("<q", obj)
    elif isinstance(obj, float):
        out += _TAG_FLOAT
        out += struct.pack("<d", obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _TAG_STR
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray)):
        out += _TAG_BYTES
        out += struct.pack("<I", len(obj))
        out += bytes(obj)
    elif isinstance(obj, (list, tuple)):
        out += _TAG_LIST
        out += struct.pack("<I", len(obj))
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        out += _TAG_MAP
        out += struct.pack("<I", len(obj))
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("map keys must be strings, got %r" % (key,))
            _encode(key, out)
            _encode(obj[key], out)
    else:
        raise TypeError("cannot encode %r" % type(obj))


def _decode(buf: bytes, pos: int):
    tag = buf[pos : pos + 1]
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return struct.unpack_from("<q", buf, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        return buf[pos : pos + n].decode("utf-8"), pos + n
    if tag == _TAG_BYTES:
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        return buf[pos : pos + n], pos + n
    if tag == _TAG_LIST:
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _decode(buf, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_MAP:
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        items = {}
        for _ in range(n):
            key, pos = _decode(buf, pos)
            value, pos = _decode(buf, pos)
            items[key] = value
        return items, pos
    raise CatalogFormatError("unknown payload tag %r at byte %d" % (tag, pos - 1))


# ------------------------------------------------- catalog <-> plain data

def _fn_plain(fn: PiecewiseLinearFn) -> dict:
    return {"knots": list(fn.knots), "values": list(fn.values)}


def _fn_load(plain: dict) -> PiecewiseLinearFn:
    return PiecewiseLinearFn(plain["knots"], plain["values"])


def _stats_plain(join: str, filter_: str, stats: FilterStats) -> dict:
    keys: list[list] = [[] for _ in stats.representatives]
    for key, group in stats.keys.items():
        keys[group].append(key)
    return {
        "join": join,
        "filter": filter_,
        "groups": [
            {"keys": k, "representative": _fn_plain(fn)}
            for k, fn in zip(keys, stats.representatives)
        ],
        "default": _fn_plain(stats.default),
        "levels": [{"cuts": list(c), "groups": list(g)} for c, g in stats.levels],
    }


def _stats_load(plain: dict) -> FilterStats:
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
        tuple(_fn_load(g["representative"]) for g in groups),
        _fn_load(plain["default"]),
        keys,
        tuple(levels),
    )


def _catalog_plain(catalog: StatisticsCatalog) -> dict:
    params = catalog.params
    relations = {}
    for name in sorted(catalog.relations):
        rs = catalog.relations[name]
        relations[name] = {
            "cardinality": rs.cardinality,
            "column_kinds": dict(rs.column_kinds),
            "join_columns": list(rs.join_columns),
            "filter_columns": list(rs.filter_columns),
            "fallback": {c: _fn_plain(fn) for c, fn in rs.fallback.items()},
            **{
                family: [
                    _stats_plain(j, f, st) for (j, f), st in sorted(getattr(rs, family).items())
                ]
                for family in FAMILIES
            },
        }
    return {
        "params": {
            "compression_budget": params.compression_budget,
            "hist_depth": params.hist_depth,
            "mcv_size": params.mcv_size,
            "clusters": params.clusters,
            "max_segments": params.max_segments,
        },
        "pkfk": [
            {
                "fact": e.fact,
                "fk": e.fk,
                "dim": e.dim,
                "pk": e.pk,
                "propagated": dict(e.propagated),
            }
            for e in catalog.pkfk
        ],
        "relations": relations,
    }


def _catalog_load(plain: dict) -> StatisticsCatalog:
    p = plain["params"]
    params = BuildParams(
        compression_budget=p["compression_budget"],
        hist_depth=p["hist_depth"],
        mcv_size=p["mcv_size"],
        clusters=p["clusters"],
        max_segments=p["max_segments"],
    )
    relations = {}
    for name, rp in plain["relations"].items():
        relations[name] = RelationStats(
            name=name,
            cardinality=rp["cardinality"],
            column_kinds=dict(rp["column_kinds"]),
            join_columns=tuple(rp["join_columns"]),
            filter_columns=tuple(rp["filter_columns"]),
            fallback={c: _fn_load(fn) for c, fn in rp["fallback"].items()},
            **{
                family: {(e["join"], e["filter"]): _stats_load(e) for e in rp[family]}
                for family in FAMILIES
            },
        )
    pkfk = tuple(
        PkFkEdge(e["fact"], e["fk"], e["dim"], e["pk"], dict(e["propagated"]))
        for e in plain["pkfk"]
    )
    return StatisticsCatalog(params, relations, pkfk)


# ------------------------------------------------------------- file I/O

def _write(fh: BinaryIO, catalog: StatisticsCatalog) -> None:
    payload = bytearray()
    _encode(_catalog_plain(catalog), payload)
    payload = bytes(payload)
    fh.write(MAGIC)
    fh.write(struct.pack("<I", VERSION))
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)
    fh.write(hashlib.sha256(payload).digest())


def save_catalog(catalog: StatisticsCatalog, path: str) -> None:
    with open(path, "wb") as fh:
        _write(fh, catalog)


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
        plain, end = _decode(payload, 0)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise CatalogFormatError("%s: malformed payload: %s" % (path, exc)) from exc
    if end != length:
        raise CatalogFormatError("%s: trailing bytes in payload" % path)
    try:
        return _catalog_load(plain)
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogFormatError("%s: invalid catalog structure: %s" % (path, exc)) from exc
