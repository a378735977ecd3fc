"""Relations, column roles, and workspace (schema + CSV) loading."""

from __future__ import annotations

import csv
import json
import math
import os
from array import array
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "Column",
    "ColumnRole",
    "Relation",
    "PkFkDeclaration",
    "Workspace",
    "load_csv",
    "load_workspace",
]

KINDS = ("numeric", "text")


class ConfigError(ValueError):
    """Schema or parameter configuration problem (CLI exit code 2)."""


@dataclass(frozen=True)
class Column:
    name: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError("column %r: unknown kind %r" % (self.name, self.kind))


@dataclass(frozen=True)
class ColumnRole:
    """Which of a relation's columns participate in joins and in predicates."""

    join_columns: tuple[str, ...] = ()
    filter_columns: tuple[str, ...] = ()


class Relation:
    """A named table: numeric columns as float64 arrays (NaN for nulls),
    text columns as lists of str-or-None."""

    def __init__(self, name: str, columns: list[Column], data: dict[str, object], n_rows: int):
        self.name = name
        self.columns = list(columns)
        self.data = data
        self.n_rows = n_rows

    def kind_of(self, column: str) -> str:
        for col in self.columns:
            if col.name == column:
                return col.kind
        raise KeyError("relation %r has no column %r" % (self.name, column))

    def has_column(self, column: str) -> bool:
        return any(c.name == column for c in self.columns)

    def __repr__(self) -> str:
        return "Relation(%r, %d rows, %d columns)" % (
            self.name,
            self.n_rows,
            len(self.columns),
        )


@dataclass(frozen=True)
class PkFkDeclaration:
    fact: str
    fk: str
    dim: str
    pk: str


@dataclass
class Workspace:
    """Everything a catalog build needs, parsed from a schema file."""

    relations: dict[str, Relation]
    roles: dict[str, ColumnRole]
    pkfk: tuple[PkFkDeclaration, ...] = ()
    params: dict[str, object] = field(default_factory=dict)
    load_warnings: tuple[str, ...] = ()


def _csv_rows(fh, path: str):
    """The rows of a CSV file; malformed or undecodable input is a ConfigError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ConfigError("%s: line %d: %s" % (path, reader.line_num, exc)) from exc
    except UnicodeDecodeError as exc:
        # The file is decoded in chunks, so the bad byte lies somewhere past
        # the last line the reader returned.
        raise ConfigError(
            "%s: not UTF-8 past line %d (byte 0x%02x: %s)"
            % (path, reader.line_num, exc.object[exc.start], exc.reason)
        ) from exc


def load_csv(
    path: str, name: str, columns: list[Column]
) -> tuple[Relation, int]:
    """Read a headered CSV into a typed Relation in one pass.

    Numeric cells are stripped and parsed with ``float``; cells that are
    empty, missing or unparseable become nulls, and the number of such
    repairs is returned alongside the relation. Empty text cells are nulls,
    and equal text cells share one ``str``.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    warnings = 0
    n_rows = 0
    sinks: dict[str, array | list] = {}
    numeric: list[tuple[int, object]] = []
    text: list[tuple[int, object]] = []
    shared: dict[str, str] = {}
    with fh:
        rows = _csv_rows(fh, path)
        header = next(rows, None)
        if header is None:
            raise ConfigError("%s: empty file" % path)
        for col in columns:
            if col.name not in header:
                raise ConfigError(
                    "%s: declared column %r missing from header %r"
                    % (path, col.name, header)
                )
            sink = sinks[col.name] = array("d") if col.kind == "numeric" else []
            (numeric if col.kind == "numeric" else text).append(
                (header.index(col.name), sink.append)
            )
        for row in rows:
            if not row:
                continue
            n_rows += 1
            width = len(row)
            for i, append in numeric:
                try:
                    value = float(row[i].strip() if i < width else "")
                except ValueError:
                    value = math.nan
                    warnings += 1
                append(value)
            for i, append in text:
                cell = row[i] if i < width else ""
                append(shared.setdefault(cell, cell) if cell else None)
    data = {
        col: np.array(sink, dtype=np.float64) if isinstance(sink, array) else sink
        for col, sink in sinks.items()
    }
    return Relation(name, columns, data, n_rows), warnings


def _require(obj: dict, key: str, ctx: str, kind: type = str):
    """obj[key], which must be present and of the given kind."""
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % ctx)
    if key not in obj:
        raise ConfigError("%s: missing %r" % (ctx, key))
    value = obj[key]
    if not isinstance(value, kind):
        raise ConfigError(
            "%s: %r must be a %s" % (ctx, key, "string" if kind is str else "list")
        )
    return value


def _names(entry: dict, key: str, ctx: str) -> tuple[str, ...]:
    """An optional list of column names."""
    names = entry.get(key, [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ConfigError("%s: %r must be a list of column names" % (ctx, key))
    return tuple(names)


def load_workspace(schema_path: str) -> Workspace:
    """Parse a schema JSON file and load the CSVs it names.

    Layout::

        {
          "relations": [
            {"name": ..., "csv": ...,
             "columns": [{"name": ..., "kind": "numeric"|"text"}, ...],
             "join_columns": [...], "filter_columns": [...]},
            ...
          ],
          "pk_fk": [{"fact": ..., "fk": ..., "dim": ..., "pk": ...}, ...],
          "params": {"compression_budget": ..., "hist_depth": ...,
                     "mcv_size": ..., "clusters": ...}
        }

    CSV paths are resolved relative to the schema file's directory.
    ``params`` is returned as written; ``stats.make_build_params`` checks it.
    """
    try:
        with open(schema_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read schema %s: %s" % (schema_path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("schema %s is not valid JSON: %s" % (schema_path, exc)) from exc
    if not isinstance(doc, dict):
        raise ConfigError("schema %s: top level must be an object" % schema_path)
    base = os.path.dirname(os.path.abspath(schema_path))
    relations: dict[str, Relation] = {}
    roles: dict[str, ColumnRole] = {}
    warnings: list[str] = []
    rel_entries = _require(doc, "relations", "schema", list)
    if not rel_entries:
        raise ConfigError("schema: 'relations' must be a non-empty list")
    for entry in rel_entries:
        name = _require(entry, "name", "relation entry")
        if name in relations:
            raise ConfigError("duplicate relation %r" % name)
        ctx = "relation %r" % name
        cols = [
            Column(_require(c, "name", "column entry"), _require(c, "kind", "column entry"))
            for c in _require(entry, "columns", ctx, list)
        ]
        seen: set[str] = set()
        for c in cols:
            if c.name in seen:
                raise ConfigError("relation %r: duplicate column %r" % (name, c.name))
            seen.add(c.name)
        csv_path = _require(entry, "csv", ctx)
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(base, csv_path)
        rel, w = load_csv(csv_path, name, cols)
        if w:
            warnings.append(
                "%s: %d numeric cell(s) were empty or unparseable and loaded as nulls"
                % (csv_path, w)
            )
        join_cols = _names(entry, "join_columns", ctx)
        filter_cols = _names(entry, "filter_columns", ctx)
        for c in join_cols + filter_cols:
            if c not in seen:
                raise ConfigError("relation %r: role names unknown column %r" % (name, c))
        relations[name] = rel
        roles[name] = ColumnRole(join_cols, filter_cols)
    pkfk: list[PkFkDeclaration] = []
    pk_fk = doc.get("pk_fk", [])
    if not isinstance(pk_fk, list):
        raise ConfigError("schema: 'pk_fk' must be a list")
    for entry in pk_fk:
        decl = PkFkDeclaration(
            _require(entry, "fact", "pk_fk entry"),
            _require(entry, "fk", "pk_fk entry"),
            _require(entry, "dim", "pk_fk entry"),
            _require(entry, "pk", "pk_fk entry"),
        )
        for rel_name, col in ((decl.fact, decl.fk), (decl.dim, decl.pk)):
            if rel_name not in relations:
                raise ConfigError("pk_fk names unknown relation %r" % rel_name)
            if not relations[rel_name].has_column(col):
                raise ConfigError(
                    "pk_fk names unknown column %r.%r" % (rel_name, col)
                )
        fk_kind = relations[decl.fact].kind_of(decl.fk)
        pk_kind = relations[decl.dim].kind_of(decl.pk)
        if fk_kind != pk_kind:
            raise ConfigError(
                "pk_fk links %s column %r.%r to %s column %r.%r; key columns must share a kind"
                % (fk_kind, decl.fact, decl.fk, pk_kind, decl.dim, decl.pk)
            )
        pkfk.append(decl)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("schema: 'params' must be an object")
    return Workspace(relations, roles, tuple(pkfk), dict(params), tuple(warnings))
