"""Relations, column roles, and workspace (schema + CSV) loading."""

from __future__ import annotations

import csv
import json
import os
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


def load_csv(
    path: str, name: str, columns: list[Column]
) -> tuple[Relation, int]:
    """Read a headered CSV into a typed Relation.

    Numeric cells that are empty or fail to parse become nulls; the number
    of such repairs is returned alongside the relation.
    """
    warnings = 0
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError("%s: empty file" % path) from None
        idx: dict[str, int] = {}
        for col in columns:
            if col.name not in header:
                raise ConfigError(
                    "%s: declared column %r missing from header %r"
                    % (path, col.name, header)
                )
            idx[col.name] = header.index(col.name)
        raw: dict[str, list] = {c.name: [] for c in columns}
        n_rows = 0
        for row in reader:
            if not row:
                continue
            n_rows += 1
            for col in columns:
                i = idx[col.name]
                raw[col.name].append(row[i] if i < len(row) else "")
    data: dict[str, object] = {}
    for col in columns:
        cells = raw[col.name]
        if col.kind == "numeric":
            out = np.empty(len(cells), dtype=np.float64)
            for i, cell in enumerate(cells):
                cell = cell.strip()
                if not cell:
                    out[i] = np.nan
                    warnings += 1
                    continue
                try:
                    out[i] = float(cell)
                except ValueError:
                    out[i] = np.nan
                    warnings += 1
            data[col.name] = out
        else:
            data[col.name] = [cell if cell != "" else None for cell in cells]
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
                     "mcv_size": ..., "clusters": ..., "max_segments": ...}
        }

    CSV paths are resolved relative to the schema file's directory.
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
