"""Seeded inputs for the benchmark: star schemas, ladder relations, query lists.

Only the stdlib and numpy are used.  Every table is kept as numpy columns
(float64 for numeric columns, object arrays of str for text), written to CSV
plus a schema JSON for the program to load, and read directly by the
independent counter in ``bench_truth``.  Queries are kept in a small
structural form (:class:`BenchQuery`) that the SQL renderer and the counter
both read, so the counter never parses SQL and never calls the program.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Every workload's content (values, skew, vocabulary) is drawn from this
# fixed seed; the run's --seed only relabels keys and reorders rows and
# queries (see relabel), so bound quality and catalog size are properties
# of the code, not of the draw.
CONTENT_SEED = 1
HEAD_LETTERS = "abcdefghijklm"
TAIL_LETTERS = "nopqrstuvwxyz"
GRAM = 3


@dataclass
class Table:
    name: str
    columns: dict[str, np.ndarray]
    join_columns: tuple[str, ...]
    filter_columns: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    def kind(self, col: str) -> str:
        return "text" if self.columns[col].dtype == object else "numeric"


@dataclass
class Dataset:
    tables: dict[str, Table]
    pk_fk: tuple[tuple[str, str, str, str], ...]  # (fact, fk, dim, pk)
    params: dict[str, object]

    def schema(self) -> dict[str, dict[str, str]]:
        return {n: {c: t.kind(c) for c in t.columns} for n, t in self.tables.items()}

    def write(self, directory: str) -> str:
        """Write one CSV per table plus ``schema.json``; returns the schema path."""
        os.makedirs(directory, exist_ok=True)
        rels = []
        for name, table in self.tables.items():
            path = os.path.join(directory, name + ".csv")
            cols = list(table.columns)
            cells = [_csv_cells(table.columns[c]) for c in cols]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(cols)
                writer.writerows(zip(*cells))
            rels.append(
                {
                    "name": name,
                    "csv": name + ".csv",
                    "columns": [{"name": c, "kind": table.kind(c)} for c in cols],
                    "join_columns": list(table.join_columns),
                    "filter_columns": list(table.filter_columns),
                }
            )
        doc = {
            "relations": rels,
            "pk_fk": [
                {"fact": f, "fk": fk, "dim": d, "pk": pk} for f, fk, d, pk in self.pk_fk
            ],
            "params": self.params,
        }
        schema_path = os.path.join(directory, "schema.json")
        with open(schema_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return schema_path


def _csv_cells(col: np.ndarray) -> list[str]:
    if col.dtype == object:
        return list(col)
    return ["%d" % v if v == int(v) else repr(float(v)) for v in col.tolist()]


# ------------------------------------------------------------ queries

@dataclass
class BenchQuery:
    """One COUNT(*) query in structural form.

    ``atoms`` are (alias, relation); ``joins`` are equalities between
    (alias, column) pairs; ``preds`` maps an alias to a predicate tree of
    tuples: ("eq", col, v), ("in", col, values), ("range", col, lo, hi,
    lo_incl, hi_incl), ("like", col, literal), ("and", children),
    ("or", children).  ``closed_form`` is the known exact count, when the
    instance was built to have one.
    """

    shape: str
    atoms: tuple[tuple[str, str], ...]
    joins: tuple[tuple[tuple[str, str], tuple[str, str]], ...]
    preds: dict[str, tuple] = field(default_factory=dict)
    closed_form: int | None = None

    def sql(self) -> str:
        tables = ", ".join("%s AS %s" % (rel, alias) for alias, rel in self.atoms)
        conds = ["%s.%s = %s.%s" % (a1, c1, a2, c2) for (a1, c1), (a2, c2) in self.joins]
        for alias, _ in self.atoms:
            if alias in self.preds:
                conds.append(_render(self.preds[alias], alias))
        sql = "SELECT COUNT(*) FROM " + tables
        return sql + (" WHERE " + " AND ".join(conds) if conds else "")


def _literal(v) -> str:
    if isinstance(v, str):
        return "'%s'" % v.replace("'", "''")
    return "%d" % v if v == int(v) else repr(float(v))


def _render(p: tuple, alias: str) -> str:
    kind = p[0]
    if kind == "eq":
        return "%s.%s = %s" % (alias, p[1], _literal(p[2]))
    if kind == "in":
        return "%s.%s IN (%s)" % (alias, p[1], ", ".join(_literal(v) for v in p[2]))
    if kind == "like":
        return "%s.%s LIKE '%%%s%%'" % (alias, p[1], p[2])
    if kind == "range":
        _, col, lo, hi, lo_incl, hi_incl = p
        ref = "%s.%s" % (alias, col)
        if lo is not None and hi is not None and lo_incl and hi_incl:
            return "%s BETWEEN %s AND %s" % (ref, _literal(lo), _literal(hi))
        parts = []
        if lo is not None:
            parts.append("%s %s %s" % (ref, ">=" if lo_incl else ">", _literal(lo)))
        if hi is not None:
            parts.append("%s %s %s" % (ref, "<=" if hi_incl else "<", _literal(hi)))
        return "(%s)" % " AND ".join(parts) if len(parts) > 1 else parts[0]
    if kind == "and":
        return "(%s)" % " AND ".join(_render(c, alias) for c in p[1])
    if kind == "or":
        return "(%s)" % " OR ".join(_render(c, alias) for c in p[1])
    raise ValueError("unknown predicate %r" % (p,))


# ------------------------------------------------------- column helpers

def ranked_values(col: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct values ordered by (-count, value), with their counts."""
    vals, counts = np.unique(col, return_counts=True)
    order = sorted(range(len(vals)), key=lambda i: (-counts[i], vals[i]))
    return [vals[i] for i in order], counts[order]


def grams_of(text: str) -> set[str]:
    low = text.lower()
    return {low[i : i + GRAM] for i in range(len(low) - GRAM + 1)}


def ranked_grams(col: np.ndarray) -> list[str]:
    """Distinct 3-grams ordered by (-rows containing them, gram)."""
    counts: dict[str, int] = {}
    for text in col:
        for g in grams_of(text):
            counts[g] = counts.get(g, 0) + 1
    return sorted(counts, key=lambda g: (-counts[g], g))


def _words(rng: np.random.Generator, n: int, letters: str, lo: int, hi: int) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    alphabet = np.array(list(letters))
    while len(out) < n:
        w = "".join(rng.choice(alphabet, size=int(rng.integers(lo, hi + 1))))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _zipf_pick(rng: np.random.Generator, n: int, domain: int, skew: float) -> np.ndarray:
    """n draws from 0..domain-1, the k-th most likely (in a random order of
    the domain) with probability proportional to 1 / k**skew."""
    weights = 1.0 / np.arange(1, domain + 1) ** skew
    ranks = rng.choice(domain, size=n, p=weights / weights.sum())
    return rng.permutation(domain)[ranks]


def relabel(ds: Dataset, seed: int, domains) -> Dataset:
    """The run's inputs: within each key domain (a list of (table, column)
    sharing key values) the key labels are permuted, and the rows of every
    table are shuffled, both from the seed.  Degree sequences, filter
    values, statistics and true counts stay those of the content."""
    rng = np.random.default_rng(seed)
    for cols in domains:
        values = np.unique(np.concatenate([ds.tables[t].columns[c] for t, c in cols]))
        new = rng.permutation(values)
        for t, c in cols:
            ds.tables[t].columns[c] = new[np.searchsorted(values, ds.tables[t].columns[c])]
    for table in ds.tables.values():
        order = rng.permutation(table.n_rows)
        table.columns = {c: v[order] for c, v in table.columns.items()}
    return ds


# ------------------------------------------------------------ star schema

STAR_SIZES = {
    # workload -> (fact rows, customers, products, BuildParams fields)
    "star-build": (100_000, 2_000, 500, {"mcv_size": 256}),
    "star-estimate": (10_000, 500, 200, {"mcv_size": 128}),
}
AMOUNT_RANGE = 2_000
TAIL_SHARE = 0.1
SINGLETON_SHARE = 0.02


def star_dataset(seed: int, workload: str) -> Dataset:
    """A fact table ``sales`` with two skewed foreign keys into ``customer``
    and ``product``.

    * ``sales.amount``: 98% uniform integers 1..2000, 2% distinct values
      above 10000 (each on one row), so the column has more distinct values
      than ``mcv_size`` and a tail of singletons.
    * ``sales.note``: 90% of rows hold one of 400 phrases of 2-3 words over
      the letters a-m (Zipf 0.8); 10% hold one of 1500 three-letter words
      over the letters n-z.  A tail row thus carries exactly one 3-gram,
      never shared with a phrase.
    * ``customer.region`` (8 words), ``customer.tier`` (1..20),
      ``product.category`` (20 words), ``product.price`` (mostly distinct
      integers): the dimension filters pushed down across the two PK-FK links.

    The seed then permutes customer and product ids and shuffles rows.
    """
    n_fact, n_cust, n_prod, params = STAR_SIZES[workload]
    rng = np.random.default_rng(CONTENT_SEED)
    regions = _words(rng, 8, HEAD_LETTERS, 4, 6)
    categories = _words(rng, 20, HEAD_LETTERS, 4, 6)
    head_words = _words(rng, 150, HEAD_LETTERS, 4, 7)
    phrases = sorted(
        {
            " ".join(rng.choice(head_words, size=int(rng.integers(2, 4)), replace=False))
            for _ in range(400)
        }
    )
    tail_words = _words(rng, 1500, TAIL_LETTERS, 3, 3)

    customer = Table(
        "customer",
        {
            "id": np.arange(1, n_cust + 1, dtype=np.float64),
            "region": np.array(regions, dtype=object)[_zipf_pick(rng, n_cust, 8, 1.0)],
            "tier": (_zipf_pick(rng, n_cust, 20, 0.6) + 1).astype(np.float64),
        },
        ("id",),
        ("region", "tier"),
    )
    product = Table(
        "product",
        {
            "id": np.arange(1, n_prod + 1, dtype=np.float64),
            "category": np.array(categories, dtype=object)[_zipf_pick(rng, n_prod, 20, 0.8)],
            "price": rng.integers(100, 100 + 4 * n_prod, size=n_prod).astype(np.float64),
        },
        ("id",),
        ("category", "price"),
    )
    n_single = int(n_fact * SINGLETON_SHARE)
    amount = np.concatenate(
        [
            rng.integers(1, AMOUNT_RANGE + 1, size=n_fact - n_single).astype(np.float64),
            10_000.0 + rng.choice(50 * n_single, size=n_single, replace=False),
        ]
    )
    n_tail = int(n_fact * TAIL_SHARE)
    note = np.concatenate(
        [
            np.array(phrases, dtype=object)[_zipf_pick(rng, n_fact - n_tail, len(phrases), 0.8)],
            np.array(tail_words, dtype=object)[rng.integers(0, len(tail_words), size=n_tail)],
        ]
    )
    order = rng.permutation(n_fact)
    sales = Table(
        "sales",
        {
            "cust": (_zipf_pick(rng, n_fact, n_cust, 1.0) + 1).astype(np.float64),
            "prod": (_zipf_pick(rng, n_fact, n_prod, 0.8) + 1).astype(np.float64),
            "amount": amount[order],
            "note": note[order],
        },
        ("cust", "prod"),
        ("amount", "note"),
    )
    ds = Dataset(
        {"sales": sales, "customer": customer, "product": product},
        (("sales", "cust", "customer", "id"), ("sales", "prod", "product", "id")),
        dict(params),
    )
    return relabel(ds, seed, [[(f, fk), (d, pk)] for f, fk, d, pk in ds.pk_fk])


# ------------------------------------------------------------- ladders

LADDER_RANKS = 56
LADDER_COUNT = 6


def ladder_dataset(seed: int) -> Dataset:
    """Ladder relations: in every join column each of the values 1..56
    occurs as often as its rank (56 distinct frequencies, 1596 rows).

    * ``w0``..``w5`` are worst-case instances: value v carries frequency v
      in both columns, and each row holds the same value in ``ja`` and
      ``jb``.  A chain of k of them joined ``jb = ja`` counts exactly
      sum(v**k for v in 1..56).
    * ``l0``..``l5`` are typical instances: the value labels of each column
      are permuted independently and the two columns are paired at random.
      They carry filter columns ``tag`` (uniform integers 1..200) and
      ``label`` (one of 12 words), and ``ja`` references the primary key of
      ``lv``, a dimension holding each key value with its parity.

    Built near-lossless (compression_budget 1e-9), so every stored profile
    has 56 sloped segments.  The seed then permutes the 56 key labels (the
    same permutation in every column) and shuffles rows.
    """
    rng = np.random.default_rng(CONTENT_SEED)
    m = LADDER_RANKS
    freq_by_label = np.arange(1, m + 1)
    layout = np.repeat(np.arange(1, m + 1), freq_by_label)  # value v, v times
    n = layout.size
    tables: dict[str, Table] = {}
    labels = rng.permutation(m) + 1  # one relabelling shared by the w* chain
    for i in range(LADDER_COUNT):
        rows = rng.permutation(n)
        col = labels[layout - 1][rows].astype(np.float64)
        tables["w%d" % i] = Table("w%d" % i, {"ja": col, "jb": col.copy()}, ("ja", "jb"), ())
    words = np.array(_words(rng, 12, HEAD_LETTERS, 4, 6), dtype=object)
    for i in range(LADDER_COUNT):
        ja = (rng.permutation(m) + 1)[layout - 1][rng.permutation(n)].astype(np.float64)
        jb = (rng.permutation(m) + 1)[layout - 1][rng.permutation(n)].astype(np.float64)
        tag = rng.integers(1, 201, size=n).astype(np.float64)
        label = words[rng.integers(0, words.size, size=n)]
        tables["l%d" % i] = Table(
            "l%d" % i, {"ja": ja, "jb": jb, "tag": tag, "label": label}, ("ja", "jb"), ("tag", "label")
        )
    keys = np.arange(1, m + 1, dtype=np.float64)
    tables["lv"] = Table("lv", {"v": keys, "parity": keys % 2}, ("v",), ("parity",))
    links = tuple(("l%d" % i, "ja", "lv", "v") for i in range(LADDER_COUNT))
    keys = [(name, c) for name, t in tables.items() for c in t.join_columns]
    return relabel(Dataset(tables, links, {"compression_budget": 1e-9}), seed, [keys])


def ladder_chain_count(k: int) -> int:
    return sum(v**k for v in range(1, LADDER_RANKS + 1))
