"""Independent ground truth and resolution-path classification.

Nothing here imports the program.  True counts come from numpy: each
relation occurrence becomes a dense count tensor over the key values of
its join variables (after its predicate has filtered the rows), and the
query's COUNT(*) is the full contraction of those tensors (for a cycle,
the trace of a product of count matrices).  ``test_bench.py`` checks this
counter against nested-loop enumeration on tiny instances.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from bench_data import GRAM, BenchQuery, Dataset, grams_of, ranked_grams, ranked_values

# A range whose ends both lie below the RANGE_LOW quantile, or both above
# RANGE_HIGH, sits inside one bucket of the coarsest histogram level (whose
# single cut is near the median on the columns ranged over here); one that
# spans both quantiles, or is open upwards, fits no bucket.  The query
# generator only emits ranges of these two kinds.
RANGE_LOW = 0.40
RANGE_HIGH = 0.65


def _distinct(col: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """(distinct lower-cased strings, index of each row's string)."""
    key = ("distinct", id(col))
    if key not in cache:
        uniq, inverse = np.unique(col, return_inverse=True)
        cache[key] = (np.array([u.lower() for u in uniq], dtype=object), inverse)
    return cache[key]


def predicate_mask(table_cols: dict[str, np.ndarray], p: tuple | None, cache: dict) -> np.ndarray:
    """Rows of a table satisfying a predicate tree (no nulls are generated)."""
    n = len(next(iter(table_cols.values())))
    if p is None:
        return np.ones(n, dtype=bool)
    kind = p[0]
    if kind == "eq":
        return np.asarray(table_cols[p[1]] == p[2], dtype=bool)
    if kind == "in":
        col = table_cols[p[1]]
        mask = np.zeros(n, dtype=bool)
        for v in p[2]:
            mask |= np.asarray(col == v, dtype=bool)
        return mask
    if kind == "range":
        _, c, lo, hi, lo_incl, hi_incl = p
        col = table_cols[c]
        mask = np.ones(n, dtype=bool)
        if lo is not None:
            mask &= (col >= lo) if lo_incl else (col > lo)
        if hi is not None:
            mask &= (col <= hi) if hi_incl else (col < hi)
        return mask
    if kind == "like":
        lit = p[2].lower()
        uniq, inverse = _distinct(table_cols[p[1]], cache)
        return np.fromiter((lit in s for s in uniq), bool, count=len(uniq))[inverse]
    if kind == "and":
        mask = np.ones(n, dtype=bool)
        for c in p[1]:
            mask &= predicate_mask(table_cols, c, cache)
        return mask
    if kind == "or":
        mask = np.zeros(n, dtype=bool)
        for c in p[1]:
            mask |= predicate_mask(table_cols, c, cache)
        return mask
    raise ValueError("unknown predicate %r" % (p,))


def join_variables(q: BenchQuery) -> dict[tuple[str, str], int]:
    """Equivalence classes of joined (alias, column) pairs, numbered."""
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in q.joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(x) for x in parent})
    return {x: roots.index(find(x)) for x in parent}


def true_count(ds: Dataset, q: BenchQuery, cache: dict | None = None) -> int:
    """Exact COUNT(*) of a query over the dataset."""
    cache = {} if cache is None else cache
    var_of = join_variables(q)
    masks = {
        alias: predicate_mask(ds.tables[rel].columns, q.preds.get(alias), cache)
        for alias, rel in q.atoms
    }
    if not var_of:
        (alias, _), = q.atoms
        return int(masks[alias].sum())
    rel_of = dict(q.atoms)
    domains: dict[int, np.ndarray] = {}
    for var in set(var_of.values()):
        key = ("domain",) + tuple(sorted((rel_of[a], c) for (a, c), v in var_of.items() if v == var))
        if key not in cache:
            cache[key] = np.unique(np.concatenate([ds.tables[r].columns[c] for r, c in key[1:]]))
        domains[var] = cache[key]
    operands: list = []
    largest = 1
    for alias, rel in q.atoms:
        table = ds.tables[rel]
        mine = sorted((v, c) for (a, c), v in var_of.items() if a == alias)
        if not mine:
            raise ValueError("%s joins nothing: a cross product" % alias)
        shape = tuple(domains[v].size for v, _ in mine)
        idx = []
        for v, c in mine:
            key = ("index", rel, c, id(domains[v]))
            if key not in cache:
                cache[key] = np.searchsorted(domains[v], table.columns[c])
            idx.append(cache[key][masks[alias]])
        flat = np.ravel_multi_index(tuple(idx), shape) if len(idx) > 1 else idx[0]
        tensor = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
        operands += [tensor, [v for v, _ in mine]]
        largest *= max(1, int(masks[alias].sum()))
    exact = int(np.einsum(*operands, [], optimize="greedy"))
    # Every partial sum counts a subset of the row combinations, so int64
    # cannot wrap while their number stays below 2**62; past that, a float
    # contraction must agree.
    if largest >= 2**62:
        floats = [o.astype(np.float64) if isinstance(o, np.ndarray) else o for o in operands]
        approx = float(np.einsum(*floats, [], optimize="greedy"))
        if abs(exact - approx) > 1e-9 * max(1.0, approx):
            raise OverflowError("count overflows int64: about %g" % approx)
    return exact


# -------------------------------------------------------- path coverage

PATHS = (
    "eq_mcv",
    "eq_tail",
    "range_bucket",
    "range_root",
    "like_tracked",
    "like_default",
    "like_short",
    "in",
    "or",
    "pkfk_pushdown",
    "cyclic",
    "fused",
)


class PathClassifier:
    """Names the statistic each predicate resolves through, from the data.

    A value is an MCV when it ranks within the top ``mcv_size`` of its
    column by (-count, value); a LIKE literal is tracked when one of its
    3-grams ranks within the top ``mcv_size`` grams by rows containing it.
    """

    def __init__(self, ds: Dataset):
        self.ds = ds
        self.mcv_size = int(ds.params.get("mcv_size", 1000))
        self._mcv: dict[tuple[str, str], set] = {}
        self._grams: dict[tuple[str, str], set] = {}
        self._quantiles: dict[tuple[str, str], tuple[float, float]] = {}

    def mcv(self, rel: str, col: str) -> set:
        key = (rel, col)
        if key not in self._mcv:
            vals, _ = ranked_values(self.ds.tables[rel].columns[col])
            self._mcv[key] = set(vals[: self.mcv_size])
        return self._mcv[key]

    def tracked_grams(self, rel: str, col: str) -> set:
        key = (rel, col)
        if key not in self._grams:
            self._grams[key] = set(ranked_grams(self.ds.tables[rel].columns[col])[: self.mcv_size])
        return self._grams[key]

    def range_quantiles(self, rel: str, col: str) -> tuple[float, float]:
        key = (rel, col)
        if key not in self._quantiles:
            col_data = self.ds.tables[rel].columns[col]
            self._quantiles[key] = tuple(np.quantile(col_data, [RANGE_LOW, RANGE_HIGH]))
        return self._quantiles[key]

    def range_path(self, rel: str, p: tuple) -> str | None:
        _, col, lo, hi, _, _ = p
        q_lo, q_hi = self.range_quantiles(rel, col)
        if hi is not None and hi < q_lo:
            return "range_bucket"
        if lo is not None and hi is not None and lo > q_hi:
            return "range_bucket"
        if hi is None or ((lo is None or lo < q_lo) and hi > q_hi):
            return "range_root"
        return None

    def predicate(self, rel: str, p: tuple, out: Counter) -> None:
        kind = p[0]
        if kind == "eq":
            out["eq_mcv" if p[2] in self.mcv(rel, p[1]) else "eq_tail"] += 1
        elif kind == "in":
            out["in"] += 1
            for v in p[2]:
                self.predicate(rel, ("eq", p[1], v), out)
        elif kind == "range":
            path = self.range_path(rel, p)
            if path is None:
                raise ValueError("range %r on %s has no predictable path" % (p, rel))
            out[path] += 1
        elif kind == "like":
            if len(p[2]) < GRAM:
                out["like_short"] += 1
            elif grams_of(p[2]) & self.tracked_grams(rel, p[1]):
                out["like_tracked"] += 1
            else:
                out["like_default"] += 1
        elif kind in ("and", "or"):
            if kind == "or":
                out["or"] += 1
            for c in p[1]:
                self.predicate(rel, c, out)
        else:
            raise ValueError("unknown predicate %r" % (p,))

    def query(self, q: BenchQuery) -> Counter:
        out: Counter = Counter()
        rel_of = dict(q.atoms)
        for alias, p in q.preds.items():
            self.predicate(rel_of[alias], p, out)
        var_of = join_variables(q)
        for fact, fk, dim, pk in self.ds.pk_fk:
            for da, drel in q.atoms:
                if drel != dim or da not in q.preds or (da, pk) not in var_of:
                    continue
                for fa, frel in q.atoms:
                    if frel == fact and var_of.get((fa, fk)) == var_of[(da, pk)]:
                        out["pkfk_pushdown"] += 1
        if _cyclic(q, var_of):
            out["cyclic"] += 1
        out["fused"] += _fused_pairs(q, var_of)
        return out


def _cyclic(q: BenchQuery, var_of: dict) -> bool:
    """A cycle in the bipartite graph of atoms and join variables."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for edge in {(("atom", a), ("var", v)) for (a, _), v in var_of.items()}:
        r1, r2 = find(edge[0]), find(edge[1])
        if r1 == r2:
            return True
        parent[r1] = r2
    return False


def _fused_pairs(q: BenchQuery, var_of: dict) -> int:
    """Atom pairs joined by two or more variables that no other atom shares."""
    atoms_of: dict[int, set] = {}
    for (a, _), v in var_of.items():
        atoms_of.setdefault(v, set()).add(a)
    pairs = Counter(tuple(sorted(s)) for s in atoms_of.values() if len(s) == 2)
    return sum(1 for n in pairs.values() if n >= 2)
