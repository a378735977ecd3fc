"""Seeded query lists for the star and ladder datasets.

Each predicate is drawn with an intended resolution path (MCV value, tail
value, histogram bucket, ...) and kept only when :class:`PathClassifier`
confirms that path from the data.  Intents are dealt round-robin, so every
path appears in every list.  Tail values are drawn from values that occur
exactly once, and LIKE literals that miss every tracked 3-gram are tail
words, which share no 3-gram with any other row: the lists stay clear of
the adversarial data the FOUND entries in CHANGES.md describe.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from bench_data import (
    CONTENT_SEED,
    LADDER_COUNT,
    BenchQuery,
    Dataset,
    grams_of,
    ladder_chain_count,
    ranked_values,
)
from bench_truth import RANGE_LOW, PathClassifier

STAR_MIX = {
    # shape -> queries per list
    "fact": 120,
    "dim": 90,
    "fact-dim": 210,
    "fact-fact": 120,
    "star3": 180,
    "fact-fact-dim": 120,
    "star4": 120,
    "fact-cycle": 30,
}
DEEP_MIX = {"chain": 36, "cycle": 36, "fused": 24}

# Tail values and untracked LIKE literals get bounds hundreds to thousands
# of times the true count; they are one turn in fifteen, so the 90th
# percentile of bound/true falls among the other predicates, not at the
# edge of that cluster, where a change to a handful of bounds would move it
# by a large factor.
INTENTS = {
    "sales": (
        "eq_mcv", "in", "range_bucket", "like_tracked", "eq_tail", "range_root",
        "like_short", "or", "eq_mcv", "like_tracked", "range_bucket", "in",
        "like_default", "range_root", "or",
    ),
    "customer": ("eq_mcv", "in", "like_tracked", "like_short", "or"),
    "product": ("eq_mcv", "in", "like_tracked", "range_bucket", "range_root", "or"),
    "ladder": ("eq_mcv", "in", "range_bucket", "range_root", "like_tracked"),
}
# Which occurrences of a relation carry a predicate, in turn (1 = yes);
# every fourth predicate is a conjunction of two.
PREDICATE_TURNS = {"sales": (1, 0), "customer": (1, 1, 0), "product": (1, 1, 0)}


# Literals are taken at fixed positions: the i-th draw of a kind uses
# POSITIONS[i % len] of its candidate list (ranked by count) and the quantile
# pairs below for ranges, so each template selects alike on every seed.
POSITIONS = (0.0, 0.01, 0.03, 0.1, 0.25, 0.5, 0.75, 0.99)
BUCKET_RANGES = ((None, 0.1), (None, 0.3), (0.05, 0.2), (0.15, 0.35), (0.7, 0.8), (0.8, 0.95))
ROOT_RANGES = ((0.2, None), (0.5, None), (0.8, None), (None, 0.8), (0.1, 0.9), (0.3, 0.7))


class PredicateMaker:
    """Draws predicates whose structure (intent, IN-list length, range form,
    literal length, OR pairing) and literal positions follow fixed turns, so
    every seed yields the same templates over its own data."""

    def __init__(self, ds: Dataset):
        self.ds = ds
        self.cls = PathClassifier(ds)
        self.turns: Counter = Counter()
        self._cache: dict[tuple, object] = {}

    def turn(self, key, n: int) -> int:
        t = self.turns[key]
        self.turns[key] += 1
        return t % n

    def at(self, key, seq):
        """The next fixed-position element of a ranked list."""
        f = POSITIONS[self.turn(("at",) + key, len(POSITIONS))]
        return seq[int(f * (len(seq) - 1))]

    def ranked(self, rel: str, col: str) -> tuple[list, np.ndarray]:
        key = ("ranked", rel, col)
        if key not in self._cache:
            self._cache[key] = ranked_values(self.ds.tables[rel].columns[col])
        return self._cache[key]

    def values(self, rel: str, col: str) -> tuple[list, list]:
        """(safe MCVs, values outside the MCV list that occur once)."""
        key = ("values", rel, col)
        if key not in self._cache:
            vals, counts = self.ranked(rel, col)
            mcv = self.cls.mcv_size
            head = [_plain(v) for v in vals[: max(1, mcv // 2)]]
            tail = [_plain(v) for v, c in zip(vals[mcv:], counts[mcv:]) if c == 1]
            self._cache[key] = (head, tail)
        return self._cache[key]

    def range_leaf(self, rel: str, col: str, bucket: bool) -> tuple:
        forms = BUCKET_RANGES if bucket else ROOT_RANGES
        lo_q, hi_q = forms[self.turn(("range", rel, bucket), len(forms))]
        data = self.ds.tables[rel].columns[col]
        if hi_q is None:
            return ("range", col, float(np.floor(np.quantile(data, lo_q))), None, False, True)
        hi_v = np.quantile(data, hi_q)
        hi = float(np.floor(hi_v) if hi_q < RANGE_LOW else np.ceil(hi_v))
        if lo_q is None:
            return ("range", col, None, hi, True, False)
        lo_v = np.quantile(data, lo_q)
        lo = float(np.floor(lo_v) if lo_q < RANGE_LOW else np.ceil(lo_v))
        return ("range", col, lo, hi, True, True)

    def substring(self, key, texts: list[str], n: int) -> str:
        text = self.at(key, texts)
        return text[: min(len(text), n)]

    def leaf(self, rel: str, intent: str) -> tuple:
        """One predicate of the given intent, confirmed by the classifier;
        a rejected draw moves on to the next turn."""
        for _ in range(100):
            p = self._draw(rel, intent)
            if p is None:
                continue
            got = Counter()
            try:
                self.cls.predicate(rel, p, got)
            except ValueError:
                continue
            if got[intent]:
                return p
        raise RuntimeError("cannot draw a %s predicate on %s" % (intent, rel))

    def _draw(self, rel: str, intent: str) -> tuple | None:
        if rel == "sales":
            eq_col, text_col, range_col = "amount", "note", "amount"
        elif rel == "customer":
            eq_col = ("region", "tier")[self.turn(("eq col", intent), 2)]
            text_col, range_col = "region", None
        elif rel == "product":
            eq_col, text_col, range_col = "category", "category", "price"
        else:
            eq_col, text_col, range_col = "tag", "label", "tag"
        head, tail = self.values(rel, eq_col)
        if intent == "eq_mcv":
            return ("eq", eq_col, self.at((rel, "mcv"), head))
        if intent == "eq_tail":
            return ("eq", eq_col, self.at((rel, "tail"), tail)) if tail else None
        if intent == "in":
            k = 2 + self.turn(("in", rel), 3)
            with_tail = bool(tail) and self.turn(("in tail", rel), 2) == 1
            picks = {self.at((rel, "in"), head) for _ in range(k - with_tail)}
            if with_tail:
                picks.add(self.at((rel, "in tail"), tail))
            return ("in", eq_col, tuple(sorted(picks)))
        if intent in ("range_bucket", "range_root"):
            return self.range_leaf(rel, range_col, intent == "range_bucket")
        texts = self.ranked(rel, text_col)[0][:50]
        if intent == "like_tracked":
            return ("like", text_col, self.substring((rel, "like"), texts, 3 + self.turn(("like", rel), 4)))
        if intent == "like_short":
            return ("like", text_col, self.substring((rel, "short"), texts, 1 + self.turn(("short", rel), 2)))
        if intent == "like_default":
            key = ("untracked", rel, text_col)
            if key not in self._cache:
                tracked = self.cls.tracked_grams(rel, text_col)
                self._cache[key] = [
                    w for w in self.ranked(rel, text_col)[0]
                    if len(w) == 3 and not grams_of(w) & tracked
                ]
            words = self._cache[key]
            return ("like", text_col, self.at((rel, "untracked"), words)) if words else None
        if intent == "or":
            options = ("eq_mcv", "like_tracked") if rel != "sales" else (
                "eq_mcv", "eq_tail", "range_bucket", "like_tracked"
            )
            pairs = list(itertools.combinations(options, 2))
            a, b = pairs[self.turn(("or", rel), len(pairs))]
            return ("or", (self.leaf(rel, a), self.leaf(rel, b)))
        raise ValueError(intent)


def _plain(v):
    return v if isinstance(v, str) else float(v)


# ----------------------------------------------------------------- star

def star_queries(ds: Dataset, scale: float = 1.0) -> list[BenchQuery]:
    """1-4-relation star queries over the dataset; ``scale`` shrinks the mix."""
    maker = PredicateMaker(ds)
    out: list[BenchQuery] = []
    for shape, count in STAR_MIX.items():
        for j in range(max(1, round(count * scale))):
            atoms, joins = _star_shape(shape, j)
            preds = {}
            for alias, rel in atoms:
                if len(atoms) > 1 and not PREDICATE_TURNS[rel][maker.turn(("has", rel), len(PREDICATE_TURNS[rel]))]:
                    continue
                size = 2 if maker.turn("size", 4) == 3 else 1
                parts = [
                    maker.leaf(rel, INTENTS[rel][maker.turn(("intent", rel), len(INTENTS[rel]))])
                    for _ in range(size)
                ]
                preds[alias] = parts[0] if size == 1 else ("and", tuple(parts))
            out.append(BenchQuery(shape, atoms, joins, preds))
    return out


def _star_shape(shape: str, j: int):
    """The j-th query of a shape joins the customer dimension when j is
    even, the product dimension when j is odd."""
    fk, dim = (("cust", "customer"), ("prod", "product"))[j % 2]
    d = dim[0] + "0"
    if shape == "fact":
        return (("f0", "sales"),), ()
    if shape == "dim":
        return ((d, dim),), ()
    if shape == "fact-dim":
        return (("f0", "sales"), (d, dim)), ((("f0", fk), (d, "id")),)
    if shape == "fact-fact":
        return (("f0", "sales"), ("f1", "sales")), ((("f0", fk), ("f1", fk)),)
    if shape == "fact-cycle":
        # f1 and f2 share customer and product, f0 the customer: a cycle.
        return (
            (("f0", "sales"), ("f1", "sales"), ("f2", "sales")),
            ((("f0", "cust"), ("f1", "cust")), (("f1", "cust"), ("f2", "cust")),
             (("f1", "prod"), ("f2", "prod"))),
        )
    if shape == "fact-fact-dim":
        return (
            (("f0", "sales"), ("f1", "sales"), (d, dim)),
            ((("f0", fk), ("f1", fk)), (("f1", fk), (d, "id"))),
        )
    star = (("c0", "customer"), ("f0", "sales"), ("p0", "product"))
    star_joins = ((("f0", "cust"), ("c0", "id")), (("f0", "prod"), ("p0", "id")))
    if shape == "star3":
        return star, star_joins
    if shape == "star4":
        return star + (("f1", "sales"),), star_joins + ((("f0", fk), ("f1", fk)),)
    raise ValueError(shape)


# --------------------------------------------------------------- ladders

def deep_queries(ds: Dataset) -> list[BenchQuery]:
    """Chains over the worst-case ladders (no predicates, closed-form
    counts); cycles and fused two-column joins over the typical ones, every
    third cycle and every second fused join with one predicate on ``tag``
    or ``label``."""
    rng = np.random.default_rng(CONTENT_SEED)
    maker = PredicateMaker(ds)
    intents = INTENTS["ladder"]
    out: list[BenchQuery] = []

    def rels(prefix: str, k: int) -> list[str]:
        return ["%s%d" % (prefix, i) for i in rng.permutation(LADDER_COUNT)[:k]]

    def predicate(atoms) -> dict:
        alias, rel = atoms[int(rng.integers(len(atoms)))]
        return {alias: maker.leaf(rel, intents[maker.turn("intent", len(intents))])}

    for k in (4, 5, 6):
        for _ in range(DEEP_MIX["chain"] // 3):
            atoms = tuple(("t%d" % i, r) for i, r in enumerate(rels("w", k)))
            joins = tuple((("t%d" % i, "jb"), ("t%d" % (i + 1), "ja")) for i in range(k - 1))
            out.append(BenchQuery("chain-%d" % k, atoms, joins, {}, ladder_chain_count(k)))
    for k in (3, 4, 5):
        for j in range(DEEP_MIX["cycle"] // 3):
            atoms = tuple(("t%d" % i, r) for i, r in enumerate(rels("l", k)))
            joins = tuple((("t%d" % i, "jb"), ("t%d" % ((i + 1) % k), "ja")) for i in range(k))
            out.append(BenchQuery("cycle-%d" % k, atoms, joins, predicate(atoms) if j % 3 == 0 else {}))
    for j in range(DEEP_MIX["fused"]):
        atoms = tuple(("t%d" % i, r) for i, r in enumerate(rels("l", 2)))
        other = ("ja", "jb") if j % 4 < 2 else ("jb", "ja")
        joins = ((("t0", "ja"), ("t1", other[0])), (("t0", "jb"), ("t1", other[1])))
        out.append(BenchQuery("fused", atoms, joins, predicate(atoms) if j % 2 == 0 else {}))
    return out
