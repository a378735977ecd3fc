"""Package-level guarantees, one test per numbered criterion.

Each test prints a single PASS/FAIL line with the measured quantities, so
the suite output doubles as a checklist.  Expected values are computed by
independent oracles inside each test (hand arithmetic, brute-force joins,
cumulative sums), never by the code under test.
"""

import random
import re
import statistics
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from seqbound.catalog_io import load_catalog, save_catalog
from seqbound.compress import is_valid_compression, valid_compress
from seqbound.inference import bound_query, condition_sequence
from seqbound.oracle import (
    GenerationImpossible,
    generate_database,
    generate_query,
    run_soundness_suite,
    true_cardinality,
)
from seqbound.pwfn import (
    DegreeSequence,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
    cumulate,
    sample_integer_ranks,
)
from seqbound.query import Eq, parse_query
from seqbound.relation import Column, ColumnRole, Relation
from seqbound.stats import BuildParams, build_catalog
from worst_case import lossless_compress, materialize_from_compressed, materialize_worst_case

EXACT = BuildParams(compression_budget=1e-9)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print("criterion %02d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d %s: %s" % (num, name, detail)


def random_sequence(rng: random.Random, max_distinct=60, max_freq=40) -> DegreeSequence:
    shape = rng.random()
    d = rng.randint(1, max_distinct)
    if shape < 0.1:
        return DegreeSequence([1] * d)
    if shape < 0.2:
        return DegreeSequence([rng.randint(1, max_freq)] * d)
    return DegreeSequence(sorted((rng.randint(1, max_freq) for _ in range(d)), reverse=True))


def partition(rng: random.Random, total: int) -> DegreeSequence:
    freqs = []
    left = total
    while left:
        f = rng.randint(1, left)
        freqs.append(f)
        left -= f
    return DegreeSequence(sorted(freqs, reverse=True))


def single_column_relation(name: str, col: str, values: np.ndarray) -> Relation:
    return Relation(name, [Column(col, "numeric")], {col: values}, int(values.size))


def schema_of(relations: dict[str, Relation]) -> dict[str, dict[str, str]]:
    return {n: {c.name: c.kind for c in r.columns} for n, r in relations.items()}


def test_criterion_01_soundness():
    t0 = time.monotonic()
    records, summary = run_soundness_suite(500, 50, 50, seed=5)
    elapsed = time.monotonic() - t0
    shapes = Counter(r["shape"] for r in records)
    acyclic_sqls = [r["sql"] for r in records if r["shape"] == "acyclic"]
    literal_eq = re.compile(r"= (?:\d|')")
    type_counts = {
        "eq": sum(1 for s in acyclic_sqls if literal_eq.search(s)),
        "range": sum(1 for s in acyclic_sqls if " BETWEEN " in s or re.search(r" [<>]=? ", s)),
        "like": sum(1 for s in acyclic_sqls if " LIKE " in s),
        "in": sum(1 for s in acyclic_sqls if " IN (" in s),
        "or": sum(1 for s in acyclic_sqls if " OR " in s),
    }
    ok = (
        summary["trials"] == 600
        and summary["violations"] == 0
        and shapes == Counter({"acyclic": 500, "cyclic": 50, "multicol": 50})
        and all(v > 0 for v in type_counts.values())
        and elapsed <= 180.0
    )
    report(
        1,
        "soundness",
        ok,
        "600 trials, %d violations, shapes %s, predicate kinds %s, %.1fs"
        % (summary["violations"], dict(shapes), type_counts, elapsed),
    )


def test_criterion_02_exact_versus_dominating_cardinality():
    seq = DegreeSequence((4, 2, 2, 1, 1, 1))
    exact_total = cumulate(lossless_compress(seq)).total
    # one flat segment at the top frequency spanning all six ranks
    dominating_total = cumulate(PiecewiseConstantFn((6.0,), (4.0,))).total
    compressed = valid_compress(seq, 1.0)
    ok = (
        seq.total == 11
        and exact_total == 11.0
        and dominating_total == 24.0
        and compressed.total == 11.0
        and is_valid_compression(seq, compressed) is None
    )
    report(
        2,
        "exact vs dominating cardinality",
        ok,
        "exact %g, one-segment dominator %g, compressed total %g"
        % (exact_total, dominating_total, compressed.total),
    )


def test_criterion_03_compression_validity_and_error():
    rng = random.Random(30)
    budgets = (0.001, 0.01, 0.1, 1.0)
    worst_margin = -1.0
    checked = 0
    ok = True
    for _ in range(200):
        seq = random_sequence(rng, max_distinct=300)
        exact = float(sum(f * f for f in seq.freqs))
        for c in budgets:
            fn = valid_compress(seq, c)
            if is_valid_compression(seq, fn) is not None:
                ok = False
            approx = float(np.sum(np.square(fn.slopes) * np.diff(fn.knots)))
            rel_err = (approx - exact) / exact
            k = len(fn.slopes)
            if rel_err > c * k + 1e-6:
                ok = False
            worst_margin = max(worst_margin, rel_err - c * k)
            checked += 1
    report(
        3,
        "compression validity",
        ok,
        "%d compressions valid, worst error margin %.3g (tolerance 1e-6)"
        % (checked, worst_margin),
    )


def test_criterion_04_lossless_compression():
    rng = random.Random(40)
    ok = True
    worst_k = 0
    for _ in range(200):
        seq = random_sequence(rng)
        fn = lossless_compress(seq)
        cum = cumulate(fn)
        exact = np.concatenate(([0.0], np.cumsum(np.asarray(seq.freqs, dtype=np.float64))))
        if not np.array_equal(sample_integer_ranks(cum, seq.distinct), exact):
            ok = False
        k = len(fn.values)
        if k > min((2 * seq.total) ** 0.5, float(seq.freqs[0])) + 1e-9:
            ok = False
        worst_k = max(worst_k, k)
    for n in (1, 5, 100):
        if len(lossless_compress(DegreeSequence([1] * n)).values) != 1:
            ok = False
    report(
        4,
        "lossless compression",
        ok,
        "200 round-trips exact, max %d segments, key columns 1 segment" % worst_k,
    )


def test_criterion_05_self_join_exactness():
    rng = random.Random(50)
    ok = True
    for trial in range(100):
        seq = random_sequence(rng, max_distinct=40, max_freq=12)
        col = materialize_worst_case({"j": seq})["j"]
        rel = single_column_relation("rr", "j", col)
        catalog = build_catalog({"rr": rel}, {"rr": ColumnRole(("j",), ())}, params=EXACT)
        q = parse_query(
            "SELECT COUNT(*) FROM rr AS a, rr AS b WHERE a.j = b.j", schema_of({"rr": rel})
        )
        expected = sum(f * f for f in seq.freqs)
        if bound_query(catalog, q).bound != expected:
            ok = False
    skew = DegreeSequence((4, 2, 2, 1, 1, 1))
    col = materialize_worst_case({"j": skew})["j"]
    rel = single_column_relation("rr", "j", col)
    catalog = build_catalog({"rr": rel}, {"rr": ColumnRole(("j",), ())}, params=EXACT)
    q = parse_query(
        "SELECT COUNT(*) FROM rr AS a, rr AS b WHERE a.j = b.j", schema_of({"rr": rel})
    )
    got = bound_query(catalog, q).bound
    ok = ok and got == 27
    report(5, "self-join exactness", ok, "100 sequences exact, skewed example -> %d" % got)


def integer_step_profile(rng: random.Random) -> tuple[PiecewiseLinearFn, DegreeSequence]:
    """A compressed profile with integer knots and levels, plus its realization."""
    runs = rng.randint(1, 4)
    levels = sorted({rng.randint(1, 9) for _ in range(runs)}, reverse=True)
    widths = [rng.randint(1, 6) for _ in levels]
    edges, freqs = [], []
    pos = 0
    for level, width in zip(levels, widths):
        pos += width
        edges.append(float(pos))
        freqs.extend([level] * width)
    fn = cumulate(PiecewiseConstantFn(edges, [float(lv) for lv in levels]))
    return fn, DegreeSequence(freqs)


def test_criterion_06_dominance_over_materialized_instances():
    rng = random.Random(60)
    ok = True
    eq_checked = dom_checked = 0
    for trial in range(50):
        fa = random_sequence(rng, max_distinct=20, max_freq=15)
        fb = random_sequence(rng, max_distinct=20, max_freq=15)
        rels = {
            "ra": single_column_relation("ra", "j", materialize_worst_case({"j": fa})["j"]),
            "sb": single_column_relation("sb", "j", materialize_worst_case({"j": fb})["j"]),
        }
        roles = {n: ColumnRole(("j",), ()) for n in rels}
        q = parse_query(
            "SELECT COUNT(*) FROM ra AS r, sb AS s WHERE r.j = s.j", schema_of(rels)
        )
        catalog = build_catalog(rels, roles, (), EXACT)
        b = bound_query(catalog, q).bound
        t = true_cardinality(rels, q)
        if b < t or abs(b - t) > 1e-6 * max(1.0, t):
            ok = False
        eq_checked += 1
    for trial in range(50):
        if trial % 2 == 0:
            fn_a, _ = integer_step_profile(rng)
            fn_b, _ = integer_step_profile(rng)
            rels = {
                "ra": single_column_relation("ra", "j", materialize_from_compressed({"j": fn_a})["j"]),
                "sb": single_column_relation("sb", "j", materialize_from_compressed({"j": fn_b})["j"]),
            }
            roles = {n: ColumnRole(("j",), ()) for n in rels}
            sql = "SELECT COUNT(*) FROM ra AS r, sb AS s WHERE r.j = s.j"
        else:
            fn_a, _ = integer_step_profile(rng)
            fn_b, _ = integer_step_profile(rng)
            _, mid_x = integer_step_profile(rng)
            mid_y = partition(rng, mid_x.total)
            mid_cols = materialize_worst_case({"x": mid_x, "y": mid_y})
            rels = {
                "ra": single_column_relation("ra", "x", materialize_from_compressed({"x": fn_a})["x"]),
                "mm": Relation(
                    "mm",
                    [Column("x", "numeric"), Column("y", "numeric")],
                    mid_cols,
                    mid_x.total,
                ),
                "sb": single_column_relation("sb", "y", materialize_from_compressed({"y": fn_b})["y"]),
            }
            roles = {
                "ra": ColumnRole(("x",), ()),
                "mm": ColumnRole(("x", "y"), ()),
                "sb": ColumnRole(("y",), ()),
            }
            sql = "SELECT COUNT(*) FROM ra AS r, mm AS m, sb AS s WHERE r.x = m.x AND m.y = s.y"
        q = parse_query(sql, schema_of(rels))
        catalog = build_catalog(rels, roles, (), EXACT)
        if bound_query(catalog, q).bound < true_cardinality(rels, q):
            ok = False
        dom_checked += 1
    report(
        6,
        "dominance over materialized instances",
        ok,
        "%d exact chains equal, %d integer-step instances dominated" % (eq_checked, dom_checked),
    )


def test_criterion_07_prefix_box_identity():
    rng = random.Random(70)
    ok = True
    probes = 0
    for _ in range(100):
        fa = random_sequence(rng, max_distinct=30, max_freq=8)
        fb = partition(rng, fa.total)
        cols = materialize_worst_case({"a": fa, "b": fb})
        cum_a = np.concatenate(([0], np.cumsum(fa.freqs)))
        cum_b = np.concatenate(([0], np.cumsum(fb.freqs)))
        for m1 in range(fa.distinct + 1):
            for m2 in range(fb.distinct + 1):
                expected = int(min(cum_a[m1], cum_b[m2]))
                probe = np.count_nonzero((cols["a"] <= m1) & (cols["b"] <= m2))
                if probe != expected:
                    ok = False
                probes += 1
    report(7, "prefix-box identity", ok, "100 instances, %d grid probes" % probes)


def inflate_column(catalog, relation: str, column: str, scale: float):
    rs = catalog.relations[relation]
    fn = rs.fallback[column]
    boosted = PiecewiseLinearFn(fn.knots, tuple(v * scale for v in fn.values))
    rels = dict(catalog.relations)
    rels[relation] = replace(rs, fallback={**rs.fallback, column: boosted})
    return replace(catalog, relations=rels)


def test_criterion_08_monotonicity():
    ok = True
    for trial in range(100):
        rng = random.Random(1000 + trial)
        relations, roles, _ = generate_database(rng)
        catalog = build_catalog(relations, roles, ())
        _, query = generate_query(rng, relations, roles, "acyclic", max_predicates=0)
        base = bound_query(catalog, query).bound
        atom = rng.choice(query.atoms)
        if atom.var_columns:
            col = atom.var_columns[0][1][0]
        else:
            col = roles[atom.relation].join_columns[0]
        inflated = inflate_column(catalog, atom.relation, col, 1.3)
        if bound_query(inflated, query).bound < base:
            ok = False
    for trial in range(100):
        rng = random.Random(2000 + trial)
        relations, roles, pkfk = generate_database(rng)
        catalog = build_catalog(relations, roles, pkfk)
        sql, query = generate_query(rng, relations, roles, "acyclic", max_predicates=2)
        base = bound_query(catalog, query).bound
        atom = rng.choice(query.atoms)
        rel = relations[atom.relation]
        if rng.random() < 0.5:
            word = rng.choice([v for v in rel.data["s0"] if v is not None])
            conjunct = "%s.s0 = '%s'" % (atom.alias, word)
        else:
            conjunct = "%s.f0 <= %r" % (atom.alias, float(np.nanmedian(rel.data["f0"])))
        glue = " AND " if " WHERE " in sql else " WHERE "
        narrowed = parse_query(sql + glue + conjunct, schema_of(relations))
        if bound_query(catalog, narrowed).bound > base:
            ok = False
    report(8, "monotonicity", ok, "100 profile inflations and 100 added conjuncts")


def ladder_chain(m: int) -> tuple[dict[str, Relation], dict[str, ColumnRole], str]:
    """Six relations in a five-join chain; every frequency 1..m occurs once,
    so exact profiles carry m distinct slopes each."""
    rng = random.Random(11)
    n = m * (m + 1) // 2

    def ladder() -> np.ndarray:
        vals = [float(v) for v in range(1, m + 1) for _ in range(v)]
        rng.shuffle(vals)
        return np.asarray(vals)

    relations, roles = {}, {}
    names = ["c%d" % i for i in range(6)]
    for i, name in enumerate(names):
        cols, data, joins = [], {}, []
        for side in ("a", "b"):
            if (side == "a" and i > 0) or (side == "b" and i < 5):
                cname = "j" + side
                data[cname] = ladder()
                cols.append(Column(cname, "numeric"))
                joins.append(cname)
        relations[name] = Relation(name, cols, data, n)
        roles[name] = ColumnRole(tuple(joins), ())
    sql = "SELECT COUNT(*) FROM " + ", ".join(
        "%s AS t%d" % (name, i) for i, name in enumerate(names)
    ) + " WHERE " + " AND ".join("t%d.jb = t%d.ja" % (i, i + 1) for i in range(5))
    return relations, roles, sql


def test_criterion_09_inference_latency():
    medians = {}
    segment_counts = {}
    for m in (28, 56):
        relations, roles, sql = ladder_chain(m)
        query = parse_query(sql, schema_of(relations))
        catalog = build_catalog(relations, roles, (), EXACT)
        segment_counts[m] = sum(
            len(rs.fallback[c].slopes)
            for rs in catalog.relations.values()
            for c in rs.join_columns
        )
        bound_query(catalog, query)
        times = []
        for _ in range(101):
            t0 = time.perf_counter()
            bound_query(catalog, query)
            times.append((time.perf_counter() - t0) * 1000.0)
        medians[m] = statistics.median(times)
    ok = (
        segment_counts[28] <= 300
        and medians[28] < 10.0
        and segment_counts[56] >= 1.8 * segment_counts[28]
        and medians[56] < 3.0 * medians[28]
    )
    report(
        9,
        "inference latency",
        ok,
        "K=%d -> %.2fms median, K=%d -> %.2fms (x%.2f, limit x3)"
        % (
            segment_counts[28],
            medians[28],
            segment_counts[56],
            medians[56],
            medians[56] / medians[28],
        ),
    )


def test_criterion_10_clustering_and_exact_index_soundness():
    rng = random.Random(77)
    n = 2000
    jvals = np.asarray([float(rng.randint(1, 300)) for _ in range(n)])
    fvals = np.asarray([float(rng.randint(1, 60)) for _ in range(n)])
    rel = Relation(
        "rr", [Column("j", "numeric"), Column("f", "numeric")], {"j": jvals, "f": fvals}, n
    )
    members = sorted(set(fvals.tolist()))

    def build(**params):
        return build_catalog(
            {"rr": rel},
            {"rr": ColumnRole(("j",), ("f",))},
            (),
            BuildParams(compression_budget=1e-9, **params),
        )

    def dominance_gap(catalog, v) -> float:
        """Largest shortfall of v's resolved profile below its exact one,
        beyond a relative tolerance of 1e-9; at most 0 when it dominates."""
        counts = np.unique(jvals[fvals == v], return_counts=True)[1]
        exact = cumulate(lossless_compress(DegreeSequence(sorted(counts.tolist(), reverse=True))))
        conditioned = condition_sequence(catalog, "rr", "j", Eq("f", v))
        return max(
            (
                exact.value_at(r) - conditioned.value_at(min(r, conditioned.end))
                - 1e-9 * max(1.0, exact.value_at(r))
                for r in np.linspace(0.0, exact.end, 100)
            ),
            default=0.0,
        )

    catalog = build()
    stats = catalog.relations["rr"].equality[("j", "f")]
    # 60 tracked values in max(4, ceil(60 / 8)) groups
    ok = len(stats.representatives) == 8 < len(members) == 60
    for v in members:
        # each tracked value maps through the key index to its own group
        group = stats.keys.get(v)
        if group is None or condition_sequence(
            catalog, "rr", "j", Eq("f", v)
        ) is not stats.representatives[group]:
            ok = False
    worst_gap = max(dominance_gap(catalog, v) for v in members)
    # with 20 tracked values, the other 40 and an absent one take the default
    small = build(mcv_size=20)
    small_stats = small.relations["rr"].equality[("j", "f")]
    tail = [v for v in members if v not in small_stats.keys]
    ok = ok and len(small_stats.keys) == 20 and len(tail) == len(members) - 20
    worst_tail_gap = max(dominance_gap(small, v) for v in members + [61.0])
    ok = ok and worst_gap <= 0.0 and worst_tail_gap <= 0.0
    report(
        10,
        "clustering and exact index soundness",
        ok,
        "%d members in %d groups, worst dominance gap %.3g; %d tail values, worst gap %.3g"
        % (len(members), len(stats.representatives), worst_gap, len(tail), worst_tail_gap),
    )


def test_criterion_11_persistence_determinism(tmp_path):
    rng = random.Random(3)
    relations, roles, pkfk = generate_database(rng)
    catalog = build_catalog(relations, roles, pkfk)
    queries = []
    qrng = random.Random(31)
    shapes = ["acyclic"] * 40 + ["cyclic"] * 5 + ["multicol"] * 5
    for shape in shapes:
        try:
            _, query = generate_query(qrng, relations, roles, shape)
        except GenerationImpossible:
            _, query = generate_query(qrng, relations, roles, "acyclic")
        queries.append(query)
    before = [bound_query(catalog, q) for q in queries]
    p1, p2, p3 = (str(tmp_path / name) for name in ("a.cat", "b.cat", "c.cat"))
    save_catalog(catalog, p1)
    save_catalog(catalog, p2)
    raw = open(p1, "rb").read()
    loaded = load_catalog(p1)
    save_catalog(loaded, p3)
    after = [bound_query(loaded, q) for q in queries]
    identical = sum(1 for a, b in zip(before, after) if a == b)
    ok = (
        identical == len(queries)
        and raw == open(p2, "rb").read()
        and raw == open(p3, "rb").read()
    )
    report(
        11,
        "persistence determinism",
        ok,
        "%d/%d estimates identical after reload, duplicate saves byte-identical"
        % (identical, len(queries)),
    )
