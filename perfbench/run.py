#!/usr/bin/env python3
"""Seeded benchmark for seqbound: catalog build, star-schema estimates and
deep plans, checked against independently computed true counts.

    python3 perfbench/run.py --workload star-estimate --seed 1 --seconds 10 --trace 0

Workloads (see README.md in this directory):

* ``star-build``: load, build, save and reload a 10^5-row star schema; the
  build runs in a child process that only loads and builds, which also
  gives the peak RSS.  The reloaded catalog then replays the star query
  list for ``--seconds``, as a soundness check of the persisted catalog.
* ``star-estimate``: build, save and reload a 10^4-row star schema, then
  replay a list of 1-4-relation queries for ``--seconds``.
* ``deep-estimate``: the same over ladder relations (56 ranks), replaying
  4-6-relation chains, 3-5-cycles and fused two-column joins.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``bench_trace`` with ``--trace 1``.
The program is imported from ``src/`` of the checkout this file sits in,
and is driven only through its package-level API.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

from bench_data import Dataset, ladder_dataset, star_dataset  # noqa: E402
from bench_queries import deep_queries, star_queries  # noqa: E402
from bench_trace import PWFN_QUERY_OPS, Tracer  # noqa: E402
from bench_truth import PATHS, PathClassifier, true_count  # noqa: E402

WORKLOADS = ("star-build", "star-estimate", "deep-estimate")
REQUIRED_PATHS = {
    "star-build": (),
    "star-estimate": tuple(p for p in PATHS if p not in ("cyclic", "fused")),
    "deep-estimate": ("cyclic", "fused"),
}
# Set-up samples are spread over the run, between parts of the query window:
# on a shared machine some stretches of seconds to minutes run up to 1.6x
# slower than others, and samples taken back to back all land in one.
ROUNDS = 4  # set-ups (build, save, reload) per estimate run
STAR_BUILD_ROUNDS = 2  # builds of the 10^5-row schema per star-build run
CSV_LOADS = 2  # workspace loads before each star-build build
LOADS_PER_ROUND = 6  # timed catalog loads per round
MIN_SAMPLES = 1500  # timed estimates per run, so p99 has 15 samples beyond it
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("build_s", "s"),
    ("build_peak_rss_mb", "MB"),
    ("catalog_bytes", "bytes"),
    ("estimate_p50_ms", "ms"),
    ("estimate_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("bound_ratio_p50", "x"),
    ("bound_ratio_p90", "x"),
)

# Build-side spans, reported per build_catalog call.
BUILD_SPANS = (
    ("stats.precompute_pk_fk", "stats.precompute_pk_fk_s"),
    ("stats.equality_family", "stats.equality_family_s"),
    ("stats.range_family", "stats.range_family_s"),
    ("stats.like_family", "stats.like_family_s"),
    ("stats.extract_degree_sequence", "stats.extract_degree_sequence_s"),
    ("stats.cluster", "stats.cluster_s"),
    ("compress.valid_compress", "compress.valid_compress_s"),
    ("compress.audit", "compress.audit_s"),
    ("pwfn.pw_max_build", "pwfn.pw_max_build_s"),
    ("pwfn.sample_integer_ranks", "pwfn.sample_integer_ranks_s"),
)
BUILD_COUNTS = ("stats.profiles_extracted", "stats.clustered_members", "stats.groups")
# Query-side spans, reported per pass over the query list.
QUERY_SPANS = (
    ("bloom.probe", "bloom.probe_s"),
    ("query.parse", "query.parse_s"),
    ("query.fuse", "query.fuse_s"),
    ("query.join_graph", "query.join_graph_s"),
    ("query.spanning_trees", "query.spanning_trees_s"),
    ("query.decompose", "query.decompose_s"),
    ("inference.bound_query", "inference.bound_query_s"),
    ("inference.condition", "inference.condition_s"),
    ("inference.lookup_range_group", "inference.lookup_range_group_s"),
    ("inference.plan_bound", "inference.plan_bound_s"),
) + tuple(("pwfn." + op, "pwfn.%s_s" % op) for op in PWFN_QUERY_OPS)
QUERY_COUNTS = (
    ("bloom.probes", "count"),
    ("bloom.claims", "count"),
    ("query.trees_evaluated", "count"),
    ("query.plan_steps", "count"),
) + tuple(("pwfn.%s_calls" % op, "count") for op in PWFN_QUERY_OPS)

PER_LAYER = (
    ("relation.load_workspace_s", "s"),
    *((m, "s") for _, m in BUILD_SPANS),
    *((m, "count") for m in BUILD_COUNTS),
    ("compress.segments_stored", "count"),
    ("catalog_io.save_s", "s"),
    ("catalog_io.load_s", "s"),
    *((m, "s") for _, m in QUERY_SPANS),
    ("inference.other_s", "s"),
    *QUERY_COUNTS,
    *(("path." + p, "count") for p in PATHS),
)


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import seqbound

    if not os.path.abspath(seqbound.__file__).startswith(src + os.sep):
        raise ImportError("seqbound was imported from %s, not from %s" % (seqbound.__file__, src))
    return seqbound


def build_here(api, schema_path: str, catalog_path: str | None, loads: int) -> dict:
    """Load the workspace ``loads`` times, build once, save; wall times."""
    load_s = []
    for _ in range(loads):
        t0 = perf_counter()
        ws = api.load_workspace(schema_path)
        load_s.append(perf_counter() - t0)
    params = api.BuildParams(**ws.params)
    t0 = perf_counter()
    catalog = api.build_catalog(ws.relations, ws.roles, ws.pkfk, params)
    build_s = perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if catalog_path:
        api.save_catalog(catalog, catalog_path)
    return {"load_s": load_s, "build_s": build_s, "rss_mb": rss_mb}


def build_in_child(schema_path: str, catalog_path: str | None, loads: int) -> dict:
    """``build_here`` in a fresh process, whose peak RSS is the build's."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child-build", schema_path,
           "--loads", str(loads)]
    if catalog_path:
        cmd += ["--catalog", catalog_path]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("build process failed:\n" + done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_estimates(api, catalog, schema, sqls, truths, closed_forms, latencies=None):
    """Parse and bound each query once, in order.  Returns the bounds (None
    where the query raised) and the failures as (sql, reason)."""
    bounds: list = []
    failures: list = []
    for sql, truth, closed in zip(sqls, truths, closed_forms):
        t0 = perf_counter()
        try:
            bound = api.bound_query(catalog, api.parse_query(sql, schema)).bound
        except Exception as exc:  # a query that raises is a failed operation
            bounds.append(None)
            failures.append((sql, "raised %s: %s" % (type(exc).__name__, exc)))
            continue
        if latencies is not None:
            latencies.append(perf_counter() - t0)
        bounds.append(bound)
        if bound < truth:
            failures.append((sql, "bound %d below true count %d" % (bound, truth)))
        elif closed is not None and bound != closed:
            failures.append((sql, "bound %d differs from closed form %d" % (bound, closed)))
    return bounds, failures


def exact_cumulative(values: np.ndarray) -> np.ndarray:
    """Cumulative degree sequence at ranks 0..d, nulls dropped."""
    if values.dtype != object:
        values = values[~np.isnan(values)]
    _, counts = np.unique(values, return_counts=True)
    return np.concatenate(([0], np.cumsum(np.sort(counts)[::-1])))


def fallback_failures(ds: Dataset, catalog) -> list[str]:
    """Every stored whole-column profile must dominate the exact cumulative
    degree sequence at each integer rank and carry the non-null row count.
    Columns a PK-FK link pushed onto a fact table (``__dim__col``) are
    derived here from the fact's foreign keys."""
    bad = []
    for name, rel in catalog.relations.items():
        table = ds.tables[name]
        for col, fn in rel.fallback.items():
            if col in table.columns:
                values = table.columns[col]
            else:
                dim_name, dim_col = col.strip("_").split("__")
                fk, pk = next((fk, pk) for f, fk, d, pk in ds.pk_fk if (f, d) == (name, dim_name))
                dim = ds.tables[dim_name].columns
                order = np.argsort(dim[pk])
                rows = order[np.searchsorted(dim[pk][order], table.columns[fk])]
                values = dim[dim_col][rows]
            exact = exact_cumulative(values)
            ranks = np.arange(exact.size, dtype=np.float64)
            stored = np.interp(ranks, fn.knots, fn.values)
            if np.any(stored + 1e-9 * np.maximum(1.0, exact) < exact):
                bad.append("%s.%s: stored profile falls below the exact one" % (name, col))
            if abs(fn.values[-1] - exact[-1]) > 1e-9 * max(1.0, exact[-1]):
                bad.append("%s.%s: total %r, expected %d rows" % (name, col, fn.values[-1], exact[-1]))
    return bad


def stored_segments(obj, fn_type) -> int:
    """Segments of every cumulative profile reachable from the catalog."""
    if isinstance(obj, fn_type):
        return len(obj.knots) - 1
    if dataclasses.is_dataclass(obj):
        return sum(stored_segments(getattr(obj, f.name), fn_type) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return sum(stored_segments(v, fn_type) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(stored_segments(v, fn_type) for v in obj)
    return 0


def quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


class Bench:
    def __init__(self, api, args, tracer: Tracer | None):
        self.api = api
        self.args = args
        self.tracer = tracer
        self.work = os.path.join(OUT, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        self.catalog_path = os.path.join(self.work, "catalog.bin")
        self.attempted = 0
        self.failures: list = []
        self.correct = True
        self.notes: list[str] = []
        self.m: dict[str, float] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.latencies: list[float] = []
        self.query_wall = 0.0
        self.passes = 0
        self.segments = 0
        self.coverage: Counter = Counter()

    # ------------------------------------------------------------ inputs

    def prepare(self, ds: Dataset, queries) -> None:
        self.ds = ds
        self.schema_path = ds.write(self.work)
        self.schema = ds.schema()
        queries = [queries[i] for i in np.random.default_rng(self.args.seed).permutation(len(queries))]
        self.sqls = [q.sql() for q in queries]
        cache: dict = {}
        self.truths = [true_count(ds, q, cache) for q in queries]
        self.closed = [q.closed_form for q in queries]
        for q, truth in zip(queries, self.truths):
            if q.closed_form is not None and truth != q.closed_form:
                self.fail_check("true count %d of %s differs from its closed form %d"
                                % (truth, q.sql(), q.closed_form))
        classifier = PathClassifier(ds)
        for q in queries:
            self.coverage.update(classifier.query(q))
        for path in REQUIRED_PATHS[self.args.workload]:
            if not self.coverage[path]:
                self.fail_check("no query reaches path.%s" % path)

    def fail_check(self, message: str) -> None:
        """A fault of the benchmark itself, not of an operation."""
        self.correct = False
        self.notes.append(message)

    # ----------------------------------------------------------- phases

    def catalog_checks(self, catalog):
        """Catalog bytes, round-trip identity and, on star-build, the stored
        whole-column profiles; one operation."""
        api = self.api
        self.m["catalog_bytes"] = float(os.path.getsize(self.catalog_path))
        again = self.catalog_path + ".again"
        api.save_catalog(catalog, again)
        problems = []
        with open(self.catalog_path, "rb") as a, open(again, "rb") as b:
            if a.read() != b.read():
                problems.append("save, load and save again changed the catalog file")
        if self.args.workload == "star-build":
            problems += fallback_failures(self.ds, catalog)
        self.attempted += 1
        self.failures += [("catalog", p) for p in problems]
        self.segments = stored_segments(catalog, api.PiecewiseLinearFn)

    def rounds(self, count: int, measure) -> None:
        """``count`` rounds, each a set-up measurement (``measure(k)``
        returns the catalog), LOADS_PER_ROUND timed catalog loads and an
        equal share of the ``--seconds`` window of timed query passes, so
        every metric samples the whole run.  The first round also checks
        the catalog and runs the warm-up pass."""
        share = self.args.seconds / count
        for k in range(count):
            catalog = measure(k)
            for _ in range(LOADS_PER_ROUND):
                self.time_load()
            if k == 0:
                self.catalog_checks(catalog)
                self.warm_up(catalog)
            until = perf_counter() + share
            while perf_counter() < until or (k == count - 1 and len(self.latencies) < MIN_SAMPLES):
                self.timed_pass(catalog)

    def warm_up(self, catalog) -> None:
        """One untimed pass; its bounds give the bound/true quantiles."""
        bounds, failures = check_estimates(
            self.api, catalog, self.schema, self.sqls, self.truths, self.closed)
        self.note_pass(failures)
        if self.tracer:
            self.tracer.keep_spans = False
        ratios = [b / t for b, t in zip(bounds, self.truths) if b is not None and t > 0]
        self.m["bound_ratio_p50"] = quantile(ratios, 0.5)
        self.m["bound_ratio_p90"] = quantile(ratios, 0.9)

    def timed_pass(self, catalog) -> None:
        """One timed pass over the query list, then one timed catalog load,
        so load samples cover the whole run."""
        t0 = perf_counter()
        _, failures = check_estimates(
            self.api, catalog, self.schema, self.sqls, self.truths, self.closed, self.latencies)
        self.query_wall += perf_counter() - t0
        self.note_pass(failures)
        self.time_load()

    def time_load(self) -> None:
        t0 = perf_counter()
        self.api.load_catalog(self.catalog_path)
        self.samples["catalog_load_ms"].append(1000.0 * (perf_counter() - t0))

    def note_pass(self, failures) -> None:
        self.passes += 1
        self.attempted += len(self.sqls)
        self.failures += failures

    # -------------------------------------------------------- workloads

    def star_build(self) -> None:
        ds = star_dataset(self.args.seed, "star-build")
        self.prepare(ds, star_queries(ds))

        def build(k: int):
            path = self.catalog_path if k == 0 else "%s.%d" % (self.catalog_path, k)
            if self.tracer:
                done = build_here(self.api, self.schema_path, path, CSV_LOADS)
            else:
                done = build_in_child(self.schema_path, path, CSV_LOADS)
            self.samples["setup_s"] += done["load_s"]
            self.samples["build_s"].append(done["build_s"])
            self.samples["build_peak_rss_mb"].append(done["rss_mb"])
            if k:
                self.attempted += 1
                with open(self.catalog_path, "rb") as a, open(path, "rb") as b:
                    if a.read() != b.read():
                        self.failures.append(("catalog", "two builds gave different catalogs"))
            return self.api.load_catalog(path)

        self.rounds(STAR_BUILD_ROUNDS, build)

    def estimate_workload(self, ds: Dataset, queries) -> None:
        self.prepare(ds, queries)
        api = self.api
        if not self.tracer:
            self.samples["build_peak_rss_mb"].append(build_in_child(self.schema_path, None, 1)["rss_mb"])
        ws = api.load_workspace(self.schema_path)
        params = api.BuildParams(**ws.params)

        def setup(k: int):
            t0 = perf_counter()
            catalog = api.build_catalog(ws.relations, ws.roles, ws.pkfk, params)
            t1 = perf_counter()
            api.save_catalog(catalog, self.catalog_path)
            t2 = perf_counter()
            catalog = api.load_catalog(self.catalog_path)
            t3 = perf_counter()
            self.samples["setup_s"].append(t3 - t0)
            self.samples["build_s"].append(t1 - t0)
            self.samples["catalog_load_ms"].append(1000.0 * (t3 - t2))
            return catalog

        self.rounds(ROUNDS, setup)

    def star_estimate(self) -> None:
        ds = star_dataset(self.args.seed, "star-estimate")
        self.estimate_workload(ds, star_queries(ds))

    def deep_estimate(self) -> None:
        ds = ladder_dataset(self.args.seed)
        self.estimate_workload(ds, deep_queries(ds))

    # ----------------------------------------------------------- report

    def end_to_end(self) -> dict:
        for name, values in self.samples.items():
            self.m[name] = statistics.median(values)
        self.m["estimate_p50_ms"] = 1000.0 * quantile(self.latencies, 0.5)
        self.m["estimate_p99_ms"] = 1000.0 * quantile(self.latencies, 0.99)
        self.m["queries_per_s"] = len(self.latencies) / self.query_wall
        return {name: {"value": self.m[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        tr = self.tracer
        per_build = max(1, tr.calls["stats.build_catalog"])
        per_pass = max(1, self.passes)

        def mean(name: str) -> float:
            return tr.total[name] / max(1, tr.calls[name])

        values = {
            "relation.load_workspace_s": mean("relation.load_workspace"),
            "stats.profiles_extracted": tr.calls["stats.extract_degree_sequence"] / per_build,
            "stats.clustered_members": tr.counts["stats.clustered_members"] / per_build,
            "stats.groups": tr.counts["stats.groups"] / per_build,
            "compress.segments_stored": float(self.segments),
            "catalog_io.save_s": mean("catalog_io.save"),
            "catalog_io.load_s": mean("catalog_io.load"),
            "inference.other_s": tr.self_time["inference.bound_query"] / per_pass,
            "bloom.probes": tr.calls["bloom.probe"] / per_pass,
            "bloom.claims": tr.counts["bloom.claims"] / per_pass,
            "query.trees_evaluated": tr.calls["inference.plan_bound"] / per_pass,
            "query.plan_steps": tr.counts["query.plan_steps"] / per_pass,
        }
        for span, metric in BUILD_SPANS:
            values[metric] = tr.total[span] / per_build
        for span, metric in QUERY_SPANS:
            values[metric] = tr.total[span] / per_pass
        for op in PWFN_QUERY_OPS:
            values["pwfn.%s_calls" % op] = tr.calls["pwfn." + op] / per_pass
        for p in PATHS:
            values["path." + p] = float(self.coverage[p])
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run(args) -> dict:
    api = import_program()
    tracer = Tracer() if args.trace else None
    bench = Bench(api, args, tracer)
    os.makedirs(bench.work, exist_ok=True)
    if tracer:
        tracer.install()
    try:
        getattr(bench, args.workload.replace("-", "_"))()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(bench.work, ignore_errors=True)
    loads = bench.samples["catalog_load_ms"]
    bench.notes.append("%d timed estimates in %.2f s of query passes; build_catalog median %.3f s over %d builds; "
                       "load_catalog median %.2f ms, 10th percentile %.2f ms over %d loads"
                       % (len(bench.latencies), bench.query_wall,
                          statistics.median(bench.samples["build_s"]), len(bench.samples["build_s"]),
                          statistics.median(loads), quantile(loads, 0.1), len(loads)))
    metrics = bench.per_layer() if tracer else bench.end_to_end()
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if tracer:
        tracer.write_spans(stem + "-spans.jsonl")
        if tracer.missing:
            bench.notes.append("not traced (absent): " + ", ".join(tracer.missing))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            dict(result, notes=bench.notes, failures=bench.failures[:200],
                 python=platform.python_version(), numpy=np.__version__,
                 machine=platform.machine(), cpus=os.cpu_count()),
            fh, indent=1,
        )
    for note in bench.notes:
        print("# " + note)
    for sql, reason in bench.failures[:20]:
        print("# FAILED %s: %s" % (reason, sql))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child-build", metavar="SCHEMA", help=argparse.SUPPRESS)
    ap.add_argument("--catalog", help=argparse.SUPPRESS)
    ap.add_argument("--loads", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child_build:
        print(json.dumps(build_here(import_program(), args.child_build, args.catalog, args.loads)))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
