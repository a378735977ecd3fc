"""In-memory spans at the program's layer boundaries, without editing it.

:meth:`Tracer.install` replaces each traced function under the name its
callers look it up by (``seqbound.inference.pw_multiply`` is the name
``bound_query`` calls, ``seqbound.stats.pw_max`` the one the catalog
builder calls), and :meth:`Tracer.uninstall` puts the originals back.
Every call records a span (name, start, end, parent) and adds to per-name
totals; a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

PWFN_QUERY_OPS = (
    "pw_min", "pw_max", "pw_sum", "pw_multiply", "compose_ranks",
    "discrete_derivative", "cumulate", "truncate_cumulative", "restrict_domain",
)


def _count_clusters(counts: Counter, args: tuple, result) -> None:
    counts["stats.clustered_members"] += len(args[0])
    counts["stats.groups"] += len(result)


def _count_steps(counts: Counter, args: tuple, result) -> None:
    counts["query.plan_steps"] += len(result.steps)


def _count_claims(counts: Counter, args: tuple, result) -> None:
    counts["bloom.claims"] += bool(result)


# (owner, attribute, span name, counter hook)
WRAPS = (
    ("seqbound", "load_workspace", "relation.load_workspace", None),
    ("seqbound", "build_catalog", "stats.build_catalog", None),
    ("seqbound", "save_catalog", "catalog_io.save", None),
    ("seqbound", "load_catalog", "catalog_io.load", None),
    ("seqbound", "parse_query", "query.parse", None),
    ("seqbound", "bound_query", "inference.bound_query", None),
    ("seqbound.stats", "precompute_pk_fk", "stats.precompute_pk_fk", None),
    ("seqbound.stats", "build_equality_stats", "stats.equality_family", None),
    ("seqbound.stats", "build_range_stats", "stats.range_family", None),
    ("seqbound.stats", "build_like_stats", "stats.like_family", None),
    ("seqbound.stats", "extract_degree_sequence", "stats.extract_degree_sequence", None),
    ("seqbound.stats", "cluster_sequence_groups", "stats.cluster", _count_clusters),
    ("seqbound.stats", "valid_compress", "compress.valid_compress", None),
    ("seqbound.stats", "is_valid_compression", "compress.audit", None),
    ("seqbound.stats", "pw_max", "pwfn.pw_max_build", None),
    ("seqbound.stats", "sample_integer_ranks", "pwfn.sample_integer_ranks", None),
    ("seqbound.compress", "sample_integer_ranks", "pwfn.sample_integer_ranks", None),
    ("seqbound.bloom:BloomFilter", "__contains__", "bloom.probe", _count_claims),
    ("seqbound.inference", "condition_sequence", "inference.condition", None),
    ("seqbound.inference", "lookup_range_group", "inference.lookup_range_group", None),
    ("seqbound.inference", "plan_bound", "inference.plan_bound", None),
    ("seqbound.inference", "fuse_parallel_joins", "query.fuse", None),
    ("seqbound.inference", "join_graph", "query.join_graph", None),
    ("seqbound.query", "join_graph", "query.join_graph", None),
    ("seqbound.inference", "spanning_trees", "query.spanning_trees", None),
    ("seqbound.inference", "decompose", "query.decompose", _count_steps),
) + tuple(("seqbound.inference", op, "pwfn." + op, None) for op in PWFN_QUERY_OPS)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.keep_spans = True
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index or -1, child seconds]
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [-1, 0.0]
            if tracer.keep_spans:
                frame[0] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if frame[0] >= 0:
                    tracer.spans[frame[0]] = (name, t0, t1, parent)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for owner_path, attr, name, hook in WRAPS:
            owner = _owner(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append("%s.%s" % (owner_path, attr))
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end (perf_counter seconds),
        index of the parent span or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
