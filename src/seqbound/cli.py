"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 configuration or I/O
problems, 3 unsupported or malformed queries.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog_io import CatalogFormatError, load_catalog, save_catalog
from .inference import bound_query
from .oracle import corrupt_catalog, run_soundness_suite
from .query import QueryError, parse_query
from .relation import ConfigError, load_workspace
from .stats import FAMILIES, StatsBuildError, build_catalog, make_build_params

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_QUERY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqbound",
        description="Upper-bound cardinality estimates from degree sequence statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a statistics catalog from a schema")
    p.add_argument("--schema", required=True, help="schema description (JSON)")
    p.add_argument("--out", required=True, help="output catalog path")

    p = sub.add_parser("estimate", help="bound a COUNT(*) query against a catalog")
    p.add_argument("--catalog", required=True, help="catalog path")
    p.add_argument("--query", required=True, help="SQL text, or @file to read it from a file")
    p.add_argument("--trace", action="store_true", help="print evaluation steps")
    p.add_argument("--json", action="store_true", dest="as_json", help="emit a JSON object")

    p = sub.add_parser("verify", help="randomized soundness check against brute force")
    p.add_argument("--schema", default=None, help="schema to verify (random workspaces when omitted)")
    p.add_argument("--trials", type=int, default=100, help="number of acyclic trials")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: shrink all profiles and demand that violations appear",
    )

    p = sub.add_parser("inspect", help="describe a catalog")
    p.add_argument("--catalog", required=True, help="catalog path")
    return parser


def _load_schema(path: str):
    """A schema's workspace and build parameters (from its params only)."""
    workspace = load_workspace(path)
    params = make_build_params(workspace.params)
    for warning in workspace.load_warnings:
        print("warning: %s" % warning, file=sys.stderr)
    return workspace, params


def _cmd_build(args: argparse.Namespace) -> int:
    workspace, params = _load_schema(args.schema)
    catalog = build_catalog(workspace.relations, workspace.roles, workspace.pkfk, params)
    n_profiles = save_catalog(catalog, args.out)
    print(
        "built catalog for %d relation(s), %d stored profile(s) -> %s"
        % (len(catalog.relations), n_profiles, args.out)
    )
    return EXIT_OK


def _read_query_arg(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _cmd_estimate(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    schema = {
        name: dict(rs.column_kinds) for name, rs in catalog.relations.items()
    }
    sql = _read_query_arg(args.query)
    query = parse_query(sql, schema)
    result = bound_query(catalog, query)
    if args.as_json:
        print(
            json.dumps(
                {
                    "bound": result.bound,
                    "value": result.value,
                    "strategy": result.strategy,
                    "notes": list(result.notes),
                    "steps": list(result.steps) if args.trace else [],
                },
                sort_keys=True,
            )
        )
        return EXIT_OK
    if args.trace:
        for note in result.notes:
            print("# %s" % note)
        for step in result.steps:
            print("# %s" % step)
    print(result.bound)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    workspace = params = None
    if args.schema is not None:
        ws, params = _load_schema(args.schema)
        workspace = (ws.relations, ws.roles, ws.pkfk)
    n_extra = max(1, args.trials // 10)
    mutate = (lambda c: corrupt_catalog(c, 0.5)) if args.corrupt else None
    records, summary = run_soundness_suite(
        n_acyclic=args.trials,
        n_cyclic=n_extra,
        n_multicol=n_extra,
        seed=args.seed,
        params=params,
        workspace=workspace,
        catalog_mutator=mutate,
    )
    print(
        "trials=%d violations=%d ratio_p50=%.3g ratio_p90=%.3g ratio_p99=%.3g median_ms=%.3g"
        % (
            summary["trials"],
            summary["violations"],
            summary["ratio_p50"],
            summary["ratio_p90"],
            summary["ratio_p99"],
            summary["median_ms"],
        )
    )
    if args.corrupt:
        if summary["violations"] > 0:
            print("negative control: corruption detected as expected")
            return EXIT_OK
        print("negative control FAILED: corrupted catalog produced no violations")
        return EXIT_VERIFY_FAILED
    for record in records:
        if not record["ok"]:
            print(
                "VIOLATION bound=%d true=%d %s" % (record["bound"], record["true"], record["sql"])
            )
    return EXIT_OK if summary["violations"] == 0 else EXIT_VERIFY_FAILED


def _cmd_inspect(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    params = catalog.params
    print("params: budget=%g mcv=%d" % (params.compression_budget, params.mcv_size))
    for name in sorted(catalog.relations):
        rs = catalog.relations[name]
        print("relation %s: %d rows" % (name, rs.cardinality))
        for col in sorted(rs.column_kinds):
            tags = []
            if col in rs.join_columns:
                tags.append("join")
            if col in rs.filter_columns:
                tags.append("filter")
            fn = rs.fallback[col]
            print(
                "  column %s (%s%s): %d segment(s), mass %g"
                % (
                    col,
                    rs.column_kinds[col],
                    ", " + "+".join(tags) if tags else "",
                    len(fn.knots) - 1,
                    fn.total,
                )
            )
        for family in FAMILIES:
            for (join_col, filter_col), st in sorted(getattr(rs, family).items()):
                print(
                    "  %s stats %s|%s: %d group(s), %d key(s), %d level(s)"
                    % (
                        family,
                        join_col,
                        filter_col,
                        len(st.representatives),
                        len(st.keys),
                        len(st.levels),
                    )
                )
    for edge in catalog.pkfk:
        print(
            "key link: %s.%s -> %s.%s (%d propagated column(s))"
            % (edge.fact, edge.fk, edge.dim, edge.pk, len(edge.propagated))
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "estimate": _cmd_estimate,
        "verify": _cmd_verify,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except QueryError as exc:
        print("query error: %s" % exc, file=sys.stderr)
        return EXIT_QUERY
    except (ConfigError, CatalogFormatError, StatsBuildError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
