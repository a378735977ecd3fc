"""seqbound: sound upper bounds for COUNT(*) join queries.

The package builds compact statistics (compressed cumulative degree
profiles, grouped per column pair, with exact key indexes and histograms
for predicate conditioning) from relational data, and evaluates conjunctive
equi-join queries against them to produce cardinality estimates that
never undershoot the true count.
"""

from .catalog_io import CatalogFormatError, load_catalog, save_catalog
from .compress import is_valid_compression, self_join_bound, valid_compress
from .inference import BoundResult, bound_query, condition_sequence
from .pwfn import (
    DegreeSequence,
    InconsistentStatisticsError,
    PiecewiseConstantFn,
    PiecewiseLinearFn,
)
from .query import (
    Query,
    QueryError,
    QueryParseError,
    UnsupportedQueryError,
    parse_query,
    print_query,
)
from .relation import (
    Column,
    ColumnRole,
    ConfigError,
    PkFkDeclaration,
    Relation,
    load_workspace,
)
from .stats import BuildParams, StatisticsCatalog, StatsBuildError, build_catalog, make_build_params

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BuildParams",
    "CatalogFormatError",
    "Column",
    "ColumnRole",
    "ConfigError",
    "DegreeSequence",
    "InconsistentStatisticsError",
    "PiecewiseConstantFn",
    "PiecewiseLinearFn",
    "PkFkDeclaration",
    "Query",
    "QueryError",
    "QueryParseError",
    "Relation",
    "StatisticsCatalog",
    "StatsBuildError",
    "UnsupportedQueryError",
    "bound_query",
    "build_catalog",
    "condition_sequence",
    "is_valid_compression",
    "load_catalog",
    "load_workspace",
    "make_build_params",
    "parse_query",
    "print_query",
    "save_catalog",
    "self_join_bound",
    "valid_compress",
    "__version__",
]
