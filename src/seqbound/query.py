"""Query model: a COUNT(*) join-query AST, its SQL reader and writer, and
the structural analyses the bound engine runs on it.

Supported queries are conjunctive equi-joins with per-relation filter
predicates::

    SELECT COUNT(*) FROM r AS t0, s AS t1
    WHERE t0.a = t1.b AND t0.x BETWEEN 2 AND 9 AND (t1.y = 3 OR t1.y = 5)

Join conditions connect columns of two relations; predicates combine
equality, range, LIKE and IN tests (an IN list is an OR of equalities)
with AND/OR, each predicate tree on a single relation.  Anything else
(negation, non-equality joins, joins under OR, subqueries) is unsupported.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "QueryError",
    "QueryParseError",
    "UnsupportedQueryError",
    "Eq",
    "Range",
    "Like",
    "And",
    "Or",
    "Atom",
    "Query",
    "JoinGraph",
    "MergeStep",
    "JoinStep",
    "BoundPlan",
    "parse_query",
    "print_query",
    "join_graph",
    "decompose",
    "spanning_trees",
    "fuse_parallel_joins",
    "like_parts",
    "like_matches",
    "predicate_matches",
]


class QueryError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = "%s (at byte %d)" % (message, position)
        super().__init__(message)


class QueryParseError(QueryError):
    """The text is not a well-formed query."""


class UnsupportedQueryError(QueryError):
    """The query is well-formed but outside the supported fragment."""


# ------------------------------------------------------------------ AST

@dataclass(frozen=True)
class Eq:
    column: str
    value: float | str


@dataclass(frozen=True)
class Range:
    column: str
    lo: float | None
    hi: float | None
    lo_incl: bool = True
    hi_incl: bool = True


@dataclass(frozen=True)
class Like:
    column: str
    pattern: str


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


Predicate = Eq | Range | Like | And | Or


@dataclass(frozen=True)
class Atom:
    """One relation occurrence; var_columns maps each join variable to the
    column(s) of this occurrence bound to it (multiple after fusing
    parallel join edges)."""

    alias: str
    relation: str
    var_columns: tuple[tuple[str, tuple[str, ...]], ...]

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.var_columns)

    def columns_for(self, var: str) -> tuple[str, ...]:
        for v, cols in self.var_columns:
            if v == var:
                return cols
        raise KeyError(var)


@dataclass
class Query:
    atoms: tuple[Atom, ...]
    predicates: dict[str, Predicate] = field(default_factory=dict)


def like_parts(pattern: str) -> tuple[bool, str, bool]:
    """A LIKE pattern read as (leading ``%``, literal, trailing ``%``)."""
    lead = pattern.startswith("%")
    trail = len(pattern) > 1 and pattern.endswith("%")
    return lead, pattern[lead : len(pattern) - trail], trail


def like_matches(value: str | None, pattern: str) -> bool:
    """Case-insensitive LIKE with at most a leading and a trailing ``%``."""
    if value is None:
        return False
    val = value.lower()
    lead, lit, trail = like_parts(pattern)
    lit = lit.lower()
    if lead and trail:
        return lit in val
    if lead:
        return val.endswith(lit)
    if trail:
        return val.startswith(lit)
    return val == lit


def predicate_matches(node: Predicate, get: Callable[[str], float | str | None]) -> bool:
    """Evaluate a predicate tree against one row; nulls never match."""
    if isinstance(node, Eq):
        v = get(node.column)
        return v is not None and v == node.value
    if isinstance(node, Range):
        v = get(node.column)
        if v is None:
            return False
        if node.lo is not None and (v < node.lo or (v == node.lo and not node.lo_incl)):
            return False
        if node.hi is not None and (v > node.hi or (v == node.hi and not node.hi_incl)):
            return False
        return True
    if isinstance(node, Like):
        v = get(node.column)
        return isinstance(v, str) and like_matches(v, node.pattern)
    if isinstance(node, And):
        return all(predicate_matches(c, get) for c in node.children)
    if isinstance(node, Or):
        return any(predicate_matches(c, get) for c in node.children)
    raise TypeError("unknown predicate node %r" % (node,))


# ------------------------------------------------------------ tokenizer

# Each match is the blanks before one token and the token; a character no
# token kind accepts falls to the last group.
_TOKEN_RE = re.compile(
    r"""(\s*)
      (?: (-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
        | ('(?:[^']|'')*')
        | ([A-Za-z_][A-Za-z0-9_]*)
        | (<=|>=|<>|!=|=|<|>|\(|\)|,|\.|\*|%)
        | (\S) )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "COUNT", "FROM", "WHERE", "AND", "OR", "BETWEEN",
    "LIKE", "IN", "AS", "NOT", "NULL", "IS",
}

# A token is findall's tuple (blanks, number, string, ident, op, bad), in
# which exactly one of the last five groups is non-empty; the tuple of
# empty groups ends the list.  A token's byte position is only worked out
# for an error message.
_EOF = ("", "", "", "", "", "")
_bad = operator.itemgetter(5)
_COMPARISONS = ("=", "<", "<=", ">", ">=")
# Deepest parenthesis nesting a predicate may use: the parser, and every
# walk of a predicate tree, recurses at most once per level.
MAX_NESTING = 100
# Most spanning trees of a cyclic query that the bound is minimised over.
SPANNING_TREE_CAP = 64


def _tokenize(text: str) -> list[tuple[str, ...]]:
    tokens = _TOKEN_RE.findall(text)
    if any(map(_bad, tokens)):
        i = next(i for i, tok in enumerate(tokens) if tok[5])
        raise QueryParseError("unexpected character %r" % tokens[i][5], _offset(text, tokens, i))
    tokens.append(_EOF)
    return tokens


def _offset(text: str, tokens: list[tuple[str, ...]], i: int) -> int:
    """Byte position of token ``i``: past every earlier token and its own
    blanks; the end token sits at the end of the text."""
    if tokens[i] is _EOF:
        return len(text)
    return sum(len("".join(tok)) for tok in tokens[:i]) + len(tokens[i][0])


def _ident(tok: tuple[str, ...]) -> str:
    """The token's identifier, or "" for a keyword or another kind."""
    word = tok[3]
    return word if word and word.upper() not in _KEYWORDS else ""


def _text(tok: tuple[str, ...]) -> str:
    """The token as error messages quote it: keywords upper-cased."""
    _, number, string, ident, op, _ = tok
    if ident:
        word = ident.upper()
        return word if word in _KEYWORDS else ident
    return number or string or op


# ------------------------------------------------------ raw parse nodes
# ``tok`` is the index of the node's first token.

@dataclass(frozen=True)
class _ColRef:
    alias: str
    column: str
    tok: int


@dataclass(frozen=True)
class _RawJoin:
    left: _ColRef
    right: _ColRef
    tok: int


class _Parser:
    def __init__(self, text: str, schema: dict[str, dict[str, str]]):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.aliases: dict[str, str] = {}

    # --- token plumbing

    def pos(self, i: int) -> int:
        return _offset(self.text, self.tokens, i)

    def next(self) -> tuple[str, ...]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_kw(self, kw: str) -> None:
        tok = self.next()
        if tok[3].upper() != kw:
            raise QueryParseError(
                "expected %s, got %r" % (kw, _text(tok) or "end"), self.pos(self.i - 1)
            )

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok[4] != op:
            raise QueryParseError(
                "expected %r, got %r" % (op, _text(tok) or "end"), self.pos(self.i - 1)
            )

    def accept_kw(self, kw: str) -> bool:
        if self.tokens[self.i][3].upper() == kw:
            self.i += 1
            return True
        return False

    # --- grammar

    def parse(self) -> Query:
        self.expect_kw("SELECT")
        self.expect_kw("COUNT")
        self.expect_op("(")
        self.expect_op("*")
        self.expect_op(")")
        self.expect_kw("FROM")
        self.parse_tables()
        tree = None
        if self.accept_kw("WHERE"):
            tree = self.parse_disjunction()
        tok = self.tokens[self.i]
        if tok is not _EOF:
            raise QueryParseError("unexpected trailing input %r" % _text(tok), self.pos(self.i))
        return self.assemble(tree)

    def parse_tables(self) -> None:
        while True:
            at = self.i
            tok = self.next()
            relation = _ident(tok)
            if not relation:
                raise QueryParseError("expected relation name, got %r" % _text(tok), self.pos(at))
            if relation not in self.schema:
                raise QueryParseError("unknown relation %r" % relation, self.pos(at))
            alias = relation
            has_as = self.accept_kw("AS")
            tok = self.tokens[self.i]
            named = _ident(tok)
            if named:
                alias = named
                self.i += 1
            elif has_as and (tok is _EOF or tok[4] == "," or tok[3].upper() == "WHERE"):
                # the table ends with AS and no alias; any other token after
                # AS is reported where it stands, as trailing input
                raise QueryParseError(
                    "expected alias after AS, got %r" % (_text(tok) or "end"), self.pos(self.i)
                )
            if alias in self.aliases:
                raise QueryParseError("duplicate alias %r" % alias, self.pos(at))
            self.aliases[alias] = relation
            if self.tokens[self.i][4] == ",":
                self.i += 1
                continue
            break

    def parse_disjunction(self):
        children = [self.parse_conjunction()]
        while self.accept_kw("OR"):
            children.append(self.parse_conjunction())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_conjunction(self):
        children = [self.parse_term()]
        while self.accept_kw("AND"):
            children.append(self.parse_term())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_term(self):
        tok = self.tokens[self.i]
        if tok[4] == "(":
            if self.depth == MAX_NESTING:
                raise QueryParseError(
                    "parentheses nested deeper than %d" % MAX_NESTING, self.pos(self.i)
                )
            self.i += 1
            self.depth += 1
            inner = self.parse_disjunction()
            self.depth -= 1
            self.expect_op(")")
            return inner
        if tok[3].upper() == "NOT":
            raise UnsupportedQueryError("negation is not supported", self.pos(self.i))
        return self.parse_comparison()

    def parse_colref(self) -> _ColRef:
        at = self.i
        tok = self.next()
        name = _ident(tok)
        if not name:
            raise QueryParseError(
                "expected column reference, got %r" % (_text(tok) or "end"), self.pos(at)
            )
        if self.tokens[self.i][4] == ".":
            self.i += 1
            col = _ident(self.next())
            if not col:
                raise QueryParseError("expected column after %r." % name, self.pos(self.i - 1))
            if name not in self.aliases:
                raise QueryParseError("unknown alias %r" % name, self.pos(at))
            return self.check_column(_ColRef(name, col, at))
        owners = [
            alias
            for alias, relation in self.aliases.items()
            if name in self.schema[relation]
        ]
        if not owners:
            raise QueryParseError("unknown column %r" % name, self.pos(at))
        if len(owners) > 1:
            raise QueryParseError(
                "ambiguous column %r (in %s)" % (name, ", ".join(sorted(owners))),
                self.pos(at),
            )
        return _ColRef(owners[0], name, at)

    def check_column(self, ref: _ColRef) -> _ColRef:
        relation = self.aliases[ref.alias]
        if ref.column not in self.schema[relation]:
            raise QueryParseError(
                "relation %r has no column %r" % (relation, ref.column), self.pos(ref.tok)
            )
        return ref

    def column_kind(self, ref: _ColRef) -> str:
        return self.schema[self.aliases[ref.alias]][ref.column]

    def parse_literal(self) -> tuple[float | str, int]:
        """The literal's value and its token index."""
        at = self.i
        tok = self.next()
        if tok[1]:
            return float(tok[1]), at
        if tok[2]:
            return tok[2][1:-1].replace("''", "'"), at
        raise QueryParseError("expected a literal, got %r" % (_text(tok) or "end"), self.pos(at))

    def check_kinds(self, ref: _ColRef, value: float | str, at: int) -> None:
        want = self.column_kind(ref)
        got = "text" if isinstance(value, str) else "numeric"
        if want != got:
            raise UnsupportedQueryError(
                "%s literal compared with %s column %s.%s"
                % (got, want, ref.alias, ref.column),
                self.pos(at),
            )

    def parse_comparison(self):
        start = self.tokens[self.i]
        if start[1] or start[2]:
            value, vat = self.parse_literal()
            op = self.next()[4]
            if op not in _COMPARISONS:
                raise QueryParseError("expected comparison operator", self.pos(self.i - 1))
            ref = self.parse_colref()
            return self.build_comparison(ref, _FLIP[op], value, vat)
        ref = self.parse_colref()
        at = self.i
        tok = self.next()
        op = tok[4]
        word = tok[3].upper()
        if op in ("<>", "!="):
            raise UnsupportedQueryError("negated comparison is not supported", self.pos(at))
        if word == "IS":
            raise UnsupportedQueryError("IS NULL tests are not supported", self.pos(at))
        if word == "BETWEEN":
            lo, lat = self.parse_literal()
            self.expect_kw("AND")
            hi, hat = self.parse_literal()
            self.check_kinds(ref, lo, lat)
            self.check_kinds(ref, hi, hat)
            if self.column_kind(ref) != "numeric":
                raise UnsupportedQueryError("BETWEEN needs a numeric column", self.pos(at))
            return Range(ref.column, float(lo), float(hi), True, True), ref
        if word == "LIKE":
            pat_at = self.i
            pattern = self.next()[2]
            if not pattern:
                raise QueryParseError("LIKE needs a string pattern", self.pos(pat_at))
            pattern = pattern[1:-1].replace("''", "'")
            if self.column_kind(ref) != "text":
                raise UnsupportedQueryError("LIKE needs a text column", self.pos(at))
            body = like_parts(pattern)[1]
            if "%" in body or "_" in body:
                raise UnsupportedQueryError(
                    "only plain substring patterns are supported", self.pos(pat_at)
                )
            return Like(ref.column, pattern), ref
        if word == "IN":
            self.expect_op("(")
            values = []
            while True:
                value, vat = self.parse_literal()
                self.check_kinds(ref, value, vat)
                values.append(value)
                sep = self.next()[4]
                if sep == ",":
                    continue
                if sep == ")":
                    break
                raise QueryParseError("expected ',' or ')' in IN list", self.pos(self.i - 1))
            return Or(tuple(Eq(ref.column, v) for v in sorted(set(values)))), ref
        if op not in _COMPARISONS:
            raise QueryParseError("expected a comparison, got %r" % (_text(tok) or "end"), self.pos(at))
        if _ident(self.tokens[self.i]):
            other = self.parse_colref()
            if op != "=":
                raise UnsupportedQueryError("non-equality joins are not supported", self.pos(at))
            if self.column_kind(ref) != self.column_kind(other):
                raise UnsupportedQueryError(
                    "cannot join a %s column with a %s column"
                    % (self.column_kind(ref), self.column_kind(other)),
                    self.pos(at),
                )
            return _RawJoin(ref, other, at), None
        value, vat = self.parse_literal()
        return self.build_comparison(ref, op, value, vat)

    def build_comparison(self, ref: _ColRef, op: str, value: float | str, at: int):
        self.check_kinds(ref, value, at)
        if op == "=":
            return Eq(ref.column, value), ref
        if self.column_kind(ref) != "numeric":
            raise UnsupportedQueryError("ordered comparison needs a numeric column", self.pos(at))
        v = float(value)
        if op == "<":
            node = Range(ref.column, None, v, True, False)
        elif op == "<=":
            node = Range(ref.column, None, v, True, True)
        elif op == ">":
            node = Range(ref.column, v, None, False, True)
        else:
            node = Range(ref.column, v, None, True, True)
        return node, ref

    # --- assembly

    def assemble(self, tree) -> Query:
        joins: list[_RawJoin] = []
        by_alias: dict[str, list] = {alias: [] for alias in self.aliases}
        for conjunct in _flatten_and(tree):
            if isinstance(conjunct, tuple):  # (node, colref) or (_RawJoin, None)
                node, ref = conjunct
                if isinstance(node, _RawJoin):
                    joins.append(node)
                else:
                    by_alias[ref.alias].append(node)
            else:
                alias, node = self.lift(conjunct)
                by_alias[alias].append(node)
        atoms = self.make_atoms(joins)
        predicates = {
            alias: nodes[0] if len(nodes) == 1 else And(tuple(nodes))
            for alias, nodes in by_alias.items()
            if nodes
        }
        return Query(atoms, predicates)

    def lift(self, node) -> tuple[str, Predicate]:
        """The one alias an OR subtree's comparisons name, and the subtree
        with their column references dropped."""
        refs: list[_ColRef] = []

        def walk(n):
            if not isinstance(n, tuple):
                return type(n)(tuple(walk(c) for c in n.children))
            pred, ref = n
            if isinstance(pred, _RawJoin):
                raise UnsupportedQueryError(
                    "join conditions may not appear under OR", self.pos(pred.tok)
                )
            refs.append(ref)
            return pred

        tree = walk(node)
        aliases = {ref.alias for ref in refs}
        if len(aliases) != 1:
            raise UnsupportedQueryError(
                "a predicate may only reference one relation", self.pos(refs[-1].tok)
            )
        return aliases.pop(), tree

    def make_atoms(self, joins: list[_RawJoin]) -> tuple[Atom, ...]:
        parent: dict[tuple[str, str], tuple[str, str]] = {}
        classes: dict[tuple[str, str], list[tuple[str, str]]] = {}  # root -> members
        # the first alias with two columns in one class, and the byte where
        # the join condition that closed that class starts
        clash: tuple[str, int] | None = None
        for j in joins:
            a = (j.left.alias, j.left.column)
            b = (j.right.alias, j.right.column)
            if a == b:
                raise UnsupportedQueryError("a column cannot join with itself", self.pos(j.tok))
            for ref in (a, b):
                if ref not in classes and ref not in parent:
                    classes[ref] = [ref]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            root, child = min(ra, rb), max(ra, rb)
            if clash is None:
                shared = {x for x, _ in classes[root]} & {x for x, _ in classes[child]}
                if shared:
                    clash = (min(shared), j.left.tok)
            parent[child] = root
            classes[root] += classes.pop(child)
        if clash is not None:
            raise UnsupportedQueryError(
                "two columns of %r fall in the same join class" % clash[0], self.pos(clash[1])
            )
        var_columns: dict[str, list[tuple[str, tuple[str]]]] = {a: [] for a in self.aliases}
        for n, root in enumerate(sorted(classes, key=lambda r: min(classes[r]))):
            var = "v%d" % n
            for alias, col in classes[root]:
                var_columns[alias].append((var, (col,)))
        return tuple(
            Atom(alias, relation, tuple(sorted(var_columns[alias])))
            for alias, relation in self.aliases.items()
        )


_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _find(parent: dict, x):
    """Root of ``x`` in a disjoint-set forest stored as child -> parent;
    a key absent from ``parent`` is its own root.  Halves the path walked."""
    while (up := parent.get(x, x)) != x:
        parent[x] = parent.get(up, up)
        x = parent[x]
    return x


def _flatten_and(tree) -> Iterable:
    if tree is None:
        return
    if isinstance(tree, And):
        for child in tree.children:
            yield from _flatten_and(child)
    else:
        yield tree


def parse_query(text: str, schema: dict[str, dict[str, str]]) -> Query:
    """Parse SQL text into a Query; schema maps relation -> column -> kind."""
    return _Parser(text, schema).parse()


# -------------------------------------------------------------- printer

def _format_literal(value: float | str) -> str:
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    if math.isinf(value):
        # the parser reads an overflowing number back as the same infinity
        return "-1e999" if value < 0 else "1e999"
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return repr(value)


def _render(node: Predicate, alias: str, parenthesize: bool = False) -> str:
    if isinstance(node, Eq):
        return "%s.%s = %s" % (alias, node.column, _format_literal(node.value))
    if isinstance(node, Range):
        col = "%s.%s" % (alias, node.column)
        if node.lo is not None and node.hi is not None and node.lo_incl and node.hi_incl:
            return "%s BETWEEN %s AND %s" % (
                col,
                _format_literal(node.lo),
                _format_literal(node.hi),
            )
        parts = []
        if node.lo is not None:
            parts.append("%s %s %s" % (col, ">=" if node.lo_incl else ">", _format_literal(node.lo)))
        if node.hi is not None:
            parts.append("%s %s %s" % (col, "<=" if node.hi_incl else "<", _format_literal(node.hi)))
        text = " AND ".join(parts)
        return "(%s)" % text if parenthesize and len(parts) > 1 else text
    if isinstance(node, Like):
        return "%s.%s LIKE %s" % (alias, node.column, _format_literal(node.pattern))
    if isinstance(node, And):
        text = " AND ".join(
            _render(c, alias, isinstance(c, (And, Or))) for c in node.children
        )
        return "(%s)" % text if parenthesize else text
    if isinstance(node, Or):
        kids = node.children
        # an IN list parses to equalities on one column, with values of one
        # kind in strictly ascending order, and prints back as one
        keys = [(c.column, isinstance(c.value, str), c.value) for c in kids if type(c) is Eq]
        if kids and len(keys) == len(kids) and keys[0][:2] == keys[-1][:2]:
            if all(map(operator.lt, keys, keys[1:])):
                values = ", ".join(_format_literal(k[2]) for k in keys)
                return "%s.%s IN (%s)" % (alias, keys[0][0], values)
        return "(%s)" % " OR ".join(_render(c, alias, True) for c in kids)
    raise TypeError("unknown predicate node %r" % (node,))


def print_query(query: Query) -> str:
    """Canonical SQL text for a query; parsing the output reproduces any
    query the parser made, and printing that again gives the same text."""
    tables = ", ".join(
        a.relation if a.relation == a.alias else "%s AS %s" % (a.relation, a.alias)
        for a in query.atoms
    )
    var_refs: dict[str, list[tuple[str, str]]] = {}
    for atom in query.atoms:
        for var, cols in atom.var_columns:
            for col in cols:
                var_refs.setdefault(var, []).append((atom.alias, col))
    conds: list[str] = []
    for var in sorted(var_refs, key=lambda v: min(var_refs[v])):
        refs = sorted(var_refs[var])
        for (a1, c1), (a2, c2) in zip(refs, refs[1:]):
            conds.append("%s.%s = %s.%s" % (a1, c1, a2, c2))
    for atom in query.atoms:
        node = query.predicates.get(atom.alias)
        if node is not None:
            conds.append(_render(node, atom.alias, isinstance(node, Or)))
    sql = "SELECT COUNT(*) FROM " + tables
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    return sql


# ------------------------------------------------------- join structure

@dataclass(frozen=True)
class JoinGraph:
    """A query's atoms, each join variable's sorted aliases, and the number
    of independent cycles and connectedness of the atom-variable graph.
    A join variable is one that two or more aliases bind; a variable only
    one alias binds closes no cycle, connects nothing and is not kept."""

    atoms: tuple[Atom, ...]
    variables: dict[str, tuple[str, ...]]
    cycles: int
    connected: bool

    @property
    def acyclic(self) -> bool:
        return self.cycles == 0

    @property
    def multi_column_pairs(self) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        shared: dict[tuple[str, str], list[str]] = {}
        for var, aliases in sorted(self.variables.items()):
            for pair in itertools.combinations(aliases, 2):
                shared.setdefault(pair, []).append(var)
        return tuple((*pair, tuple(vs)) for pair, vs in sorted(shared.items()) if len(vs) >= 2)


def join_graph(query: Query) -> JoinGraph:
    var_atoms: dict[str, set[str]] = {}
    for atom in query.atoms:
        for var, _ in atom.var_columns:
            var_atoms.setdefault(var, set()).add(atom.alias)
    variables = {v: tuple(sorted(a)) for v, a in var_atoms.items() if len(a) >= 2}
    parent: dict[str, str] = {}
    cycles = 0
    for var, aliases in variables.items():
        vnode = "var:" + var
        for alias in aliases:
            ra, rv = _find(parent, "atom:" + alias), _find(parent, vnode)
            if ra == rv:
                cycles += 1
            else:
                parent[ra] = rv
    roots = {_find(parent, "atom:" + a.alias) for a in query.atoms}
    return JoinGraph(query.atoms, variables, cycles, len(roots) <= 1)


# ---------------------------------------------------------- bound plans

@dataclass(frozen=True)
class MergeStep:
    """Pointwise product of unary profiles meeting at one variable; an input
    is a step id or a base profile's (alias, variable) pair."""

    out: str
    var: str
    inputs: tuple[str | tuple[str, str], ...]


@dataclass(frozen=True)
class JoinStep:
    """One relation occurrence anchored at a variable, absorbing the unary
    profiles of its other variables and emitting a unary over the anchor."""

    out: str
    alias: str
    anchor: str
    children: tuple[tuple[str, str | tuple[str, str]], ...]


@dataclass(frozen=True)
class BoundPlan:
    steps: tuple[MergeStep | JoinStep, ...]
    root: str


def decompose(graph: JoinGraph) -> BoundPlan:
    """Turn an acyclic connected join graph into a bottom-up plan of merge
    and join steps whose root evaluates to the cardinality bound.

    Only the graph's join variables are planned over: the root relation
    is the atom with the most of them (ties broken by alias), anchored at
    its alphabetically first.  Atoms with a single join variable and
    nothing beneath them feed their profiles in directly, named by their
    (alias, variable) pair; each atom's profile is consumed exactly once.
    """
    if not graph.connected:
        raise ValueError("cannot plan a disconnected query")
    if not graph.acyclic:
        raise ValueError("cannot plan a cyclic query directly")
    shared = {a.alias: [v for v in a.variables() if v in graph.variables] for a in graph.atoms}
    root_alias = min(shared, key=lambda a: (-len(shared[a]), a))
    if not shared[root_alias]:
        raise ValueError("atom %r has no join variable" % root_alias)
    anchor = min(shared[root_alias])

    steps: list[MergeStep | JoinStep] = []
    visited = {root_alias}
    counter = itertools.count(1)

    def new_id() -> str:
        return "s%d" % next(counter)

    def child_inputs(var: str) -> list[str | tuple[str, str]]:
        ids = []
        for other in graph.variables[var]:
            if other not in visited:
                visited.add(other)
                ids.append(build(other, var))
        return ids

    def merged(var: str, ids: list[str | tuple[str, str]]) -> str | tuple[str, str]:
        if len(ids) == 1:
            return ids[0]
        out = new_id()
        steps.append(MergeStep(out, var, tuple(ids)))
        return out

    def build(alias: str, via: str, root: bool = False) -> str | tuple[str, str]:
        children = []
        for var in shared[alias]:
            if var == via:
                continue
            ids = child_inputs(var)
            if ids:
                children.append((var, merged(var, ids)))
        if not children and not root:
            return (alias, via)
        out = new_id()
        steps.append(JoinStep(out, alias, via, tuple(children)))
        return out

    root_out = build(root_alias, anchor, root=True)
    sibling_ids = child_inputs(anchor)
    if sibling_ids:
        out = new_id()
        steps.append(MergeStep(out, anchor, (root_out, *sibling_ids)))
        root_out = out
    return BoundPlan(tuple(steps), root_out)


# ------------------------------------------------------ query rewrites

def fuse_parallel_joins(graph: JoinGraph) -> JoinGraph:
    """Merge the variables that join the same two atoms, and no other, on
    several columns into one variable, the group's smallest, carrying the
    column set on each side.  Returns ``graph`` itself when nothing merges."""
    merge_groups: list[tuple[str, ...]] = []
    merged_vars: set[str] = set()
    for a1, a2, vs in graph.multi_column_pairs:
        exclusive = tuple(
            v for v in vs if graph.variables[v] == (a1, a2) and v not in merged_vars
        )
        if len(exclusive) >= 2:
            merge_groups.append(exclusive)
            merged_vars.update(exclusive)
    if not merge_groups:
        return graph
    target = {v: min(group) for group in merge_groups for v in group}
    atoms = []
    for atom in graph.atoms:
        combined: dict[str, list[str]] = {}
        for var, cols in atom.var_columns:
            combined.setdefault(target.get(var, var), []).extend(cols)
        var_columns = tuple(sorted((v, tuple(c)) for v, c in combined.items()))
        atoms.append(Atom(atom.alias, atom.relation, var_columns))
    # the merged variable keeps its two aliases, and a group of k variables
    # over one pair of atoms closed k - 1 cycles
    variables = {v: als for v, als in graph.variables.items() if target.get(v, v) == v}
    cycles = graph.cycles - sum(len(group) - 1 for group in merge_groups)
    return JoinGraph(tuple(atoms), variables, cycles, graph.connected)


def spanning_trees(graph: JoinGraph, cap: int = SPANNING_TREE_CAP) -> tuple[JoinGraph, ...]:
    """All acyclic reshapes of a cyclic join graph, one graph per spanning
    tree of its atom-level join multigraph (up to ``cap``, in canonical
    edge order); an acyclic graph is its own only tree.  Dropped edges
    split their variable; a column whose edge is dropped simply stops
    being joined in that tree.

    Trees come out in lexicographic order of their edge indices, found by
    a depth-first search in the style of Read and Tarjan (1975): an edge
    that closes a cycle is skipped, and a prefix stops extending once it
    plus the edges after it can no longer connect every alias.  Every
    branch the search enters therefore ends in a tree, so finding ``cap``
    trees takes polynomial work.
    """
    if not graph.connected:
        raise ValueError("query is disconnected")
    if graph.acyclic:
        return (graph,)
    aliases = sorted(a.alias for a in graph.atoms)
    n = len(aliases)
    edges: list[tuple[str, str, str]] = []
    for var in sorted(graph.variables):
        for a1, a2 in itertools.combinations(graph.variables[var], 2):
            edges.append((var, a1, a2))
    slot = {a: i for i, a in enumerate(aliases)}
    ends = [(slot[a1], slot[a2]) for _, a1, a2 in edges]
    trees: list[tuple[tuple[str, str, str], ...]] = []
    chosen: list[tuple[str, str, str]] = []

    def spans(comp: list[int], start: int) -> bool:
        # do the prefix's components plus edges[start:] connect everything?
        parent: dict[int, int] = {}
        left = len(set(comp)) - 1
        for u, v in ends[start:]:
            ru, rv = _find(parent, comp[u]), _find(parent, comp[v])
            if ru != rv:
                parent[ru] = rv
                left -= 1
                if left == 0:
                    return True
        return left == 0

    def extend(start: int, comp: list[int]) -> None:
        if len(chosen) == n - 1:
            trees.append(tuple(chosen))
            return
        for i in range(start, len(edges)):
            if len(trees) >= cap:
                return
            cu, cv = comp[ends[i][0]], comp[ends[i][1]]
            if cu == cv:
                continue
            if not spans(comp, i):
                break
            chosen.append(edges[i])
            extend(i + 1, [cv if c == cu else c for c in comp])
            chosen.pop()

    extend(0, list(range(n)))
    return tuple(_retie(graph, combo) for combo in trees)


def _retie(graph: JoinGraph, kept: tuple[tuple[str, str, str], ...]) -> JoinGraph:
    """The tree of ``graph`` with edges ``kept``: each variable splits into
    one per group of aliases that its kept edges connect."""
    kept_by_var: dict[str, list[tuple[str, str]]] = {}
    for var, a1, a2 in kept:
        kept_by_var.setdefault(var, []).append((a1, a2))
    groups: list[tuple[str, tuple[str, ...]]] = []
    for var, aliases in graph.variables.items():
        parent: dict[str, str] = {}
        for a1, a2 in kept_by_var.get(var, ()):
            parent[_find(parent, a1)] = _find(parent, a2)
        comps: dict[str, list[str]] = {}
        for a in aliases:
            comps.setdefault(_find(parent, a), []).append(a)
        for members in comps.values():
            if len(members) >= 2:
                groups.append((var, tuple(sorted(members))))
    names: dict[tuple[str, str], str] = {}
    variables: dict[str, tuple[str, ...]] = {}
    for i, (var, members) in enumerate(sorted(groups)):
        name = "v%d" % i
        variables[name] = members
        for alias in members:
            names[(var, alias)] = name
    atoms = []
    for atom in graph.atoms:
        vc = []
        for var, cols in atom.var_columns:
            new = names.get((var, atom.alias))
            if new is not None:
                vc.append((new, cols))
        atoms.append(Atom(atom.alias, atom.relation, tuple(sorted(vc))))
    return JoinGraph(tuple(atoms), variables, 0, True)
