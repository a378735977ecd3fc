"""Query model: a COUNT(*) join-query AST, its SQL reader and writer, and
the structural analyses the bound engine runs on it.

Supported queries are conjunctive equi-joins with per-relation filter
predicates::

    SELECT COUNT(*) FROM r AS t0, s AS t1
    WHERE t0.a = t1.b AND t0.x BETWEEN 2 AND 9 AND (t1.y = 3 OR t1.y = 5)

Join conditions connect columns of two relations; predicates may combine
equality, range, IN, and LIKE tests with AND/OR as long as each predicate
tree touches a single relation.  Anything else (negation, non-equality
joins, joins under OR, subqueries) is rejected as unsupported.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

__all__ = [
    "QueryError",
    "QueryParseError",
    "UnsupportedQueryError",
    "Eq",
    "Range",
    "Like",
    "InSet",
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
class InSet:
    column: str
    values: tuple


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


Predicate = Eq | Range | Like | InSet | And | Or


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
    predicates: dict[str, Predicate | None] = field(default_factory=dict)


def like_matches(value: str | None, pattern: str) -> bool:
    """Case-insensitive LIKE with at most a leading and a trailing ``%``."""
    if value is None:
        return False
    val = value.lower()
    lead = pattern.startswith("%")
    trail = len(pattern) > 1 and pattern.endswith("%")
    lit = pattern[1 if lead else 0 : -1 if trail else len(pattern)].lower()
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
    if isinstance(node, InSet):
        v = get(node.column)
        return v is not None and v in node.values
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


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for blanks, number, string, ident, op, bad in _TOKEN_RE.findall(text):
        pos += len(blanks)
        if bad:
            raise QueryParseError("unexpected character %r" % bad, pos)
        if ident:
            word = ident.upper()
            tok = _Token("kw", word, pos) if word in _KEYWORDS else _Token("ident", ident, pos)
        elif number:
            tok = _Token("number", number, pos)
        elif string:
            tok = _Token("string", string, pos)
        else:
            tok = _Token("op", op, pos)
        tokens.append(tok)
        pos += len(number or string or ident or op)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# ------------------------------------------------------ raw parse nodes

@dataclass(frozen=True)
class _ColRef:
    alias: str
    column: str
    pos: int


@dataclass(frozen=True)
class _RawJoin:
    left: _ColRef
    right: _ColRef
    pos: int


class _Parser:
    def __init__(self, text: str, schema: dict[str, dict[str, str]]):
        self.text = text
        self.schema = schema
        self.tokens = _tokenize(text)
        self.i = 0
        self.aliases: dict[str, str] = {}

    # --- token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_kw(self, kw: str) -> _Token:
        tok = self.next()
        if tok.kind != "kw" or tok.text != kw:
            raise QueryParseError("expected %s, got %r" % (kw, tok.text or "end"), tok.pos)
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise QueryParseError("expected %r, got %r" % (op, tok.text or "end"), tok.pos)
        return tok

    def accept_kw(self, kw: str) -> bool:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == kw:
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
        tok = self.peek()
        if tok.kind != "eof":
            raise QueryParseError("unexpected trailing input %r" % tok.text, tok.pos)
        return self.assemble(tree)

    def parse_tables(self) -> None:
        while True:
            tok = self.next()
            if tok.kind != "ident":
                raise QueryParseError("expected relation name, got %r" % tok.text, tok.pos)
            relation = tok.text
            if relation not in self.schema:
                raise QueryParseError("unknown relation %r" % relation, tok.pos)
            alias = relation
            self.accept_kw("AS")
            nxt = self.peek()
            if nxt.kind == "ident":
                alias = nxt.text
                self.i += 1
            if alias in self.aliases:
                raise QueryParseError("duplicate alias %r" % alias, tok.pos)
            self.aliases[alias] = relation
            if self.peek().kind == "op" and self.peek().text == ",":
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
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.i += 1
            inner = self.parse_disjunction()
            self.expect_op(")")
            return inner
        if tok.kind == "kw" and tok.text == "NOT":
            raise UnsupportedQueryError("negation is not supported", tok.pos)
        return self.parse_comparison()

    def parse_colref(self) -> _ColRef:
        tok = self.next()
        if tok.kind != "ident":
            raise QueryParseError("expected column reference, got %r" % (tok.text or "end"), tok.pos)
        if self.peek().kind == "op" and self.peek().text == ".":
            self.i += 1
            col = self.next()
            if col.kind != "ident":
                raise QueryParseError("expected column after %r." % tok.text, col.pos)
            alias = tok.text
            if alias not in self.aliases:
                raise QueryParseError("unknown alias %r" % alias, tok.pos)
            return self.check_column(_ColRef(alias, col.text, tok.pos))
        owners = [
            alias
            for alias, relation in self.aliases.items()
            if tok.text in self.schema[relation]
        ]
        if not owners:
            raise QueryParseError("unknown column %r" % tok.text, tok.pos)
        if len(owners) > 1:
            raise QueryParseError(
                "ambiguous column %r (in %s)" % (tok.text, ", ".join(sorted(owners))),
                tok.pos,
            )
        return _ColRef(owners[0], tok.text, tok.pos)

    def check_column(self, ref: _ColRef) -> _ColRef:
        relation = self.aliases[ref.alias]
        if ref.column not in self.schema[relation]:
            raise QueryParseError(
                "relation %r has no column %r" % (relation, ref.column), ref.pos
            )
        return ref

    def column_kind(self, ref: _ColRef) -> str:
        return self.schema[self.aliases[ref.alias]][ref.column]

    def parse_literal(self) -> tuple[float | str, int]:
        tok = self.next()
        if tok.kind == "number":
            return float(tok.text), tok.pos
        if tok.kind == "string":
            return tok.text[1:-1].replace("''", "'"), tok.pos
        raise QueryParseError("expected a literal, got %r" % (tok.text or "end"), tok.pos)

    def check_kinds(self, ref: _ColRef, value: float | str, pos: int) -> None:
        want = self.column_kind(ref)
        got = "text" if isinstance(value, str) else "numeric"
        if want != got:
            raise UnsupportedQueryError(
                "%s literal compared with %s column %s.%s"
                % (got, want, ref.alias, ref.column),
                pos,
            )

    def parse_comparison(self):
        start = self.peek()
        if start.kind in ("number", "string"):
            value, vpos = self.parse_literal()
            op = self.next()
            if op.kind != "op" or op.text not in ("=", "<", "<=", ">", ">="):
                raise QueryParseError("expected comparison operator", op.pos)
            ref = self.parse_colref()
            return self.build_comparison(ref, _FLIP[op.text], value, vpos)
        ref = self.parse_colref()
        tok = self.next()
        if tok.kind == "op" and tok.text in ("<>", "!="):
            raise UnsupportedQueryError("negated comparison is not supported", tok.pos)
        if tok.kind == "kw" and tok.text == "IS":
            raise UnsupportedQueryError("IS NULL tests are not supported", tok.pos)
        if tok.kind == "kw" and tok.text == "BETWEEN":
            lo, lpos = self.parse_literal()
            self.expect_kw("AND")
            hi, hpos = self.parse_literal()
            self.check_kinds(ref, lo, lpos)
            self.check_kinds(ref, hi, hpos)
            if self.column_kind(ref) != "numeric":
                raise UnsupportedQueryError("BETWEEN needs a numeric column", tok.pos)
            return Range(ref.column, float(lo), float(hi), True, True), ref
        if tok.kind == "kw" and tok.text == "LIKE":
            pat_tok = self.next()
            if pat_tok.kind != "string":
                raise QueryParseError("LIKE needs a string pattern", pat_tok.pos)
            pattern = pat_tok.text[1:-1].replace("''", "'")
            if self.column_kind(ref) != "text":
                raise UnsupportedQueryError("LIKE needs a text column", tok.pos)
            body = pattern[1 if pattern.startswith("%") else 0 :]
            body = body[: -1] if body.endswith("%") else body
            if "%" in body or "_" in body:
                raise UnsupportedQueryError(
                    "only plain substring patterns are supported", pat_tok.pos
                )
            return Like(ref.column, pattern), ref
        if tok.kind == "kw" and tok.text == "IN":
            self.expect_op("(")
            values = []
            while True:
                value, vpos = self.parse_literal()
                self.check_kinds(ref, value, vpos)
                values.append(value)
                nxt = self.next()
                if nxt.kind == "op" and nxt.text == ",":
                    continue
                if nxt.kind == "op" and nxt.text == ")":
                    break
                raise QueryParseError("expected ',' or ')' in IN list", nxt.pos)
            return InSet(ref.column, tuple(sorted(set(values)))), ref
        if tok.kind != "op" or tok.text not in ("=", "<", "<=", ">", ">="):
            raise QueryParseError("expected a comparison, got %r" % (tok.text or "end"), tok.pos)
        nxt = self.peek()
        if nxt.kind == "ident":
            other = self.parse_colref()
            if tok.text != "=":
                raise UnsupportedQueryError("non-equality joins are not supported", tok.pos)
            if self.column_kind(ref) != self.column_kind(other):
                raise UnsupportedQueryError(
                    "cannot join a %s column with a %s column"
                    % (self.column_kind(ref), self.column_kind(other)),
                    tok.pos,
                )
            return _RawJoin(ref, other, tok.pos), None
        value, vpos = self.parse_literal()
        return self.build_comparison(ref, tok.text, value, vpos)

    def build_comparison(self, ref: _ColRef, op: str, value: float | str, vpos: int):
        self.check_kinds(ref, value, vpos)
        if op == "=":
            return Eq(ref.column, value), ref
        if self.column_kind(ref) != "numeric":
            raise UnsupportedQueryError("ordered comparison needs a numeric column", vpos)
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
        predicates: dict[str, Predicate | None] = {}
        for alias in self.aliases:
            nodes = by_alias[alias]
            if not nodes:
                predicates[alias] = None
            elif len(nodes) == 1:
                predicates[alias] = nodes[0]
            else:
                predicates[alias] = And(tuple(nodes))
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
                    "join conditions may not appear under OR", pred.pos
                )
            refs.append(ref)
            return pred

        tree = walk(node)
        aliases = {ref.alias for ref in refs}
        if len(aliases) != 1:
            raise UnsupportedQueryError(
                "a predicate may only reference one relation", refs[-1].pos
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
                raise UnsupportedQueryError("a column cannot join with itself", j.pos)
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
                    clash = (min(shared), j.left.pos)
            parent[child] = root
            classes[root] += classes.pop(child)
        if clash is not None:
            raise UnsupportedQueryError(
                "two columns of %r fall in the same join class" % clash[0], clash[1]
            )
        names: dict[tuple[str, str], str] = {}
        for n, root in enumerate(sorted(classes, key=lambda r: min(classes[r]))):
            for ref in classes[root]:
                names[ref] = "v%d" % n
        atoms = []
        for alias, relation in self.aliases.items():
            vc = sorted(
                (var, (col,))
                for (a, col), var in names.items()
                if a == alias
            )
            atoms.append(Atom(alias, relation, tuple(vc)))
        return tuple(atoms)


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
    if isinstance(node, InSet):
        return "%s.%s IN (%s)" % (
            alias,
            node.column,
            ", ".join(_format_literal(v) for v in node.values),
        )
    if isinstance(node, And):
        text = " AND ".join(
            _render(c, alias, isinstance(c, (And, Or))) for c in node.children
        )
        return "(%s)" % text if parenthesize else text
    if isinstance(node, Or):
        return "(%s)" % " OR ".join(_render(c, alias, True) for c in node.children)
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
    variables: dict[str, tuple[str, ...]]
    acyclic: bool
    connected: bool
    multi_column_pairs: tuple[tuple[str, str, tuple[str, ...]], ...]


def join_graph(query: Query) -> JoinGraph:
    var_atoms: dict[str, list[str]] = {}
    for atom in query.atoms:
        for var, _ in atom.var_columns:
            var_atoms.setdefault(var, []).append(atom.alias)
    variables = {v: tuple(sorted(set(a))) for v, a in var_atoms.items()}
    parent: dict[str, str] = {}
    acyclic = True
    for var, aliases in variables.items():
        vnode = "var:" + var
        for alias in aliases:
            ra, rv = _find(parent, "atom:" + alias), _find(parent, vnode)
            if ra == rv:
                acyclic = False
            else:
                parent[ra] = rv
    roots = {_find(parent, "atom:" + a.alias) for a in query.atoms}
    connected = len(roots) <= 1
    pairs: list[tuple[str, str, tuple[str, ...]]] = []
    seen_vars: dict[tuple[str, str], list[str]] = {}
    for var, aliases in sorted(variables.items()):
        for a1, a2 in itertools.combinations(aliases, 2):
            seen_vars.setdefault((a1, a2), []).append(var)
    for (a1, a2), vs in sorted(seen_vars.items()):
        if len(vs) >= 2:
            pairs.append((a1, a2, tuple(sorted(vs))))
    return JoinGraph(variables, acyclic, connected, tuple(pairs))


# ---------------------------------------------------------- bound plans

@dataclass(frozen=True)
class MergeStep:
    """Pointwise product of unary profiles meeting at one variable."""

    out: str
    var: str
    inputs: tuple[str, ...]


@dataclass(frozen=True)
class JoinStep:
    """One relation occurrence anchored at a variable, absorbing the unary
    profiles of its other variables and emitting a unary over the anchor."""

    out: str
    alias: str
    anchor: str
    children: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class BoundPlan:
    steps: tuple[MergeStep | JoinStep, ...]
    root: str
    atoms: tuple[Atom, ...]


def base_input(alias: str, var: str) -> str:
    return "%s/%s" % (alias, var)


def decompose(query: Query, graph: JoinGraph | None = None) -> BoundPlan:
    """Turn an acyclic connected query into a bottom-up plan of merge and
    join steps whose root evaluates to the cardinality bound.

    The root relation is the atom with the most variables (ties broken by
    alias); its anchor is a variable shared with no other atom when one
    exists, the alphabetically first variable otherwise.  Atoms with a
    single join variable and nothing beneath them feed their profiles in
    directly; each atom's profile is consumed exactly once.  ``graph``, when
    given, is the query's join graph.
    """
    graph = join_graph(query) if graph is None else graph
    if not graph.connected:
        raise ValueError("cannot plan a disconnected query")
    if not graph.acyclic:
        raise ValueError("cannot plan a cyclic query directly")
    atoms = {a.alias: a for a in query.atoms}
    for atom in query.atoms:
        if not atom.var_columns:
            raise ValueError("atom %r has no join variable" % atom.alias)
    join_vars = {v for v, als in graph.variables.items() if len(als) >= 2}
    max_vars = max(len(a.var_columns) for a in query.atoms)
    root_alias = min(a.alias for a in query.atoms if len(a.var_columns) == max_vars)
    root_atom = atoms[root_alias]
    free = [v for v in root_atom.variables() if v not in join_vars]
    anchor = min(free) if free else min(root_atom.variables())

    steps: list[MergeStep | JoinStep] = []
    visited = {root_alias}
    counter = itertools.count(1)

    def new_id() -> str:
        return "s%d" % next(counter)

    def child_inputs(var: str) -> list[str]:
        ids = []
        for other in graph.variables.get(var, ()):
            if other not in visited:
                visited.add(other)
                ids.append(build(other, var))
        return ids

    def merged(var: str, ids: list[str]) -> str:
        if len(ids) == 1:
            return ids[0]
        out = new_id()
        steps.append(MergeStep(out, var, tuple(ids)))
        return out

    def build(alias: str, via: str, root: bool = False) -> str:
        children = []
        for var in atoms[alias].variables():
            if var == via or var not in join_vars:
                continue
            ids = child_inputs(var)
            if ids:
                children.append((var, merged(var, ids)))
        if not children and not root:
            return base_input(alias, via)
        out = new_id()
        steps.append(JoinStep(out, alias, via, tuple(children)))
        return out

    root_out = build(root_alias, anchor, root=True)
    sibling_ids = child_inputs(anchor)
    if sibling_ids:
        out = new_id()
        steps.append(MergeStep(out, anchor, (root_out, *sibling_ids)))
        root_out = out
    if len(visited) != len(atoms):
        raise ValueError("cannot plan a disconnected query")
    return BoundPlan(tuple(steps), root_out, query.atoms)


# ------------------------------------------------------ query rewrites

def fuse_parallel_joins(query: Query, graph: JoinGraph | None = None) -> Query:
    """Merge variable pairs that join the same two atoms on several columns
    into a single variable carrying the column set on each side.
    ``graph``, when given, is the query's join graph."""
    graph = join_graph(query) if graph is None else graph
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
        return query
    target = {v: min(group) for group in merge_groups for v in group}
    atoms = []
    for atom in query.atoms:
        combined: dict[str, list[str]] = {}
        for var, cols in atom.var_columns:
            combined.setdefault(target.get(var, var), []).extend(cols)
        atoms.append(
            Atom(
                atom.alias,
                atom.relation,
                tuple(sorted((v, tuple(c)) for v, c in combined.items())),
            )
        )
    return Query(tuple(atoms), dict(query.predicates))


def spanning_trees(
    query: Query, cap: int = 64, graph: JoinGraph | None = None
) -> tuple[Query, ...]:
    """All acyclic reshapes of a cyclic query, as one query per spanning
    tree of its atom-level join multigraph (up to ``cap``, in canonical
    edge order).  Dropped edges split their variable; a column whose edge
    is dropped simply stops being joined in that tree.

    Trees come out in lexicographic order of their edge indices, found by
    a depth-first search in the style of Read and Tarjan (1975): an edge
    that closes a cycle is skipped, and a prefix stops extending once it
    plus the edges after it can no longer connect every alias.  Every
    branch the search enters therefore ends in a tree, so finding ``cap``
    trees takes polynomial work.  ``graph``, when given, is the query's
    join graph.
    """
    graph = join_graph(query) if graph is None else graph
    if graph.acyclic and graph.connected:
        return (query,)
    if not graph.connected:
        raise ValueError("query is disconnected")
    aliases = sorted(a.alias for a in query.atoms)
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
    return tuple(_retie(query, graph.variables, combo) for combo in trees)


def _retie(
    query: Query,
    var_atoms: dict[str, tuple[str, ...]],
    kept: tuple[tuple[str, str, str], ...],
) -> Query:
    kept_by_var: dict[str, list[tuple[str, str]]] = {}
    for var, a1, a2 in kept:
        kept_by_var.setdefault(var, []).append((a1, a2))
    assignments: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
    groups: list[tuple[str, tuple[str, ...]]] = []
    for var in sorted(var_atoms):
        aliases = var_atoms[var]
        if len(aliases) == 1:
            groups.append((var, aliases))
            continue
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
    for i, (var, members) in enumerate(sorted(groups)):
        for alias in members:
            names[(var, alias)] = "v%d" % i
    atoms = []
    for atom in query.atoms:
        vc = []
        for var, cols in atom.var_columns:
            new = names.get((var, atom.alias))
            if new is not None:
                vc.append((new, cols))
        atoms.append(Atom(atom.alias, atom.relation, tuple(sorted(vc))))
    return Query(tuple(atoms), dict(query.predicates))
