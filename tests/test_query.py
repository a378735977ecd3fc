"""Parser, printer, join-graph analysis, and plan decomposition."""

import itertools
import random
import time

import numpy as np
import pytest

from seqbound.inference import bound_query
from seqbound.relation import Column, ColumnRole, Relation
from seqbound.stats import build_catalog

from seqbound.query import (
    MAX_NESTING,
    And,
    Atom,
    Eq,
    JoinStep,
    Like,
    MergeStep,
    Or,
    Query,
    QueryError,
    QueryParseError,
    Range,
    UnsupportedQueryError,
    decompose,
    fuse_parallel_joins,
    join_graph,
    like_matches,
    like_parts,
    parse_query,
    predicate_matches,
    print_query,
    spanning_trees,
)
from seqbound.query import _retie

SCHEMA = {
    "orders": {"id": "numeric", "cust": "numeric", "total": "numeric", "note": "text"},
    "customers": {"id": "numeric", "region": "text", "name": "text"},
    "items": {"order_id": "numeric", "sku": "text", "qty": "numeric"},
}

# r-s-t chain joined on x then y.
CHAIN_SCHEMA = {
    "ra": {"x": "numeric"},
    "sb": {"x": "numeric", "y": "numeric"},
    "tc": {"y": "numeric"},
}
CHAIN_SQL = "SELECT COUNT(*) FROM ra AS r, sb AS s, tc AS t WHERE r.x = s.x AND s.y = t.y"

# Generic binary edges for cycle shapes.
EDGE_SCHEMA = {name: {"u": "numeric", "v": "numeric"} for name in ("e1", "e2", "e3", "e4")}

# Two relations sharing two join columns.
PAIR_SCHEMA = {"pa": {"a": "numeric", "b": "numeric"}, "pb": {"a": "numeric", "b": "numeric"}}
PAIR_SQL = "SELECT COUNT(*) FROM pa AS x, pb AS y WHERE x.a = y.a AND x.b = y.b"


def parse(sql, schema=SCHEMA):
    return parse_query(sql, schema)


class TestParsing:
    def test_atoms_follow_from_clause_order(self):
        q = parse("SELECT COUNT(*) FROM customers AS c, orders AS o WHERE c.id = o.cust")
        assert [a.alias for a in q.atoms] == ["c", "o"]
        assert [a.relation for a in q.atoms] == ["customers", "orders"]

    def test_default_alias_is_relation_name(self):
        q = parse("SELECT COUNT(*) FROM orders WHERE orders.total = 5")
        assert q.atoms[0].alias == "orders"
        assert q.predicates["orders"] == Eq("total", 5.0)

    def test_variables_named_by_smallest_member(self):
        q = parse(CHAIN_SQL, CHAIN_SCHEMA)
        by_alias = {a.alias: a for a in q.atoms}
        # (r, x) sorts before (s, y), so the x class is v0.
        assert by_alias["r"].var_columns == (("v0", ("x",)),)
        assert by_alias["s"].var_columns == (("v0", ("x",)), ("v1", ("y",)))
        assert by_alias["t"].var_columns == (("v1", ("y",)),)

    def test_unqualified_column_resolves_to_unique_owner(self):
        q = parse("SELECT COUNT(*) FROM orders WHERE total > 3")
        assert q.predicates["orders"] == Range("total", 3.0, None, False, True)

    def test_literal_first_comparison_is_flipped(self):
        q = parse("SELECT COUNT(*) FROM orders WHERE 5 > orders.total")
        assert q.predicates["orders"] == Range("total", None, 5.0, True, False)
        q = parse("SELECT COUNT(*) FROM orders WHERE 3 <= orders.total")
        assert q.predicates["orders"] == Range("total", 3.0, None, True, True)

    def test_between_and_in_and_like(self):
        q = parse(
            "SELECT COUNT(*) FROM orders AS o, items AS i WHERE o.id = i.order_id"
            " AND o.total BETWEEN 5 AND 20 AND i.sku LIKE '%usb%'"
            " AND i.qty IN (3, 1, 3)"
        )
        assert q.predicates["o"] == Range("total", 5.0, 20.0, True, True)
        assert q.predicates["i"] == And(
            (Like("sku", "%usb%"), Or((Eq("qty", 1.0), Eq("qty", 3.0))))
        )

    def test_alias_without_predicate_has_no_entry(self):
        q = parse(
            "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id AND o.total > 3"
        )
        assert q.predicates == {"o": Range("total", 3.0, None, False, True)}

    def test_or_tree_survives(self):
        q = parse(
            "SELECT COUNT(*) FROM customers"
            " WHERE customers.region = 'east' OR customers.region = 'west'"
        )
        assert q.predicates["customers"] == Or(
            (Eq("region", "east"), Eq("region", "west"))
        )

    def test_negative_literals(self):
        q = parse("SELECT COUNT(*) FROM orders AS o WHERE o.total > -10 AND -2.5e1 <= o.id")
        assert q.predicates["o"] == And(
            (Range("total", -10.0, None, False, True), Range("id", -25.0, None, True, True))
        )

    def test_quoted_quote_unescapes(self):
        q = parse("SELECT COUNT(*) FROM customers WHERE customers.name = 'O''Brien'")
        assert q.predicates["customers"] == Eq("name", "O'Brien")

    def test_conjunct_order_does_not_change_canonical_text(self):
        parts = ["o.cust = c.id", "o.id = i.order_id", "o.total > 3"]
        texts = set()
        for perm in itertools.permutations(parts):
            sql = (
                "SELECT COUNT(*) FROM orders AS o, customers AS c, items AS i WHERE "
                + " AND ".join(perm)
            )
            texts.add(print_query(parse(sql)))
        assert len(texts) == 1

    def test_atom_helpers(self):
        q = parse(CHAIN_SQL, CHAIN_SCHEMA)
        s = next(a for a in q.atoms if a.alias == "s")
        assert s.variables() == ("v0", "v1")
        assert s.columns_for("v1") == ("y",)
        with pytest.raises(KeyError):
            s.columns_for("v9")


class TestValidation:
    def err(self, sql, schema=SCHEMA):
        with pytest.raises(QueryParseError) as info:
            parse(sql, schema)
        return str(info.value)

    def unsupported(self, sql, schema=SCHEMA):
        with pytest.raises(UnsupportedQueryError) as info:
            parse(sql, schema)
        return str(info.value)

    def test_parse_errors(self):
        assert "unknown relation" in self.err("SELECT COUNT(*) FROM nosuch")
        assert "duplicate alias" in self.err(
            "SELECT COUNT(*) FROM orders AS o, customers AS o"
        )
        assert "unknown alias" in self.err(
            "SELECT COUNT(*) FROM orders WHERE q.total = 3"
        )
        assert "has no column" in self.err(
            "SELECT COUNT(*) FROM orders WHERE orders.zap = 3"
        )
        assert "unknown column" in self.err(
            "SELECT COUNT(*) FROM orders WHERE zap = 3"
        )
        assert "ambiguous column" in self.err(
            "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE id = 3"
        )
        assert "unexpected trailing input" in self.err(
            "SELECT COUNT(*) FROM orders WHERE orders.total = 5 extra"
        )
        assert "unexpected character" in self.err(
            "SELECT COUNT(*) FROM orders WHERE orders.total = 5;"
        )
        assert "expected COUNT" in self.err("SELECT * FROM orders")
        assert "LIKE needs a string pattern" in self.err(
            "SELECT COUNT(*) FROM items WHERE items.sku LIKE 5"
        )

    def test_errors_carry_byte_position(self):
        message = self.err("SELECT COUNT(*) FROM nosuch")
        assert "at byte" in message

    # Malformed text in a predicate position of an otherwise valid query
    # (the predicate starts at position 34), plus empty and all-blank text.
    WHERE = "SELECT COUNT(*) FROM orders WHERE "

    @pytest.mark.parametrize(
        "sql, message, position",
        [
            (WHERE + "#", "unexpected character '#'", 34),
            (WHERE + "orders.total = é", "unexpected character 'é'", 49),
            (WHERE + "orders.total = 5;", "unexpected character ';'", 50),
            # a non-breaking space and a line separator are one-character blanks
            (WHERE + "orders.total =\xa05 #", "unexpected character '#'", 51),
            (WHERE + "orders.total = 5\u2028#", "unexpected character '#'", 51),
            (WHERE + "orders.note = 'abc", "unexpected character \"'\"", 48),
            (WHERE + "orders.total = -x", "unexpected character '-'", 49),
            (WHERE + "orders.total = a--b", "unexpected character '-'", 50),
            (WHERE + "orders.total = 1.2.3", "unexpected trailing input '.'", 52),
            (WHERE + "orders.note = 'a\nb' #", "unexpected character '#'", 54),
            ("", "expected SELECT, got 'end'", 0),
            (" \t\n ", "expected SELECT, got 'end'", 4),
        ],
    )
    def test_error_messages_and_positions(self, sql, message, position):
        with pytest.raises(QueryParseError) as info:
            parse(sql)
        assert str(info.value) == "%s (at byte %d)" % (message, position)
        assert info.value.position == position

    @staticmethod
    def nested(depth):
        return "SELECT COUNT(*) FROM orders WHERE " + "(" * depth + "orders.total = 1" + ")" * depth

    def test_nesting_up_to_the_limit_parses(self):
        q = parse(self.nested(MAX_NESTING))
        assert q.predicates["orders"] == Eq("total", 1.0)

    def test_nesting_past_the_limit_is_a_parse_error(self):
        # the 101st "(" is rejected where it stands
        with pytest.raises(QueryParseError) as info:
            parse(self.nested(MAX_NESTING + 1))
        assert str(info.value) == "parentheses nested deeper than 100 (at byte 134)"
        assert info.value.position == 34 + MAX_NESTING

    def test_very_deep_nesting_does_not_exhaust_the_stack(self):
        with pytest.raises(QueryParseError, match="nested deeper than 100"):
            parse(self.nested(5000))

    def test_unsupported_operators(self):
        assert "negation" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE NOT orders.total = 5"
        )
        assert "negated comparison" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE orders.total <> 5"
        )
        assert "IS NULL" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE orders.note IS NULL"
        )

    def test_unsupported_join_shapes(self):
        assert "non-equality joins" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o, items AS i WHERE o.total < i.qty"
        )
        assert "cannot join a numeric column with a text column" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o, items AS i WHERE o.total = i.sku"
        )
        assert "join conditions may not appear under OR" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.cust = c.id OR o.total = 5"
        )
        assert "cannot join with itself" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o WHERE o.id = o.id"
        )
        assert "same join class" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.id = c.id AND o.cust = c.id"
        )

    def test_join_class_error_points_at_the_closing_join(self):
        # the third join is the first to put two columns of s in one class
        sql = (
            "SELECT COUNT(*) FROM r AS x, r AS y, s"
            " WHERE x.a = y.b AND y.b = s.a AND x.a = s.b"
        )
        schema = {name: {"a": "numeric", "b": "numeric"} for name in ("r", "s")}
        with pytest.raises(UnsupportedQueryError) as info:
            parse(sql, schema)
        assert info.value.position == 73 == sql.index("x.a = s.b")
        assert str(info.value) == (
            "two columns of 's' fall in the same join class (at byte 73)"
        )

    def test_predicate_must_stay_on_one_relation(self):
        assert "one relation" in self.unsupported(
            "SELECT COUNT(*) FROM orders AS o, customers AS c"
            " WHERE o.total = 5 OR c.region = 'east'"
        )

    def test_kind_mismatches(self):
        assert "text literal compared with numeric column" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE orders.total = 'big'"
        )
        assert "numeric literal compared with text column" in self.unsupported(
            "SELECT COUNT(*) FROM customers WHERE customers.region = 9"
        )
        assert "BETWEEN needs a numeric column" in self.unsupported(
            "SELECT COUNT(*) FROM customers WHERE customers.region BETWEEN 'a' AND 'b'"
        )
        assert "LIKE needs a text column" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE orders.total LIKE '%5%'"
        )
        assert "ordered comparison needs a numeric column" in self.unsupported(
            "SELECT COUNT(*) FROM customers WHERE customers.region > 'm'"
        )
        assert "text literal" in self.unsupported(
            "SELECT COUNT(*) FROM orders WHERE orders.total IN (1, 'x')"
        )

    def test_fancy_like_patterns_rejected(self):
        assert "plain substring" in self.unsupported(
            "SELECT COUNT(*) FROM items WHERE items.sku LIKE '%a%b%'"
        )
        assert "plain substring" in self.unsupported(
            "SELECT COUNT(*) FROM items WHERE items.sku LIKE 'a_b'"
        )


# Texts covering every token kind, keywords in mixed case, quotes doubled
# inside strings, signed and exponent numbers, every operator, lone
# characters no token accepts and an unterminated quote.  Each maps to its
# printed form, or to its error class, message and byte position.
W = "SELECT COUNT(*) FROM orders WHERE "
TOKENIZER_PINS = [
    ('select count(*) from orders', ('ok', 'SELECT COUNT(*) FROM orders')),
    ('SeLeCt CoUnT(*) FrOm orders As o WhErE o.total bEtWeEn 1 AnD 5', ('ok', 'SELECT COUNT(*) FROM orders AS o WHERE o.total BETWEEN 1 AND 5')),
    ('SELECT\tCOUNT ( * )\nFROM orders , customers AS c wHeRe orders.cust=c.id', ('ok', 'SELECT COUNT(*) FROM orders, customers AS c WHERE c.id = orders.cust')),
    (W + "orders.note = 'it''s'", ('ok', W + "orders.note = 'it''s'")),
    (W + "orders.note = ''''", ('ok', W + "orders.note = ''''")),
    (W + "orders.note = ''", ('ok', W + "orders.note = ''")),
    (W + "orders.note = 'O''Brien''s' OR orders.note LIKE '%a''b%'", ('ok', W + "(orders.note = 'O''Brien''s' OR orders.note LIKE '%a''b%')")),
    (W + 'orders.total = -3', ('ok', W + 'orders.total = -3')),
    (W + 'orders.total > -2.5e3', ('ok', W + 'orders.total > -2500')),
    (W + 'orders.total <= 1E+2', ('ok', W + 'orders.total <= 100')),
    (W + 'orders.total >= 7e-1 AND orders.total < 0.125', ('ok', W + 'orders.total >= 0.7 AND orders.total < 0.125')),
    (W + 'orders.total < 1e999', ('ok', W + 'orders.total < 1e999')),
    (W + 'orders.total BETWEEN -1.5E2 AND 2e+2', ('ok', W + 'orders.total BETWEEN -150 AND 200')),
    (W + 'orders.total IN (3, -1, 2.5, 3)', ('ok', W + 'orders.total IN (-1, 2.5, 3)')),
    (W + '5 < orders.total AND 7 >= orders.total', ('ok', W + 'orders.total > 5 AND orders.total <= 7')),
    (W + "'x' = orders.note", ('ok', W + "orders.note = 'x'")),
    (W + 'orders.total <> 3', ('UnsupportedQueryError', 'negated comparison is not supported', 47)),
    (W + 'orders.total != 3', ('UnsupportedQueryError', 'negated comparison is not supported', 47)),
    (W + 'orders.total ! 3', ('QueryParseError', "unexpected character '!'", 47)),
    (W + 'orders.total = - 3', ('QueryParseError', "unexpected character '-'", 49)),
    (W + 'orders.total = 3 ;', ('QueryParseError', "unexpected character ';'", 51)),
    (';', ('QueryParseError', "unexpected character ';'", 0)),
    ('!', ('QueryParseError', "unexpected character '!'", 0)),
    ('-', ('QueryParseError', "unexpected character '-'", 0)),
    (W + "orders.note = 'abc", ('QueryParseError', 'unexpected character "\'"', 48)),
    (W + "orders.note LIKE '%ab", ('QueryParseError', 'unexpected character "\'"', 51)),
    (W + 'orders.total = 1 % 2', ('QueryParseError', "unexpected trailing input '%'", 51)),
    (W + 'orders.total = .5', ('QueryParseError', "expected a literal, got '.'", 49)),
    (W + 'orders.total = 3e', ('QueryParseError', "unexpected trailing input 'e'", 50)),
    (W + 'NOT orders.total = 3', ('UnsupportedQueryError', 'negation is not supported', 34)),
    (W + 'orders.total IS NULL', ('UnsupportedQueryError', 'IS NULL tests are not supported', 47)),
    (W + 'orders.total = 3 AND', ('QueryParseError', "expected column reference, got 'end'", 54)),
    ('SELECT COUNT(*) FROM orders AS select', ('QueryParseError', "unexpected trailing input 'SELECT'", 31)),
    ("SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id AND (c.region = 'east' OR c.region = 'west') AND o.total > 2", ('ok', "SELECT COUNT(*) FROM orders AS o, customers AS c WHERE c.id = o.cust AND o.total > 2 AND c.region IN ('east', 'west')")),
    ('SELECT COUNT(*) FROM items, orders WHERE items.order_id = orders.id AND qty >= 2', ('ok', 'SELECT COUNT(*) FROM items, orders WHERE items.order_id = orders.id AND items.qty >= 2')),
    (W + 'orders.total * 3', ('QueryParseError', "expected a comparison, got '*'", 47)),
    ('SELECT COUNT(*) FROM orders AS o, customers AS c WHERE (o.total = 1 OR c.id = 2)', ('UnsupportedQueryError', 'a predicate may only reference one relation', 71)),
    ('SELECT COUNT(*) FROM orders AS o, customers AS c WHERE (o.cust = c.id OR o.total = 1)', ('UnsupportedQueryError', 'join conditions may not appear under OR', 63)),
    ('SELECT COUNT(*) FROM orders AS o, customers AS c WHERE o.cust = c.id AND c.id = o.id', ('UnsupportedQueryError', "two columns of 'o' fall in the same join class", 73)),
    (W + 'orders.id = orders.id', ('UnsupportedQueryError', 'a column cannot join with itself', 44)),
    (W + 'orders.note = 3', ('UnsupportedQueryError', 'numeric literal compared with text column orders.note', 48)),
    (W + "orders.note < 'b'", ('UnsupportedQueryError', 'ordered comparison needs a numeric column', 48)),
    (W + "orders.total LIKE 'a'", ('UnsupportedQueryError', 'LIKE needs a text column', 47)),
    (W + "orders.note LIKE '%a%b%'", ('UnsupportedQueryError', 'only plain substring patterns are supported', 51)),
    ('SELECT COUNT(*) FROM orders AS o, orders AS o', ('QueryParseError', "duplicate alias 'o'", 34)),
    (W + 'orders.total IN (1, 2', ('QueryParseError', "expected ',' or ')' in IN list", 55)),
    ('SELECT COUNT(*) FROM orders AS WHERE orders.total = 1', ('QueryParseError', "expected alias after AS, got 'WHERE'", 31)),
    ('SELECT COUNT(*) FROM orders AS, customers AS c WHERE orders.cust = c.id', ('QueryParseError', "expected alias after AS, got ','", 30)),
    ('SELECT COUNT(*) FROM orders AS', ('QueryParseError', "expected alias after AS, got 'end'", 30)),
    ('SELECT COUNT * FROM orders', ('QueryParseError', "expected '(', got '*'", 13)),
    ('SELECT COUNT(*) FROM 5', ('QueryParseError', "expected relation name, got '5'", 21)),
    (W + 'orders.5 = 1', ('QueryParseError', "expected column after 'orders'.", 41)),
    (W + '5 orders.total', ('QueryParseError', 'expected comparison operator', 36)),
]


class TestTokenizerPins:
    @pytest.mark.parametrize("sql, want", TOKENIZER_PINS)
    def test_printed_form_or_error(self, sql, want):
        try:
            got = ("ok", print_query(parse(sql)))
        except QueryError as exc:
            got = (type(exc).__name__, str(exc).rsplit(" (at byte ", 1)[0], exc.position)
            assert str(exc) == "%s (at byte %d)" % (got[1], got[2])
        assert got == want


class TestLikeMatching:
    def test_contains_prefix_suffix_exact(self):
        assert like_matches("Abdulov", "%abdul%")
        assert like_matches("abdul", "abdul")
        assert like_matches("ABDUL", "abdul")
        assert like_matches("abdulov", "abdul%")
        assert not like_matches("xabdul", "abdul%")
        assert like_matches("xabdul", "%abdul")
        assert not like_matches("abdulov", "%abdul")
        assert not like_matches(None, "%abdul%")

    def test_bare_percent_matches_everything(self):
        assert like_matches("anything", "%")
        assert like_matches("", "%")

    def test_one_reading_of_a_pattern(self):
        assert like_parts("%ab%") == (True, "ab", True)
        assert like_parts("ab%") == (False, "ab", True)
        assert like_parts("%") == (True, "", False)
        assert like_parts("%%") == (True, "", True)
        # an API-built pattern keeps its inner percent signs as literal text
        assert like_parts("%%ab%%") == (True, "%ab%", True)
        assert like_matches("x%AB%y", "%%ab%%") and not like_matches("xaby", "%%ab%%")


class TestPredicateEval:
    def test_nulls_never_match(self):
        get = lambda col: None
        assert not predicate_matches(Eq("x", 3.0), get)
        assert not predicate_matches(Range("x", 0.0, 9.0), get)
        assert not predicate_matches(Or((Eq("x", 3.0),)), get)
        assert not predicate_matches(Like("x", "%a%"), get)

    def test_range_bounds(self):
        node = Range("x", 2.0, 5.0, False, True)
        assert not predicate_matches(node, lambda c: 2.0)
        assert predicate_matches(node, lambda c: 2.5)
        assert predicate_matches(node, lambda c: 5.0)
        assert not predicate_matches(node, lambda c: 5.5)

    def test_like_requires_text_value(self):
        assert not predicate_matches(Like("x", "%5%"), lambda c: 151.0)

    def test_and_or(self):
        node = And((Range("x", 0.0, 9.0), Or((Eq("x", 3.0), Eq("x", 4.0)))))
        assert predicate_matches(node, lambda c: 3.0)
        assert predicate_matches(node, lambda c: 4.0)
        assert not predicate_matches(node, lambda c: 5.0)


ROUND_TRIP_QUERIES = [
    "SELECT COUNT(*) FROM orders",
    "SELECT COUNT(*) FROM orders WHERE orders.total BETWEEN 5 AND 20",
    "SELECT COUNT(*) FROM orders WHERE orders.total > 3 AND orders.total <= 9.5",
    "SELECT COUNT(*) FROM customers WHERE customers.name = 'O''Brien'",
    "SELECT COUNT(*) FROM orders AS o, customers AS c, items AS i"
    " WHERE o.cust = c.id AND o.id = i.order_id"
    " AND o.total BETWEEN 5 AND 20"
    " AND (c.region = 'east' OR c.region = 'west')"
    " AND i.sku LIKE '%usb%' AND i.qty >= 2 AND c.name IN ('ann', 'bob')",
    "SELECT COUNT(*) FROM orders"
    " WHERE orders.total > 3 AND (orders.note LIKE '%x%' OR orders.note = 'y')",
    "SELECT COUNT(*) FROM orders AS o WHERE o.total >= -3 AND o.total < -0.5"
    " AND o.cust BETWEEN -7 AND -1e-3 AND o.id IN (-2, 4) AND -1.5e3 < o.cust",
    "SELECT COUNT(*) FROM orders WHERE orders.total < 1e999",
    "SELECT COUNT(*) FROM orders WHERE orders.total > -1e999 AND orders.id IN (1e999, 2)",
    "SELECT COUNT(*) FROM orders"
    " WHERE (orders.id = 1 AND (orders.total = 2 AND orders.cust = 3)) OR orders.id = 5",
    # an OR prints as an IN list only in the form an IN list parses to
    "SELECT COUNT(*) FROM orders WHERE orders.id IN (3) AND orders.note IN ('b', 'a')",
    "SELECT COUNT(*) FROM customers"
    " WHERE (customers.region = 'west' OR customers.region = 'east')"
    " AND (customers.id = 2 OR customers.id = 2 OR customers.name = 'x')",
]


class TestPrinting:
    @pytest.mark.parametrize("sql", ROUND_TRIP_QUERIES)
    def test_print_parse_fixed_point(self, sql):
        q = parse(sql)
        text = print_query(q)
        q2 = parse(text)
        assert q2 == q
        assert print_query(q2) == text

    def test_canonical_join_chain_for_shared_variable(self):
        schema = {
            "kk": {"z": "numeric"},
            "rr": {"z": "numeric"},
            "tt": {"z": "numeric"},
        }
        q = parse(
            "SELECT COUNT(*) FROM rr AS r, kk AS k, tt AS t"
            " WHERE t.z = r.z AND k.z = t.z",
            schema,
        )
        # One chain of consecutive pairs in sorted reference order.
        assert (
            print_query(q)
            == "SELECT COUNT(*) FROM rr AS r, kk AS k, tt AS t"
            " WHERE k.z = r.z AND r.z = t.z"
        )

    def test_flipped_literal_prints_on_column_side(self):
        q = parse("SELECT COUNT(*) FROM orders WHERE 5 > orders.total")
        assert print_query(q) == "SELECT COUNT(*) FROM orders WHERE orders.total < 5"


class TestJoinGraph:
    def test_chain_is_acyclic_and_connected(self):
        g = join_graph(parse(CHAIN_SQL, CHAIN_SCHEMA))
        assert g.acyclic and g.connected
        assert g.variables == {"v0": ("r", "s"), "v1": ("s", "t")}
        assert g.multi_column_pairs == ()

    def test_triangle_is_cyclic(self):
        g = join_graph(
            parse(
                "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
                " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u",
                EDGE_SCHEMA,
            )
        )
        assert not g.acyclic
        assert g.connected

    def test_two_column_pair_is_cyclic_and_reported(self):
        g = join_graph(parse(PAIR_SQL, PAIR_SCHEMA))
        assert not g.acyclic
        assert g.multi_column_pairs == (("x", "y", ("v0", "v1")),)

    def test_cross_product_is_disconnected(self):
        g = join_graph(parse("SELECT COUNT(*) FROM orders AS o, customers AS c"))
        assert not g.connected

    def test_single_atom_graph(self):
        g = join_graph(parse("SELECT COUNT(*) FROM orders WHERE orders.total = 5"))
        assert g.acyclic and g.connected and g.variables == {}


class TestDecompose:
    def test_chain_plan(self):
        plan = decompose(join_graph(parse(CHAIN_SQL, CHAIN_SCHEMA)))
        # s has the most variables, so it is the root, anchored at v0; t's
        # profile feeds the join and r's merges in at the anchor.
        assert plan.steps == (
            JoinStep("s1", "s", "v0", (("v1", ("t", "v1")),)),
            MergeStep("s2", "v0", ("s1", ("r", "v0"))),
        )
        assert plan.root == "s2"

    def test_self_join_plan(self):
        q = parse(
            "SELECT COUNT(*) FROM ra AS t1, ra AS t2 WHERE t1.x = t2.x",
            CHAIN_SCHEMA,
        )
        plan = decompose(join_graph(q))
        assert plan.steps == (
            JoinStep("s1", "t1", "v0", ()),
            MergeStep("s2", "v0", ("s1", ("t2", "v0"))),
        )

    def test_two_tier_star_collapses_to_two_merges_and_two_joins(self):
        # Seven atoms: a central 3-variable relation joined to a unary on one
        # side and, through a shared variable, to another 3-variable relation
        # with two unaries meeting at one of its columns and one at the other.
        schema = {
            "rr": {"x": "numeric", "y": "numeric", "z": "numeric"},
            "ss": {"y": "numeric"},
            "kk": {"z": "numeric"},
            "tt": {"z": "numeric", "v": "numeric", "w": "numeric"},
            "mm": {"v": "numeric"},
            "nn": {"v": "numeric"},
            "pp": {"w": "numeric"},
        }
        q = parse(
            "SELECT COUNT(*) FROM rr AS r, ss AS s, kk AS k, tt AS t,"
            " mm AS m, nn AS n, pp AS p"
            " WHERE r.y = s.y AND r.z = k.z AND r.z = t.z"
            " AND t.v = m.v AND t.v = n.v AND t.w = p.w",
            schema,
        )
        plan = decompose(join_graph(q))
        assert plan.steps == (
            MergeStep("s1", "v1", (("m", "v1"), ("n", "v1"))),
            JoinStep("s2", "t", "v0", (("v1", "s1"), ("v2", ("p", "v2")))),
            JoinStep("s3", "r", "v0", (("v3", ("s", "v3")),)),
            MergeStep("s4", "v0", ("s2", ("k", "v0"), "s3")),
        )
        assert plan.root == "s4"

    def test_every_atom_consumed_exactly_once(self):
        graph = join_graph(parse(
            "SELECT COUNT(*) FROM rr AS r, ss AS s, kk AS k, tt AS t,"
            " mm AS m, nn AS n, pp AS p"
            " WHERE r.y = s.y AND r.z = k.z AND r.z = t.z"
            " AND t.v = m.v AND t.v = n.v AND t.w = p.w",
            {
                "rr": {"x": "numeric", "y": "numeric", "z": "numeric"},
                "ss": {"y": "numeric"},
                "kk": {"z": "numeric"},
                "tt": {"z": "numeric", "v": "numeric", "w": "numeric"},
                "mm": {"v": "numeric"},
                "nn": {"v": "numeric"},
                "pp": {"w": "numeric"},
            },
        ))
        plan = decompose(graph)
        base_aliases = []
        join_aliases = []
        for step in plan.steps:
            refs = step.inputs if isinstance(step, MergeStep) else [i for _, i in step.children]
            for ref in refs:
                if isinstance(ref, tuple):
                    base_aliases.append(ref[0])
            if isinstance(step, JoinStep):
                join_aliases.append(step.alias)
        consumed = sorted(base_aliases + join_aliases)
        assert consumed == sorted(a.alias for a in graph.atoms)

    def test_root_ranked_and_anchored_by_shared_variables_only(self):
        # r binds the most variables, but v1 and v2 are its alone: s, with
        # two shared variables, is the root, and r feeds its v0 profile in
        graph = join_graph(Query((
            Atom("r", "rr", (("v0", ("x",)), ("v1", ("y",)), ("v2", ("z",)))),
            Atom("s", "ss", (("v0", ("x",)), ("v3", ("y",)))),
            Atom("t", "tt", (("v3", ("y",)),)),
        )))
        assert graph.variables == {"v0": ("r", "s"), "v3": ("s", "t")}
        assert decompose(graph).steps == (
            JoinStep("s1", "s", "v0", (("v3", ("t", "v3")),)),
            MergeStep("s2", "v0", ("s1", ("r", "v0"))),
        )

    def test_rejects_cyclic_and_disconnected(self):
        triangle = parse(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u",
            EDGE_SCHEMA,
        )
        with pytest.raises(ValueError, match="cyclic"):
            decompose(join_graph(triangle))
        with pytest.raises(ValueError, match="disconnected"):
            decompose(join_graph(parse("SELECT COUNT(*) FROM orders AS o, customers AS c")))

    def test_rejects_atom_without_join_variable(self):
        with pytest.raises(ValueError, match="no join variable"):
            decompose(join_graph(parse("SELECT COUNT(*) FROM orders WHERE orders.total = 5")))


class TestFusion:
    def test_parallel_edges_fuse_into_one_variable(self):
        fused = fuse_parallel_joins(join_graph(parse(PAIR_SQL, PAIR_SCHEMA)))
        by_alias = {a.alias: a for a in fused.atoms}
        assert by_alias["x"].var_columns == (("v0", ("a", "b")),)
        assert by_alias["y"].var_columns == (("v0", ("a", "b")),)
        assert fused.acyclic
        assert fused == join_graph(Query(fused.atoms))

    def test_shared_variable_blocks_fusion(self):
        schema = {
            "pa": {"a": "numeric", "b": "numeric"},
            "pb": {"a": "numeric", "b": "numeric"},
            "pc": {"a": "numeric"},
        }
        q = parse(
            "SELECT COUNT(*) FROM pa AS x, pb AS y, pc AS z"
            " WHERE x.a = y.a AND x.b = y.b AND y.a = z.a",
            schema,
        )
        # The a-variable also reaches z, so only exclusive pairs may fuse and
        # one column alone is not enough.
        g = join_graph(q)
        assert g.multi_column_pairs == (("x", "y", ("v0", "v1")),)
        assert fuse_parallel_joins(g) is g

    def test_acyclic_query_unchanged(self):
        g = join_graph(parse(CHAIN_SQL, CHAIN_SCHEMA))
        assert fuse_parallel_joins(g) is g

    def test_fused_graph_equals_rebuilt_graph(self):
        # random multigraphs: each variable joins two or three of at most
        # four aliases, so pairs often share several variables, some of
        # which also reach a third alias
        rng = random.Random(7)
        merged = 0
        for _ in range(500):
            aliases = ["a%d" % i for i in range(rng.randint(2, 4))]
            cols = {a: [] for a in aliases}
            for k in range(rng.randint(1, 6)):
                width = min(len(aliases), rng.choice((2, 2, 2, 3)))
                for a in rng.sample(aliases, width):
                    cols[a].append(("x%d" % k, ("c%d" % k,)))
            q = Query(tuple(Atom(a, "r", tuple(cols[a])) for a in aliases), {})
            graph = join_graph(q)
            fused = fuse_parallel_joins(graph)
            rebuilt = join_graph(Query(fused.atoms))
            assert fused.variables == rebuilt.variables
            assert fused.cycles == rebuilt.cycles
            assert fused.acyclic == rebuilt.acyclic
            assert fused.connected == rebuilt.connected
            merged += fused is not graph
        assert merged >= 100


class TestSpanningTrees:
    def test_acyclic_passthrough(self):
        g = join_graph(parse(CHAIN_SQL, CHAIN_SCHEMA))
        assert spanning_trees(g) == (g,)

    def test_triangle_has_three_trees(self):
        q = parse(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u",
            EDGE_SCHEMA,
        )
        trees = spanning_trees(join_graph(q))
        assert len(trees) == 3
        for tree in trees:
            assert tree == join_graph(Query(tree.atoms))
            assert tree.acyclic and tree.connected
            assert len(tree.variables) == 2

    def test_four_cycle_has_four_trees(self):
        q = parse(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c, e4 AS d"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = d.u AND d.v = a.u",
            EDGE_SCHEMA,
        )
        trees = spanning_trees(join_graph(q))
        assert len(trees) == 4
        for tree in trees:
            assert tree == join_graph(Query(tree.atoms))
            assert tree.acyclic and tree.connected

    def test_two_column_pair_splits_into_each_column(self):
        trees = spanning_trees(join_graph(parse(PAIR_SQL, PAIR_SCHEMA)))
        assert len(trees) == 2
        kept = set()
        for tree in trees:
            by_alias = {a.alias: a for a in tree.atoms}
            assert by_alias["x"].var_columns == by_alias["y"].var_columns
            (var_cols,) = by_alias["x"].var_columns
            kept.add(var_cols[1])
        assert kept == {("a",), ("b",)}

    def test_cap_limits_enumeration(self):
        q = parse(
            "SELECT COUNT(*) FROM e1 AS a, e2 AS b, e3 AS c"
            " WHERE a.v = b.u AND b.v = c.u AND c.v = a.u",
            EDGE_SCHEMA,
        )
        assert len(spanning_trees(join_graph(q), cap=2)) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            spanning_trees(join_graph(parse("SELECT COUNT(*) FROM orders AS o, customers AS c")))


def reference_spanning_trees(query, cap):
    """Every (n-1)-edge combination in canonical order, kept when it is a
    spanning tree: exponential, but obviously right on small graphs."""
    graph = join_graph(query)
    var_atoms = {v: list(a) for v, a in graph.variables.items()}
    aliases = sorted(a.alias for a in query.atoms)
    edges = [
        (var, a1, a2)
        for var in sorted(var_atoms)
        for a1, a2 in itertools.combinations(sorted(var_atoms[var]), 2)
    ]
    trees = []
    for combo in itertools.combinations(edges, len(aliases) - 1):
        parent = {a: a for a in aliases}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for _, a1, a2 in combo:
            r1, r2 = find(a1), find(a2)
            if r1 == r2:
                acyclic = False
                break
            parent[r1] = r2
        if acyclic and len({find(a) for a in aliases}) == 1:
            trees.append(combo)
            if len(trees) >= cap:
                break
    return tuple(_retie(graph, combo) for combo in trees)


def random_cyclic_query(rng):
    while True:
        aliases = ["a%d" % i for i in range(rng.randint(3, 5))]
        cols = {a: [] for a in aliases}
        for k in range(rng.randint(2, 5)):
            for a in sorted(rng.sample(aliases, rng.choice((2, 2, 3)))):
                cols[a].append(("x%d" % k, ("c%d" % k,)))
        q = Query(tuple(Atom(a, "r", tuple(cols[a])) for a in aliases), {})
        g = join_graph(q)
        if g.connected and not g.acyclic:
            return q


class TestSpanningTreeSearch:
    def test_matches_plain_enumeration(self):
        rng = random.Random(11)
        for _ in range(300):
            q = random_cyclic_query(rng)
            cap = rng.choice((1, 3, 64))
            assert spanning_trees(join_graph(q), cap) == reference_spanning_trees(q, cap)

    def test_clique_variable_with_closing_chain_is_bounded_quickly(self):
        # 16 aliases share one variable (120 pair edges) and a 6-link chain
        # through 5 more aliases closes a cycle; almost every 20-edge
        # combination of the 126 edges holds a cycle
        n = 20
        rel = Relation(
            "e",
            [Column("u", "numeric"), Column("v", "numeric")],
            {"u": np.arange(n) % 4 + 1.0, "v": np.arange(n) % 5 + 1.0},
            n,
        )
        catalog = build_catalog({"e": rel}, {"e": ColumnRole(("u", "v"), ())})
        star = ["s%d" % i for i in range(16)]
        chain = ["c%d" % i for i in range(1, 6)]
        conds = ["s0.u = %s.u" % a for a in star[1:]]
        links = ["s0", *chain, "s1"]
        conds += ["%s.v = %s.u" % (a, b) for a, b in zip(links, links[1:-1])]
        conds.append("c5.v = s1.v")
        sql = "SELECT COUNT(*) FROM %s WHERE %s" % (
            ", ".join("e AS %s" % a for a in star + chain),
            " AND ".join(conds),
        )
        q = parse_query(sql, {"e": {"u": "numeric", "v": "numeric"}})
        t0 = time.perf_counter()
        trees = spanning_trees(join_graph(q))
        result = bound_query(catalog, q)
        elapsed = time.perf_counter() - t0
        assert len(trees) == 64
        assert result.strategy == "min-over-64-spanning-trees"
        assert elapsed < 1.0
