import hashlib
import json
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from seqbound.catalog_io import (
    MAGIC,
    CatalogFormatError,
    load_catalog,
    save_catalog,
)
from seqbound.cli import main
from seqbound.pwfn import PiecewiseLinearFn
from seqbound.relation import Column, ColumnRole, PkFkDeclaration, Relation
from seqbound.stats import (
    FAMILIES,
    BuildParams,
    FilterStats,
    RelationStats,
    StatisticsCatalog,
    build_catalog,
)


def sample_catalog():
    rng = np.random.default_rng(17)
    fact = Relation(
        "fact",
        [Column("fk", "numeric"), Column("amt", "numeric"), Column("tag", "text")],
        {
            "fk": rng.integers(1, 9, size=60).astype(float),
            "amt": rng.integers(0, 20, size=60).astype(float),
            "tag": [["alpha", "beta", "gamma", "delta"][i % 4] for i in range(60)],
        },
        60,
    )
    dim = Relation(
        "dim",
        [Column("k", "numeric"), Column("name", "text")],
        {
            "k": np.arange(1.0, 9.0),
            "name": ["aaa", "bbb", "ccc", "ddd", "eee", "fff", "ggg", "hhh"],
        },
        8,
    )
    return build_catalog(
        {"fact": fact, "dim": dim},
        {
            "fact": ColumnRole(("fk",), ("amt", "tag")),
            "dim": ColumnRole(("k",), ("name",)),
        },
        (PkFkDeclaration("fact", "fk", "dim", "k"),),
        BuildParams(mcv_size=6, hist_depth=3, clusters=3),
    )


class TestRoundTrip:
    def test_catalog_survives(self, tmp_path):
        cat = sample_catalog()
        p = tmp_path / "c.bin"
        save_catalog(cat, str(p))
        back = load_catalog(str(p))
        assert back.params == cat.params
        assert set(back.relations) == set(cat.relations)
        for name, rs in cat.relations.items():
            loaded = back.relations[name]
            assert loaded.cardinality == rs.cardinality
            assert loaded.column_kinds == rs.column_kinds
            assert loaded.join_columns == rs.join_columns
            assert loaded.fallback == rs.fallback
            assert loaded.equality == rs.equality
            assert loaded.range == rs.range
            assert loaded.like == rs.like
        assert back.pkfk == cat.pkfk

    def test_duplicate_saves_are_byte_identical(self, tmp_path):
        cat = sample_catalog()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_catalog(cat, str(p1))
        save_catalog(cat, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        cat = sample_catalog()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_catalog(cat, str(p1))
        save_catalog(load_catalog(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_equal_profiles_load_as_one_object(self, tmp_path):
        rels = {
            name: Relation(
                name,
                [Column("k", "numeric"), Column("f", "numeric")],
                {"k": np.array([1.0, 1.0, 2.0, 3.0]), "f": np.array([5.0, 6.0, 5.0, 7.0])},
                4,
            )
            for name in ("left", "right")
        }
        cat = build_catalog(rels, {r: ColumnRole(("k",), ("f",)) for r in rels})
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_catalog(cat, str(p1))
        # each range default is its join column's fallback, and the file
        # stores that profile, like every other, once
        plain = json.loads(p1.read_bytes()[len(MAGIC) + 12 : -32])
        stored = [fn for rs in cat.relations.values() for fn in _profiles(rs)]
        assert len(plain["profiles"]) == len(set(stored)) < len(stored)
        for rp in plain["relations"].values():
            assert rp["range"][0]["default"] == rp["fallback"]["k"]
        back = load_catalog(str(p1))
        left, right = back.relations["left"], back.relations["right"]
        assert left.fallback["k"] == cat.relations["left"].fallback["k"]
        assert left.fallback["k"] is right.fallback["k"]
        assert left.fallback["f"] is right.fallback["f"]
        assert left.equality[("k", "f")].default is right.equality[("k", "f")].default
        loaded = [fn for rs in back.relations.values() for fn in _profiles(rs)]
        assert len({id(fn) for fn in loaded}) == len(set(loaded)) < len(loaded)
        save_catalog(back, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def set_at(*path, value):
    """A payload edit that sets the item at ``path`` under relation fact."""

    def edit(plain):
        node = plain["relations"]["fact"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def set_profile_at(*path, part, pos, value):
    """A payload edit that sets item ``pos`` of the knots or values
    (``part``) of the table profile that the reference at ``path`` under
    relation fact names."""

    def edit(plain):
        node = plain["relations"]["fact"]
        for key in path:
            node = node[key]
        plain["profiles"][node][("knots", "values").index(part)][pos] = value

    return edit


class TestFormatErrors:
    def write_good(self, tmp_path):
        p = tmp_path / "c.bin"
        save_catalog(sample_catalog(), str(p))
        return p

    def test_not_a_catalog(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"definitely not the right file")
        with pytest.raises(CatalogFormatError, match="not a statistics catalog"):
            load_catalog(str(p))

    def test_future_version(self, tmp_path):
        p = self.write_good(tmp_path)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(CatalogFormatError, match="version 99"):
            load_catalog(str(p))

    def test_truncation(self, tmp_path):
        p = self.write_good(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CatalogFormatError, match="truncated"):
            load_catalog(str(p))

    def test_corruption(self, tmp_path):
        p = self.write_good(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        p.write_bytes(bytes(blob))
        with pytest.raises(CatalogFormatError, match="checksum"):
            load_catalog(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_catalog(str(tmp_path / "nope.bin"))

    def rewrite_payload(self, p, payload: bytes) -> None:
        """Replace the payload of catalog file p, with a valid checksum."""
        blob = p.read_bytes()
        p.write_bytes(
            blob[: len(MAGIC) + 4]
            + struct.pack("<Q", len(payload))
            + payload
            + hashlib.sha256(payload).digest()
        )

    def edit_payload(self, p, edit) -> None:
        """Apply edit to the decoded payload of p and re-encode it."""
        plain = json.loads(p.read_bytes()[len(MAGIC) + 12 : -32])
        edit(plain)
        self.rewrite_payload(p, json.dumps(plain).encode())

    def assert_rejected(self, p, match, capsys):
        with pytest.raises(CatalogFormatError, match=match):
            load_catalog(str(p))
        sql = "SELECT COUNT(*) FROM fact WHERE fact.amt < 1"
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 2
        assert re.search(match, capsys.readouterr().err)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_old_version_rejected(self, tmp_path, capsys, version):
        p = self.write_good(tmp_path)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, len(MAGIC), version)
        p.write_bytes(bytes(blob))
        self.assert_rejected(p, "format version %d not supported" % version, capsys)

    @pytest.mark.parametrize(
        "params, match",
        [
            # format 4 stored "max_segments": null
            ({"max_segments": None}, "unknown build parameters: max_segments"),
            ({"clusters": "3"}, "clusters must be 'auto' or an integer"),
        ],
        ids=["unknown-key", "string-clusters"],
    )
    def test_invalid_params(self, tmp_path, capsys, params, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, lambda c: c["params"].update(params))
        self.assert_rejected(p, match, capsys)

    def test_out_of_range_bucket_id(self, tmp_path, capsys):
        # a well-formed, correctly checksummed file whose histogram level
        # points a bucket past the end of the representatives
        p = self.write_good(tmp_path)

        def edit(plain):
            level = plain["relations"]["fact"]["range"][0]["levels"][0]
            level["groups"][0] = 999

        self.edit_payload(p, edit)
        self.assert_rejected(p, "bucket ids", capsys)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # a fallback total of Infinity would bound COUNT(*) at 0
            (set_profile_at("fallback", "fk", part="values", pos=-1, value=math.inf),
             "must be finite"),
            (set_profile_at("fallback", "amt", part="knots", pos=-1, value=math.inf),
             "must be finite"),
            (set_profile_at("equality", 0, "default", part="values", pos=1, value=math.nan),
             "must be finite"),
            (set_at("cardinality", value=math.inf), "non-negative integer"),
            (set_at("cardinality", value=-1), "non-negative integer"),
            (set_at("cardinality", value=60.5), "non-negative integer"),
        ],
        ids=[
            "infinite-total", "infinite-knot", "nan-value",
            "infinite-cardinality", "negative-cardinality", "fractional-cardinality",
        ],
    )
    def test_non_finite_or_fractional_number(self, tmp_path, capsys, edit, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, edit)
        self.assert_rejected(p, match, capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            set_at("fallback", "fk", value=True),
            set_at("range", 0, "default", value=1.0),
            set_at("equality", 0, "groups", 0, "representative", value=-1),
            lambda c: c["relations"]["fact"]["like"][0].update(default=len(c["profiles"])),
        ],
        ids=["bool", "float", "negative", "past-the-end"],
    )
    def test_profile_reference_outside_the_table(self, tmp_path, capsys, edit):
        p = self.write_good(tmp_path)
        self.edit_payload(p, edit)
        self.assert_rejected(p, "profile reference .* outside a table", capsys)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # a filter column missing from column_kinds
            (lambda c: c["relations"]["fact"]["column_kinds"].pop("amt"), "no declared kind"),
            # a declared column without its fallback profile
            (lambda c: c["relations"]["fact"]["fallback"].pop("fk"), "no fallback profile"),
            # conditioned statistics on a column that is not a filter column
            (
                lambda c: c["relations"]["fact"]["equality"][0].update(filter="fk"),
                "undeclared column pair",
            ),
        ],
        ids=["role-without-kind", "column-without-fallback", "undeclared-pair"],
    )
    def test_dangling_column_reference(self, tmp_path, capsys, edit, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, edit)
        self.assert_rejected(p, match, capsys)

    @pytest.mark.parametrize(
        "payload",
        [b"{not json", b"[1, 2, 3]", b"[" * 200_000 + b"]" * 200_000],
        ids=["invalid-json", "not-an-object", "deep-nesting"],
    )
    def test_undecodable_payload(self, tmp_path, capsys, payload):
        p = self.write_good(tmp_path)
        self.rewrite_payload(p, payload)
        self.assert_rejected(p, "payload", capsys)


def _assert_bit_identical(a, b):
    """Same structure and types, every float the same IEEE-754 bits."""
    assert type(a) is type(b)
    if isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _assert_bit_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bit_identical(x, y)
    else:
        assert a == b


def _profiles(rs: RelationStats) -> list:
    """Every profile a relation's statistics hold."""
    fns = list(rs.fallback.values())
    for family in FAMILIES:
        for st in getattr(rs, family).values():
            fns += [*st.representatives, st.default]
    return fns


def _stored_values(cat: StatisticsCatalog) -> list:
    """Every stored float and key of a catalog, in a load-independent order."""

    def fns(fs):
        return [(f.knots, f.values) for f in fs]

    out: list = [cat.params.compression_budget]
    for name, rs in sorted(cat.relations.items()):
        out.append(fns(fn for _, fn in sorted(rs.fallback.items())))
        for family in FAMILIES:
            for _, st in sorted(getattr(rs, family).items()):
                keys = sorted(st.keys.items(), key=lambda kv: (kv[1], str(kv[0])))
                out.append((keys, st.levels, fns((st.default, *st.representatives))))
    return out


def test_float_and_text_keys_round_trip_exactly(tmp_path):
    fn = PiecewiseLinearFn([0.0, 0.1 + 0.2, 1.0, 7.0], [0.0, 1.0 / 3.0, 0.9, 2.0])
    num_keys = [-0.0, float("inf"), 0.1 + 0.2, 1e-300, -2.5]
    text_keys = ["naïve", "日本", "it's", 'say "hi"', "back\\slash", "two\nlines"]
    rel = RelationStats(
        name="r",
        cardinality=7,
        column_kinds={"j": "numeric", "f": "numeric", "s": "text"},
        join_columns=("j",),
        filter_columns=("f", "s"),
        fallback={"j": fn, "f": fn, "s": fn},
        equality={
            ("j", "f"): FilterStats((fn,), fn, {k: 0 for k in num_keys}),
            ("j", "s"): FilterStats((fn, fn), fn, {k: i % 2 for i, k in enumerate(text_keys)}),
        },
        range={("j", "f"): FilterStats((fn,), fn, levels=(((1e-300, 0.1 + 0.2), (0, 0, 0)),))},
        like={},
    )
    cat = StatisticsCatalog(BuildParams(compression_budget=0.1 + 0.2), {"r": rel})
    p = tmp_path / "c.bin"
    save_catalog(cat, str(p))
    _assert_bit_identical(_stored_values(cat), _stored_values(load_catalog(str(p))))


def test_self_join_of_a_profile_rising_inside_the_tolerance(tmp_path, capsys):
    # fact.fk's slopes 2 then 2 + 1.5e-7 rise inside the tolerance 1e-7 * 2;
    # their squares, multiplied in the self-join's merge step, rise outside
    # the tolerance 1e-7 * 4
    cat = sample_catalog()
    fact = cat.relations["fact"]
    fk = PiecewiseLinearFn((0.0, 1.0, 3.0), (0.0, 2.0, 2.0 + 2.0 * (2.0 + 1.5e-7)))
    cat.relations["fact"] = replace(fact, fallback={**fact.fallback, "fk": fk})
    p = tmp_path / "c.bin"
    save_catalog(cat, str(p))
    sql = "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk"
    assert main(["estimate", "--catalog", str(p), "--query", sql]) == 0
    # both segments at the larger square, (2 + 1.5e-7)^2, over ranks (0, 3]
    assert int(capsys.readouterr().out) == 13
