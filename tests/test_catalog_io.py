import copy
import errno
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import struct
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from seqbound import catalog_io
from seqbound.catalog_io import (
    HEADER,
    MAGIC,
    VERSION,
    CatalogFormatError,
    decode_file,
    encode_file,
    load_catalog,
    save_catalog,
)
from seqbound.cli import main
from seqbound.inference import bound_query
from seqbound.pwfn import InconsistentStatisticsError, PiecewiseLinearFn
from seqbound.query import parse_query
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
            # 8 values on 60 rows: each but the smallest starts a finest bucket
            "amt": rng.integers(0, 8, size=60).astype(float),
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
        BuildParams(mcv_size=6),
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
        plain = decode_file(p1.read_bytes())
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


def edit_range(edit):
    """A payload edit applied to relation fact's first range statistic."""
    return lambda plain: edit(plain["relations"]["fact"]["range"][0])


def framed(payload: bytes) -> tuple[bytes, int]:
    """The stored stream of a payload, and its inflated length."""
    return zlib.compress(payload), len(payload)


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

    def test_truncation(self, tmp_path, capsys):
        # the checksum closes the file: a file cut short or run on is refused
        p = self.write_good(tmp_path)
        blob = p.read_bytes()
        for bad, match in (
            (blob[: len(blob) // 2], "truncated"),
            (blob + b"trailing junk", r"13 byte\(s\) after the checksum"),
        ):
            p.write_bytes(bad)
            self.assert_rejected(p, match, capsys)

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

    def edit_payload(self, p, edit) -> None:
        """Apply edit to the decoded payload of p and re-encode it."""
        plain = decode_file(p.read_bytes())
        edit(plain)
        p.write_bytes(encode_file(plain))

    def assert_rejected(self, p, match, capsys):
        with pytest.raises(CatalogFormatError, match=match):
            load_catalog(str(p))
        sql = "SELECT COUNT(*) FROM fact WHERE fact.amt < 1"
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 2
        err = capsys.readouterr().err
        assert re.search(match, err) and "Traceback" not in err

    @pytest.mark.parametrize("version", [2, 3, 4, 5, 6, 7])
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
            # format 6 stored "hist_depth" and "clusters"
            ({"hist_depth": 7, "clusters": "auto"}, "unknown build parameters: clusters, hist_depth"),
            ({"mcv_size": "3"}, "mcv_size must be a non-negative integer"),
        ],
        ids=["unknown-key", "format-6-keys", "string-mcv-size"],
    )
    def test_invalid_params(self, tmp_path, capsys, params, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, lambda c: c["params"].update(params))
        self.assert_rejected(p, match, capsys)

    def test_out_of_range_bucket_id(self, tmp_path, capsys):
        # a well-formed, correctly checksummed file whose histogram level
        # points a bucket past the end of the representatives
        p = self.write_good(tmp_path)

        self.edit_payload(p, set_at("range", 0, "levels", 0, 0, value=999))
        self.assert_rejected(p, "bucket ids", capsys)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # fact.amt's histogram has 7 cuts, so 3 levels of 8, 4 and 2 buckets
            (edit_range(lambda r: r.update(cuts=[str(c) for c in r["cuts"]])),
             r"histogram cuts .* are not ascending numbers"),
            (edit_range(lambda r: r["cuts"].__setitem__(3, math.nan)),
             r"histogram cuts .* are not ascending numbers"),
            (edit_range(lambda r: r["cuts"].reverse()),
             r"histogram cuts .* are not ascending numbers"),
            (edit_range(lambda r: r["levels"].pop()), r"2 histogram level\(s\) for 7 cut\(s\)"),
            (edit_range(lambda r: r["levels"][1].pop()), "histogram level 1 of 7 cut"),
            (edit_range(lambda r: r["keys"].append([])), r"5 key list\(s\) for 4 representative"),
            (lambda c: c["relations"]["fact"]["equality"][0]["keys"].pop(),
             r"key list\(s\) for \d+ representative"),
            # equality entries: (fk, __dim__name) text, (fk, amt) numeric, (fk, tag) text;
            # like entries: (fk, __dim__name), (fk, tag)
            (set_at("equality", 1, "keys", 0, 0, value="1.0"),
             r"key '1\.0' of the wrong kind for a numeric filter"),
            (set_at("equality", 1, "keys", 0, 0, value=True),
             "key True of the wrong kind for a numeric filter"),
            (set_at("equality", 2, "keys", 0, 0, value=1.0),
             r"key 1\.0 of the wrong kind for a text filter"),
            (set_at("like", 1, "keys", 0, 0, value="alph"),
             "key 'alph' of the wrong kind for a text filter"),
            (set_at("like", 1, "keys", 0, 0, value=123),
             "key 123 of the wrong kind for a text filter"),
            # query grams are lower-cased, so no pattern reaches this key
            (set_at("like", 1, "keys", 0, 0, value="ALP"),
             "key 'ALP' of the wrong kind for a text filter"),
        ],
        ids=[
            "string-cuts", "nan-cut", "descending-cuts", "level-count", "level-length",
            "more-key-lists", "fewer-key-lists", "string-numeric-key", "bool-numeric-key",
            "number-text-key", "long-gram", "number-gram", "upper-case-gram",
        ],
    )
    def test_malformed_statistic(self, tmp_path, capsys, edit, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, edit)
        self.assert_rejected(p, match, capsys)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # a fallback total of Infinity would bound COUNT(*) at 0
            (set_profile_at("fallback", "fk", part="values", pos=-1, value=math.inf),
             "must be finite"),
            (set_profile_at("fallback", "amt", part="knots", pos=-1, value=math.inf),
             "must be finite"),
            # once gave OverflowError from math.isfinite
            (set_profile_at("fallback", "amt", part="knots", pos=-1, value=10**400),
             "int too large to convert to float"),
            (set_profile_at("equality", 0, "default", part="values", pos=1, value=math.nan),
             "must be finite"),
            (set_at("cardinality", value=math.inf), "non-negative integer"),
            (set_at("cardinality", value=-1), "non-negative integer"),
            (set_at("cardinality", value=60.5), "non-negative integer"),
        ],
        ids=[
            "infinite-total", "infinite-knot", "huge-integer-knot", "nan-value",
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
            set_at("equality", 0, "representatives", 0, value=-1),
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
        "edit, match",
        [
            # once gave TypeError: unhashable type: 'list' in condition_sequence
            (lambda c: c["pkfk"][0]["propagated"].update(name=["x"]), "fields must be strings"),
            (lambda c: c["pkfk"][0].update(fk=7), "fields must be strings"),
            (lambda c: c["pkfk"][0].update(propagated=[]), "propagated must map strings"),
            (lambda c: c["pkfk"][0].update(dim="nope"), r"unknown column nope\.k"),
            (lambda c: c["pkfk"][0].update(pk="name2"), r"unknown column dim\.name2"),
            (lambda c: c["pkfk"][0].update(fk="fk2"), r"unknown column fact\.fk2"),
            (lambda c: c["pkfk"][0]["propagated"].update(nope="__dim__name"),
             r"unknown column dim\.nope"),
            (lambda c: c["pkfk"][0]["propagated"].update(name="__dim__gone"),
             r"unknown column fact\.__dim__gone"),
            # once gave OverflowError: int too large to convert to float
            (set_at("cardinality", value=10**400), "at most 2\\*\\*53"),
            (set_at("cardinality", value=2**53 + 1), "at most 2\\*\\*53"),
        ],
        ids=[
            "list-propagated-column", "numeric-fk", "list-propagated", "unknown-dim",
            "unknown-pk", "unknown-fk", "unknown-pushed-column", "unknown-fact-column",
            "huge-cardinality", "cardinality-past-2**53",
        ],
    )
    def test_unusable_pkfk_edge_or_cardinality(self, tmp_path, capsys, edit, match):
        p = self.write_good(tmp_path)
        self.edit_payload(p, edit)
        self.assert_rejected(p, match, capsys)

    def test_string_keys_on_a_numeric_filter_exit_2(self, tmp_path, capsys):
        # keys that no numeric literal equals send a tracked value to the
        # tail default, which lacks its rows: once bounded at 5, true count 25
        r = Relation(
            "r",
            [Column("j", "numeric"), Column("f", "numeric")],
            {
                "j": np.array([1, 1, 1, 1, 1, 2, 3, 4, 5, 6], dtype=float),
                "f": np.array([7, 7, 7, 7, 7, 8, 9, 10, 11, 12], dtype=float),
            },
            10,
        )
        cat = build_catalog({"r": r}, {"r": ColumnRole(("j",), ("f",))}, params=BuildParams(mcv_size=2))
        p = tmp_path / "c.bin"
        save_catalog(cat, str(p))
        sql = "SELECT COUNT(*) FROM r AS a, r AS b WHERE a.j = b.j AND a.f = 7"
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 0
        assert int(capsys.readouterr().out) >= 25

        def stringify(plain):
            [eq] = plain["relations"]["r"]["equality"]
            assert eq["keys"] == [[7.0], [8.0]]
            eq["keys"] = [[str(k) for k in ks] for ks in eq["keys"]]

        self.edit_payload(p, stringify)
        with pytest.raises(CatalogFormatError, match="key '7.0' of the wrong kind"):
            load_catalog(str(p))
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 2
        assert "of the wrong kind for a numeric filter" in capsys.readouterr().err

    def test_largest_cardinality_loads(self, tmp_path):
        p = self.write_good(tmp_path)
        self.edit_payload(p, set_at("cardinality", value=2**53))
        assert load_catalog(str(p)).relations["fact"].cardinality == 2**53

    @pytest.mark.parametrize("factor", [1e3, 1e300])
    def test_profile_above_the_cardinality_exits_2(self, tmp_path, capsys, factor):
        # every profile value times 1000 or 1e300 is finite, but then some
        # profile holds more rows than its relation; 1e300 once loaded and
        # overflowed at bound time
        p = self.write_good(tmp_path)

        def scale(plain):
            for profile in plain["profiles"]:
                profile[1] = [v * factor for v in profile[1]]

        self.edit_payload(p, scale)
        self.assert_rejected(p, "more than its cardinality", capsys)

    def test_bound_past_the_float_range_exits_2(self, tmp_path, capsys):
        # a valid catalog: 2**53 rows on one fk key; 21 aliases joined on fk
        # count (2**53)**21 rows, past the float range: once OverflowError
        # at round(best)
        p = self.write_good(tmp_path)

        def one_huge_key(plain):
            fact = plain["relations"]["fact"]
            fact["cardinality"] = 2**53
            fact["fallback"]["fk"] = len(plain["profiles"])
            plain["profiles"].append([[0.0, 1.0], [0.0, float(2**53)]])

        self.edit_payload(p, one_huge_key)
        catalog = load_catalog(str(p))
        aliases = ["a%d" % i for i in range(21)]
        sql = "SELECT COUNT(*) FROM %s WHERE %s" % (
            ", ".join("fact AS %s" % a for a in aliases),
            " AND ".join("%s.fk = %s.fk" % pair for pair in zip(aliases, aliases[1:])),
        )
        query = parse_query(sql, {"fact": catalog.relations["fact"].column_kinds})
        with pytest.raises(InconsistentStatisticsError, match="overflows a float"):
            bound_query(catalog, query)
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 2
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "frame, match",
        [
            (lambda raw: framed(b"{not json"), "malformed payload: Expecting"),
            (lambda raw: framed(b"[1, 2, 3]"), "payload is not a JSON object"),
            (lambda raw: framed(b"[" * 200_000 + b"]" * 200_000),
             "malformed payload: maximum recursion"),
            (lambda raw: (raw, len(raw)), "malformed payload: Error -3"),
            (lambda raw: (zlib.compress(raw)[:-8], len(raw)), "stream does not end at"),
            (lambda raw: (zlib.compress(raw) + b"\0", len(raw)), "stream does not end at"),
            (lambda raw: (zlib.compress(raw), len(raw) - 1), "stream does not end at"),
            (lambda raw: (zlib.compress(raw), len(raw) + 1), "stream does not end at"),
            # a limit of 0 would inflate without bound; 2**64 - 1 overflows it
            (lambda raw: (zlib.compress(raw), 0), "stream does not end at 0 "),
            (lambda raw: (zlib.compress(raw), 2**64 - 1), "malformed payload: .*too large"),
        ],
        ids=[
            "invalid-json", "not-an-object", "deep-nesting", "not-zlib", "truncated-stream",
            "bytes-after-stream", "length-one-below", "length-one-above", "length-zero",
            "length-past-ssize_t",
        ],
    )
    def test_undecodable_payload(self, tmp_path, capsys, frame, match):
        # each file carries a valid checksum of its stored stream; raw is
        # the good file's payload
        p = self.write_good(tmp_path)
        stored, inflated = frame(json.dumps(decode_file(p.read_bytes())).encode())
        header = HEADER.pack(VERSION, len(stored), inflated)
        p.write_bytes(MAGIC + header + stored + hashlib.sha256(stored).digest())
        self.assert_rejected(p, match, capsys)

    def test_failed_save_keeps_the_previous_catalog(self, tmp_path, monkeypatch):
        p = self.write_good(tmp_path)
        before = p.read_bytes()

        class DiskFull:
            """A file that takes half of what it is given, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(catalog_io, "open", lambda *a: DiskFull(open(*a)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_catalog(sample_catalog(), str(p))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == [p.name]
        assert load_catalog(str(p)).relations["fact"].cardinality == 60


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
                out.append((keys, st.cuts, st.levels, fns((st.default, *st.representatives))))
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
        range={
            ("j", "f"): FilterStats((fn,), fn, cuts=(1e-300, 0.1 + 0.2), levels=((0, 0, 0), (0, 0)))
        },
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


def _fuzz_tool():
    """``tools/fuzz_catalog.py``, whose mutator and checks the test shares."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "fuzz_catalog", os.path.join(root, "tools", "fuzz_catalog.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# every resolution path of the sample catalog: row caps, keys and defaults,
# histogram buckets and the root, tracked and short grams, IN, OR and the
# PK-FK pushdown
MUTATION_QUERIES = [
    "SELECT COUNT(*) FROM fact AS a",
    "SELECT COUNT(*) FROM dim AS d WHERE d.name = 'bbb'",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND a.amt = 3 AND b.amt = 99",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND a.amt BETWEEN 2 AND 3",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND a.amt > 1",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND a.tag LIKE '%lph%'",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND b.tag LIKE '%zzz%'",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk AND a.tag LIKE '%a%'",
    "SELECT COUNT(*) FROM fact AS a, fact AS b WHERE a.fk = b.fk"
    " AND (a.tag IN ('beta', 'gamma') OR a.amt < 2)",
    "SELECT COUNT(*) FROM fact AS f, dim AS d WHERE f.fk = d.k AND d.name = 'ccc'",
    "SELECT COUNT(*) FROM fact AS f, dim AS d, fact AS g"
    " WHERE f.fk = d.k AND g.fk = d.k AND d.name LIKE '%hh%' AND g.amt <= 4",
]


def test_mutated_catalogs_load_or_answer(tmp_path):
    # Each mutant changes one node of the sample payload and carries a
    # valid checksum: it must be refused at load, or answer every query with
    # a bound or a documented error, never a traceback.
    fuzz = _fuzz_tool()
    good = tmp_path / "good.bin"
    save_catalog(sample_catalog(), str(good))
    plain = decode_file(good.read_bytes())
    assert fuzz.check_catalog(str(good), MUTATION_QUERIES) == "answered"
    p = tmp_path / "mutant.bin"
    outcomes = Counter()
    for i in range(1000):
        mutant = copy.deepcopy(plain)
        edit = fuzz.mutate(mutant, random.Random(i))
        p.write_bytes(encode_file(mutant))
        try:
            outcomes[fuzz.check_catalog(str(p), MUTATION_QUERIES)] += 1
        except Exception as exc:
            pytest.fail("mutant %d (%s): %s: %s" % (i, edit, fuzz.crash_class(exc), exc))
    assert outcomes["answered"] >= 100 and outcomes["refused"] >= 100
