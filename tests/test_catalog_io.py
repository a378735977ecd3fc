import hashlib
import struct

import numpy as np
import pytest

from seqbound.catalog_io import (
    MAGIC,
    CatalogFormatError,
    _decode,
    _encode,
    load_catalog,
    save_catalog,
)
from seqbound.cli import main
from seqbound.relation import Column, ColumnRole, PkFkDeclaration, Relation
from seqbound.stats import BuildParams, build_catalog


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

    def test_out_of_range_bucket_id(self, tmp_path, capsys):
        # a well-formed, correctly checksummed file whose histogram level
        # points a bucket past the end of the representatives
        p = self.write_good(tmp_path)
        blob = p.read_bytes()
        head = len(MAGIC) + 12
        plain, _ = _decode(blob[head:-32], 0)
        level = plain["relations"]["fact"]["range"][0]["levels"][0]
        level["groups"][0] = 999
        payload = bytearray()
        _encode(plain, payload)
        p.write_bytes(
            blob[: len(MAGIC) + 4]
            + struct.pack("<Q", len(payload))
            + bytes(payload)
            + hashlib.sha256(payload).digest()
        )
        with pytest.raises(CatalogFormatError, match="bucket ids"):
            load_catalog(str(p))
        sql = "SELECT COUNT(*) FROM fact WHERE fact.amt < 1"
        assert main(["estimate", "--catalog", str(p), "--query", sql]) == 2
        assert "bucket ids" in capsys.readouterr().err
