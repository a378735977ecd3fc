"""Smoke tests of the scripts in ``tools/``: each runs in a subprocess on
a small input and prints JSON lines with its documented fields, so a
change to the perfbench generators they import cannot break them
unnoticed."""

from __future__ import annotations

import json
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def tool_argv(*args: str) -> list[str]:
    return [sys.executable, os.path.join(TOOLS, args[0]), *args[1:]]


def run_tool(*args: str) -> list[dict]:
    out = subprocess.run(
        tool_argv(*args), capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_time_build_prints_one_timing_line():
    (row,) = run_tool("time_build.py", "200", "1")
    assert set(row) == {"rows", "seed", "build_s", "vm_hwm_mb"}
    assert (row["rows"], row["seed"]) == (200, 1)
    assert row["build_s"] >= 0.0
    assert row["vm_hwm_mb"] is None or row["vm_hwm_mb"] > 0.0


def test_dump_bounds_prints_a_catalog_record_then_one_line_per_query():
    head, *rows = run_tool("dump_bounds.py", "deep-estimate", "1")
    assert set(head) == {"workload", "catalog_bytes", "catalog_sha256"}
    assert head["workload"] == "deep-estimate" and head["catalog_bytes"] > 0
    assert len(head["catalog_sha256"]) == 64
    assert rows
    for row in rows:
        assert row["sql"].startswith("SELECT COUNT(*) FROM ")
        if "error" in row:  # a query that raises: its error class and message
            assert set(row) == {"sql", "error"}
            continue
        assert set(row) == {"sql", "bound", "value", "strategy", "notes", "steps"}
        assert float.fromhex(row["value"]) <= row["bound"] + 1
        assert row["steps"] and all(isinstance(s, str) for s in row["steps"])


def test_dump_bounds_stops_quietly_when_its_reader_closes():
    # the dump is several times a pipe's buffer, so the tool is still
    # writing when the reader goes away after one line
    proc = subprocess.Popen(
        tool_argv("dump_bounds.py", "star-estimate", "1"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    head = json.loads(proc.stdout.readline())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=120)
    assert head["workload"] == "star-estimate"
    assert err == ""  # no BrokenPipeError traceback


def test_fuzz_catalog_prints_outcome_counts_in_both_modes():
    for mode in ([], ["--build"]):
        (row,) = run_tool("fuzz_catalog.py", *mode, "--workload", "deep-estimate", "1", "30")
        assert set(row) == {"seed", "mutants", "outcomes"}
        assert (row["seed"], row["mutants"]) == (1, 30)
        assert sum(row["outcomes"].values()) == 30
        assert "crash" not in row["outcomes"]
