"""Smoke tests of the scripts in ``tools/``: each runs in a subprocess on
a small input and prints JSON lines with its documented fields, so a
change to the perfbench generators they import cannot break them
unnoticed."""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

from seqbound.stats import MEMO_ENTRIES

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


def test_time_queries_prints_latencies_and_the_memo_size():
    (row,) = run_tool("time_queries.py", "deep-estimate", "1")
    assert set(row) == {
        "workload", "seed", "queries", "first_p50_ms", "first_p99_ms",
        "steady_p50_ms", "steady_p99_ms", "memo_entries", "memo_bytes",
    }
    assert (row["workload"], row["seed"]) == ("deep-estimate", 1) and row["queries"] > 0
    assert 0.0 < row["first_p50_ms"] <= row["first_p99_ms"]
    assert 0.0 < row["steady_p50_ms"] <= row["steady_p99_ms"]
    assert 0 < row["memo_entries"] <= MEMO_ENTRIES
    assert row["memo_bytes"] > 0


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


def test_dump_bounds_stops_quietly_when_its_reader_closes(tmp_path):
    # each output is several times a pipe's buffer, so the tool is still
    # writing when the reader goes away after one line: the dump, and a
    # coverage report of a run that hit nothing
    nothing = tmp_path / "nothing.json"
    nothing.write_text("{}")
    for argv, first in [
        (("dump_bounds.py", "star-estimate", "1"), '{"workload": "star-estimate", '),
        (("linecov.py", "--report", str(nothing)), "src/seqbound/__init__.py: "),
    ]:
        proc = subprocess.Popen(
            tool_argv(*argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        head = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
        assert head.startswith(first)
        assert err == ""  # no BrokenPipeError traceback


def test_fuzz_catalog_prints_outcome_counts_in_both_modes():
    for mode in ([], ["--build"]):
        (row,) = run_tool("fuzz_catalog.py", *mode, "--workload", "deep-estimate", "1", "30")
        assert set(row) == {"seed", "mutants", "outcomes"}
        assert (row["seed"], row["mutants"]) == (1, 30)
        assert sum(row["outcomes"].values()) == 30
        assert "crash" not in row["outcomes"]


def test_linecov_records_a_traced_run_and_reports_what_it_missed(tmp_path):
    out = str(tmp_path / "help.json")
    run = subprocess.run(
        tool_argv("linecov.py", out, "--", "-m", "seqbound.cli", "--help"),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert "usage:" in run.stdout
    with open(out, encoding="utf-8") as fh:
        hits = {name: set(lines) for name, lines in json.load(fh).items()}
    cli = os.path.join("src", "seqbound", "cli.py")
    assert hits[cli]
    lines = subprocess.run(
        tool_argv("linecov.py", "--report", out),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    summaries = [line for line in lines if line.endswith(" statements missed")]
    root = os.path.dirname(TOOLS)
    modules = glob.glob(os.path.join(root, "src", "seqbound", "*.py"))
    assert [line.split(":")[0] for line in summaries] == sorted(
        os.path.relpath(path, root) for path in modules
    )
    missed = [line.split(":", 2) for line in lines if line not in summaries]
    # --help parses no schema: the build command's body never ran
    assert any(name == cli for name, _, _ in missed)
    assert all(int(line) not in hits.get(name, ()) for name, line, _ in missed)
