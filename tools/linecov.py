#!/usr/bin/env python3
"""Line coverage of ``src/seqbound`` with the standard library only.

    python3 tools/linecov.py OUT.json -- script.py [ARGS...]
    python3 tools/linecov.py OUT.json -- -m module [ARGS...]
    python3 tools/linecov.py --report A.json [B.json ...]

The first two forms run a script, or a module as ``python -m`` would, in
this process under ``sys.settrace`` (threads it starts included), and
write the lines of ``src/seqbound/*.py`` that ran to OUT.json, keyed by
path relative to the checkout.  The exit status is the command's.
Subprocesses are not traced.

``--report`` merges its input files and prints, module by module, every
executable statement that none of them hit, as ``path:line: source``.
Definitions, imports, docstrings and ``try:`` headers are not executable
statements; a compound statement counts as hit when a line of its header
ran, any other statement when a line of it ran.

Tracing costs a Python call per function call and per line, so a traced
run takes a few times as long as an untraced one.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import runpy
import sys
import threading
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "seqbound")


def trace(argv: list[str]) -> tuple[object, dict[str, list[int]]]:
    """Run ``argv`` (a script and its arguments, or ``-m module ...``) under
    a line tracer; its exit status, as ``sys.exit`` takes it, and the
    package lines it ran."""
    hits: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # by code object file name

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        lines = files.get(name, False)
        if lines is False:
            path = os.path.abspath(name)
            inside = os.path.dirname(path) == PACKAGE
            lines = files[name] = hits.setdefault(path, set()) if inside else None
        return None if lines is None else local

    module = argv[0] == "-m"
    sys.argv = argv[1:] if module else list(argv)
    sys.path[0] = os.getcwd() if module else os.path.dirname(os.path.abspath(argv[0]))
    sys.path.insert(1, os.path.join(ROOT, "src"))
    code = None
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {os.path.relpath(path, ROOT): sorted(lines) for path, lines in hits.items()}


def _headers(node: ast.stmt) -> range:
    """The lines of a statement that run when it does: a compound
    statement's header, or all of a simple statement."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(node.lineno, body[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def statements(path: str) -> list[tuple[int, range]]:
    """(first line, lines that count as running it) of each executable
    statement of a module."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, ast.Global, ast.Nonlocal)
    docstrings = set()
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and (
                isinstance(first.value.value, str)
            ):
                docstrings.add(id(first))
    return sorted(
        (node.lineno, _headers(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and not isinstance(node, skip) and id(node) not in docstrings
    )


def report(paths: list[str], out=sys.stdout) -> None:
    """Print the statements that no input hit."""
    hits: dict[str, set[int]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for name, lines in json.load(fh).items():
                hits.setdefault(name, set()).update(lines)
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.relpath(path, ROOT)
        ran = hits.get(name, set())
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        stmts = statements(path)
        missed = [line for line, span in stmts if ran.isdisjoint(span)]
        print("%s: %d of %d statements missed" % (name, len(missed), len(stmts)), file=out)
        for line in missed:
            print("%s:%d: %s" % (name, line, source[line - 1].strip()), file=out)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--report"] and len(argv) > 1:
        report(argv[1:])
        return 0
    if len(argv) < 3 or argv[1] != "--" or argv[2:] == ["-m"]:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    code, hits = trace(argv[2:])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(hits, fh, indent=0, sort_keys=True)
    return code


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: stop, and send the interpreter's last flush of
        # what is still buffered to /dev/null rather than to the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
