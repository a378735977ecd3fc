"""No module of the package imports a name that it never uses."""

from __future__ import annotations

import ast
import glob
import os

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "seqbound"
)

# perfbench/bench_trace.py wraps these under the name of the module that
# imports them; the benchmark change of ROADMAP items 2-4, which traces
# them where they are defined, removes the imports and empties this set.
TRACED_BY_IMPORT = {
    ("inference", "cumulate"),
    ("inference", "pw_max"),
    ("stats", "sample_integer_ranks"),
}


def unused_imports(source: str) -> set[str]:
    """Names a module binds by ``import`` and neither reads nor lists in
    its ``__all__``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_finds_an_unused_import():
    source = "from .pwfn import pw_min, pw_max\nimport os.path\n__all__ = ['pw_min']\n"
    assert unused_imports(source) == {"pw_max", "os"}
    assert unused_imports(source + "os.sep\npw_max()\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    found = set()
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            found |= {(module, name) for name in unused_imports(fh.read())}
    assert found == TRACED_BY_IMPORT
