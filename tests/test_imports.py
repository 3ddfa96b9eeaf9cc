"""Every name a tropdeg or test module imports is used in that module (or
exported, or marked `# noqa: F401`), and no tropdeg function repeats an import
its module already makes at top level."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropdeg"
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(source):
    """(line, name) of each imported name never used; `# noqa: F401` lines are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for alias, name in names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _repeated_imports(source):
    """Lines of `from x import ...` inside a function whose module imports from x at top level."""
    tree = ast.parse(source)
    top = {(node.level, node.module) for node in tree.body if isinstance(node, ast.ImportFrom)}
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in top
        }
    )


def test_unused_imports_are_detected():
    source = (
        "from os import path, sep\n"
        "import sys\n"
        "import json  # noqa: F401\n"
        "from re import (\n"
        "    match,\n"
        "    sub,  # noqa: F401\n"
        ")\n"
        "__all__ = ['sep']\n"
    )
    assert _unused_imports(source) == [(1, "path"), (2, "sys"), (5, "match")]


def test_no_unused_imports_in_package():
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = {f"{p.parent.name}/{p.name}": found for p in files if (found := _unused_imports(p.read_text()))}
    assert unused == {}


def test_repeated_imports_are_detected():
    source = (
        "from os import path\n"
        "from .a import b\n"
        "def f():\n"
        "    from os import sep\n"
        "    from sys import argv\n"
        "    from .c import d\n"
        "    def g():\n"
        "        from .a import e\n"
        "    return sep, argv, d, g\n"
    )
    assert _repeated_imports(source) == [4, 8]


def test_no_repeated_imports_in_package():
    repeated = {p.name: found for p in sorted(SRC.glob("*.py")) if (found := _repeated_imports(p.read_text()))}
    assert repeated == {}
