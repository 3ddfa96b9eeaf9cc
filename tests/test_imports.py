"""Every name a tropdeg module imports is used in that module (or exported),
and no function repeats an import its module already makes at top level."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropdeg"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
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
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert _unused_imports(source) == [(1, "path"), (2, "sys")]


def test_no_unused_imports_in_package():
    unused = {p.name: found for p in sorted(SRC.glob("*.py")) if (found := _unused_imports(p.read_text()))}
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
