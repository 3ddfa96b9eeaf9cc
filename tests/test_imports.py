"""Every name a tropdeg module imports is used in that module (or exported)."""

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


def test_unused_imports_are_detected():
    source = "from os import path, sep\nimport sys\n__all__ = ['sep']\n"
    assert _unused_imports(source) == [(1, "path"), (2, "sys")]


def test_no_unused_imports_in_package():
    unused = {p.name: found for p in sorted(SRC.glob("*.py")) if (found := _unused_imports(p.read_text()))}
    assert unused == {}
