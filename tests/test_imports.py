"""Every name a tropdeg or test module imports is used in that module (or
exported, or marked `# noqa: F401`), no tropdeg function repeats an import
its module already makes at top level, the geometric modules take their
numbers from `exactlin._ratio` rather than from `fractions`, only
`polytope` tests whether a facet inequality is tight, no construction in
`polytope` calls that test (`tight_at`), `tropical` takes no
matrix product or rank, builds no hull and inverts only its per-vertex chart,
only `exactlin._fold` and the chart sweep take extended-gcd steps, and no
module has an `assert`, which `python -O` would drop."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropdeg"
TESTS = pathlib.Path(__file__).resolve().parent

# modules whose numbers are all made by `exactlin._ratio`, in its one number form
GEOMETRIC = ("polytope", "subdivision", "tropical", "embed", "pipelines")


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


def _fractions_imports(source):
    """Lines that import the fractions module or a name from it, at any depth."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(alias.name == "fractions" for alias in node.names))
    )


def test_fractions_imports_are_detected():
    source = "import fractions\nfrom math import gcd\ndef f():\n    from fractions import Fraction\n    return Fraction, gcd\n"
    assert _fractions_imports(source) == [1, 4]


def test_geometric_modules_import_nothing_from_fractions():
    found = {m: lines for m in GEOMETRIC if (lines := _fractions_imports((SRC / f"{m}.py").read_text()))}
    assert found == {}


def _tight_tests(source):
    """Lines that compare a `dot(...)` call for equality with a negated value, the tight-facet test."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and getattr(node.left.func, "id", getattr(node.left.func, "attr", None)) == "dot"
        and any(isinstance(op, ast.Eq) for op in node.ops)
        and any(isinstance(c, ast.UnaryOp) and isinstance(c.op, ast.USub) for c in node.comparators)
    )


def test_tight_tests_are_detected():
    source = (
        "def f(n, c, v, facet):\n"
        "    a = dot(n, v) == -c\n"
        "    b = exactlin.dot(facet[0], v) == -facet[1]\n"
        "    inside = dot(n, v) >= -c\n"
        "    off = dot(n, v) != -c\n"
        "    level = dot(n, v) == c\n"
        "    return a, b, inside, off, level\n"
    )
    assert _tight_tests(source) == [2, 3]


def test_only_polytope_evaluates_the_tight_facet_test():
    found = {p.name: lines for p in sorted(SRC.glob("*.py")) if p.stem != "polytope" and (lines := _tight_tests(p.read_text()))}
    assert found == {}


def _imported_names(source):
    """Names a module imports with `from ... import`, at any depth."""
    return {alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _callers(source, name):
    """The innermost function around each call to `name`, by the function's name, in source order."""
    out = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
            out.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_callers_are_detected():
    source = (
        "from .exactlin import left_inverse, mat_mul\n"
        "x = left_inverse(((1,),))\n"
        "class A:\n"
        "    def chart(self, m):\n"
        "        def inner():\n"
        "            return exactlin.left_inverse(m)\n"
        "        return left_inverse(m), inner\n"
    )
    assert _callers(source, "left_inverse") == [None, "inner", "chart"]
    assert {"left_inverse", "mat_mul"} <= _imported_names(source)


def test_no_construction_in_polytope_tests_tightness():
    # polytope only defines tight_at: every construction there hands its
    # incidence to `_assemble`, and only the readers below scan facets
    found = {p.stem: _callers(p.read_text(), "tight_at") for p in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {
        "render": ["host_facet"],
        "subdivision": ["boundary_triangulation"],
        "tropical": ["classify_faces"],
    }


def test_tropical_takes_no_product_and_inverts_only_its_vertex_chart():
    # a vertex chart and its section come from one Bezout sweep, with no
    # Smith form and no left inverse
    source = (SRC / "tropical.py").read_text()
    assert not {"mat_mul", "mat_rank", "hull", "left_inverse", "smith_normal_form", "barycenter"} & _imported_names(source)
    assert _callers(source, "unimodular_completion") == ["_vertex_chart"]


def _defined_names(source):
    """Names a module defines with `def` or `class`, at any depth."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)}


def test_one_fold_engine_takes_extended_gcd_steps():
    # Hermite bases, integer kernels and Smith diagonals all come from
    # `exactlin._fold`; only the chart sweep keeps steps of its own
    found = {p.stem: names for p in sorted(SRC.glob("*.py")) if (names := _callers(p.read_text(), "_exgcd"))}
    assert found == {"exactlin": ["_fold", "unimodular_completion"]}
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert not any("snf_diagonal" in _defined_names(s) | _imported_names(s) for s in sources)


def _asserts(source):
    """How many `assert` statements a module has, at any depth."""
    return sum(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(source)))


def test_asserts_are_counted():
    source = "assert x\ndef f(y):\n    assert y, 'y'\n    return 'assert'\n"
    assert _asserts(source) == 2


def test_asserts_left_in_package_are_pinned():
    # none: an internal check raises `InvariantError`, which `python -O` keeps
    found = {p.stem: n for p in sorted(SRC.glob("*.py")) if (n := _asserts(p.read_text()))}
    assert found == {}
