"""Every module-level function, class and constant of tropdeg is read by some
tropdeg module, exported from `tropdeg/__init__.py`, or wrapped by name by the
benchmark tracer (`LAYERS` in perfbench/tracer.py); and every method of a
tropdeg class is read as an attribute, outside its own body, by a tropdeg
module, a benchmark file (the tracer's wrapped methods included) or an
acceptance criterion (tests/test_acceptance.py).  A method that only unit
tests read is dead code."""

import ast
import importlib.util
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tropdeg"
TRACER_PATH = ROOT / "perfbench" / "tracer.py"

# Definitions and methods that nothing reads and that stay anyway: none.
ALLOWED = {}


def _definitions(tree):
    """(line, name) of each module-level def, class and assigned name, dunders left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in out if not name.startswith("__")]


def _reads(tree):
    """Names a tree loads or imports (tropdeg modules import names, not modules)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def _unread(sources, exempt=()):
    """'module.name' of each definition no module reads, outside its own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    unread = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_reads(t) for m, t in trees.items() if m != module))
        for line, name in _definitions(tree):
            here = set().union(*(_reads(n) for n in tree.body if n.lineno != line))
            if name not in elsewhere | here | set(exempt):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def _attribute_reads(node):
    """How often each attribute name is loaded in a tree."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _unread_methods(sources, readers, exempt=()):
    """'module.Class.method' of each method of the sources' module-level classes, dunders and
    exempt names left out, that neither the sources nor the readers load as an attribute outside
    the method's own body."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_attribute_reads(t) for t in [*trees.values(), *map(ast.parse, readers.values())]), Counter())
    unread = []
    for module, tree in trees.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("__"):
                    if method.name not in exempt and reads[method.name] == _attribute_reads(method)[method.name]:
                        unread.append(f"{module}.{cls.name}.{method.name}")
    return sorted(unread)


def _method_readers(root):
    """The files outside the package whose attribute reads keep a method: the benchmark and the acceptance criteria."""
    paths = [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    return {str(path.relative_to(root)): path.read_text() for path in paths}


def _tracer_paths():
    """The attribute paths, in their tropdeg modules, of the functions the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {path for fns in tracer.LAYERS.values() for _, path in fns}


def test_unread_definitions_are_detected():
    sources = {
        "a": "X = 1\nY = X\ndef f():\n    return f()\ndef g():\n    pass\nclass C:\n    pass\n",
        "b": "from .a import g\ndef h():\n    return g\n__all__ = []\n",
    }
    assert _unread(sources) == ["a.C", "a.Y", "a.f", "b.h"]
    assert _unread(sources, exempt={"C", "h"}) == ["a.Y", "a.f"]


def test_every_definition_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    init = ast.parse(sources["__init__"])
    exported = {
        elt.value
        for node in init.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    unread = _unread(sources, exempt=exported | {path.split(".")[0] for path in _tracer_paths()})
    assert unread == sorted(ALLOWED)


def test_unread_methods_are_detected(tmp_path):
    sources = {
        "a": "class C:\n    def f(self):\n        return self.f()\n    def g(self):\n        pass\n"
        "    @property\n    def h(self):\n        return 1\n    def __repr__(self):\n        return ''\n",
        "b": "def k(c):\n    return c.h\n",
    }
    assert _unread_methods(sources, {}) == ["a.C.f", "a.C.g"]
    assert _unread_methods(sources, {"t": "x.g()\nx.f = 1\n"}) == ["a.C.f"]
    assert _unread_methods(sources, {}, exempt={"f"}) == ["a.C.g"]
    # a read in a unit test keeps nothing; one in the benchmark or an acceptance criterion does
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("def run(c):\n    return c.f()\n")
    (tmp_path / "tests" / "test_acceptance.py").write_text("def test_k(c):\n    assert c.h\n")
    (tmp_path / "tests" / "test_a.py").write_text("def test_g(c):\n    c.g()\n")
    assert _unread_methods(sources, _method_readers(tmp_path)) == ["a.C.g"]


def test_every_method_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    wrapped = {path.split(".")[-1] for path in _tracer_paths() if "." in path}
    assert _unread_methods(sources, _method_readers(ROOT), exempt=wrapped) == sorted(ALLOWED)
