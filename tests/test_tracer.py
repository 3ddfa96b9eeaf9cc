"""The benchmark tracer finds every function it wraps, and puts it back.

perfbench/tracer.py looks tropdeg's layer functions up by name; a rename in
the package would otherwise only surface when the benchmark runs.
"""

import importlib.util
import pathlib
import sys

import tropdeg.cli  # noqa: F401  (imports every tropdeg module the tracer walks)

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every tropdeg module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "tropdeg" and not name.startswith("tropdeg."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("tropdeg"):
                for ckey, cval in vars(value).items():
                    out[(name, key, ckey)] = cval
    return out


def _resolve(layer, path):
    owner = importlib.import_module(f"tropdeg.{layer}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def test_tracer_wraps_every_listed_function_and_restores_it():
    tracer_mod = _load_tracer()
    before = _bindings()
    originals = {(layer, path): _resolve(layer, path) for layer, fns in tracer_mod.LAYERS.items() for _, path in fns}
    tracer = tracer_mod.Tracer().install()
    try:
        for (layer, path), fn in originals.items():
            wrapped = _resolve(layer, path)
            assert wrapped is not fn, f"{layer}.{path} was not wrapped"
            assert wrapped.__wrapped__ is fn
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    for (layer, path), fn in originals.items():
        assert _resolve(layer, path) is fn
