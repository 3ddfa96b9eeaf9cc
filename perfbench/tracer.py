"""Outside-in tracer: wraps tropdeg's layer-boundary functions in place.

Nothing inside tropdeg changes.  `Tracer.install()` replaces each listed
function in every ``tropdeg.*`` namespace, class and module-level dict that
binds it, and `uninstall()` puts the originals back.  One stack of open
frames gives self time (a frame's duration minus its children's); total
time is added only when the outermost frame of a function closes, because
``hull`` and ``_face_facets`` recurse through each other.

Metrics, per wrapped function ``<layer>.<fn>`` and as a mean per traced
pass: ``calls``, ``self_s``, ``total_s`` for stage functions.  Also
``distinct_frac`` (distinct arguments per call, counted within each
install) for the three kernel functions a memo cache would target.
Argument hashing for distinct_frac is timed inside the callee's frame, so
it is part of that function's self_s.
"""

from __future__ import annotations

import importlib
import sys
import time
from inspect import isgeneratorfunction

# layer -> (metric name, attribute path in tropdeg.<layer>).  polytope.hull is
# measured at LatticePolytope.hull: the module-level hull() forwards to it,
# and the package calls it directly too.
LAYERS = {
    "exactlin": [
        ("solve_linear", "solve_linear"),
        ("smith_normal_form", "smith_normal_form"),
        ("kernel_basis", "kernel_basis"),
        ("mat_rank", "mat_rank"),
        ("hnf_column_basis", "hnf_column_basis"),
        ("saturate_lattice", "saturate_lattice"),
        ("cone_from_generators", "cone_from_generators"),
    ],
    "polytope": [
        ("hull", "LatticePolytope.hull"),
        ("_face_facets", "_face_facets"),
        ("_hull_full_dim", "_hull_full_dim"),
        ("polytope_from_inequalities", "polytope_from_inequalities"),
        ("clip_by_halfspace", "clip_by_halfspace"),
        ("minkowski_sum", "minkowski_sum"),
        ("LatticePolytope.lattice_points", "LatticePolytope.lattice_points"),
        ("LatticePolytope.contains", "LatticePolytope.contains"),
    ],
    "subdivision": [
        (name, name)
        for name in (
            "regular_subdivision",
            "fine_crepant_subdivision",
            "sum_refinement",
            "common_refinement",
            "product_pullback",
            "graph_degeneration",
            "blowup_refinement",
        )
    ],
    "tropical": [
        ("dual_intersection_complex", "dual_intersection_complex"),
        ("hypersurface_trop", "hypersurface_trop"),
        ("discriminant", "discriminant"),
        ("is_simple", "is_simple"),
        ("TropicalSpace.cells", "TropicalSpace.cells"),
        ("TropicalSpace.boundary_cells", "TropicalSpace.boundary_cells"),
    ],
    "embed": [
        (name, name)
        for name in ("wall_fibration_data", "embed_D", "local_fibre", "lg_truncate", "open_embed_LG", "specialization_map")
    ],
    "zeroring": [("proj_ring", "proj_ring"), ("hilbert_count", "hilbert_count")],
    "pipelines": [("build_kp1_2", "build_kp1_2"), ("build_quintic", "build_quintic"), ("build_hypercube", "build_hypercube")],
    "cli": [("main", "main")],
    "jsonio": [("dumps", "dumps")],
}

# Stage functions: total_s is reported for these.
STAGES = {
    "polytope.hull",
    "polytope._face_facets",
    "tropical.dual_intersection_complex",
    "tropical.hypersurface_trop",
    "tropical.discriminant",
    "tropical.is_simple",
    "zeroring.proj_ring",
    "zeroring.hilbert_count",
    "cli.main",
}
STAGES.update(f"{layer}.{name}" for layer in ("subdivision", "embed", "pipelines") for name, _ in LAYERS[layer])


def _matrix_key(args):
    return args, hash(tuple(map(tuple, args[0])))


def _solve_key(args):
    return args, hash((tuple(map(tuple, args[0])), tuple(args[1])))


def _hull_key(args):
    # hull() depends only on the set of points; materialize an iterator once
    pts = list(args[0])
    return (pts,) + args[1:], hash(frozenset(map(tuple, pts)))


DISTINCT = {
    "polytope.hull": _hull_key,
    "exactlin.solve_linear": _solve_key,
    "exactlin.smith_normal_form": _matrix_key,
}


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "keys", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.keys = set()  # argument hashes seen since install()
        self.distinct = 0  # distinct arguments of earlier installs


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{name}": _Stat() for layer, fns in LAYERS.items() for name, _ in fns}
        self._stack = []
        self._undo = []

    def _wrap(self, full, fn):
        st = self.stats[full]
        stack = self._stack
        clock = time.perf_counter
        keyfn = DISTINCT.get(full)

        def traced(*args, **kwargs):
            t0 = clock()
            if keyfn is not None:
                args, key = keyfn(args)
                st.keys.add(key)
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.total_s += dur
                if stack:
                    stack[-1][0] += dur

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function of the currently imported tropdeg."""
        mods = [m for name, m in sorted(sys.modules.items()) if name == "tropdeg" or name.startswith("tropdeg.")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"tropdeg.{layer}")
            for name, path in fns:
                owner = home
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(fn) or isgeneratorfunction(fn):
                    raise TypeError(f"cannot trace {layer}.{name}: not a plain function")
                self._rebind(mods, fn, self._wrap(f"{layer}.{name}", fn))
        return self

    def _rebind(self, mods, fn, wrapper):
        def swap(holder, key, value):
            self._undo.append((holder, key, value))
            if isinstance(holder, dict):
                holder[key] = wrapper
            elif isinstance(value, staticmethod):
                setattr(holder, key, staticmethod(wrapper))
            else:
                setattr(holder, key, wrapper)

        for mod in mods:
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is fn:
                    swap(mod, key, value)
                elif isinstance(value, type) and value.__module__.startswith("tropdeg"):
                    for ckey, cval in list(vars(value).items()):
                        if cval is fn or (isinstance(cval, staticmethod) and cval.__func__ is fn):
                            swap(value, ckey, cval)
                elif isinstance(value, dict):
                    # registries such as pipelines.EXAMPLES hold the builds
                    for inner in [value, *(v for v in value.values() if isinstance(v, dict))]:
                        for ikey, ival in list(inner.items()):
                            if ival is fn:
                                swap(inner, ikey, ival)

    def uninstall(self):
        """Restore the originals; arguments seen so far stop counting as repeats.

        Each install covers one freshly imported tropdeg, so only a repeat
        within it is one that a cache inside tropdeg could have served.
        """
        for holder, key, value in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)
        self._undo.clear()
        for st in self.stats.values():
            st.distinct += len(st.keys)
            st.keys.clear()

    def metrics(self, wall_s, passes):
        """Per-layer metrics, each a mean per traced pass.

        wall_s is the traced passes' summed wall time.  unattributed_s is
        that wall time minus all layer self time.  catchall_frac is the share
        of it spent in the self time of cli.main and the pipelines builds:
        package code between the listed functions, which the trace names
        only by the frame it falls in.
        """
        out = {}
        layer_self_s = {}
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for name, _ in fns:
                full = f"{layer}.{name}"
                st = self.stats[full]
                out[f"{full}.calls"] = (st.calls / passes, "count")
                out[f"{full}.self_s"] = (st.self_s / passes, "s")
                if full in STAGES:
                    out[f"{full}.total_s"] = (st.total_s / passes, "s")
                layer_self += st.self_s
            out[f"{layer}.self_s"] = (layer_self / passes, "s")
            layer_self_s[layer] = layer_self
        for full in DISTINCT:
            st = self.stats[full]
            distinct = st.distinct + len(st.keys)
            out[f"{full}.distinct_frac"] = (distinct / st.calls if st.calls else 0.0, "fraction")
        out["unattributed_s"] = ((wall_s - sum(layer_self_s.values())) / passes, "s")
        out["catchall_frac"] = ((layer_self_s["cli"] + layer_self_s["pipelines"]) / wall_s, "fraction")
        return out
