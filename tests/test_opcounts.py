"""Kernel call counts of the example builds, pinned.

Call counts do not depend on the speed of the machine, so they show a
change in the work a build does where timings cannot.  The memo caches are
cleared first, as in a fresh process, and each build is followed by its
report, as the CLI's `example` verb does.  A change that moves a count
updates the table and says which count moved and why.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from tropdeg import cli, exactlin, pipelines, polytope, subdivision, tropical, zeroring

# the builds in the order they run, each from the memo state the ones
# before it leave
BUILDS = [
    ("kp1-2", 2),
    ("kp1-2", 3),
    *(("quintic", i) for i in range(1, 5)),
    *(("hypercube", k) for k in range(1, 4)),
]

# per build, from cleared caches before the first: the Smith diagonals,
# integer kernels, Hermite bases, left inverses, facet lifts, hulls and
# double descriptions made anywhere, and the barycenters taken while the
# discriminant is computed
COLUMNS = (
    "smith_normal_form",
    "kernel_basis",
    "hnf_column_basis",
    "left_inverse",
    "_lift",
    "LatticePolytope.hull",
    "_hull_full_dim",
    "discriminant barycenter",
)
COUNTS = {
    ("kp1-2", 2): (18, 29, 69, 34, 96, 7, 11, 0),
    ("kp1-2", 3): (128, 32, 129, 89, 490, 8, 13, 0),
    ("quintic", 1): (8, 27, 61, 21, 42, 8, 7, 0),
    ("quintic", 2): (8, 10, 30, 14, 23, 8, 7, 0),
    ("quintic", 3): (8, 10, 28, 12, 23, 8, 7, 0),
    ("quintic", 4): (8, 10, 28, 12, 23, 8, 7, 0),
    ("hypercube", 1): (2, 1, 7, 4, 12, 3, 4, 0),
    ("hypercube", 2): (4, 0, 10, 8, 31, 3, 4, 0),
    ("hypercube", 3): (8, 0, 10, 8, 72, 3, 4, 0),
}


def _count(monkeypatch, module, name, counts, key, when=None):
    """Count the calls of module.name through every tropdeg namespace that binds it, only while when() holds if given."""
    real = getattr(module, name)

    def counted(*args):
        if when is None or when():
            counts[key] += 1
        return real(*args)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("tropdeg") and getattr(bound, name, None) is real:
            monkeypatch.setattr(bound, name, counted)


@pytest.fixture
def counters(monkeypatch):
    for memo in (polytope._span_chart, polytope._facet_chart, polytope._facet_normal):
        memo.cache_clear()
    counts = dict.fromkeys(COLUMNS, 0)
    in_discriminant = []
    real_compute = tropical._compute_discriminant

    def watched(space):
        in_discriminant.append(True)
        try:
            return real_compute(space)
        finally:
            in_discriminant.pop()

    monkeypatch.setattr(tropical, "_compute_discriminant", watched)
    for name in ("smith_normal_form", "kernel_basis", "hnf_column_basis", "left_inverse"):
        _count(monkeypatch, exactlin, name, counts, name)
    for name in ("_lift", "_hull_full_dim"):
        _count(monkeypatch, polytope, name, counts, name)
    _count(monkeypatch, polytope, "barycenter", counts, "discriminant barycenter", when=lambda: bool(in_discriminant))
    real_hull = polytope.LatticePolytope.hull

    def counted_hull(points):
        counts["LatticePolytope.hull"] += 1
        return real_hull(points)

    monkeypatch.setattr(polytope.LatticePolytope, "hull", staticmethod(counted_hull))
    return counts


def test_example_kernel_counts_are_pinned(counters):
    moved = {}
    for build in BUILDS:
        before = dict(counters)
        pipelines.build_example(*build).report_json()
        moved[build] = tuple(counters[name] - before[name] for name in COLUMNS)
    assert moved == COUNTS


def test_only_hulls_with_unknown_vertices_run_the_double_description(monkeypatch):
    # the volume reads its facets off the polytope and the clip its touching
    # face off its mask, so in every example build the double description
    # runs only under a hull of points and the lifted hull of a regular
    # subdivision
    callers = set()
    real = polytope._hull_full_dim

    def watched(pts, d):
        callers.add(sys._getframe(1).f_code)
        return real(pts, d)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("tropdeg") and getattr(bound, "_hull_full_dim", None) is real:
            monkeypatch.setattr(bound, "_hull_full_dim", watched)
    for build in [("kp1-2", 1), *BUILDS]:
        pipelines.build_example(*build).report_json()
    assert callers == {polytope.LatticePolytope.hull.__code__, subdivision.regular_subdivision.__code__}


# the verbs of the cli-random benchmark pass over the twelve heights files
# of its first pass at the default seed, each verb summed over the files:
# hulls and double descriptions, lattice-point scans with the facet cuts
# they pull back, and gluing transports
CLI_COLUMNS = ("LatticePolytope.hull", "_hull_full_dim", "lattice_points", "_pivot_cuts", "GluingData.transport")
CLI_COUNTS = {
    "tropicalize": (12, 24, 0, 0, 0),
    "tropicalize --hypersurface --coarse": (12, 24, 0, 0, 0),
    "ring --degree 3": (95, 95, 285, 95, 3483),
}


def _cli_inputs():
    """perfbench/cli_inputs.py, loaded read-only from the source checkout."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "cli_inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_cli_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_cli_random_verb_counts_are_pinned(tmp_path, monkeypatch):
    for memo in (polytope._span_chart, polytope._facet_chart, polytope._facet_normal):
        memo.cache_clear()
    counts = dict.fromkeys(CLI_COLUMNS, 0)
    for name in ("_hull_full_dim", "_pivot_cuts"):
        _count(monkeypatch, polytope, name, counts, name)
    for cls, name, key in (
        (polytope.LatticePolytope, "lattice_points", "lattice_points"),
        (zeroring.GluingData, "transport", "GluingData.transport"),
    ):

        def counted(*args, _real=getattr(cls, name), _key=key):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)
    real_hull = polytope.LatticePolytope.hull

    def counted_hull(points):
        counts["LatticePolytope.hull"] += 1
        return real_hull(points)

    monkeypatch.setattr(polytope.LatticePolytope, "hull", staticmethod(counted_hull))
    inputs = _cli_inputs()
    inputs.write_inputs(inputs.DEFAULT_SEED, 1, str(tmp_path))
    heights_dir = pathlib.Path(inputs.pass_dir(str(tmp_path), 0))
    moved = dict.fromkeys(CLI_COUNTS, (0,) * len(CLI_COLUMNS))

    def verb(label, argv):
        before = dict(counts)
        assert cli.main(argv) == 0
        moved[label] = tuple(m + counts[k] - before[k] for m, k in zip(moved[label], CLI_COLUMNS))

    for name in inputs.SUPPORTS:
        heights = str(heights_dir / f"{name}.heights.json")
        solid, boundary = tmp_path / f"{name}.solid.json", tmp_path / f"{name}.boundary.json"
        complex_in, ring = tmp_path / f"{name}.complex.json", tmp_path / f"{name}.ring.json"
        verb("tropicalize", ["tropicalize", "--input", heights, "--out", str(solid)])
        verb("tropicalize --hypersurface --coarse", ["tropicalize", "--input", heights, "--hypersurface", "--coarse", "--out", str(boundary)])
        complex_in.write_text(json.dumps(inputs.ring_complex(json.loads(solid.read_text()))))
        verb("ring --degree 3", ["ring", "--complex", str(complex_in), "--degree", str(inputs.RING_DEGREE), "--out", str(ring)])
        assert inputs.check_ring(name, json.loads(ring.read_text())) is None
    assert moved == CLI_COUNTS
