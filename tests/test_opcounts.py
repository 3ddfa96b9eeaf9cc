"""Kernel call counts of the example builds, pinned.

Call counts do not depend on the speed of the machine, so they show a
change in the work a build does where timings cannot.  The memo caches are
cleared first, as in a fresh process, and each build is followed by its
report, as the CLI's `example` verb does.  A change that moves a count
updates the table and says which count moved and why.
"""

import sys

import pytest

from tropdeg import exactlin, pipelines, polytope, subdivision, tropical

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
