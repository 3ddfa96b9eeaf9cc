"""Kernel call counts of the kp1-2 builds, pinned.

Call counts do not depend on the speed of the machine, so they show a
change in the work a build does where timings cannot.  The memo caches are
cleared first, as in a fresh process, and each build is followed by its
report, as the CLI's `example` verb does.  A change that moves a count
updates the table and says which count moved and why.
"""

import sys

import pytest

from tropdeg import exactlin, pipelines, polytope, tropical

# per build, from cleared caches before k=2: the Smith diagonals, integer
# kernels, Hermite bases, left inverses and facet lifts made anywhere, and
# the barycenters taken while the discriminant is computed
COUNTS = {
    2: {
        "smith_normal_form": 18,
        "kernel_basis": 41,
        "hnf_column_basis": 82,
        "left_inverse": 36,
        "_lift": 96,
        "discriminant barycenter": 0,
    },
    3: {
        "smith_normal_form": 128,
        "kernel_basis": 46,
        "hnf_column_basis": 145,
        "left_inverse": 93,
        "_lift": 490,
        "discriminant barycenter": 0,
    },
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
    counts = dict.fromkeys(COUNTS[2], 0)
    in_discriminant = []
    real_compute = tropical._compute_discriminant

    def watched(space):
        in_discriminant.append(True)
        try:
            return real_compute(space)
        finally:
            in_discriminant.pop()

    monkeypatch.setattr(tropical, "_compute_discriminant", watched)
    for name in ("smith_normal_form", "kernel_basis", "hnf_column_basis"):
        _count(monkeypatch, exactlin, name, counts, name)
    _count(monkeypatch, exactlin, "left_inverse", counts, "left_inverse")
    _count(monkeypatch, polytope, "_lift", counts, "_lift")
    _count(monkeypatch, polytope, "barycenter", counts, "discriminant barycenter", when=lambda: bool(in_discriminant))
    return counts


def test_kp1_2_kernel_counts_are_pinned(counters):
    for k in (2, 3):
        before = dict(counters)
        pipelines.build_kp1_2(k).report_json()
        assert {name: counters[name] - before[name] for name in counters} == COUNTS[k], k
