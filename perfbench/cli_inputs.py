"""Seeded inputs for the cli-random workload, and the oracles that check it.

Every heights file lifts all lattice points of one small reflexive support
with height K*|p|^2 + e, where e is drawn from [0, K).  A lattice point sits
at least K below the lifted hull of the others, so the perturbation keeps
every point a vertex: the subdivision is fine, its combinatorics follow the
seed, and its cell count stays close to the support's volume.  Every input
is therefore valid, and the work per file hardly depends on the seed.

The oracles share no code with tropdeg: facets are found by brute force over
vertex subsets, volumes by fan triangulation, lattice points by box scans.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import combinations, product

DEFAULT_SEED = 2105
HEIGHT_SCALE = 1000

# Small reflexive supports, by vertices; each is the support of one heights
# file per pass.  The 3-d ones carry the ring workload.
SUPPORTS = {
    "p2": [(-1, -1), (2, -1), (-1, 2)],
    "p1xp1": [(-1, -1), (1, -1), (-1, 1), (1, 1)],
    "dp6": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "p112": [(-1, -1), (3, -1), (-1, 1)],
    "p2-dual": [(1, 0), (0, 1), (-1, -1)],
    "diamond": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "pentagon": [(1, 0), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    "kite": [(-1, -1), (1, -1), (0, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "bipyramid": [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)],
    "square-pyramid": [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (1, 1, -1), (0, 0, 1)],
    "triangle-prism": [(1, 0, -1), (0, 1, -1), (-1, -1, -1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)],
}
RING_DEGREE = 3


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _normal(pts):
    """A normal of the hyperplane through 2 points in R^2 or 3 points in R^3."""
    if len(pts) == 2:
        d = _sub(pts[1], pts[0])
        return (-d[1], d[0])
    return _cross(_sub(pts[1], pts[0]), _sub(pts[2], pts[0]))


def facets(vertices):
    """Facets of a full-dimensional polytope in R^2 or R^3, by brute force.

    Returns (outward normal, offset, vertex subset) with <normal, x> <= offset
    on the polytope and equality exactly on the subset.
    """
    vs = sorted(set(tuple(Fraction(x) for x in v) for v in vertices))
    dim = len(vs[0])
    out = {}
    for sub in combinations(vs, dim):
        n = _normal(sub)
        if not any(n):
            continue
        c = _dot(n, sub[0])
        side = {(_dot(n, v) > c) - (_dot(n, v) < c) for v in vs} - {0}
        if len(side) != 1:
            continue
        if side == {1}:
            n, c = tuple(-x for x in n), -c
        tight = frozenset(v for v in vs if _dot(n, v) == c)
        out.setdefault(tight, (n, c))
    return [(n, c, tight) for tight, (n, c) in out.items()]


def _cyclic(points, drop):
    """Points of a convex polygon in cyclic order, after dropping one axis."""
    proj = [tuple(x for i, x in enumerate(p) if i != drop) for p in points]
    cx = sum(p[0] for p in proj) / len(proj)
    cy = sum(p[1] for p in proj) / len(proj)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def key(i):
        # exact angle order: half plane first, then by cross product
        return (half(proj[i]), _Slope(proj[i][0] - cx, proj[i][1] - cy))

    return [points[i] for i in sorted(range(len(points)), key=key)]


class _Slope:
    """Orders vectors within one half plane by angle, exactly."""

    def __init__(self, dx, dy):
        self.dx, self.dy = dx, dy

    def __lt__(self, other):
        return self.dx * other.dy - self.dy * other.dx > 0


def volume(vertices):
    """Euclidean volume of conv(vertices), full-dimensional in R^2 or R^3."""
    vs = sorted(set(tuple(Fraction(x) for x in v) for v in vertices))
    if len(vs[0]) == 2:
        ring = _cyclic(vs, drop=None)
        return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(ring, ring[1:] + ring[:1]))) / 2
    c = tuple(sum(v[i] for v in vs) / len(vs) for i in range(3))
    total = Fraction(0)
    for n, _, tight in facets(vs):
        drop = max(range(3), key=lambda i: abs(n[i]))
        ring = _cyclic(sorted(tight), drop)
        for a, b in zip(ring[1:], ring[2:]):
            total += abs(_dot(_sub(ring[0], c), _cross(_sub(a, c), _sub(b, c)))) / 6
    return total


def lattice_points(vertices, dilation=1):
    """Integer points of dilation * conv(vertices), by scanning the box."""
    fac = facets(vertices)
    dim = len(vertices[0])
    lo = [dilation * min(v[i] for v in vertices) for i in range(dim)]
    hi = [dilation * max(v[i] for v in vertices) for i in range(dim)]
    box = product(*[range(int(a), int(b) + 1) for a, b in zip(lo, hi)])
    return [p for p in box if all(_dot(n, p) <= dilation * c for n, c, _ in fac)]


def pass_dir(out_dir, index):
    return os.path.join(out_dir, f"pass{index}")


def write_inputs(seed, passes, out_dir):
    """Write the heights files of passes 0..passes-1 under out_dir/pass<j>/.

    Each file lifts every lattice point of its support; pass j draws its
    perturbations from the stream seeded by (seed, j), so passes share no
    inputs and a pass reads the same under the same seed whatever came before.
    """
    points = {name: lattice_points(verts) for name, verts in SUPPORTS.items()}
    for index in range(passes):
        rng = random.Random(f"{seed}:{index}")
        os.makedirs(pass_dir(out_dir, index), exist_ok=True)
        for name, verts in SUPPORTS.items():
            obj = {
                "support": {"ambient_dim": len(verts[0]), "vertices": [list(v) for v in verts]},
                "heights": [[list(p), HEIGHT_SCALE * _dot(p, p) + rng.randrange(HEIGHT_SCALE)] for p in points[name]],
            }
            with open(os.path.join(pass_dir(out_dir, index), f"{name}.heights.json"), "w", encoding="utf-8") as fh:
                json.dump(obj, fh, sort_keys=True)


def ring_complex(solid_report):
    """Ring input whose cells are the maximal cells of a tropicalize report."""
    pts = solid_report["points"]
    return {"cells": [[pts[i] for i in cell] for cell in solid_report["maximal_cells"]]}


def _report_cells(report):
    pts = [tuple(Fraction(x) for x in p) for p in report["points"]]
    return [[pts[i] for i in cell] for cell in report["maximal_cells"]]


def check_solid(name, report):
    """Cell volumes of the solid complex sum to the support's volume."""
    verts = SUPPORTS[name]
    if report["dim"] != len(verts[0]):
        return f"solid dim {report['dim']} != {len(verts[0])}"
    got = sum(volume(cell) for cell in _report_cells(report))
    want = volume(verts)
    return None if got == want else f"cell volumes sum to {got}, support volume is {want}"


def check_boundary(name, report):
    """Every cell of the hypersurface complex lies on a facet of the support."""
    fac = facets(SUPPORTS[name])
    for cell in _report_cells(report):
        if not any(all(_dot(n, p) == c for p in cell) for n, c, _ in fac):
            return f"boundary cell {cell} lies on no facet of the support"
    return None if report["maximal_cells"] else "empty boundary complex"


def check_ring(name, report):
    """hilbert_counts[d] is the number of lattice points of d * support."""
    verts = SUPPORTS[name]
    want = [1] + [len(lattice_points(verts, d)) for d in range(1, RING_DEGREE + 1)]
    got = report.get("hilbert_counts")
    return None if got == want else f"hilbert_counts {got} != lattice counts {want}"

