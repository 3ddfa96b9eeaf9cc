import json
import random
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    _cone_slice,
    _integer_basis_coordinates,
    _rank_vertices,
    basis_coordinates,
    cone_over_cell,
    gift_wrap_full_dim,
    oracle_clip_by_halfspace,
    oracle_dilate_lattice_points,
    oracle_facet_keys,
    oracle_hull,
    oracle_product,
    oracle_section,
)

from tropdeg import exactlin, polytope, render
from tropdeg.exactlin import (
    dot,
    mat_rank,
    saturate_lattice,
    vadd,
    vsub,
)
from tropdeg.polytope import (
    LatticePolytope,
    NefPartition,
    _bits,
    _face_facets,
    _face_masks,
    centered_dilated_simplex,
    clip_by_halfspace,
    cube,
    hull,
    minkowski_sum,
    polytope_from_inequalities,
    product,
    section,
    segment,
    standard_simplex,
)
from tropdeg.subdivision import common_refinement, fine_crepant_subdivision, graph_degeneration, regular_subdivision
from tropdeg.tropical import TropicalSpace

QUINTIC_COLUMNS = [
    (-1, -1, -1, -1),
    (4, -1, -1, -1),
    (-1, 4, -1, -1),
    (-1, -1, 4, -1),
    (-1, -1, -1, 4),
]


@pytest.fixture(scope="module")
def quintic():
    return hull(QUINTIC_COLUMNS)


def test_hull_unit_square():
    p = hull([(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)])
    assert len(p.vertices) == 4
    assert len(p.facets) == 4
    assert p.dim == 2


def test_hull_quintic_is_4_simplex(quintic):
    assert len(quintic.vertices) == 5
    assert len(quintic.facets) == 5
    assert quintic.dim == 4


def test_hull_collinear_degenerate():
    p = hull([(0, 0), (2, 0), (1, 0)])
    assert p.dim == 1
    assert len(p.vertices) == 2
    assert sorted(p.vertices) == [(0, 0), (2, 0)]


def test_hull_interior_points_dropped():
    p = hull([(0, 0), (3, 0), (0, 3), (1, 1)])
    assert len(p.vertices) == 3


def test_polar_dual_quintic(quintic):
    # oracle: the dual's vertices are the primitive facet normals, offset 1
    for n, c in quintic.facets:
        assert c == 1
    d = quintic.polar_dual()
    expected = sorted(
        [
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (-1, -1, -1, -1),
        ]
    )
    assert sorted(d.vertices) == expected


def test_polar_dual_square_self_dual():
    sq = cube(2)
    d = sq.polar_dual()
    assert sorted(d.vertices) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_polar_dual_involution(quintic):
    dd = quintic.polar_dual().polar_dual()
    assert sorted(dd.vertices) == sorted(quintic.vertices)


def test_is_reflexive(quintic):
    assert quintic.is_reflexive()
    assert centered_dilated_simplex(2).is_reflexive()
    with pytest.raises(ValueError, match="origin"):
        hull([(0, 0), (1, 0), (0, 1), (1, 1)]).is_reflexive()


def test_lattice_points_unit_square():
    p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(p.lattice_points()) == 4


def test_lattice_points_quintic(quintic):
    # oracle: degree-5 monomials in 5 variables, C(9, 4), independent formula
    assert len(quintic.lattice_points()) == comb(9, 4) == 126


def test_lattice_points_segment():
    s = segment(-1, 1)
    assert s.lattice_points() == [(-1,), (0,), (1,)]


def test_minkowski_dilation():
    d1 = standard_simplex(1)
    s = minkowski_sum(d1, d1)
    assert sorted(s.vertices) == [(0,), (2,)]


def test_minkowski_identity(quintic):
    zero = hull([(0, 0, 0, 0)])
    assert minkowski_sum(quintic, zero).vertices == quintic.vertices


def test_minkowski_blowup_parts_sum_to_prism(quintic):
    # quintic nef data with i = 2: O(2) and O(3) polytopes summing to the
    # anticanonical; the blown-up parts tile P x [-1, 1]
    d4 = standard_simplex(4, 2)
    d4b = standard_simplex(4, 3).translate((-1, -1, -1, -1))
    assert minkowski_sum(d4, d4b).vertices == quintic.vertices
    a = product(d4, hull([(0,), (1,)]))
    b = product(d4b, hull([(-1,), (0,)]))
    total = minkowski_sum(a, b)
    prism = product(quintic, segment(-1, 1))
    assert total.vertices == prism.vertices


def test_product_prism():
    p = product(centered_dilated_simplex(2), segment(-1, 1))
    # oracle: facet count of a prism = facets(base) + 2
    assert len(p.vertices) == 6
    assert len(p.facets) == len(centered_dilated_simplex(2).facets) + 2 == 5


def test_product_with_point():
    p = product(centered_dilated_simplex(2), hull([(0,)]))
    assert p.dim == 2
    assert p.ambient_dim == 3
    assert len(p.vertices) == 3


def test_product_unit_square():
    p = product(standard_simplex(1), standard_simplex(1))
    assert sorted(p.vertices) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_elementary_simplex():
    assert standard_simplex(2).is_elementary_simplex()
    assert not segment(0, 2).is_elementary_simplex()
    # oracle first: enumeration finds 4 lattice points here ((1,1) sits on an
    # edge), so this triangle is not elementary
    p = hull([(0, 0), (1, 0), (1, 2)])
    assert sorted(p.lattice_points()) == [(0, 0), (1, 0), (1, 1), (1, 2)]
    assert not p.is_elementary_simplex()
    # a genuinely skew elementary triangle: enumeration finds exactly 3 points
    q = hull([(0, 0), (1, 0), (1, 1)])
    assert len(q.lattice_points()) == 3
    assert q.is_elementary_simplex()


def test_normalized_volume():
    assert standard_simplex(3).normalized_volume() == 1
    # oracle: dilation scaling d^n of the unit simplex
    assert standard_simplex(2, 3).normalized_volume() == 3**2
    assert centered_dilated_simplex(2).normalized_volume() == 9


def test_normalized_volume_quintic(quintic):
    assert quintic.normalized_volume() == 5**4 == 625


def _face_sets(poly):
    """The nonempty faces as vertex index sets by dimension, from the top down, read off the incidence."""
    masks = _face_masks(poly.incidence, len(poly.vertices), poly.dim)
    return {d: [frozenset(_bits(m)) for m in level] for d, level in masks.items()}


def _f_vector(poly):
    faces = _face_sets(poly)
    return tuple(len(faces[d]) for d in range(poly.dim + 1))


def test_faces_square():
    assert _f_vector(hull([(0, 0), (1, 0), (0, 1), (1, 1)])) == (4, 4, 1)


def test_faces_simplex():
    assert _f_vector(standard_simplex(3)) == (4, 6, 4, 1)


def test_faces_euler_prism():
    p = product(centered_dilated_simplex(2), segment(-1, 1))
    # oracle: alternating sum over nonempty faces including the full face is 1
    assert sum((-1) ** d * len(fs) for d, fs in _face_sets(p).items()) == 1


def test_vertex_facet_duality(quintic):
    # reconstructing from the facet inequalities reproduces the vertex set
    for p in [quintic, cube(2), product(centered_dilated_simplex(2), segment(-1, 1))]:
        q = polytope_from_inequalities(list(p.facets), list(p.equations), p.ambient_dim)
        assert sorted(q.vertices) == sorted(p.vertices)


def test_lattice_point_monotonicity():
    pairs = [
        (standard_simplex(2), standard_simplex(2, 2)),
        (cube(2), standard_simplex(2)),
        (segment(0, 1), segment(-1, 1)),
    ]
    for p, q in pairs:
        s = minkowski_sum(p, q)
        assert len(s.lattice_points()) >= len(p.lattice_points())


def test_elementary_iff_unimodular_on_random_simplices():
    # In dims 1 and 2 "elementary" and "unimodular" coincide for simplices.
    # In dim 3 Reeve simplices are elementary with volume > 1, so only the
    # direction nvol = 1 => elementary survives; assert exactly that.
    rng = random.Random(101)
    checked = 0
    while checked < 50:
        d = rng.randint(1, 3)
        pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 1)]
        p = hull(pts)
        if p.dim != d or len(p.vertices) != d + 1:
            continue
        checked += 1
        elem = p.is_elementary_simplex()
        nv = p.normalized_volume()
        if nv == 1:
            assert elem
        if elem and d <= 2:
            assert nv == 1
        # cross-check against plain enumeration
        assert elem == (len(p.lattice_points()) == d + 1)


def test_rational_vertices_slice():
    p = hull([(Fraction(1, 2), 0), (0, Fraction(1, 2)), (0, 0)])
    assert p.dim == 2
    assert p.normalized_volume() == Fraction(1, 4)
    assert p.lattice_points() == [(0, 0)]


@st.composite
def lattice_point_cells(draw):
    """Lattice and rational cells of dimension 0 to 4 in ambient dimension 1 to 4.

    Two kinds: the hull of 1 to n + 2 random points, and (in ambient
    dimension 3 and 4) a thin diagonal cell, the hull of an anchor and 0/1
    combinations of one or two directions with at least two nonzero entries
    each, so no edge runs along a coordinate axis and most points of its
    bounding box are off its affine span.  The points are divided by 1
    (a lattice cell), 2 or 3 and shifted by an integer vector.  Every
    coordinate spans at most 2 before the division (4 in ambient dimension
    1 and 2), so the box of a dilate by 3 stays small.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    reach = 2 if n <= 2 else 1
    coord = st.integers(min_value=-reach, max_value=reach)
    point = st.tuples(*[coord] * n)
    if n >= 3 and draw(st.booleans()):
        direction = st.tuples(*[st.integers(min_value=-1, max_value=1)] * n).filter(
            lambda u: sum(1 for x in u if x) >= 2
        )
        dirs = draw(st.lists(direction, min_size=1, max_size=2))
        start = draw(st.tuples(*[st.integers(min_value=0, max_value=1)] * n))
        combos = iproduct((0, 1), repeat=len(dirs))
        pts = [tuple(a + sum(c * u[i] for c, u in zip(cs, dirs)) for i, a in enumerate(start)) for cs in combos]
        pts = draw(st.lists(st.sampled_from(pts), min_size=2, max_size=len(pts), unique=True))
    else:
        size = draw(st.integers(min_value=1, max_value=n + 2))
        pts = draw(st.lists(point, min_size=size, max_size=size, unique=True))
    den = draw(st.sampled_from([1, 1, 2, 3]))
    shift = draw(point)
    return hull([tuple(Fraction(x, den) + t for x, t in zip(p, shift)) for p in pts])


@settings(max_examples=150, deadline=None)
@given(lattice_point_cells(), st.integers(min_value=1, max_value=3))
def test_lattice_points_match_retired_enumerator(poly, dilation):
    assert poly.lattice_points(dilation) == oracle_dilate_lattice_points(poly, dilation)


def test_lattice_points_of_a_thin_diagonal_dilate():
    # the box of 2 * [(0,0,0,0), (1,1,1,1)] has 81 points, 3 on the segment
    seg = hull([(0, 0, 0, 0), (1, 1, 1, 1)])
    assert seg.lattice_points(2) == [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)]
    tri = hull([(Fraction(1, 2), 0, 0), (0, Fraction(1, 2), 0), (0, 0, Fraction(1, 2))])
    assert tri.lattice_points() == []
    assert tri.lattice_points(2) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_lattice_points_of_a_thin_cell_scan_its_span_box():
    # the ambient box of this triangle has 21^4 (about 2 * 10^5) points; its
    # span box over the pivot coordinates x0 and x1 has 441, and of those
    # only the 42 with 20 | x1 are lattice points of the plane to test
    thin = hull([(0, 0, 0, 0), (1, 0, 0, 0), (20, 20, 20, 21)])
    calls = []

    def counted(u, v):
        calls.append(v)
        return dot(u, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "dot", counted)
        assert thin.is_elementary_simplex()
    assert len({p for p in calls if len(p) == 4}) <= 42


def test_json_round_trip(quintic):
    s = json.dumps(quintic.to_json(), sort_keys=True)
    again = LatticePolytope.from_json(json.loads(s))
    assert again.vertices == quintic.vertices
    assert json.dumps(again.to_json(), sort_keys=True) == s


def test_nef_partition_validation(quintic):
    d4 = standard_simplex(4, 2)
    d4b = standard_simplex(4, 3).translate((-1, -1, -1, -1))
    nef = NefPartition(quintic, [d4, d4b])
    assert len(nef.parts) == 2
    with pytest.raises(ValueError, match="do not sum"):
        NefPartition(quintic, [d4, d4])


def test_contains_and_interior(quintic):
    assert quintic.contains((0, 0, 0, 0))
    assert quintic.contains_strictly((0, 0, 0, 0))
    assert quintic.contains((4, -1, -1, -1))
    assert not quintic.contains_strictly((4, -1, -1, -1))
    assert not quintic.contains((5, 0, 0, 0))


# --- clipping ------------------------------------------------------------


def test_clip_touching_from_outside_keeps_the_face():
    # {x >= 1} meets the square [-1, 1]^2 in its edge x = 1
    edge = clip_by_halfspace(cube(2), (1, 0), -1)
    assert edge is not None
    assert edge.vertices == ((1, -1), (1, 1))
    assert edge.dim == 1
    assert clip_by_halfspace(cube(2), (1, 0), -2) is None
    assert clip_by_halfspace(cube(2), (1, 0), 1) == cube(2)


@st.composite
def clip_chains(draw):
    """A random polytope and a chain of halfspaces to clip it by.

    The polytope is the hull of integer points, full-dimensional or mapped
    into a larger ambient space (so it may be of lower dimension), with its
    points divided by a common denominator of 1 to 3.  Offsets are random,
    or make the hyperplane support the starting polytope from either side,
    or pass through one of its vertices; an "equation" step is a two-sided
    clip to a level between its extreme values.
    """
    points = draw(embedded_point_sets(max_ambient=4))
    den = draw(st.integers(min_value=1, max_value=3))
    pts = [tuple(Fraction(x, den) for x in p) for p in points]
    ambient = len(pts[0])
    normal = st.tuples(*[st.integers(min_value=-2, max_value=2)] * ambient).filter(lambda n: any(n))
    kinds = st.sampled_from(["random", "touch_max", "touch_min", "vertex", "equation"])
    steps = draw(st.lists(st.tuples(normal, kinds, st.integers(-6, 6)), min_size=1, max_size=3))
    return pts, steps


@settings(max_examples=80, deadline=None)
@given(clip_chains())
def test_clip_chain_matches_vertex_enumeration(chain):
    pts, steps = chain
    poly = hull(pts)
    halfspaces = []
    for n, kind, r in steps:
        vals = [dot(n, v) for v in poly.vertices]
        if kind == "random":
            halfspaces.append((n, r))
        elif kind == "touch_max":
            halfspaces.append((n, -max(vals)))
        elif kind == "touch_min":
            halfspaces.append((n, -min(vals)))
        elif kind == "vertex":
            halfspaces.append((n, -vals[r % len(vals)]))
        else:
            level = min(vals) + Fraction(abs(r), 6) * (max(vals) - min(vals))
            halfspaces += [(n, -level), (tuple(-x for x in n), level)]
    clipped = poly
    for n, c in halfspaces:
        if clipped is not None:
            retired = oracle_clip_by_halfspace(clipped, n, c)
            clipped = clip_by_halfspace(clipped, n, c)
            assert _fields(clipped) == _fields(retired)
    oracle = polytope_from_inequalities(list(poly.facets) + halfspaces, list(poly.equations), poly.ambient_dim)
    if oracle is None:
        assert clipped is None
        return
    assert clipped is not None
    assert clipped.vertices == oracle.vertices
    assert clipped.facets == oracle.facets
    assert clipped.equations == oracle.equations
    assert clipped.span_basis == oracle.span_basis


def _fields(poly):
    """Every field of a LatticePolytope (None for None)."""
    return None if poly is None else vars(poly)


# --- face lattice ----------------------------------------------------------


def _aff_dim(points):
    if len(points) <= 1:
        return 0
    a = points[0]
    return mat_rank(tuple(vsub(p, a) for p in points[1:]))


def _faces_by_rehulling(poly):
    """The recursive face walk that re-hulls every face (differential oracle)."""
    by_dim = {}
    seen = set()

    def visit(vidx):
        key = frozenset(vidx)
        if key in seen:
            return
        seen.add(key)
        sub = [poly.vertices[i] for i in vidx]
        subdim = _aff_dim(sub)
        by_dim.setdefault(subdim, []).append(key)
        if subdim == 0:
            return
        for tight_local in _face_facets(sub):
            visit([vidx[i] for i in tight_local])

    visit(list(range(len(poly.vertices))))
    return {d: sorted(fs, key=lambda s: sorted(s)) for d, fs in by_dim.items()}


@st.composite
def embedded_point_sets(draw, max_ambient=5):
    """Integer points of dimension 1 to 4, mapped into ambient dimension up to max_ambient.

    The map is a random integer matrix plus a translation, so the image can
    be lower-dimensional than both the source and the ambient space.
    """
    d = draw(st.integers(min_value=1, max_value=min(4, max_ambient)))
    ambient = draw(st.integers(min_value=d, max_value=max_ambient))
    coord = st.integers(min_value=-3, max_value=3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 4))
    if ambient == d and draw(st.booleans()):
        return pts
    entry = st.integers(min_value=-2, max_value=2)
    m = draw(st.lists(st.tuples(*[entry] * d), min_size=ambient, max_size=ambient))
    shift = draw(st.tuples(*[coord] * ambient))
    return [tuple(dot(row, p) + t for row, t in zip(m, shift)) for p in pts]


@settings(max_examples=80, deadline=None)
@given(embedded_point_sets())
def test_faces_match_recursive_rehulling(pts):
    poly = hull(pts)
    oracle = _faces_by_rehulling(poly)
    assert list(_face_sets(poly).items()) == list(oracle.items())
    verts = list(poly.vertices)
    expected_keys = sorted(tuple(verts[i] for i in tight) for tight in _face_facets(verts))
    assert sorted(poly.facet_keys()) == expected_keys


def _scanned_incidence(poly):
    """The retired per-facet scan, as one vertex bitmask per facet."""
    index = {v: i for i, v in enumerate(poly.vertices)}
    return tuple(sum(1 << index[v] for v in key) for key in oracle_facet_keys(poly))


def _levels(vals):
    """Levels missing, touching and crossing a polytope on which a functional takes the sorted values vals."""
    return [vals[0] - 1, *vals, vals[-1] + 1, *(Fraction(a + b, 2) for a, b in zip(vals, vals[1:]))]


@settings(max_examples=60, deadline=None)
@given(embedded_point_sets(max_ambient=4), st.booleans(), st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9), st.data())
def test_incidence_matches_the_retired_scan(pts, rational, dens, data):
    # hulls, clips crossing and touching the hull, sections crossing,
    # touching and missing it, every face, products with a second hull,
    # and a slice of the cone over the hull
    if rational:
        pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    poly = hull(pts)
    ambient = poly.ambient_dim
    normal = data.draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * ambient).filter(any))
    vals = sorted({dot(normal, v) for v in poly.vertices})
    made = [poly]
    made += [clip_by_halfspace(poly, normal, -x) for x in vals]
    made += [section(poly, normal, x) for x in _levels(vals)]
    masks = _face_masks(poly.incidence, len(poly.vertices), poly.dim)
    made += [poly.face_from_mask(m) for level in masks.values() for m in level]
    other = hull(data.draw(embedded_point_sets(max_ambient=2)))
    made += [product(poly, other), product(other, poly)]
    cone = cone_over_cell(poly)
    if mat_rank(cone.facet_normals) == cone.ambient_dim:
        # w > 0 on every generator (v, 1) cleared, whose last entry is positive
        w = normal + (1 + max(abs(dot(normal, g[:-1])) for g in cone.generators),)
        level = data.draw(st.integers(min_value=1, max_value=3))
        made.append(_cone_slice(cone, [dot(w, g) for g in cone.generators], level))
    for p in made:
        if p is not None:
            assert p.incidence == _scanned_incidence(p)
            assert p.facet_keys() == oracle_facet_keys(p)


@pytest.mark.parametrize("poly", [cube(2), centered_dilated_simplex(2), hull([(1, 0), (0, 1), (-1, -1)]), centered_dilated_simplex(3)])
def test_incidence_of_fine_crepant_cones_matches_the_retired_scan(poly):
    sub, _ = fine_crepant_subdivision(poly)
    for cone in sub.maximal_cells:
        assert cone.incidence == _scanned_incidence(cone)


@settings(max_examples=80, deadline=None)
@given(embedded_point_sets(), st.booleans(), st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9))
def test_facet_chart_is_the_chart_of_the_facet_vertices(pts, rational, dens):
    # integer and rational polytopes, in any ambient dimension: the span's
    # basis cut by the facet normal gives the chart the facet's vertices do
    if rational:
        pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    p = hull(pts)
    for (n, _), mask in zip(p.facets, p.incidence):
        assert polytope._facet_chart(p.chart[0], n) == polytope._lattice_chart(p.vertices_of(mask))


@settings(max_examples=80, deadline=None)
@given(
    embedded_point_sets(max_ambient=4),
    st.booleans(),
    st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_section_matches_two_clips(pts, rational, dens, scale, data):
    # planes crossing, touching and missing the polytope, for an integer or
    # rational functional: every field, the incidence and the chart
    # included, equals the two-clip oracle's and the hull's of its vertices
    if rational:
        pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    poly = hull(pts)
    normal = data.draw(st.tuples(*[st.integers(min_value=-2, max_value=2)] * poly.ambient_dim).filter(any))
    f = tuple(Fraction(x, scale) for x in normal)
    for t in _levels(sorted({dot(f, v) for v in poly.vertices})):
        cut = section(poly, f, t)
        assert _fields(cut) == _fields(oracle_section(poly, f, t))
        if cut is not None:
            assert _fields(cut) == _fields(hull(cut.vertices))


@settings(max_examples=100, deadline=None)
@given(
    embedded_point_sets(),
    st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=5, max_size=5),
)
def test_span_coordinates_of_point_sets_match_oracle_basis_coordinates(pts, dens, stray):
    # integer points (every den 1) and rational ones, in the chart their hull
    # keeps: exact coordinates from the anchor over their least common
    # denominator, and a stray point raises exactly when it is off the span
    pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    poly = hull(pts)

    def on_span(points):
        diffs = [vsub(p, poly.anchor) for p in points]
        try:
            if poly.dim:
                expected = basis_coordinates(poly.span_basis, diffs)
            elif any(any(v) for v in diffs):
                raise ValueError("not in the span")
            else:
                expected = [()] * len(diffs)
        except ValueError:
            with pytest.raises(ValueError, match="off the affine span"):
                polytope._span_coordinates(poly.chart, poly.anchor, points)
            return False
        rows, den = polytope._span_coordinates(poly.chart, poly.anchor, points)
        assert all(type(x) is int for r in rows for x in r)
        assert den == exactlin.denominator_lcm(x for c in expected for x in c)
        assert [tuple(Fraction(x, den) for x in r) for r in rows] == expected
        return True

    assert on_span(pts)
    on_span([tuple(stray[: poly.ambient_dim])])


@settings(max_examples=60, deadline=None)
@given(embedded_point_sets(), st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9))
def test_hull_of_vertices_equals_hull_of_points(pts, dens):
    # TropicalSpace.cells() returns a maximal cell itself as its own face,
    # which relies on the hull depending only on the vertex set
    pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    poly = hull(pts)
    again = hull(poly.vertices)
    assert (again.facets, again.equations, again.span_basis, again.anchor) == (
        poly.facets,
        poly.equations,
        poly.span_basis,
        poly.anchor,
    )


@settings(max_examples=100, deadline=None)
@given(
    embedded_point_sets(),
    st.booleans(),
    st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9),
)
def test_hull_matches_retired_hull(pts, rational, dens):
    # full- and lower-dimensional, integer and rational point sets in
    # ambient dimension 1 to 5, and a single point
    if rational:
        pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    assert _fields(hull(pts)) == _fields(oracle_hull(pts))
    assert _fields(hull(pts[:1])) == _fields(oracle_hull(pts[:1]))


def test_hull_makes_one_chart_and_hull_and_clip_share_one_adjacency_rule():
    # the first hull of a span makes its chart (one saturation and one left
    # inverse beyond _hull_full_dim's); a second hull with the same span
    # reads the memo and makes neither; the clip finds edges (`_crossings`)
    # with the same _adjacent as the double description and makes no rank
    # computation
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return fn(*args)

        return wrapper

    cell = cube(3)
    polytope._span_chart.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("saturate_lattice", "left_inverse", "mat_rank", "_adjacent"):
            mp.setattr(polytope, name, counted(name, getattr(polytope, name)))
        lower = hull([(1, 0, 0, 0), (1, 2, 0, 0), (1, 0, 2, 0), (1, 2, 2, 0), (1, 1, 1, 2)])
        first = sorted(calls)
        del calls[:]
        again = hull([(5, 1, 1, 1), (5, 3, 1, 1), (5, 1, 3, 1), (5, 3, 3, 1), (5, 2, 2, 3)])
        second = sorted(calls)
        del calls[:]
        clipped = clip_by_halfspace(cell, (1, 1, 1), 0)
        clip_calls = [call for call in calls if call[1] in ("clip_by_halfspace", "_crossings")]
    assert (lower.dim, again.dim, clipped.dim) == (3, 3, 3)
    assert again.span_basis == lower.span_basis
    assert sorted(set(first)) == [
        ("_adjacent", "_hull_full_dim"),
        ("left_inverse", "_hull_full_dim"),
        ("left_inverse", "_span_chart"),
        ("saturate_lattice", "_span_chart"),
    ]
    assert first.count(("left_inverse", "_span_chart")) == first.count(("saturate_lattice", "_span_chart")) == 1
    assert sorted(set(second)) == [("_adjacent", "_hull_full_dim"), ("left_inverse", "_hull_full_dim")]
    assert clip_calls and set(clip_calls) == {("_adjacent", "_crossings")}


def _face_functional(poly, face):
    """The sum of the facets of poly tight at every vertex of face, with its offset."""
    tight = [(n, c) for n, c in poly.facets if all(dot(n, v) == -c for v in face)]
    return tuple(map(sum, zip(*(n for n, _ in tight)))), sum(c for _, c in tight)


@settings(max_examples=60, deadline=None)
@given(embedded_point_sets(), st.booleans(), st.lists(st.integers(min_value=1, max_value=3), min_size=9, max_size=9))
def test_face_matches_hull_of_its_vertices(pts, rational, dens):
    # every proper face: each facet on its own inequality, and each lower
    # face, down to the vertices, on the sum of the facets tight there
    if rational:
        pts = [tuple(Fraction(x, den) for x in p) for p, den in zip(pts, dens)]
    poly = hull(pts)
    for n, c in poly.facets:
        face = poly.face(n, c)
        assert _fields(face) == _fields(oracle_hull([v for v in poly.vertices if dot(n, v) == -c]))
    faces = _face_sets(poly)
    for d in range(poly.dim):
        for idx in faces[d]:
            verts = [poly.vertices[i] for i in sorted(idx)]
            assert _fields(poly.face(*_face_functional(poly, verts))) == _fields(oracle_hull(verts))


@settings(max_examples=60, deadline=None)
@given(embedded_point_sets(max_ambient=3), embedded_point_sets(max_ambient=3), st.integers(min_value=1, max_value=3))
def test_product_matches_hull_of_vertex_pairs(pts_p, pts_q, den):
    p = hull([tuple(Fraction(x, den) for x in v) for v in pts_p])
    q = hull(pts_q)
    for a, b in ((p, q), (q, p), (p, hull([pts_q[0]]))):
        assert _fields(product(a, b)) == _fields(oracle_product(a, b))


def test_hull_clears_the_differences_once_and_graph_lifts_saturate_nothing(monkeypatch):
    # a hull clears its points' differences from the anchor once, for both
    # its chart and its coordinates, and a degeneration keeps each graph
    # cell as its lifted vertex key, so it makes no `_lattice_chart` call
    # and saturates no lattice
    square = [(x, y) for x in range(3) for y in range(3)]
    sub_f, f = regular_subdivision(square, [x * x + y * y for x, y in square])
    sub_g, g = regular_subdivision(square, [x * x + 2 * y * y + x * y for x, y in square])
    refined = common_refinement(sub_f, sub_g)
    calls = {name: [] for name in ("_cleared_differences", "_lattice_chart", "_span_coordinates")}
    for name, made in calls.items():
        real = getattr(polytope, name)
        monkeypatch.setattr(polytope, name, lambda *args, _real=real, _made=made: (_made.append(args), _real(*args))[1])
    saturations = []
    real_saturate = polytope.saturate_lattice
    monkeypatch.setattr(polytope, "saturate_lattice", lambda *args: (saturations.append(args), real_saturate(*args))[1])
    polytope._span_chart.cache_clear()
    poly = hull([(0, 0, Fraction(1, 2)), (1, 0, 0), (0, 1, 0), (1, 1, Fraction(1, 3))])
    assert [len(c) for c in calls.values()] == [1, 0, 0] and len(saturations) == 1
    for made in calls.values():
        made.clear()
    saturations.clear()
    degeneration = graph_degeneration([(sub_f, f), (sub_g, g)], refinement=refined)
    assert calls["_lattice_chart"] == [] and saturations == []
    for cell in degeneration.total_complex:
        assert cell == hull(cell).key()
    assert poly.dim == 3


def test_clip_face_and_graph_degeneration_take_no_hull():
    # the clip (crossing and touching), the face, the graph cells of a
    # degeneration, a tropical space's faces and the render net's facet
    # charts are all read off cells already built
    square = [(x, y) for x in range(3) for y in range(3)]
    sub_f, f = regular_subdivision(square, [x * x + y * y for x, y in square])
    sub_g, g = regular_subdivision(square, [x * x + 2 * y * y + x * y for x, y in square])
    refined = common_refinement(sub_f, sub_g)
    space = TropicalSpace(2, 2, refined.maximal_cells, "solid")
    cell = cube(3)
    calls = []
    real = LatticePolytope.hull

    def counted(points):
        calls.append(points)
        return real(points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LatticePolytope, "hull", staticmethod(counted))
        crossing = clip_by_halfspace(cell, (1, 1, 1), 0)
        touching = clip_by_halfspace(cell, (1, 0, 0), -1)
        face = cell.face((1, 1, 0), 2)
        degeneration = graph_degeneration([(sub_f, f), (sub_g, g)], refinement=refined)
        faces = space.cells()
        facets, charts = render._net_charts(cell)
    assert calls == []
    assert (crossing.dim, touching.dim, face.dim) == (3, 2, 1)
    assert len(degeneration.total_complex) == len(refined.maximal_cells)
    assert len(faces) == len(space.faces())
    assert len(charts) == len(facets) == 6


# --- gift wrapping ---------------------------------------------------------
#
# The Fraction gift wrap the double description replaced is kept in
# tests/oracles.py (`gift_wrap_full_dim`); it must run with
# polytope._hull_full_dim patched to it, so the facet sub-hulls that
# _face_facets makes go through the oracle too.


def _box_points(draw, dim, most):
    """The lattice points of a random box [0, s_1] x ... x [0, s_dim], at most `most`."""
    sides = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=dim, max_size=dim).filter(
            lambda s: len(list(iproduct(*[range(x + 1) for x in s]))) <= most
        )
    )
    return list(iproduct(*[range(x + 1) for x in sides]))


@st.composite
def wrap_point_sets(draw):
    """Integer point sets of dimension 1 to 5, most of their points not vertices.

    Four kinds: the lattice points of a box (at most 4-dimensional, as the
    recursive face oracle is slow on a 5-cube) under a unimodular shear; the
    lattice points of a box of one dimension less with a random integer
    height each, the lifted point sets `regular_subdivision` hulls (at most
    24 points, and 16 in dimension 5, where the oracle takes 5 s on 24 and
    10 s on 48); Minkowski sums of two small sets; and random points
    (doubled) with the midpoints of pairs of each facet's vertices added, so
    that facets carry more points than vertices and are not simplicial.
    """
    d = draw(st.integers(min_value=1, max_value=5))
    coord = st.integers(min_value=-2, max_value=2)
    kinds = ["box"] * (d < 5) + ["lifted"] * (d > 1) + ["minkowski", "facet_points"]
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        box = _box_points(draw, d, 48)
        shear = {(i, j): draw(st.integers(min_value=-1, max_value=1)) for i in range(d) for j in range(i + 1, d)}
        return [tuple(p[i] + sum(shear[i, j] * p[j] for j in range(i + 1, d)) for i in range(d)) for p in box]
    if kind == "lifted":
        box = _box_points(draw, d - 1, 24 if d < 5 else 16)
        heights = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(box), max_size=len(box)))
        return [p + (h,) for p, h in zip(box, heights)]
    point = st.tuples(*[coord] * d)
    if kind == "minkowski":
        a = draw(st.lists(point, min_size=1, max_size=4, unique=True))
        b = draw(st.lists(point, min_size=2, max_size=4, unique=True))
        return [vadd(p, q) for p in a for q in b]
    base = draw(st.lists(point, min_size=d + 1, max_size=d + 3, unique=True))
    pts = [tuple(2 * x for x in p) for p in base]
    for key in hull(base).facet_keys():
        pts += [vadd(u, v) for u, v in zip(key, key[1:] + key[:1])]
    return pts


def _span_input(pts):
    """hull's sorted distinct points, their integer span coordinates, and d."""
    pts = sorted(set(pts))
    diffs = [vsub(p, pts[0]) for p in pts]
    basis = saturate_lattice(diffs, len(pts[0]))
    return pts, _integer_basis_coordinates(diffs, basis), len(basis)


@settings(max_examples=60, deadline=None)
@given(wrap_point_sets())
def test_integer_wrap_matches_fraction_wrap(pts):
    pts, coords, d = _span_input(pts)
    facs = polytope._hull_full_dim(coords, d)
    poly = hull(pts)
    faces = list(_face_sets(poly).items())
    volume = poly.normalized_volume()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_hull_full_dim", gift_wrap_full_dim)
        oracle_facs = gift_wrap_full_dim(coords, d)
        oracle = hull(pts)
        oracle_faces = list(_faces_by_rehulling(oracle).items())
        oracle_volume = oracle.normalized_volume()
    # the oracle lists the two facets of a segment unsorted
    assert facs == sorted(oracle_facs)
    assert list(poly.vertices) == _rank_vertices(pts, oracle_facs, d)
    assert (poly.vertices, poly.facets, poly.equations) == (oracle.vertices, oracle.facets, oracle.equations)
    assert faces == oracle_faces
    assert volume == oracle_volume


def test_full_dimensional_hull_needs_no_kernel_basis():
    # double description finds facets without a ridge annihilator, and a
    # full-dimensional point set needs no span equations
    calls = []
    kernel = exactlin.kernel_basis

    def counted(m):
        calls.append(m)
        return kernel(m)

    with pytest.MonkeyPatch.context() as mp:
        for module in (exactlin, polytope):
            mp.setattr(module, "kernel_basis", counted)
        quintic = centered_dilated_simplex(4)
        polys = [cube(3), quintic, minkowski_sum(quintic, cube(4))]
    assert [p.dim for p in polys] == [3, 4, 4]
    assert calls == []
