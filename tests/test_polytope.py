import json
import random
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdeg import exactlin, polytope
from tropdeg.exactlin import (
    dot,
    hnf_column_basis,
    is_zero,
    kernel_basis,
    mat_rank,
    primitive,
    saturate_lattice,
    vadd,
    vsub,
)
from tropdeg.polytope import (
    FaceLattice,
    LatticePolytope,
    NefPartition,
    _face_facets,
    _span_coordinates,
    centered_dilated_simplex,
    clip_by_halfspace,
    cube,
    hull,
    minkowski_sum,
    polytope_from_inequalities,
    product,
    segment,
    standard_simplex,
)

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


def test_faces_square():
    p = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    fl = p.faces()
    assert fl.f_vector() == (4, 4, 1)
    assert len(fl.faces(-1)) == 1


def test_faces_simplex():
    p = standard_simplex(3)
    fl = p.faces()
    assert fl.f_vector() == (4, 6, 4, 1)


def test_faces_euler_prism():
    p = product(centered_dilated_simplex(2), segment(-1, 1))
    fl = p.faces()
    # oracle: alternating sum over nonempty faces including the full face is 1
    assert fl.euler_alternating_sum() == 1


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
    """A random integer polytope and a chain of halfspaces to clip it by.

    Offsets are random, or make the hyperplane support the starting polytope
    from either side; an "equation" step is a two-sided clip to a level
    between its extreme values.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=-3, max_value=3)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 3))
    normal = st.tuples(*[st.integers(min_value=-2, max_value=2)] * d).filter(lambda n: any(n))
    steps = draw(
        st.lists(
            st.tuples(normal, st.sampled_from(["random", "touch_max", "touch_min", "equation"]), st.integers(-6, 6)),
            min_size=1,
            max_size=3,
        )
    )
    return pts, steps


@settings(max_examples=60, deadline=None)
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
        else:
            level = min(vals) + Fraction(abs(r), 6) * (max(vals) - min(vals))
            halfspaces += [(n, -level), (tuple(-x for x in n), level)]
    clipped = poly
    for n, c in halfspaces:
        if clipped is not None:
            clipped = clip_by_halfspace(clipped, n, c)
    oracle = polytope_from_inequalities(list(poly.facets) + halfspaces, list(poly.equations), poly.ambient_dim)
    if oracle is None:
        assert clipped is None
        return
    assert clipped is not None
    assert clipped.vertices == oracle.vertices
    assert clipped.facets == oracle.facets
    assert clipped.equations == oracle.equations
    assert clipped.span_basis == oracle.span_basis


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
    by_dim[-1] = [frozenset()]
    faces_sorted = {d: sorted(fs, key=lambda s: sorted(s)) for d, fs in by_dim.items()}
    return FaceLattice(faces_sorted, poly.dim)


@st.composite
def embedded_point_sets(draw):
    """Integer points of dimension 1 to 4, mapped into ambient dimension up to 5.

    The map is a random integer matrix plus a translation, so the image can
    be lower-dimensional than both the source and the ambient space.
    """
    d = draw(st.integers(min_value=1, max_value=4))
    ambient = draw(st.integers(min_value=d, max_value=5))
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
    assert list(poly.faces().faces_by_dim.items()) == list(oracle.faces_by_dim.items())
    verts = list(poly.vertices)
    expected_keys = sorted(tuple(verts[i] for i in tight) for tight in _face_facets(verts))
    assert sorted(poly.facet_keys()) == expected_keys


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


# --- gift wrapping ---------------------------------------------------------
#
# The hull as it was before double description replaced it, in the form it
# had before it went integer-only and wrapped each ridge once: gift wrapping
# with Fraction ratios, every ridge wrapped from both of its facets, a
# separate simplex branch, and a rank test for vertices.  Kept verbatim as the
# differential oracle; it must run with polytope._hull_full_dim patched to it,
# so the facet sub-hulls that _face_facets makes go through the oracle too.


def _simplex_facets(pts, d):
    """Facets of a d-simplex given by exactly d+1 affinely independent points."""
    out = []
    for drop in range(d + 1):
        rest = [pts[i] for i in range(d + 1) if i != drop]
        anchor = rest[0]
        tangent = tuple(vsub(p, anchor) for p in rest[1:])
        ker = kernel_basis(tangent)
        assert len(ker) == 1
        n = primitive(ker[0])
        if dot(n, vsub(pts[drop], anchor)) < 0:
            n = tuple(-x for x in n)
        c = -dot(n, anchor)
        out.append((n, c, tuple(i for i in range(d + 1) if i != drop)))
    return sorted(out)


def _initial_facet(pts, d):
    """One hull facet of a full-dimensional integer point set, by rotation.

    Returns (inward_normal, tight_indices).
    """
    # inward normal convention: <n, p> >= <n, p0> for all p
    n = tuple(1 if i == 0 else 0 for i in range(d))
    vals = [dot(n, p) for p in pts]
    lo = min(vals)
    contact = [i for i, v in enumerate(vals) if v == lo]
    p0 = pts[contact[0]]
    while True:
        tangent = hnf_column_basis([vsub(pts[i], p0) for i in contact])
        if len(tangent) == d - 1:
            return n, contact
        ann = kernel_basis(tuple(tangent)) if tangent else [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        moved = False
        for v in ann:
            pairs = [(dot(n, vsub(p, p0)), dot(v, vsub(p, p0))) for p in pts]
            if all(b == 0 for a, b in pairs if a > 0):
                continue
            # rotate n toward -v until the first outside point is hit
            t_star = max(Fraction(b, a) for a, b in pairs if a > 0)
            num, den = t_star.numerator, t_star.denominator
            cand = tuple(num * ni - den * vi for ni, vi in zip(n, v))
            if is_zero(cand):
                continue
            n = primitive(cand)
            vals = [dot(n, p) for p in pts]
            lo = min(vals)
            contact = [i for i, val in enumerate(vals) if val == lo]
            p0 = pts[contact[0]]
            moved = True
            break
        if not moved:
            raise AssertionError("initial facet search stalled; input not full-dimensional?")


def _neighbor_facet(pts, d, normal, facet_idx, ridge_idx):
    """Wrap across a ridge: the other facet containing the given ridge."""
    p_r = pts[ridge_idx[0]]
    tangent = hnf_column_basis([vsub(pts[i], p_r) for i in ridge_idx])
    if tangent:
        ann = kernel_basis(tuple(tangent))
    else:
        ann = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    w = None
    for cand in ann:
        if any(dot(cand, vsub(pts[i], p_r)) != 0 for i in facet_idx):
            w = cand
            break
    assert w is not None, "ridge annihilator degenerate"
    beta = next(dot(w, vsub(pts[i], p_r)) for i in facet_idx if dot(w, vsub(pts[i], p_r)) != 0)
    if beta > 0:
        w = tuple(-x for x in w)
    # new normal n' = t*n - w with t* = max over off-facet points of w_q/a_q
    best = None
    for q in pts:
        a_q = dot(normal, vsub(q, p_r))
        if a_q <= 0:
            continue
        w_q = dot(w, vsub(q, p_r))
        r = Fraction(w_q, a_q)
        if best is None or r > best:
            best = r
    assert best is not None, "no neighbor facet; point set not full-dimensional"
    num, den = best.numerator, best.denominator
    n2 = primitive(tuple(num * ni - den * wi for ni, wi in zip(normal, w)))
    vals = [dot(n2, p) for p in pts]
    lo = min(vals)
    tight = [i for i, v in enumerate(vals) if v == lo]
    return n2, tight


def _hull_full_dim(pts, d):
    """All facets of conv(pts), pts integer and affinely spanning R^d.

    Returns a list of (inward primitive normal, offset c, tight index tuple)
    for the inequality <n, x> >= -c.
    """
    if d == 0:
        return []
    if d == 1:
        vals = [p[0] for p in pts]
        lo, hi = min(vals), max(vals)
        return [
            ((1,), -lo, tuple(i for i, v in enumerate(vals) if v == lo)),
            ((-1,), hi, tuple(i for i, v in enumerate(vals) if v == hi)),
        ]
    if len(pts) == d + 1:
        return _simplex_facets(pts, d)
    first_n, first_tight = _initial_facet(pts, d)
    facets = {}
    queue = [(first_n, tuple(first_tight))]
    while queue:
        n, tight = queue.pop()
        if n in facets:
            continue
        facets[n] = tight
        # ridges = facets of the (d-1)-dimensional face conv(tight); for a
        # simplicial facet these are just the (d-1)-subsets
        if len(tight) == d:
            ridge_sets = [tuple(tight[j] for j in range(d) if j != i) for i in range(d)]
        else:
            sub_pts = [pts[i] for i in tight]
            ridge_sets = [tuple(tight[i] for i in ridge_local) for ridge_local in _face_facets(sub_pts)]
        for ridge_idx in ridge_sets:
            n2, tight2 = _neighbor_facet(pts, d, n, tight, ridge_idx)
            if n2 not in facets:
                queue.append((n2, tuple(tight2)))
    out = []
    for n, tight in sorted(facets.items()):
        c = -dot(n, pts[tight[0]])
        out.append((n, c, tuple(sorted(tight))))
    return out


def _rank_vertices(pts, facs, d):
    """The points of pts that hull's former rank test calls vertices."""
    # vertices: points whose tight facet normals span the full span dim
    tight_at = {i: [] for i in range(len(pts))}
    for n, c, tight in facs:
        for i in tight:
            tight_at[i].append(n)
    verts = [pts[i] for i in range(len(pts)) if mat_rank(tuple(tight_at[i])) == d]
    return verts


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
    return pts, _span_coordinates(diffs, basis), len(basis)


@settings(max_examples=60, deadline=None)
@given(wrap_point_sets())
def test_integer_wrap_matches_fraction_wrap(pts):
    pts, coords, d = _span_input(pts)
    facs = polytope._hull_full_dim(coords, d)
    poly = hull(pts)
    faces = list(poly.faces().faces_by_dim.items())
    volume = poly.normalized_volume()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "_hull_full_dim", _hull_full_dim)
        oracle_facs = _hull_full_dim(coords, d)
        oracle = hull(pts)
        oracle_faces = list(_faces_by_rehulling(oracle).faces_by_dim.items())
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
