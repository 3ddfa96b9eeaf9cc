import importlib.util
import pathlib
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    _faces_by_key,
    _oracle_boundary_cells,
    _oracle_discriminant,
    _oracle_is_boundary_cell,
    _oracle_is_simple,
    _oracle_monodromy,
    monodromy_polytope,
    oracle_displacement,
    oracle_loop_displacement,
    oracle_loop_matrix,
    oracle_support_facet_keys,
    oracle_transition,
    oracle_transvection,
    oracle_vertex_chart,
)

from tropdeg import exactlin, pipelines, polytope, subdivision, tropical
from tropdeg.exactlin import clear_fractions, dot, mat_identity, mat_mul, mat_vec, primitive, vsub
from tropdeg.embed import lg_truncate, side_subcomplex
from tropdeg.pipelines import QUINTIC_COLUMNS, _face_census, build_hypercube, build_kp1_2
from tropdeg.polytope import LatticePolytope, _face_masks, barycenter, centered_dilated_simplex, cube, hull, is_lattice_point, product, segment
from tropdeg.subdivision import (
    Subdivision,
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
    product_pullback,
    regular_subdivision,
    sum_refinement,
)
from tropdeg.tropical import (
    Discriminant,
    TropicalSpace,
    _compute_discriminant,
    classify_faces,
    count_focus_focus,
    discriminant,
    dual_intersection_complex,
    hypersurface_trop,
    is_simple,
)


def k3_solid_and_sphere():
    base = centered_dilated_simplex(2)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    refined, g = sum_refinement(g_q, g_s, big_q, big_s)
    two_param = graph_degeneration([(big_q, g_q), (big_s, g_s)])
    solid = dual_intersection_complex(two_param.refinement)
    prism = product(base, seg)
    sphere = hypersurface_trop(prism, refined)
    return base, prism, refined, solid, sphere


@pytest.fixture(scope="module")
def k3():
    return k3_solid_and_sphere()


def focus_focus_squares():
    """Two unit squares glued along a vertical wall, as a solid space with its outer edges as boundary."""
    left = hull([(-1, -1), (-1, 1), (0, -1), (0, 1)])
    right = hull([(0, -1), (0, 1), (1, -1), (1, 1)])
    space = TropicalSpace(2, 2, [left, right], "solid")
    boundary = [k for k, adj in space.walls().items() if len(adj) == 1]
    return TropicalSpace(2, 2, [left, right], "solid", boundary_keys=boundary)


class ExplicitChartSpace(TropicalSpace):
    """A space whose restricted charts are given per (vertex, cell), read only by the oracles."""

    def __init__(self, space, explicit_charts):
        super().__init__(space.ambient_dim, space.dim, space.maximal_cells, space.chart_kind, boundary_keys=space.boundary_keys)
        self.explicit_charts = explicit_charts


def focus_focus_model(shear=1):
    """The two squares with identity charts, but for the chart at (0, 1) on the right one, bent by a shear."""
    space = focus_focus_squares()
    charts = {(v, cell.key()): mat_identity(2) for cell in space.maximal_cells for v in cell.vertices}
    charts[((0, 1), space.maximal_cells[1].key())] = ((1, 0), (shear, 1))
    return ExplicitChartSpace(space, charts)


def cube_boundary():
    """The boundary of the cube [-1, 1]^3 under its one-cell subdivision: six squares."""
    box = cube(3)
    return hypersurface_trop(box, Subdivision(box, [box]), enforce_fine=False)


def length_two_pair():
    """Two triangles in the planes z = 1 and x + y - z = 1, sharing an edge of lattice length 2."""
    low = hull([(2, 0, 1), (0, 2, 1), (0, 0, 1)])
    high = hull([(2, 0, 1), (0, 2, 1), (2, 2, 3)])
    return TropicalSpace(3, 2, [low, high], "boundary")


def trivial_solid_2d():
    sub, f = regular_subdivision([(0, 0), (1, 0), (0, 1)], [0, 0, 0])
    g = graph_degeneration([(sub, f)])
    return dual_intersection_complex(g.refinement)


# --- dual intersection complex --------------------------------------------


def test_dual_complex_trivial():
    space = trivial_solid_2d()
    assert len(space.maximal_cells) == 1
    assert space.interior_walls() == {}
    assert discriminant(space).entries == ()


def _star_rays(space, v, cell):
    """The primitive chart images at v of the edges from v to the other vertices of a simplex cell."""
    chart = space.chart_matrix(v)
    return sorted(primitive(clear_fractions(mat_vec(chart, vsub(w, v)))) for w in cell.vertices if w != v)


def test_dual_complex_tent_1d():
    sub, f = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    g = graph_degeneration([(sub, f)])
    space = dual_intersection_complex(g.refinement)
    assert len(space.maximal_cells) == 2
    rays = sorted(_star_rays(space, (0,), space.maximal_cells[0]) + _star_rays(space, (0,), space.maximal_cells[1]))
    assert rays == [(-1,), (1,)]  # complete 1D fan at the interior vertex


def test_rational_cell_tangent_basis_and_fan_cone():
    # differences of rational vertices must not be truncated to integers
    tri = hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))])
    space = TropicalSpace(2, 2, [tri], "solid")
    assert space.tangent_basis(tri) == ((1, 0), (0, 1))
    assert _star_rays(space, (0, 0), tri) == [(0, 1), (1, 0)]


def test_boundary_chart_at_rational_vertex_is_quotient_by_its_ray():
    # the chart at (1/2, 1/2, 1) quotients by the primitive ray (1, 1, 2);
    # truncating the coordinates to integers would quotient by (0, 0, 1)
    v = (Fraction(1, 2), Fraction(1, 2), 1)
    cell = hull([v, (1, 0, 1), (0, 1, 1)])
    space = TropicalSpace(3, 2, [cell], "boundary")
    assert space.chart_matrix(v) == ((-1, 1, 0), (-2, 0, 1))
    assert space.chart_matrix(v) != space.chart_matrix((0, 0, 1))


def test_monodromy_needs_charts_of_the_cell_dimension():
    # identity charts of Z^3 restricted to planar cells are not square
    left = hull([(-1, 0, 0), (0, 0, 0), (-1, 1, 0), (0, 1, 0)])
    right = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    space = TropicalSpace(3, 2, [left, right], "solid")
    with pytest.raises(ValueError, match="singular"):
        discriminant(space)


def test_boundary_monodromy_needs_cells_of_codimension_one():
    # quotient charts of Z^3 have rank 2, and these cells are solid
    low = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    high = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    space = TropicalSpace(3, 3, [low, high], "boundary")
    v, w = (0, 0, 1), (0, 1, 0)
    for call in (lambda: space._loop_matrix(v, w, low, high), lambda: space.transition(v, w, low), lambda: discriminant(space)):
        with pytest.raises(ValueError, match="chart restriction is singular"):
            call()
    with pytest.raises(ValueError, match="chart restriction is singular"):
        oracle_loop_matrix(space, v, w, low, high)


def test_boundary_monodromy_rejects_a_cell_in_a_hyperplane_through_the_origin():
    # flat lies in z = 0, which holds the kernel of the chart at each of its vertices
    flat = hull([(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
    tilted = hull([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    space = TropicalSpace(3, 2, [flat, tilted], "boundary")
    v, w = (0, 1, 0), (1, 0, 0)
    calls = [
        lambda: space._loop_matrix(v, w, flat, tilted),
        lambda: space._loop_matrix(v, w, tilted, flat),
        lambda: space.transition(v, w, flat),
        lambda: discriminant(space),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="hyperplane through the origin"):
            call()
    # the restricted chart there is singular, so the oracle has no inverse
    with pytest.raises(ValueError, match="linearly independent"):
        oracle_loop_matrix(space, v, w, flat, tilted)
    assert space.transition(v, w, tilted) == oracle_transition(space, v, w, tilted)


def test_dual_complex_k3_is_3d_with_four_face_types(k3):
    base, prism, refined, solid, sphere = k3
    assert solid.dim == 3
    assert len(solid.maximal_cells) == 18
    kinds = set()
    for key, cell in solid.cells().items():
        if solid.is_boundary_cell(key):
            kinds.add(classify_faces([key], base.facets, 2, (-1, 1))[0])
    assert kinds == {"InteriorCap", "BoundaryCap", "HorizontalSide", "VerticalSide"}


# --- hypersurface tropicalization -------------------------------------------


def test_hypersurface_elliptic_circle():
    base = centered_dilated_simplex(2)
    sub, f = fine_crepant_subdivision(base)
    space = hypersurface_trop(base, sub)
    # oracle: boundary lattice point count of 3*Delta^2
    assert space.dim == 1
    assert len(space.maximal_cells) == 9
    assert sum(1 for d in space.faces().values() if d == 0) == 9


def test_hypersurface_zero_sphere():
    seg = cube(1)
    sub, f = fine_crepant_subdivision(seg)
    space = hypersurface_trop(seg, sub)
    assert space.dim == 0
    assert len(space.maximal_cells) == 2


def test_hypersurface_k3_sphere(k3):
    base, prism, refined, solid, sphere = k3
    assert sphere.dim == 2
    assert len(sphere.maximal_cells) == 36
    # Euler characteristic of the 2-sphere
    cells = sphere.cells()
    f0 = sum(1 for c in cells.values() if c.dim == 0)
    f1 = sum(1 for c in cells.values() if c.dim == 1)
    f2 = sum(1 for c in cells.values() if c.dim == 2)
    assert f0 - f1 + f2 == 2


def test_hypersurface_needs_a_subdivision_of_the_polytope():
    base = centered_dilated_simplex(2)
    sub, _ = fine_crepant_subdivision(base)
    with pytest.raises(ValueError, match="not a subdivision of the polytope"):
        hypersurface_trop(cube(2), sub)


def test_hypersurface_requires_fine():
    base = centered_dilated_simplex(2)
    seg = segment(-1, 1)
    sub_q, f_q = fine_crepant_subdivision(base)
    coarse_sub, coarse_f = regular_subdivision([(-1,), (1,)], [0, 0])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(coarse_f, coarse_sub, base, side="right")
    refined, g = sum_refinement(g_q, g_s, big_q, big_s)
    prism = product(base, seg)
    with pytest.raises(ValueError, match="not fine"):
        hypersurface_trop(prism, refined)


# --- monodromy ---------------------------------------------------------------


def test_monodromy_identity_on_solid(k3):
    base, prism, refined, solid, sphere = k3
    cells = solid.cells()
    walls = solid.interior_walls()
    edges = {k: c for k, c in cells.items() if c.dim == 1}
    ident = mat_identity(3)
    checked = 0
    for wall_key, (i, j) in walls.items():
        wall = cells[wall_key]
        for edge_key, edge in edges.items():
            if set(edge_key) <= set(wall_key) and not solid.is_boundary_cell(edge_key) and not solid.is_boundary_cell(wall_key):
                v_plus, v_minus = sorted(edge.vertices)
                loop = solid._loop_matrix(v_plus, v_minus, solid.maximal_cells[i], solid.maximal_cells[j])
                assert loop == _oracle_monodromy(solid, edge, wall) == ident
                checked += 1
    assert checked > 0


# The focus-focus models check the restricted-chart oracle by hand: their
# per-(vertex, cell) charts are read by the oracles alone.


def test_focus_focus_standard_model():
    space = focus_focus_model(1)
    wall = space.cells()[((0, -1), (0, 1))]
    m = _oracle_monodromy(space, wall, wall)
    # oracle: hand-composition of the four 2x2 transitions.  With identity
    # charts everywhere except the bent (v-, right-cell) chart S, the loop
    # composes to S^{-1}: [[1,0],[-1,1]], a unit transvection.
    assert m == ((1, 0), (-1, 1))
    n = len(m)
    d = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))
    assert mat_mul(d, d) == ((0, 0), (0, 0))


def test_focus_focus_polytope_and_count():
    space = focus_focus_model(1)
    entries = _oracle_discriminant(space)
    assert len(entries) == 1 and entries[0]["multiplicity"] == 1
    poly = monodromy_polytope(space, entries[0])
    assert poly.is_elementary_simplex()
    # the same cells with one chart per vertex are flat
    assert discriminant(focus_focus_squares()).entries == ()


def test_doubled_shear_not_simple():
    space = focus_focus_model(2)
    entries = _oracle_discriminant(space)
    assert len(entries) == 1 and entries[0]["multiplicity"] == 2
    poly = monodromy_polytope(space, entries[0])
    # oracle: 2*Delta^1 is not an elementary simplex
    assert sorted(poly.lattice_points()) != sorted(poly.vertices)
    assert not poly.is_elementary_simplex()


@pytest.mark.parametrize("build, entries", [(cube_boundary, 12), (length_two_pair, 1)])
def test_boundary_loops_of_lattice_length_two_are_not_simple(build, entries):
    space = build()
    disc = discriminant(space)
    assert len(disc.entries) == entries
    assert all(e["multiplicity"] == 2 for e in disc.entries)
    poly = monodromy_polytope(space, disc.entries[0])
    # oracle: 2*Delta^1 is not an elementary simplex
    assert sorted(poly.lattice_points()) != sorted(poly.vertices)
    assert not poly.is_elementary_simplex()
    simple, report = is_simple(space)
    assert not simple and not all(e["elementary"] for e in report.entries)
    assert count_focus_focus(space) == 2 * entries


def test_k3_vertical_faces_have_vertical_displacement(k3):
    base, prism, refined, solid, sphere = k3
    disc = discriminant(sphere)
    cells = sphere.cells()
    vertical_entries = []
    for e in disc.entries:
        edge = cells[e["edge"]]
        direction = tuple(int(b - a) for a, b in zip(*sorted(edge.vertices)))
        if direction[0] == direction[1] == 0:
            vertical_entries.append(e)
    # the 6 corner vertical unit edges carry the new singularities
    assert len(vertical_entries) == 6
    for e in vertical_entries:
        m = e["matrix"]
        n = len(m)
        d = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))
        assert mat_mul(d, d) == tuple(tuple(0 for _ in range(n)) for _ in range(n))
        # the displacement, the monodromy segment's far end, is parallel to
        # the chart image of the vertical direction
        v_plus = sorted(e["edge"])[0]
        chart = sphere.chart_matrix(v_plus)
        vert = mat_vec(chart, (0, 0, 1))
        (disp,) = [v for v in e["polytope"] if any(v)]
        assert disp[0] * vert[1] == disp[1] * vert[0]


def test_k3_discriminant_support_on_one_skeleton(k3):
    base, prism, refined, solid, sphere = k3
    disc = discriminant(sphere)
    assert len(disc.entries) == 24
    assert disc.total_multiplicity() == 24
    for e in disc.entries:
        mid = barycenter(e["edge"])
        tight = sum(1 for n, c in prism.facets if dot(n, mid) == -c)
        assert tight >= 2  # midpoint sits on an edge of the prism polytope


def test_k3_simple_and_count(k3):
    base, prism, refined, solid, sphere = k3
    simple, report = is_simple(sphere)
    assert simple
    assert all(e["elementary"] for e in report.entries)
    assert count_focus_focus(sphere) == 24


def elliptic_circle():
    base = centered_dilated_simplex(2)
    return hypersurface_trop(base, fine_crepant_subdivision(base)[0])


@pytest.mark.parametrize(
    "build", [lambda: k3_solid_and_sphere()[4], cube_boundary, length_two_pair, elliptic_circle], ids=["k3", "cube", "pair", "circle"]
)
def test_is_simple_reports_the_discriminants_own_entries(build):
    # one monodromy record: the report holds the very entries of the discriminant
    space = build()
    simple, report = is_simple(space)
    assert report is discriminant(space)
    assert report.entries is discriminant(space).entries
    assert report.entries and simple == all(e["multiplicity"] == 1 for e in report.entries)


def test_a_non_integral_loop_is_an_internal_error():
    # I - a (x) phi with a (x) phi = 1/2 at one entry: incompatible charts, a defect of the package
    with pytest.raises(exactlin.InvariantError, match="monodromy is not integral"):
        tropical._loop((Fraction(1, 2), 0), (1, 0))
    assert not issubclass(exactlin.InvariantError, ValueError)


def test_count_focus_focus_trivial_zero():
    assert count_focus_focus(trivial_solid_2d()) == 0


def test_count_focus_focus_wrong_dim():
    sub, f = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    g = graph_degeneration([(sub, f)])
    space = dual_intersection_complex(g.refinement)
    with pytest.raises(ValueError, match="2-dimensional"):
        count_focus_focus(space)


def test_elliptic_circle_discriminant_count_9():
    base = centered_dilated_simplex(2)
    sub, f = fine_crepant_subdivision(base)
    space = hypersurface_trop(base, sub)
    disc = discriminant(space)
    # oracle: 1D affine circle, per-edge rotation, total = normalized volume
    boundary_volume = sum(c.normalized_volume() for c in space.maximal_cells)
    assert boundary_volume == 9
    assert disc.total_multiplicity() == 9
    assert len(disc.entries) == 9
    simple, report = is_simple(space)
    assert simple


# --- monodromy algebra properties -------------------------------------------


def _k3_loops(sphere):
    cells = sphere.cells()
    out = []
    for e in discriminant(sphere).entries:
        out.append((cells[e["edge"]], cells[e["wall"]], e["matrix"]))
    return out


def test_monodromy_algebra_properties(k3):
    base, prism, refined, solid, sphere = k3
    for edge, wall, m in _k3_loops(sphere):
        n = len(m)
        ident = mat_identity(n)
        # det 1
        from tropdeg.exactlin import det

        assert det(m) == 1
        # (M - I)^2 = 0
        d = tuple(tuple(m[i][j] - ident[i][j] for j in range(n)) for i in range(n))
        assert mat_mul(d, d) == tuple(tuple(0 for _ in range(n)) for _ in range(n))
        # fixes the wall tangent pointwise
        v_plus = sorted(edge.vertices)[0]
        chart = sphere.chart_matrix(v_plus)
        for t in sphere.tangent_basis(wall):
            ct = mat_vec(chart, t)
            assert mat_vec(m, ct) == ct


def test_monodromy_loop_inversion_and_conjugacy(k3):
    base, prism, refined, solid, sphere = k3
    cells = sphere.cells()
    disc = discriminant(sphere)
    e = disc.entries[0]
    edge = cells[e["edge"]]
    wall = cells[e["wall"]]
    adj = sphere.walls()[wall.key()]
    s_plus = sphere.maximal_cells[adj[0]]
    s_minus = sphere.maximal_cells[adj[1]]
    v_plus, v_minus = sorted(edge.vertices)[:2]
    m = sphere._loop_matrix(v_plus, v_minus, s_plus, s_minus)
    m_rev = sphere._loop_matrix(v_plus, v_minus, s_minus, s_plus)
    assert mat_mul(m, m_rev) == mat_identity(len(m))
    # chart conjugacy: the loop at v- is the transition-conjugate of the loop at v+
    m_other = sphere._loop_matrix(v_minus, v_plus, s_minus, s_plus)
    psi = sphere.transition(v_plus, v_minus, s_plus)
    lhs = _mat_mul_frac(psi, [list(r) for r in m])
    rhs = _mat_mul_frac([list(r) for r in m_other], psi)
    assert lhs == rhs


def _mat_mul_frac(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in bt) for row in a)


def _charts_globally_compatible(space):
    """True iff the vertex charts glue to a global integral affine structure:
    across every interior wall, both cells give each vertex pair the same transition."""
    for wall_key, (i, j) in space.interior_walls().items():
        for v, w in combinations(wall_key, 2):
            if space.transition(v, w, space.maximal_cells[i]) != space.transition(v, w, space.maximal_cells[j]):
                return False
    return True


def test_discriminant_empty_iff_charts_compatible(k3):
    base, prism, refined, solid, sphere = k3
    assert _charts_globally_compatible(solid)
    assert discriminant(solid).entries == ()
    assert not _charts_globally_compatible(sphere)
    assert len(discriminant(sphere).entries) > 0


def test_is_simple_unimodular_invariance():
    base = centered_dilated_simplex(2)
    sub, f = fine_crepant_subdivision(base)
    space = hypersurface_trop(base, sub)
    u = ((1, 1), (0, 1))  # unimodular shear of the ambient lattice

    def image(poly):
        return hull([mat_vec(u, v) for v in poly.vertices])

    new_sub = Subdivision(image(sub.support), [image(c) for c in sub.maximal_cells])
    new_space = hypersurface_trop(image(base), new_sub)
    s1, _ = is_simple(space)
    s2, _ = is_simple(new_space)
    assert s1 == s2
    assert discriminant(space).total_multiplicity() == discriminant(new_space).total_multiplicity()


# --- face classification ------------------------------------------------------


def test_classify_face_examples(k3):
    base, prism, refined, solid, sphere = k3
    by_type = {}
    for key, cell in solid.cells().items():
        if solid.is_boundary_cell(key):
            by_type.setdefault(classify_faces([key], base.facets, 2, (-1, 1))[0], []).append(cell)
    # top-cap interior triangles exist (the 9 MPCP triangles per cap)
    assert any(c.dim == 2 for c in by_type["InteriorCap"])
    # horizontal side faces sit in the vanishing of the final coordinate
    for c in by_type["HorizontalSide"]:
        assert all(v[2] == 0 for v in c.vertices)
    # vertical side faces project to the boundary of 3*Delta^2
    for c in by_type["VerticalSide"]:
        proj = [v[:2] for v in c.vertices]
        assert any(all(dot(n, p) == -c0 for p in proj) for n, c0 in base.facets)


def test_classify_face_rejects_a_face_off_the_product_boundary(k3):
    base, prism, refined, solid, sphere = k3
    # a maximal cell of the solid product lies on no boundary face of it
    with pytest.raises(ValueError, match="not a boundary face of the product"):
        classify_faces([solid.maximal_cells[0].key()], base.facets, 2, (-1, 1))


# --- the face table against the walkers it replaced ----------------------------
#
# The re-hulling face walkers, the boundary-key scan and the O(E*W)
# discriminant scan that the face table replaced are the oracles of a
# differential test; they live in `oracles`.


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


@pytest.fixture(scope="module")
def kp1_2_results():
    return {k: build_kp1_2(k) for k in (1, 2, 3)}


@pytest.fixture(scope="module")
def face_corpus(kp1_2_results):
    spaces = {}
    for k, result in kp1_2_results.items():
        spaces[f"kp1-2 k={k} sphere"] = result.sphere
        spaces[f"kp1-2 k={k} solid"] = dual_intersection_complex(result.refinement)
    # the quintic i=1 sphere and its LG model, as build_quintic(1) makes them
    poly = hull(list(QUINTIC_COLUMNS))
    split_sub, _ = hyperplane_split(poly, 0, 0)
    sphere = hypersurface_trop(poly, split_sub, enforce_fine=False)
    t_z = side_subcomplex(sphere, 0, 0, "low")
    spaces["quintic i=1 sphere"] = sphere
    spaces["quintic i=1 side"] = t_z
    spaces["quintic i=1 truncated"] = lg_truncate(t_z, ((-1, 0, 0, 0), 0))
    for k in (1, 2, 3):
        spaces[f"hypercube k={k} solid"] = build_hypercube(k).solid
    spaces["focus-focus squares"] = focus_focus_squares()
    base = centered_dilated_simplex(2)
    sub, _ = fine_crepant_subdivision(base)
    spaces["elliptic circle"] = hypersurface_trop(base, sub)
    spaces["cube boundary"] = cube_boundary()
    spaces["length-2 pair"] = length_two_pair()
    return spaces


def test_face_table_matches_rehulling_walkers_and_pair_scan(face_corpus):
    for name, space in face_corpus.items():
        oracle_cells = _faces_by_key(space.maximal_cells)
        cells = space.cells()
        assert list(cells) == list(oracle_cells), name
        assert [c.dim for c in cells.values()] == [c.dim for c in oracle_cells.values()], name
        assert list(space.faces().values()) == [c.dim for c in oracle_cells.values()], name
        assert [k[0] for k, d in space.faces().items() if d == 0] == sorted(k[0] for k, c in oracle_cells.items() if c.dim == 0), name
        boundary = [k for k in space.faces() if space.is_boundary_cell(k)]
        assert boundary == list(_oracle_boundary_cells(space)), name
        assert list(space.boundary_cells()) == boundary, name
        assert boundary == [k for k in oracle_cells if _oracle_is_boundary_cell(space, k)], name
        got = _outcome(lambda s: list(_compute_discriminant(s).entries), space)
        want = _outcome(_oracle_discriminant, space)
        assert got == want, name
        if got[0] == "value":
            # each oracle entry's polytope is hulled from its matrix
            assert is_simple(space)[1].to_json() == Discriminant(want[1]).to_json(), name


def _cli_random_subdivisions():
    """The subdivisions of the first pass of the cli-random benchmark inputs at their default seed."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "cli_inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_cli_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = random.Random(f"{inputs.DEFAULT_SEED}:0")
    out = {}
    for name, verts in inputs.SUPPORTS.items():
        pts = inputs.lattice_points(verts)
        heights = [inputs.HEIGHT_SCALE * dot(p, p) + rng.randrange(inputs.HEIGHT_SCALE) for p in pts]
        out[f"cli-random {name}"] = regular_subdivision(pts, heights)
    return out


def test_boundary_facets_are_the_walls_of_one_cell(kp1_2_results):
    # the one-cell walls against the scan of every facet key over every support facet
    subs = {f"kp1-2 k={k} refined": result.refinement for k, result in kp1_2_results.items()}
    poly = hull(list(QUINTIC_COLUMNS))
    for i in (1, 2, 3, 4):
        split_sub, tent = hyperplane_split(poly, 0, i - 1)
        tor_sub, h_tor = pipelines._orthant_tents(poly, skip_coord=0)
        subs[f"quintic i={i} split"] = split_sub
        subs[f"quintic i={i} refined"] = sum_refinement(h_tor, tent, tor_sub, split_sub)[0]
    for k in (1, 2, 3):
        pts = cube(k).lattice_points()
        sub, f = regular_subdivision(pts, [sum(abs(x) for x in p) for p in pts])
        subs[f"hypercube k={k} refined"] = sum_refinement(f, f, sub, sub)[0]
    randoms = _cli_random_subdivisions()
    subs.update({name: sub for name, (sub, _) in randoms.items()})
    assert len(subs) == 26
    for name, sub in subs.items():
        want = oracle_support_facet_keys(sub.maximal_cells, sub.support)
        assert [key for key, adj in sub.walls().items() if len(adj) == 1] == want, name
        assert want, name
    # the two constructions read them
    for name, (sub, f) in randoms.items():
        want = oracle_support_facet_keys(sub.maximal_cells, sub.support)
        assert sorted(dual_intersection_complex(sub).boundary_keys) == want, name
        assert [c.key() for c in hypersurface_trop(sub.support, sub).maximal_cells] == want, name
    for k, result in kp1_2_results.items():
        want = oracle_support_facet_keys(result.refinement.maximal_cells, result.prism)
        assert sorted(dual_intersection_complex(result.refinement).boundary_keys) == want
        assert [c.key() for c in result.sphere.maximal_cells] == want


def test_corpus_has_boundaries_and_singular_loops(face_corpus):
    # the differential test above compares something on every axis
    assert all(discriminant(face_corpus[f"kp1-2 k={k} sphere"]).entries for k in (2, 3))
    assert all(face_corpus[f"kp1-2 k={k} solid"].boundary_cells() for k in (1, 2, 3))
    assert face_corpus["quintic i=1 truncated"].boundary_keys
    assert face_corpus["focus-focus squares"].boundary_cells()
    assert all(discriminant(face_corpus[name]).entries for name in ("cube boundary", "length-2 pair"))


def test_discriminant_and_face_census_make_no_hull_call(kp1_2_results, monkeypatch):
    result = kp1_2_results[2]
    sphere, solid = result.sphere, dual_intersection_complex(result.refinement)
    # fresh copies build their face tables and walls inside the count
    fresh_sphere = TropicalSpace(sphere.ambient_dim, sphere.dim, sphere.maximal_cells, sphere.chart_kind)
    fresh_solid = TropicalSpace(solid.ambient_dim, solid.dim, solid.maximal_cells, solid.chart_kind, boundary_keys=solid.boundary_keys)
    calls = _counting_hulls(monkeypatch)
    for space in (sphere, fresh_sphere):
        assert _compute_discriminant(space).entries == result.discriminant.entries
        assert _face_census(space, result.base) == result.report()["face_census"]
    assert fresh_solid.boundary_cells().keys() == solid.boundary_cells().keys()
    assert calls == []


def test_face_census_off_the_sphere_equals_the_one_off_the_solids_table(kp1_2_results):
    # the sphere's face keys are the solid's boundary faces, in the same order
    for result in kp1_2_results.values():
        solid, sphere = dual_intersection_complex(result.refinement), result.sphere
        boundary = [key for key in solid.faces() if solid.is_boundary_cell(key)]
        assert list(sphere.faces()) == boundary
        want = dict(sorted(Counter(classify_faces(boundary, result.base.facets, result.base.ambient_dim, (-1, 1))).items()))
        assert _face_census(sphere, result.base) == want == result.report()["face_census"]


def test_kp1_2_build_makes_one_face_table(monkeypatch):
    tables = []
    real = tropical._face_table
    monkeypatch.setattr(tropical, "_face_table", lambda *args: (tables.append(args), real(*args))[1])
    build_kp1_2(2)
    assert len(tables) == 1


def test_faces_facet_keys_and_face_table_read_the_incidence_with_no_dot_call(kp1_2_results, monkeypatch):
    result = kp1_2_results[2]
    spaces = [
        TropicalSpace(s.ambient_dim, s.dim, s.maximal_cells, s.chart_kind, boundary_keys=s.boundary_keys)
        for s in (result.sphere, dual_intersection_complex(result.refinement))
    ]
    for space in spaces:
        for cell in space.maximal_cells:
            assert len(cell.incidence) == len(cell.facets)
    calls = _counting(monkeypatch, "dot")
    for space in spaces:
        for cell in space.maximal_cells:
            _face_masks(cell.incidence, len(cell.vertices), cell.dim)
            cell.facet_keys()
        assert space.faces()
    assert calls == []
    # the counter sees the scan that builds an incidence
    assert cube(2).incidence and calls


@pytest.mark.parametrize("k", [2, 3])
def test_face_table_makes_one_face_lattice_per_incidence_type(kp1_2_results, monkeypatch, k):
    made = []
    real = tropical._face_masks

    def counted(*kind):
        made.append(kind)
        return real(*kind)

    monkeypatch.setattr(tropical, "_face_masks", counted)
    for space in (kp1_2_results[k].sphere, dual_intersection_complex(kp1_2_results[k].refinement)):
        made.clear()
        cells = space.maximal_cells
        table = tropical._face_table(cells, space.boundary_keys)
        kinds = {(c.incidence, len(c.vertices), c.dim) for c in cells}
        assert len(made) == len(set(made)) == len(kinds) < len(cells)
        assert table == (space.faces(), space._boundary_faces, space._face_owners)


def test_discriminant_reads_each_normal_and_barycenter_once(kp1_2_results, monkeypatch):
    sphere = kp1_2_results[3].sphere
    space = TropicalSpace(sphere.ambient_dim, sphere.dim, sphere.maximal_cells, sphere.chart_kind)
    normals, centers = [], []
    real_normal, real_barycenter = tropical._normal, polytope.barycenter
    monkeypatch.setattr(tropical, "_normal", lambda cell: (normals.append(cell.key()), real_normal(cell))[1])
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("tropdeg") and getattr(module, "barycenter", None) is real_barycenter:
            monkeypatch.setattr(module, "barycenter", lambda key: (centers.append(key), real_barycenter(key))[1])
    entries = _compute_discriminant(space).entries
    assert entries == kp1_2_results[3].discriminant.entries
    # one normal per cell of a nontrivial loop, where each loop reads two;
    # no barycenter at all, since an entry keeps its keys alone
    assert len(normals) == len(set(normals)) <= len(space.maximal_cells) < 2 * len(entries)
    assert centers == [] and all(set(e) == {"edge", "wall", "matrix", "polytope", "multiplicity", "elementary"} for e in entries)


# --- closed-form loops against restricted charts, and shared monodromy polytopes --
#
# `_loop_matrix` and `transition` against the restricted-chart definition in
# the oracles, `_loop` against the matrix elimination and the two functions it
# replaced, and `is_simple` against one hull per entry.


def _simple_json(simple, space):
    verdict, report = simple(space)
    return verdict, report.to_json()


def test_closed_form_loops_and_transitions_match_the_restricted_chart_oracle(face_corpus):
    compared = set()
    for name, space in face_corpus.items():
        if space.chart_kind != "boundary":
            continue
        cells = space.maximal_cells
        for wall_key, (i, j) in space.interior_walls().items():
            for v, w in permutations(wall_key, 2):
                for s_plus, s_minus in ((cells[i], cells[j]), (cells[j], cells[i])):
                    pairs = [
                        (_outcome(space._loop_matrix, v, w, s_plus, s_minus), _outcome(oracle_loop_matrix, space, v, w, s_plus, s_minus)),
                        (_outcome(space.transition, v, w, s_plus), _outcome(oracle_transition, space, v, w, s_plus)),
                    ]
                    for got, want in pairs:
                        # the same value, or both raise ValueError
                        assert got[0] == want[0], name
                        if got[0] == "value":
                            assert got == want, name
                    compared.add((name, pairs[0][0][0]))
    # every boundary space with walls is compared on values
    assert {name for name, outcome in compared if outcome == "value"} == {
        name for name, space in face_corpus.items() if space.chart_kind == "boundary" and space.dim > 1
    }


def test_shared_monodromy_polytopes_give_the_uncached_report(face_corpus):
    for name, space in face_corpus.items():
        assert _outcome(_simple_json, is_simple, space) == _outcome(_simple_json, _oracle_is_simple, space), name


@st.composite
def _loop_factors(draw):
    """(a, phi) of a nontrivial integral loop I - a (x) phi: a = c x, x a nonzero integer vector and c > 0 rational, and phi with a (x) phi integral."""
    n = draw(st.integers(2, 5))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n).filter(any)
    x = draw(entries)
    c = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    # a (x) phi is integral exactly when c content(x) phi is
    g = c * exactlin.content(x)
    return tuple(exactlin._ratio(c * xi) for xi in x), tuple(exactlin._ratio(p, g) for p in draw(entries))


@given(_loop_factors())
def test_closed_form_displacement_matches_the_matrix_elimination(factors):
    a, phi = factors
    m = tuple(tuple((1 if i == j else 0) - x * p for j, p in enumerate(phi)) for i, x in enumerate(a))
    assert tropical._loop(a, phi) == (m, *oracle_displacement(m))


@st.composite
def _rational_loop_factors(draw):
    """(a, phi) = (c x, p / d): x and p nonzero integer vectors, c > 0 rational and d > 0, so I - a (x) phi need not be integral."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any)
    c = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    d = draw(st.integers(1, 6))
    return tuple(exactlin._ratio(c * x) for x in draw(entries)), tuple(exactlin._ratio(p, d) for p in draw(entries))


@given(_rational_loop_factors())
@example(((Fraction(1, 2), 0), (1, 0)))
@example(((Fraction(2, 3), Fraction(4, 3)), (Fraction(3, 2), 3)))
def test_loop_matches_the_retired_transvection_and_displacement(factors):
    # the same matrix, in ints, and the same displacement and multiplicity;
    # InvariantError exactly when the retired transvection raised it
    a, phi = factors
    try:
        want = oracle_transvection(a, phi)
    except exactlin.InvariantError:
        with pytest.raises(exactlin.InvariantError, match="monodromy is not integral"):
            tropical._loop(a, phi)
        return
    m, disp, mult = tropical._loop(a, phi)
    assert m == want and all(type(x) is int for row in m for x in row)
    assert (disp, mult) == oracle_loop_displacement(a, phi)


def test_build_kp1_2_reads_pieces_charts_and_polytopes_once(monkeypatch):
    inside, piece_calls, contains_in_piece, completions = [], [], [], []
    in_monodromy, monodromy_stages = [], []
    real_piece_on = subdivision._piece_on
    real_contains = LatticePolytope.contains
    real_completion = tropical.unimodular_completion

    def watched_piece_on(*args):
        piece_calls.append(args)
        inside.append(True)
        try:
            return real_piece_on(*args)
        finally:
            inside.pop()

    def counting_contains(self, point):
        if inside:
            contains_in_piece.append(point)
        return real_contains(self, point)

    def counting_completion(v):
        completions.append(v)
        return real_completion(v)

    def watching_monodromy(real):
        def watched(space):
            monodromy_stages.append(real.__name__)
            in_monodromy.append(True)
            try:
                return real(space)
            finally:
                in_monodromy.pop()

        return watched

    monkeypatch.setattr(subdivision, "_piece_on", watched_piece_on)
    monkeypatch.setattr(pipelines, "_piece_on", watched_piece_on)
    monkeypatch.setattr(LatticePolytope, "contains", counting_contains)
    monkeypatch.setattr(tropical, "unimodular_completion", counting_completion)
    hulls = _counting_hulls(monkeypatch, inside=in_monodromy)
    # the build calls is_simple, which reads the discriminant
    monkeypatch.setattr(pipelines, "is_simple", watching_monodromy(tropical.is_simple))
    monkeypatch.setattr(tropical, "discriminant", watching_monodromy(tropical.discriminant))
    result = build_kp1_2(2)
    assert piece_calls and contains_in_piece == []
    # one chart per vertex: the base of each nontrivial loop, and each
    # lattice vertex of a fibre that the fan compatibility check reads; the
    # chart and its section come from one completion, made once per vertex
    sphere = result.sphere
    bases = {e["edge"][0] for e in result.discriminant.entries}
    fibre_vertices = {v for verts in result.iota.metadata["fibres"] for v in verts if is_lattice_point(v)}
    assert set(sphere._charts) == bases | fibre_vertices
    assert sorted(completions) == sorted(primitive(clear_fractions(v)) for v in sphere._charts)
    assert len(fibre_vertices - bases) == 6
    # the discriminant and the simplicity verdict build no monodromy polytope
    # (count_focus_focus reads the discriminant's record a second time)
    assert monodromy_stages == ["is_simple", "discriminant", "discriminant"] and hulls == []


# --- loops read off shared transitions ------------------------------------


def _discriminant_loops(space):
    """(v+, v-, sigma+, sigma-) of each loop the discriminant reads, in its order."""
    faces = space.faces()
    cells = space.maximal_cells
    return [
        (pair[0], pair[1], cells[adj[0]], cells[adj[1]])
        for pair, _, adj in sorted(
            (pair, wall_key, adj)
            for wall_key, adj in space.interior_walls().items()
            for pair in combinations(wall_key, 2)
            if faces.get(pair) == 1 and not space.is_boundary_cell(pair)
        )
    ]


def _counting(monkeypatch, name, modules="tropdeg"):
    """The argument tuples of every call to exactlin's function `name` made from a module whose name starts with `modules`."""
    calls = []
    real = getattr(exactlin, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(modules) and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def _counting_hulls(monkeypatch, inside=None):
    """The point lists of every hull built, or only of those built while the list `inside` is nonempty."""
    calls = []
    real_hull = LatticePolytope.hull

    def counting_hull(points):
        if inside is None or inside:
            calls.append(points)
        return real_hull(points)

    monkeypatch.setattr(LatticePolytope, "hull", staticmethod(counting_hull))
    return calls


@pytest.mark.parametrize("k", [2, 3])
def test_discriminant_makes_no_matrix_product_and_one_chart_per_vertex(kp1_2_results, monkeypatch, k):
    sphere = kp1_2_results[k].sphere
    space = TropicalSpace(sphere.ambient_dim, sphere.dim, sphere.maximal_cells, sphere.chart_kind)
    products = _counting(monkeypatch, "mat_mul")
    inverses = _counting(monkeypatch, "left_inverse")
    smith_forms = _counting(monkeypatch, "smith_normal_form")
    completions = _counting(monkeypatch, "unimodular_completion")
    # each loop's factors are read once: no elimination, no identity and no hull
    ranks = _counting(monkeypatch, "mat_rank")
    identities = _counting(monkeypatch, "mat_identity", "tropdeg.tropical")
    hulls = _counting_hulls(monkeypatch)
    entries = _compute_discriminant(space).entries
    assert entries == kp1_2_results[k].discriminant.entries
    assert len(entries) == {2: 24, 3: 576}[k]
    simple, report = is_simple(space)
    assert simple and report.entries == kp1_2_results[k].discriminant.entries
    assert products == ranks == identities == hulls == inverses == smith_forms == []
    # the charts are made at the base vertices of the nontrivial loops, once
    # each, by one completion with its inverse
    assert set(space._charts) == {e["edge"][0] for e in entries}
    assert len(completions) == len(space._charts) < sum(1 for d in space.faces().values() if d == 0)


@pytest.mark.parametrize("k", [2, 3])
def test_vertex_charts_match_the_smith_completion_and_left_inverse(kp1_2_results, k):
    # at every vertex of the sphere, the chart and section of one Bezout
    # sweep are those of the Smith completion and its left inverse
    sphere = kp1_2_results[k].sphere
    space = TropicalSpace(sphere.ambient_dim, sphere.dim, sphere.maximal_cells, sphere.chart_kind)
    vertices = [key[0] for key, d in space.faces().items() if d == 0]
    assert len(vertices) == {2: 29, 3: 104}[k]
    for v in vertices:
        assert space._vertex_chart(v) == oracle_vertex_chart(v), v
        assert space.chart_matrix(v) == oracle_vertex_chart(v)[0]


def test_a_trivial_loop_makes_no_product_beyond_its_two_transitions(kp1_2_results, monkeypatch):
    sphere = kp1_2_results[2].sphere
    space = TropicalSpace(sphere.ambient_dim, sphere.dim, sphere.maximal_cells, sphere.chart_kind)
    products = _counting(monkeypatch, "mat_mul")
    inverses = _counting(monkeypatch, "left_inverse")
    completions = _counting(monkeypatch, "unimodular_completion")
    seen = set()
    for loop in _discriminant_loops(space):
        completions.clear()
        made = set(space._charts)
        m = space._loop_matrix(*loop)
        trivial = m == mat_identity(len(m))
        # a trivial loop reads its cells' equations and makes no chart; any
        # other makes the chart at its base vertex unless it is made already
        assert trivial == (loop[2].equations == loop[3].equations)
        new = set(space._charts) - made
        assert new == (set() if trivial or loop[0] in made else {loop[0]})
        assert len(completions) == len(new)
        seen.add(trivial)
    assert products == inverses == [] and seen == {True, False}


def test_loop_is_identity_iff_forward_transitions_agree(face_corpus):
    compared = set()
    for name, space in face_corpus.items():
        if space.dim < 2:
            continue
        for v_plus, v_minus, s_plus, s_minus in _discriminant_loops(space):
            # the loop, its reverse, and the loop based at the other end
            variants = [(v_plus, v_minus, s_plus, s_minus), (v_plus, v_minus, s_minus, s_plus), (v_minus, v_plus, s_plus, s_minus)]
            for v, w, a, b in variants:
                loop = _outcome(space._loop_matrix, v, w, a, b)
                if loop[0] != "value":
                    continue
                m = loop[1]
                agree = oracle_transition(space, v, w, a) == oracle_transition(space, v, w, b)
                assert (m == mat_identity(len(m))) == agree, name
                compared.add(agree)
    assert compared == {True, False}
