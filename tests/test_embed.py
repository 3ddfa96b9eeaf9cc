import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdeg.exactlin import cone_from_generators
from tropdeg.embed import (
    FibrationData,
    barycenter_fibre,
    cone_over_cell,
    embed_D,
    lg_truncate,
    local_fibre,
    open_embed_LG,
    side_subcomplex,
    simplex_fibration,
    specialization_map,
    wall_fibration_data,
)
from tropdeg.polytope import centered_dilated_simplex, cube, hull, product, segment
from tropdeg.subdivision import (
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
    product_pullback,
    regular_subdivision,
    sum_refinement,
    negate_pl,
)
from tropdeg.tropical import TropicalSpace, dual_intersection_complex, hypersurface_trop

QUINTIC_COLUMNS = [
    (-1, -1, -1, -1),
    (4, -1, -1, -1),
    (-1, 4, -1, -1),
    (-1, -1, 4, -1),
    (-1, -1, -1, 4),
]


def orthant_cone(dim):
    gens = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    return cone_from_generators(gens, dim)


def test_local_fibre_point():
    cone = orthant_cone(3)
    fib = FibrationData(cone, [(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    f = local_fibre(fib, (1, 1, 1))
    assert f is not None
    assert f.vertices == ((1, 1, 1),)


def test_local_fibre_segment():
    # k=1 with y0 = e1*, p = e2* + e3*: fibre over (1,1) is a unit segment
    cone = orthant_cone(3)
    fib = FibrationData(cone, [(1, 0, 0)], (0, 1, 1))
    f = local_fibre(fib, (1, 1))
    assert f is not None
    assert sorted(f.vertices) == [(1, 0, 1), (1, 1, 0)]
    assert f.dim == 1


def test_local_fibre_empty():
    cone = orthant_cone(2)
    fib = FibrationData(cone, [(1, 0)], (0, 1))
    assert local_fibre(fib, (-1, 1)) is None


def test_local_fibre_unbounded_raises():
    # y = p = e1*: the generator e2 lies in every fibre's recession cone
    cone = orthant_cone(2)
    fib = FibrationData(cone, [(1, 0)], (1, 0))
    with pytest.raises(ValueError, match="unbounded"):
        local_fibre(fib, (1, 1))
    # an empty fibre is still reported as empty
    assert local_fibre(fib, (1, 2)) is None


def k3_sphere():
    base = centered_dilated_simplex(2)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    refined, g = sum_refinement(g_q, g_s, big_q, big_s)
    prism = product(base, seg)
    return prism, hypersurface_trop(prism, refined)


@pytest.fixture(scope="module")
def k3():
    return k3_sphere()


def quintic_sphere(i=2):
    p = hull(QUINTIC_COLUMNS)
    sub, tent = hyperplane_split(p, 0, i - 1)
    return p, hypersurface_trop(p, sub, enforce_fine=False)


@pytest.fixture(scope="module")
def quintic2():
    return quintic_sphere(2)


def test_embed_d_k3_circle(k3):
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    t_d, iota, surjective = embed_D(sphere, fib)
    assert surjective
    assert t_d.dim == 1
    # the central slice is the elliptic-curve circle with 9 vertices
    assert len(t_d.maximal_cells) == 9
    assert len(t_d.vertices()) == 9
    assert iota.surjective


def test_embed_d_quintic(quintic2):
    poly, sphere = quintic2
    fib = wall_fibration_data(sphere, 0, 1)
    t_d, iota, surjective = embed_D(sphere, fib)
    # oracle: SNF of each cell's tangent map
    assert surjective
    assert t_d.dim == 2  # the tropical K3 slice at the wall


def test_embed_d_quintic_all_i():
    for i in (1, 2, 3, 4):
        poly, sphere = quintic_sphere(i)
        fib = wall_fibration_data(sphere, 0, i - 1)
        t_d, iota, surjective = embed_D(sphere, fib)
        assert surjective, f"tangent surjectivity failed for i={i}"


def test_embed_d_matches_local_fibres(k3):
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    t_d, iota, _ = embed_D(sphere, fib)
    assert sorted(e["source"] for e in iota.entries) == sorted(c.key() for c in t_d.maximal_cells)
    fibre_keys = barycenter_fibre(sphere, fib)
    # embed_D output equals the union of local fibres, cell by cell
    anchor = iota.metadata["anchor"]
    assert len(fibre_keys) == len(t_d.maximal_cells)


def test_simplex_fibration_k3(k3):
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    fmap = simplex_fibration(sphere, fib)
    target = fmap.metadata["target"]
    assert sorted(target.vertices) == [(0,), (2,)]  # 2*Delta^1 = [0, 2]
    assert fmap.warnings == ()
    # fibre over the barycenter equals embed_D's image cellwise
    t_d, iota, _ = embed_D(sphere, fib)
    assert sorted(barycenter_fibre(sphere, fib)) == sorted(
        hull([tuple(v) for v in _unreduce(e, t_d)]).key() for e in iota.entries
    )


def _unreduce(entry, t_d):
    anchor = entry["translation"]
    matrix = entry["matrix"]
    cell = next(c for c in t_d.maximal_cells if c.key() == entry["source"])
    out = []
    for v in cell.vertices:
        img = list(anchor)
        for i in range(len(anchor)):
            img[i] = img[i] + sum(matrix[i][j] * v[j] for j in range(len(v)))
        out.append(tuple(img))
    return out


def test_simplex_fibration_quintic_midpoint(quintic2):
    poly, sphere = quintic2
    fib = wall_fibration_data(sphere, 0, 1)
    fmap = simplex_fibration(sphere, fib)
    target = fmap.metadata["target"]
    assert sorted(target.vertices) == [(0,), (2,)]
    # the wall slice lies over the midpoint 1 of [0, 2]
    for entry in fmap.entries:
        coeffs = entry["matrix"][0]
        const = entry["translation"][0]
        cell = next(c for c in sphere.maximal_cells if c.key() == entry["source"])
        for v in cell.vertices:
            if v[0] == 1:  # on the wall u_1 = 1
                assert sum(a * b for a, b in zip(coeffs, v)) + const == 1


def test_trivial_product_embed():
    # B_D x simplex factor: the fibre recovers B_D at the barycenter
    seg2 = segment(-1, 1)
    sub_d, f_d = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big, g = product_pullback(f_d, sub_d, seg2, side="left")
    gd = graph_degeneration([(big, g)])
    solid = dual_intersection_complex(gd)
    fib = wall_fibration_data(solid, 1, 0)
    t_d, iota, surjective = embed_D(solid, fib)
    assert surjective
    assert t_d.dim == 1
    assert len(t_d.maximal_cells) == 2  # B_D = the split segment


def test_hypercube_point_fibre():
    sq = cube(2)
    pts = sq.lattice_points()
    sub, f = regular_subdivision(pts, [abs(p[0]) + abs(p[1]) for p in pts])
    gd = graph_degeneration([(sub, f)])
    solid = dual_intersection_complex(gd)
    fib = {}
    for cell in solid.maximal_cells:
        bary = cell.barycenter()
        signs = [1 if b > 0 else -1 for b in bary]
        y = []
        for i, s in enumerate(signs):
            row = [0, 0, 1]
            row[i] = -s
            y.append(tuple(row))
        y0 = tuple(signs) + (1,)
        cone = None
        from tropdeg.embed import cone_over_cell

        cone = cone_over_cell(cell)
        fib[cell.key()] = FibrationData(cone, [y0] + y, (0, 0, 1))
    t_d, iota, surjective = embed_D(solid, fib)
    assert surjective
    assert t_d.dim == 0  # the minimal Tyurin stratum is a point
    fmap = simplex_fibration(solid, fib)
    target = fmap.metadata["target"]
    assert target.normalized_volume() == 9  # 3*Delta^2


def test_lg_truncate_halfline_analogue():
    # [0, 3] with u = identity clipped at 1 -> [0, 1]
    sub, f = regular_subdivision([(0,), (1,), (2,), (3,)], [0, 0, 0, 0])
    gd = graph_degeneration([(sub, f)])
    solid = dual_intersection_complex(gd)
    out = lg_truncate(solid, ((1,), 0))
    assert len(out.maximal_cells) == 1
    assert sorted(out.maximal_cells[0].vertices) == [(0,), (1,)]
    assert ((1,),) in out.boundary_keys


def test_lg_truncate_quintic_component(quintic2):
    poly, sphere = quintic2
    # degree-2 component of the i=2 split: the low side u_1 <= 1,
    # u = (level - u_1) proper into the component
    t_z = side_subcomplex(sphere, 0, 1, "low")
    out = lg_truncate(t_z, ((-1, 0, 0, 0), 1))
    assert out.dim == 3
    # boundary census at u = 1 matches the H-slice cell census at u = 0
    level1 = [k for k in out.boundary_keys if all(v[0] == 0 for v in k)]
    wall_cells = [k for k, cell in out.cells().items() if cell.dim == 2 and all(v[0] == 1 for v in k)]
    assert len(level1) == len(wall_cells)


def test_lg_truncate_idempotent(quintic2):
    poly, sphere = quintic2
    t_z = side_subcomplex(sphere, 0, 1, "high")
    u = ((Fraction(1, 3), 0, 0, 0), Fraction(-1, 3))
    out = lg_truncate(t_z, u)
    assert [c.key() for c in out.maximal_cells] == [c.key() for c in t_z.maximal_cells]


def test_lg_truncate_volume_preserved_below_level(k3):
    prism, sphere = k3
    t_z = side_subcomplex(sphere, 2, 0, "high")
    u = ((0, 0, 2), 0)  # reaches 2 at the top cap: clips at x3 = 1/2
    out = lg_truncate(t_z, u)
    below = [c for c in t_z.maximal_cells if all(2 * v[2] <= 1 for v in c.vertices)]
    for c in below:
        match = next(x for x in out.maximal_cells if x.key() == c.key())
        assert match.normalized_volume() == c.normalized_volume()


def test_open_embed_lg_quintic(quintic2):
    poly, sphere = quintic2
    t_z = side_subcomplex(sphere, 0, 1, "low")
    truncated = lg_truncate(t_z, ((-1, 0, 0, 0), 1))
    emb = open_embed_LG(truncated, sphere)
    # all cells adjacent to the H-slice are in the correspondence
    assert len(emb.entries) == len(truncated.maximal_cells)
    for e in emb.entries:
        assert e["matrix"] == tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    # cells away from the truncated collar are reported missing: the high
    # side of the wall and the far cap beyond the u <= 1 clip
    assert len(emb.missing_cells) > 0
    for key in emb.missing_cells:
        assert all(v[0] >= 1 for v in key) or all(v[0] <= 0 for v in key)


def test_open_embed_lg_trivial_iso(k3):
    prism, sphere = k3
    emb = open_embed_LG(sphere, sphere)
    assert emb.surjective
    assert emb.missing_cells == ()


def test_open_embed_lg_reports_extra_cell():
    sub, f = regular_subdivision([(0,), (1,)], [0, 0])
    gd = graph_degeneration([(sub, f)])
    small = dual_intersection_complex(gd)
    sub2, f2 = regular_subdivision([(0,), (1,), (2,)], [1, 0, 1])
    gd2 = graph_degeneration([(sub2, f2)])
    big = dual_intersection_complex(gd2)
    emb = open_embed_LG(small, big)
    assert emb.missing_cells == (((1,), (2,)),)


def test_specialization_identity():
    sub, f = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    gd = graph_degeneration([(sub, f)])
    space = dual_intersection_complex(gd)
    rho = specialization_map(space, space)
    assert rho.surjective
    assert all(e["source"] == e["target"] for e in rho.entries)


def test_specialization_quintic():
    p = hull(QUINTIC_COLUMNS)
    split_sub, tent = hyperplane_split(p, 0, 1)
    tyu = negate_pl(tent, split_sub)
    pts = p.lattice_points()
    tor_sub, tor_f = regular_subdivision(pts, [sum(max(0, x) for x in q) for q in pts])
    gen = dual_intersection_complex(graph_degeneration([(split_sub, tyu)]))
    from tropdeg.subdivision import common_refinement

    both = common_refinement(split_sub, tor_sub)
    zero = TropicalSpace(4, 4, both.maximal_cells, "solid")
    assert len(gen.maximal_cells) == 2
    rho = specialization_map(gen, zero)
    assert rho.surjective
    # closure containment in the common refinement
    gen_cells = {c.key(): c for c in gen.maximal_cells}
    for e in rho.entries:
        big = gen_cells[e["source"]]
        small = next(c for c in zero.maximal_cells if c.key() == e["target"])
        assert all(big.contains(v) for v in small.vertices)


def test_specialization_rejects_unrelated():
    sub, f = regular_subdivision([(0,), (1,)], [0, 0])
    space = dual_intersection_complex(graph_degeneration([(sub, f)]))
    sub2, f2 = regular_subdivision([(5,), (6,)], [0, 0])
    other = dual_intersection_complex(graph_degeneration([(sub2, f2)]))
    with pytest.raises(ValueError, match="unrelated"):
        specialization_map(space, other)


def test_complex_map_json(quintic2):
    poly, sphere = quintic2
    fib = wall_fibration_data(sphere, 0, 1)
    t_d, iota, surjective = embed_D(sphere, fib)
    js = iota.to_json()
    assert js["surjective"] is True
    assert js["missing_cells"] == []
    assert all(set(e) == {"source", "target", "matrix", "translation"} for e in js["cells"])


def test_complex_map_face_compatibility(k3):
    # maps of adjacent cells agree on shared vertices: the map of a face is
    # the restriction of the map of the cell
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    fmap = simplex_fibration(sphere, fib)
    values = {}
    for entry in fmap.entries:
        cell = next(c for c in sphere.maximal_cells if c.key() == entry["source"])
        m, t = entry["matrix"], entry["translation"]
        for v in cell.vertices:
            img = tuple(sum(m[r][c] * v[c] for c in range(len(v))) + t[r] for r in range(len(t)))
            if v in values:
                assert values[v] == img
            values[v] = img


def test_cone_over_rational_triangle():
    tri = hull([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))])
    cone = cone_over_cell(tri)
    assert cone.generators == ((0, 0, 1), (0, 1, 2), (1, 0, 2))
    assert cone.contains((1, 1, 4)) and not cone.contains((1, 1, 3))


@st.composite
def small_polytopes(draw):
    """Hull of up to six points in Q^dim, dim = 1..3, integral or with
    denominators up to 3; few points give lower-dimensional polytopes."""
    dim = draw(st.integers(min_value=1, max_value=3))
    dens = st.just(1) if draw(st.booleans()) else st.integers(min_value=1, max_value=3)
    coord = st.builds(Fraction, st.integers(min_value=-3, max_value=3), dens)
    return hull(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(small_polytopes())
def test_cone_over_cell_matches_cone_of_lifted_vertices(cell):
    cone = cone_over_cell(cell)
    ref = cone_from_generators([v + (1,) for v in cell.vertices], cell.ambient_dim + 1)
    assert cone.generators == ref.generators
    assert cone.contains_all(ref.generators) and ref.contains_all(cone.generators)
    # the two facet descriptions cut out the same cone
    box = itertools.product(range(-2, 3), repeat=cell.ambient_dim)
    for x in box:
        for t in range(4):
            assert cone.contains(x + (t,)) == ref.contains(x + (t,))
