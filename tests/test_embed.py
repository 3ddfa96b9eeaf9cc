import itertools
from fractions import Fraction

import oracles
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from oracles import (
    ConeFibrationData,
    cone_contains,
    cone_local_fibre,
    cone_over_cell,
    oracle_local_fibre,
    unreduced_cells,
)

from tropdeg import embed
from tropdeg.exactlin import _ratio, cone_from_generators, mat_rank
from tropdeg.embed import (
    FibrationData,
    barycenter_fibre,
    embed_D,
    lg_truncate,
    local_fibre,
    open_embed_LG,
    side_subcomplex,
    simplex_fibration,
    specialization_map,
    wall_fibration_data,
)
from tropdeg.polytope import LatticePolytope, centered_dilated_simplex, clip_by_halfspace, cube, hull, product, section, segment
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


# The orthant cones below are no cones over a cell at level 1, so these four
# tests run on the retired cone fibre that the oracles keep.


def test_local_fibre_point():
    cone = orthant_cone(3)
    fib = ConeFibrationData(cone, [(1, 0, 0), (0, 1, 0)], (0, 0, 1))
    f = cone_local_fibre(fib, (1, 1, 1))
    assert f is not None
    assert f.vertices == ((1, 1, 1),)


def test_local_fibre_segment():
    # k=1 with y0 = e1*, p = e2* + e3*: fibre over (1,1) is a unit segment
    cone = orthant_cone(3)
    fib = ConeFibrationData(cone, [(1, 0, 0)], (0, 1, 1))
    f = cone_local_fibre(fib, (1, 1))
    assert f is not None
    assert sorted(f.vertices) == [(1, 0, 1), (1, 1, 0)]
    assert f.dim == 1


def test_local_fibre_empty():
    cone = orthant_cone(2)
    fib = ConeFibrationData(cone, [(1, 0)], (0, 1))
    assert cone_local_fibre(fib, (-1, 1)) is None


def test_local_fibre_unbounded_raises():
    # y = p = e1*: the generator e2 lies in every fibre's recession cone
    cone = orthant_cone(2)
    fib = ConeFibrationData(cone, [(1, 0)], (1, 0))
    with pytest.raises(ValueError, match="unbounded"):
        cone_local_fibre(fib, (1, 1))
    # an empty fibre is still reported as empty
    assert cone_local_fibre(fib, (1, 2)) is None


def test_fibration_data_keeps_its_cell_and_takes_the_level_as_p():
    square = cube(2)
    fib = FibrationData(square, [(1, 0, 1), (-1, 0, 1)], (0, 0, 1))
    assert fib.cell is square and fib.rank == 1
    # p must be the level (0, 0, 1)
    for p in [(0, 0, 2), (1, 0, 1), (0, 0)]:
        with pytest.raises(ValueError, match="level"):
            FibrationData(square, [(1, 0, 1), (-1, 0, 1)], p)
    # y_0 = x_0 is -1 at the point (-1, -1, 1) over a vertex
    with pytest.raises(ValueError, match="negative on the cone"):
        FibrationData(square, [(1, 0, 0), (-1, 0, 1)], (0, 0, 1))
    with pytest.raises(ValueError, match="linearly independent"):
        FibrationData(square, [(1, 0, 1), (2, 0, 2)], (0, 0, 1))


def test_local_fibre_of_a_cell_at_each_level():
    # on [-1, 1]^2 with y_0 = x_0 + t and y_1 = -x_0 + t, the slice p = t is
    # t * square and the fibre over (a, b, t) is its segment x_0 = (a - b) / 2
    square = cube(2)
    fib = FibrationData(square, [(1, 0, 1), (-1, 0, 1)], (0, 0, 1))
    assert local_fibre(fib, (1, 1, 1)).vertices == ((0, -1, 1), (0, 1, 1))
    assert local_fibre(fib, (2, 2, 2)).vertices == ((0, -2, 2), (0, 2, 2))
    assert local_fibre(fib, (1, 3, 2)).vertices == ((-1, -2, 2), (-1, 2, 2))
    assert local_fibre(fib, (1, 2, 2)) is None  # y_0 + y_1 = 2t
    steep = FibrationData(square, [(2, 0, 2), (-2, 0, 2)], (0, 0, 1))
    assert local_fibre(steep, (1, 3, 1)).vertices == ((Fraction(-1, 2), -1, 1), (Fraction(-1, 2), 1, 1))
    # a face: x_0 = 1 is the square's right edge at t = 1
    assert local_fibre(fib, (2, 0, 1)).vertices == ((1, -1, 1), (1, 1, 1))
    # p = 0 is the origin, and p < 0 or a target off the cone gives nothing
    assert local_fibre(fib, (0, 0, 0)).vertices == ((0, 0, 0),)
    assert local_fibre(fib, (1, 0, 0)) is None
    assert local_fibre(fib, (1, 1, -1)) is None
    assert local_fibre(fib, (3, 0, 1)) is None
    with pytest.raises(ValueError, match="target length"):
        local_fibre(fib, (1, 1))


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
    assert sum(1 for d in t_d.faces().values() if d == 0) == 9
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
    # embed_D's fibres are the slice of the host cells, cell by cell
    assert barycenter_fibre(sphere, fib) == iota.metadata["fibres"]
    assert len(iota.metadata["fibres"]) == len(t_d.maximal_cells)


def test_simplex_fibration_k3(k3):
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    fmap = simplex_fibration(sphere, fib)
    target = fmap.metadata["target"]
    assert sorted(target.vertices) == [(0,), (2,)]  # 2*Delta^1 = [0, 2]
    assert fmap.warnings == ()
    # fibre over the barycenter equals embed_D's image cellwise
    t_d, iota, _ = embed_D(sphere, fib)
    assert list(barycenter_fibre(sphere, fib)) == sorted(c.key() for c in unreduced_cells(t_d, iota))


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


def test_embed_d_rejects_fibration_data_disagreeing_at_a_shared_vertex():
    # two squares sharing the wall x_0 = 0
    left = hull([(-1, -1), (0, -1), (-1, 1), (0, 1)])
    right = hull([(0, -1), (1, -1), (0, 1), (1, 1)])
    space = TropicalSpace(2, 2, [left, right], "solid")
    fib = wall_fibration_data(space, 0, 0)
    assert sorted(fib) == sorted([left.key(), right.key()])
    embed_D(space, fib)
    # y_0 = x_0 + 2t instead of x_0 + t on the right square: still nonnegative
    # there, but it gives 2, not 1, at the shared vertices (0, +-1)
    data = fib[right.key()]
    fib[right.key()] = FibrationData(data.cell, [(1, 0, 2), data.y[1]], data.p)
    with pytest.raises(ValueError, match="fibration data inconsistent across a shared face"):
        embed_D(space, fib)


def test_embed_d_rejects_a_chart_that_kills_the_fibre_direction():
    # the fibre over (1, 1) is the segment x_0 = 0 of the square, from
    # (0, 1) to (0, 3); the boundary chart at (0, 1) quotients by (0, 1),
    # the segment's direction, while identity charts keep it
    square = hull([(-1, 1), (1, 1), (-1, 3), (1, 3)])
    space = TropicalSpace(2, 2, [square], "boundary")
    fib = wall_fibration_data(space, 0, 0)
    with pytest.raises(ValueError, match=r"not compatible with the fan structure at \(0, 1\)"):
        embed_D(space, fib)
    t_d, _, surjective = embed_D(TropicalSpace(2, 2, [square], "solid"), fib)
    assert surjective and t_d.dim == 1


def test_embed_d_checks_every_host_of_a_fibre():
    # [-1, 0] and [0, 1] both have the fibre point 0; iota maps it to the
    # last host, [0, 1], but y_1 = -2x + t on [-1, 0] has tangent map (-2)
    left, right = segment(-1, 0), segment(0, 1)
    space = TropicalSpace(1, 1, [left, right], "solid")
    fib = wall_fibration_data(space, 0, 0)
    assert embed_D(space, fib)[2]
    data = fib[left.key()]
    fib[left.key()] = FibrationData(data.cell, [data.y[0], (-2, 1)], data.p)
    _, iota, surjective = embed_D(space, fib)
    assert not surjective and not iota.surjective
    assert [e["target"] for e in iota.entries] == [right.key()]
    assert iota.metadata["fibres"] == {((0,),): [left.key(), right.key()]}


def test_barycenter_fibre_slices_the_host_cells():
    # on the square the slice y_1 = 1 is the segment x_0 = 0; with
    # y_0 = x_0 + x_1 + 2t, not constant there, the cone fibre over
    # (1, 1, 1) shrinks to the point (0, -1) and the two key lists differ
    square = cube(2)
    space = TropicalSpace(2, 2, [square], "solid")
    fib = wall_fibration_data(space, 0, 0)
    _, iota, _ = embed_D(space, fib)
    data = fib[square.key()]
    tilted = {square.key(): FibrationData(data.cell, [(1, 1, 2), data.y[1]], data.p)}
    _, tilted_iota, _ = embed_D(space, tilted)
    assert barycenter_fibre(space, fib) == barycenter_fibre(space, tilted) == {((0, -1), (0, 1)): [square.key()]}
    assert iota.metadata["fibres"] == {((0, -1), (0, 1)): [square.key()]}
    assert tilted_iota.metadata["fibres"] == {((0, -1),): [square.key()]}


def test_barycenter_fibre_verdict_is_false_when_one_host_tilts_y0(k3):
    # the pipelines' verdict compares the two maps, host lists included; a
    # y_0 tilted on one host moves that host's embed_D fibre to one end of
    # the segment, so the verdict comes out false
    left = hull([(-1, -1), (0, -1), (-1, 1), (0, 1)])
    right = hull([(0, -1), (1, -1), (0, 1), (1, 1)])
    square = cube(2).translate((0, 3))
    space = TropicalSpace(2, 2, [left, right, square], "solid")
    fib = wall_fibration_data(space, 0, 0)
    _, iota, _ = embed_D(space, fib)
    assert barycenter_fibre(space, fib) == iota.metadata["fibres"]
    assert iota.metadata["fibres"][((0, -1), (0, 1))] == [left.key(), right.key()]
    data = fib[square.key()]
    fib[square.key()] = FibrationData(data.cell, [(1, 1, -1), data.y[1]], data.p)
    _, tilted_iota, _ = embed_D(space, fib)
    assert tilted_iota.metadata["fibres"] != barycenter_fibre(space, fib)
    assert tilted_iota.metadata["fibres"][((0, 2),)] == [square.key()]
    # the kp1-2 k=2 sphere: every fibre has two hosts, and the maps agree
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    fibres = embed_D(sphere, fib)[1].metadata["fibres"]
    assert fibres == barycenter_fibre(sphere, fib)
    assert {len(hosts) for hosts in fibres.values()} == {2}


def test_embed_d_computes_each_fibre_once(k3, monkeypatch):
    # each fibre is a face of its hosts, named by its mask and built once
    # (face_from_mask), though it has two hosts; no section and no local
    # fibre is taken, and barycenter_fibre names the fibres without building any
    calls = []
    real_face = LatticePolytope.face_from_mask

    def counted_face(self, mask):
        calls.append(("face", self.key(), mask))
        return real_face(self, mask)

    def counted_section(cell, f, t):
        calls.append(("section", cell.key()))
        return section(cell, f, t)

    def counted_fibre(fib, target):
        calls.append(("local_fibre", target))
        return local_fibre(fib, target)

    monkeypatch.setattr(LatticePolytope, "face_from_mask", counted_face)
    monkeypatch.setattr(embed, "section", counted_section)
    monkeypatch.setattr(embed, "local_fibre", counted_fibre)
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    calls.clear()
    t_d, iota, _ = embed_D(sphere, fib)
    assert len(fib) == 2 * len(iota.metadata["fibres"]) == 2 * len(t_d.maximal_cells) == 18
    assert [c[0] for c in calls] == ["face"] * len(t_d.maximal_cells)
    assert len(set(calls)) == len(calls)
    calls.clear()
    barycenter_fibre(sphere, fib)
    assert calls == []


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
        fib[cell.key()] = FibrationData(cell, [y0] + y, (0, 0, 1))
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


def test_lg_truncate_keeps_a_cell_below_and_drops_one_above_and_one_touching_from_above():
    # u = x at level 1: [-1, 0] lies below it, [2, 3] above it, and [1, 2]
    # touches it from above; the clip to u <= 1 gives the first cell itself,
    # None and a point, and the truncation keeps the first cell alone
    below, above, touching = segment(-1, 0), segment(2, 3), segment(1, 2)
    assert clip_by_halfspace(below, (-1,), 1) is below
    assert clip_by_halfspace(above, (-1,), 1) is None
    assert clip_by_halfspace(touching, (-1,), 1).vertices == ((1,),)
    out = lg_truncate(TropicalSpace(1, 1, [touching, above, below], "solid"), ((1,), 0))
    assert len(out.maximal_cells) == 1 and out.maximal_cells[0] is below
    assert out.boundary_keys == frozenset()


def test_lg_truncate_clips_only_the_cells_crossing_the_level(monkeypatch):
    # a cell below the level, above it or touching it from above is decided
    # by its vertex values, so only [0, 2], which crosses u = 1, is clipped
    clipped = []

    def counted(cell, normal, offset):
        clipped.append(cell.key())
        return clip_by_halfspace(cell, normal, offset)

    monkeypatch.setattr(embed, "clip_by_halfspace", counted)
    cells = [segment(-1, 0), segment(2, 3), segment(1, 2), segment(-2, -1), segment(0, 2)]
    space = TropicalSpace(1, 1, cells, "solid")
    out = lg_truncate(space, ((1,), 0))
    assert clipped == [segment(0, 2).key()]
    assert [c.key() for c in out.maximal_cells] == [((-2,), (-1,)), ((-1,), (0,)), ((0,), (1,))]
    assert out.boundary_keys == frozenset({((1,),)})


def test_lg_truncate_rejects_a_level_wall_between_two_cells_below():
    # two copies of [0, 1] share the facet x = 1 at the level u = 1
    twice = TropicalSpace(1, 1, [segment(0, 1), segment(0, 1)], "solid")
    with pytest.raises(ValueError, match="interior wall created inside the fibre over 1"):
        lg_truncate(twice, ((1,), 0))


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


def test_complex_map_fields(quintic2):
    poly, sphere = quintic2
    fib = wall_fibration_data(sphere, 0, 1)
    t_d, iota, surjective = embed_D(sphere, fib)
    assert iota.surjective is True
    assert iota.missing_cells == ()
    assert all(set(e) == {"source", "target", "matrix", "translation"} for e in iota.entries)


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
    assert cone_contains(cone, (1, 1, 4)) and not cone_contains(cone, (1, 1, 3))


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
    assert all(cone_contains(cone, g) for g in ref.generators) and all(cone_contains(ref, g) for g in cone.generators)
    # the two facet descriptions cut out the same cone
    box = itertools.product(range(-2, 3), repeat=cell.ambient_dim)
    for x in box:
        for t in range(4):
            assert cone_contains(cone, x + (t,)) == cone_contains(ref, x + (t,))


def _fields(poly):
    return None if poly is None else vars(poly)


def _outcome(f, *args):
    """("value", fields) of the polytope f returns, or ("error", message) of its ValueError."""
    try:
        return "value", _fields(f(*args))
    except ValueError as e:
        return "error", str(e)


@st.composite
def fibre_problems(draw):
    """(fibration data, target) on the cone over a small cell, or on the cone
    of a few generators, which may hold a line.  Each functional is a
    nonnegative combination of the cone's facet normals, so some generators
    may have w = 0, and the target may sum to a negative, zero or positive
    level."""
    if draw(st.booleans()):
        cone = cone_over_cell(draw(small_polytopes()))
    else:
        dim = draw(st.integers(min_value=1, max_value=3))
        gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any), min_size=1, max_size=4))
        if draw(st.booleans()):
            gens.append(tuple(-x for x in gens[0]))
        cone = cone_from_generators(gens, dim)
    normals = cone.facet_normals
    assume(normals)

    def functional():
        weights = draw(st.lists(st.integers(0, 2), min_size=len(normals), max_size=len(normals)))
        return tuple(sum(w * n[i] for w, n in zip(weights, normals)) for i in range(cone.ambient_dim))

    ys = [functional() for _ in range(draw(st.integers(min_value=1, max_value=2)))]
    try:
        fib = ConeFibrationData(cone, ys, functional())
    except ValueError:
        assume(False)
    return fib, draw(st.tuples(*[st.integers(-1, 3)] * (len(ys) + 1)))


def _read_off_the_cone(fib, target):
    """Whether `cone_local_fibre` reads the slice off the cone rather than hulling it."""
    w = tuple(sum(col) for col in zip(fib.p, *fib.y))
    values = [sum(a * b for a, b in zip(w, g)) for g in fib.cone.generators]
    pointed = mat_rank(fib.cone.facet_normals) == fib.cone.ambient_dim
    return sum(target) > 0 and bool(values) and min(values) > 0 and pointed


@settings(max_examples=200, deadline=None)
@given(fibre_problems())
def test_local_fibre_matches_the_hull_of_the_rescaled_generators(problem):
    fib, target = problem
    event("read off the cone" if _read_off_the_cone(fib, target) else "hulled")
    assert _outcome(cone_local_fibre, fib, target) == _outcome(oracle_local_fibre, fib, target)


def test_local_fibre_hulls_only_the_cones_it_cannot_read(monkeypatch):
    # the retired cone fibre, kept in the oracles, on cones over no cell
    hulls = []
    real = oracles.hull

    def counted(points):
        hulls.append(points)
        return real(points)

    monkeypatch.setattr(oracles, "hull", counted)
    square = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    pointed = cone_over_cell(square)
    cases = [
        # pointed, w = 3t > 0 on every generator: read off the cone
        (ConeFibrationData(pointed, [(1, 0, 0), (-1, 0, 1)], (0, 0, 1)), (1, 1, 1), 0),
        # level 0: the origin alone
        (ConeFibrationData(pointed, [(1, 0, 0), (-1, 0, 1)], (0, 0, 1)), (0, 0, 0), 1),
        # a half-plane holds the line through (0, 1): w vanishes on it
        (ConeFibrationData(cone_from_generators([(1, 0), (0, 1), (0, -1)], 2), [(1, 0)], (0, 0)), (1, 1), 1),
        # the positive orthant with w = e1*: the generator e2 has w = 0
        (ConeFibrationData(orthant_cone(2), [(1, 0)], (0, 0)), (1, 1), 1),
    ]
    for fib, target, hulled in cases:
        hulls.clear()
        outcome = _outcome(cone_local_fibre, fib, target)
        assert len(hulls) == hulled
        assert outcome == _outcome(oracle_local_fibre, fib, target)
        assert _read_off_the_cone(fib, target) == (hulled == 0)


@st.composite
def cell_fibre_problems(draw):
    """(fibration data, target) on a small cell with p the level.  Each y_i
    is a nonnegative combination of the facet normals of the cone over the
    cell, so it is nonnegative on the cone.  The level t ranges over 0..3,
    and the targets of the y_i over -1..3, or are their values at t times a
    vertex of the cell, so that the fibre holds that point."""
    cell = draw(small_polytopes())
    normals = cone_over_cell(cell).facet_normals

    def functional():
        weights = draw(st.lists(st.integers(0, 2), min_size=len(normals), max_size=len(normals)))
        return tuple(sum(w * n[i] for w, n in zip(weights, normals)) for i in range(cell.ambient_dim + 1))

    ys = [functional() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    try:
        fib = FibrationData(cell, ys, (0,) * cell.ambient_dim + (1,))
    except ValueError:
        assume(False)
    t = draw(st.integers(0, 3))
    if draw(st.booleans()):
        v = draw(st.sampled_from(cell.vertices))
        return fib, tuple(_ratio(t * sum(a * x for a, x in zip(y, v + (1,)))) for y in ys) + (t,)
    return fib, draw(st.tuples(*[st.integers(-1, 3)] * len(ys))) + (t,)


@settings(max_examples=200, deadline=None)
@given(cell_fibre_problems())
def test_local_fibre_of_the_cell_matches_the_cone_path(problem):
    # field by field, chart and incidence included, against the cone over
    # the cell sliced and cut as the retired fibre did
    fib, target = problem
    cone_fib = ConeFibrationData(cone_over_cell(fib.cell), fib.y, fib.p)
    outcome = _outcome(local_fibre, fib, target)
    event("empty" if outcome == ("value", None) else "nonempty")
    assert outcome == _outcome(cone_local_fibre, cone_fib, target)


def test_wall_fibration_data_and_embed_d_build_no_cone_slice_or_hull(k3, monkeypatch):
    # the fibres are read off the host cells: no hull, no cone and no local
    # fibre in wall_fibration_data or embed_D
    from tropdeg import exactlin

    calls = []
    real_hull = LatticePolytope.hull

    def counted_hull(points):
        calls.append("hull")
        return real_hull(points)

    def counted_cone(gens, ambient_dim):
        calls.append("cone")
        return cone_from_generators(gens, ambient_dim)

    def counted_fibre(fib, target):
        calls.append("local_fibre")
        return local_fibre(fib, target)

    monkeypatch.setattr(LatticePolytope, "hull", staticmethod(counted_hull))
    monkeypatch.setattr(exactlin, "cone_from_generators", counted_cone)
    monkeypatch.setattr(embed, "local_fibre", counted_fibre)
    prism, sphere = k3
    fib = wall_fibration_data(sphere, 2, 0)
    t_d, _, surjective = embed_D(sphere, fib)
    assert calls == [] and surjective and len(t_d.maximal_cells) == 9
    assert not hasattr(embed, "cone_over_cell") and not hasattr(embed, "_cone_slice")
    assert all(isinstance(data.cell, LatticePolytope) and not hasattr(data, "cone") for data in fib.values())
