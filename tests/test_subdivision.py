from fractions import Fraction

import pytest

from tropdeg.polytope import (
    NefPartition,
    centered_dilated_simplex,
    cube,
    hull,
    product,
    segment,
    standard_simplex,
)
from tropdeg.subdivision import (
    PLFunction,
    avoid_hyperplane,
    blowup_refinement,
    check_convex_certificate,
    common_refinement,
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
    is_strictly_convex,
    product_pullback,
    regular_subdivision,
    sum_refinement,
)

QUINTIC_COLUMNS = [
    (-1, -1, -1, -1),
    (4, -1, -1, -1),
    (-1, 4, -1, -1),
    (-1, -1, 4, -1),
    (-1, -1, -1, 4),
]


def tent_on_segment():
    return regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])


def test_regular_subdivision_tent():
    sub, f = tent_on_segment()
    assert len(sub.maximal_cells) == 2
    keys = sub.cell_keys()
    assert ((-1,), (0,)) in keys and ((0,), (1,)) in keys
    assert f.value_at((Fraction(1, 2),), sub) == Fraction(1, 2)


def test_regular_subdivision_trivial():
    sub, f = regular_subdivision([(-1,), (0,), (1,)], [0, 0, 0])
    assert len(sub.maximal_cells) == 1
    assert sub.maximal_cells[0].vertices == sub.support.vertices


def test_regular_subdivision_fine_on_3delta2():
    # 10 lattice points of 3*Delta^2 with squared-distance-from-barycenter
    # heights plus the package's tie-breaking jitter (the symmetric distances
    # alone leave cospherical ties); oracle: normalized volume 9 with all
    # cells elementary
    from tropdeg.subdivision import deterministic_jitter

    p = standard_simplex(2, 3)
    pts = p.lattice_points()
    bary = (1, 1)
    hts = [
        sum((Fraction(x) - b) ** 2 for x, b in zip(pt, bary))
        + Fraction(deterministic_jitter(pt), 1 << 31)
        for pt in pts
    ]
    sub, f = regular_subdivision(pts, hts)
    assert sum(c.normalized_volume() for c in sub.maximal_cells) == 9
    assert all(c.is_elementary_simplex() for c in sub.maximal_cells)
    assert len(sub.maximal_cells) == 9


def test_regular_subdivision_conflicting_heights():
    with pytest.raises(ValueError, match="conflicting"):
        regular_subdivision([(0,), (0,)], [0, 1])


def test_volume_additivity_and_regularity():
    cases = []
    cases.append(tent_on_segment())
    p = standard_simplex(2, 3)
    pts = p.lattice_points()
    hts = [sum(Fraction(x) ** 2 for x in pt) for pt in pts]
    cases.append(regular_subdivision(pts, hts))
    for sub, f in cases:
        assert sub.volume_check()
        assert is_strictly_convex(f, sub)
        assert check_convex_certificate(f, sub)


def test_is_strictly_convex_tent_and_constant():
    sub, f = tent_on_segment()
    assert is_strictly_convex(f, sub)
    const = PLFunction(sub.support, {c.key(): ((0,), Fraction(0)) for c in sub.maximal_cells}, "from_heights", True)
    assert not is_strictly_convex(const, sub)


def test_sum_refinement_tent_plus_constant():
    sub, f = tent_on_segment()
    triv_sub, triv_f = regular_subdivision([(-1,), (1,)], [0, 0])
    refined, g = sum_refinement(f, triv_f, sub, triv_sub)
    assert refined.cell_keys() == sub.cell_keys()
    assert is_strictly_convex(g, refined)


def test_sum_refinement_transverse_tents_grid():
    sq = cube(2)
    pts = sq.lattice_points()
    tent_x = [(abs(p[0]), p) for p in pts]
    tent_y = [(abs(p[1]), p) for p in pts]
    sub_x, f_x = regular_subdivision(pts, [t for t, _ in tent_x])
    sub_y, f_y = regular_subdivision(pts, [t for t, _ in tent_y])
    refined, g = sum_refinement(f_x, f_y, sub_x, sub_y)
    assert len(refined.maximal_cells) == 4
    assert refined.volume_check()


def test_sum_refinement_product_18_cells():
    # h on 3*Delta^2 (9 cells) pulled back + h_P1 (2 cells) pulled back -> 18
    base = centered_dilated_simplex(2)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    refined, g = sum_refinement(g_q, g_s, big_q, big_s)
    assert len(refined.maximal_cells) == 18
    assert refined.volume_check()
    assert is_strictly_convex(g, refined)


def test_fine_crepant_3delta2():
    p = centered_dilated_simplex(2)
    sub, f = fine_crepant_subdivision(p)
    # oracle: boundary lattice point count gives the number of elementary cones
    boundary = [q for q in p.lattice_points() if not p.contains_strictly(q)]
    assert len(boundary) == 9
    assert len(sub.maximal_cells) == 9
    origin = (0, 0)
    for c in sub.maximal_cells:
        assert origin in c.vertices
    assert sub.volume_check()
    assert is_strictly_convex(f, sub)


def test_fine_crepant_segment():
    p = cube(1)
    sub, f = fine_crepant_subdivision(p)
    assert sorted(sub.cell_keys()) == [(((-1,), (0,))), ((0,), (1,))]


def test_fine_crepant_quintic_elementary():
    p = hull(QUINTIC_COLUMNS)
    sub, f = fine_crepant_subdivision(p)
    origin = (0, 0, 0, 0)
    assert all(origin in c.vertices for c in sub.maximal_cells)
    # oracle: is_elementary_simplex over all boundary cells
    for c in sub.maximal_cells:
        base_face = hull([v for v in c.vertices if v != origin])
        assert base_face.is_elementary_simplex()
    assert sum(c.normalized_volume() for c in sub.maximal_cells) == 625


def test_hyperplane_split_quintic():
    p = hull(QUINTIC_COLUMNS)
    sub, f = hyperplane_split(p, 0, 1)  # i = 2: wall u_1 = 1
    assert len(sub.maximal_cells) == 2
    assert sum(c.normalized_volume() for c in sub.maximal_cells) == 625
    # tent is min(0, level - u): zero on the low side, negative above
    assert f.value_at((-1, 0, 0, 0), sub) == 0
    assert f.value_at((2, -1, -1, -1), sub) == -1


def test_hyperplane_split_segment():
    s = cube(1)
    sub, f = hyperplane_split(s, 0, 0)
    assert sorted(sub.cell_keys()) == [((-1,), (0,)), ((0,), (1,))]


def test_hyperplane_split_level_out_of_range():
    with pytest.raises(ValueError, match="level outside"):
        hyperplane_split(cube(1), 0, 1)


def test_avoid_hyperplane_2d():
    sq = cube(2)
    pts = sq.lattice_points()
    sub0, f0 = regular_subdivision(pts, [sum(x * x for x in p) for p in pts])
    refined, g = avoid_hyperplane(f0, sub0)
    for c in refined.maximal_cells:
        vals = [v[-1] for v in c.vertices]
        assert not (min(vals) < 0 < max(vals))
    assert is_strictly_convex(g, refined)


def test_avoid_hyperplane_idempotent_on_fixed_points():
    sq = cube(2)
    pts = sq.lattice_points()
    sub0, f0 = regular_subdivision(pts, [abs(p[1]) for p in pts])
    refined, g = avoid_hyperplane(f0, sub0)
    assert refined.cell_keys() == sub0.cell_keys()


def test_avoid_hyperplane_prism():
    base = centered_dilated_simplex(2)
    prism = product(base, segment(-1, 1))
    pts = prism.lattice_points()
    sub0, f0 = regular_subdivision(pts, [sum(x * x for x in p) for p in pts])
    refined, g = avoid_hyperplane(f0, sub0)
    for c in refined.maximal_cells:
        vals = [v[-1] for v in c.vertices]
        assert not (min(vals) < 0 < max(vals))


def test_graph_degeneration_1d_tent():
    sub, f = tent_on_segment()
    g = graph_degeneration([(sub, f)])
    assert g.parameter_count == 1
    assert len(g.total_complex) == 2
    for c in g.total_complex:
        assert c.ambient_dim == 2


def test_graph_degeneration_trivial():
    sub, f = regular_subdivision([(0, 0), (1, 0), (0, 1)], [0, 0, 0])
    g = graph_degeneration([(sub, f)])
    assert len(g.total_complex) == 1


def test_graph_degeneration_diagonal_18_cells():
    base = centered_dilated_simplex(2)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    two = graph_degeneration([(big_q, g_q), (big_s, g_s)])
    assert two.parameter_count == 2
    assert len(two.total_complex) == 18
    assert all(c.ambient_dim == 5 for c in two.total_complex)
    refined, g_sum = sum_refinement(g_q, g_s, big_q, big_s)
    one = graph_degeneration([(refined, g_sum)])
    # diagonal restriction reproduces the one-parameter degeneration cell by cell
    diag = two.diagonal_restriction()
    assert [c.key() for c in diag] == [c.key() for c in one.total_complex]


def test_graph_degeneration_rejects_nonconvex():
    sub, f = hyperplane_split(cube(1), 0, 0)
    with pytest.raises(ValueError, match="convex"):
        graph_degeneration([(sub, f)])


def test_blowup_refinement_quintic():
    p = hull(QUINTIC_COLUMNS)
    nef = NefPartition(p, [p])
    d_a = standard_simplex(4, 2)
    d_b = standard_simplex(4, 3).translate((-1, -1, -1, -1))
    total, parts, new_nef = blowup_refinement(nef, d_a, d_b)
    expected = product(p, segment(-1, 1))
    assert total.vertices == expected.vertices
    assert len(parts) == 2
    assert parts[0].vertices == product(d_a, segment(0, 1)).vertices
    assert parts[1].vertices == product(d_b, segment(-1, 0)).vertices


def test_blowup_refinement_point_factor():
    p = hull(QUINTIC_COLUMNS)
    nef = NefPartition(p, [p])
    d_a = p
    d_b = hull([(0, 0, 0, 0)])
    total, parts, _ = blowup_refinement(nef, d_a, d_b)
    assert parts[1].dim == 1  # point times a segment
    assert sorted(parts[1].vertices) == [(0, 0, 0, 0, -1), (0, 0, 0, 0, 0)]


def test_blowup_refinement_invalid_split():
    p = hull(QUINTIC_COLUMNS)
    nef = NefPartition(p, [p])
    with pytest.raises(ValueError, match="split invalid"):
        blowup_refinement(nef, standard_simplex(4, 2), standard_simplex(4, 2))


def test_split_and_sum_commute():
    # hyperplane_split then sum_refinement == sum_refinement then split
    sq = cube(2)
    pts = sq.lattice_points()
    sub_f, f = regular_subdivision(pts, [abs(p[0]) for p in pts])
    split_sub, tent = hyperplane_split(sq, 1, 0)
    a, _ = sum_refinement(f, PLFunction(sq, {c.key(): ((0, 0), Fraction(0)) for c in split_sub.maximal_cells}, "sum", True), sub_f, split_sub)
    b = common_refinement(split_sub, sub_f)
    assert a.cell_keys() == b.cell_keys()
