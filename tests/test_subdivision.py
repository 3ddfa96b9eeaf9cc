from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _oracle_piece_on,
    check_convex_certificate,
    oracle_common_refinement,
    is_strictly_convex,
    oracle_fine_crepant_subdivision,
    oracle_fraction_crepant_subdivision,
    oracle_hyperplane_split,
    oracle_interpolate_ambient,
    oracle_negate_pl,
    oracle_regular_subdivision,
    oracle_volume_check,
)

from tropdeg import exactlin, polytope, subdivision
from tropdeg.exactlin import dot
from tropdeg.pipelines import _orthant_tents, build_quintic
from tropdeg.polytope import (
    LatticePolytope,
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
    _piece_on,
    affine_value,
    blowup_refinement,
    boundary_triangulation,
    common_refinement,
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
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


def _keys(sub):
    return [c.key() for c in sub.maximal_cells]


def _value_at(f, sub, point):
    """f at a point, read off the piece of the first cell containing it."""
    cell = next(c for c in sub.maximal_cells if c.contains(point))
    return affine_value(f.pieces[cell.key()], point)


def test_regular_subdivision_tent():
    sub, f = tent_on_segment()
    assert len(sub.maximal_cells) == 2
    keys = _keys(sub)
    assert ((-1,), (0,)) in keys and ((0,), (1,)) in keys
    assert _value_at(f, sub, (Fraction(1, 2),)) == Fraction(1, 2)


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
        assert oracle_volume_check(sub)
        assert is_strictly_convex(f, sub)
        assert check_convex_certificate(f, sub)


def test_is_strictly_convex_tent_and_constant():
    sub, f = tent_on_segment()
    assert is_strictly_convex(f, sub)
    const = PLFunction({c.key(): ((0,), Fraction(0)) for c in sub.maximal_cells}, True)
    assert not is_strictly_convex(const, sub)


def test_sum_refinement_tent_plus_constant():
    sub, f = tent_on_segment()
    triv_sub, triv_f = regular_subdivision([(-1,), (1,)], [0, 0])
    refined, g = sum_refinement(f, triv_f, sub, triv_sub)
    assert _keys(refined) == _keys(sub)
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
    assert oracle_volume_check(refined)


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
    assert oracle_volume_check(refined)
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
    assert oracle_volume_check(sub)
    assert is_strictly_convex(f, sub)


def test_fine_crepant_segment():
    p = cube(1)
    sub, f = fine_crepant_subdivision(p)
    assert sorted(_keys(sub)) == [(((-1,), (0,))), ((0,), (1,))]


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
    # tent is max(0, u - level): zero on the low side, positive above
    assert f.convex
    assert _value_at(f, sub, (-1, 0, 0, 0)) == 0
    assert _value_at(f, sub, (2, -1, -1, -1)) == 1


def test_hyperplane_split_segment():
    s = cube(1)
    sub, f = hyperplane_split(s, 0, 0)
    assert sorted(_keys(sub)) == [((-1,), (0,)), ((0,), (1,))]


def test_hyperplane_split_level_out_of_range():
    with pytest.raises(ValueError, match="level outside"):
        hyperplane_split(cube(1), 0, 1)


def test_graph_degeneration_1d_tent():
    sub, f = tent_on_segment()
    g = graph_degeneration([(sub, f)])
    assert len(g.heights) == 1
    assert len(g.total_complex) == 2
    for c in g.total_complex:
        assert len(c[0]) == 2


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
    assert len(two.heights) == 2
    assert len(two.total_complex) == 18
    assert all(len(c[0]) == 5 for c in two.total_complex)
    refined, g_sum = sum_refinement(g_q, g_s, big_q, big_s)
    one = graph_degeneration([(refined, g_sum)])
    # the map (x, t_1, t_2) -> (x, t_1 + t_2) takes the two-parameter cells
    # to the one-parameter degeneration's, cell by cell
    n = two.base.ambient_dim
    diag = sorted(hull([v[:n] + (sum(v[n:]),) for v in c]).key() for c in two.total_complex)
    assert diag == list(one.total_complex)


def test_graph_degeneration_rejects_nonconvex():
    # the concave tent min(0, -u) on [-1, 1]
    sub, f = hyperplane_split(cube(1), 0, 0)
    concave = PLFunction({k: (tuple(-c for c in coeffs), -const) for k, (coeffs, const) in f.pieces.items()}, False)
    with pytest.raises(ValueError, match="convex"):
        graph_degeneration([(sub, concave)])


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


@pytest.mark.parametrize(
    "poly, coord, level",
    [(hull(QUINTIC_COLUMNS), 0, i - 1) for i in (1, 2, 3, 4)]
    + [(hull(QUINTIC_COLUMNS), j, 0) for j in (1, 2, 3)]
    + [(cube(2), 1, 0), (cube(2), 0, 0)],
    ids=[f"quintic-wall-{i}" for i in (1, 2, 3, 4)] + [f"quintic-tent-{j}" for j in (1, 2, 3)] + ["square-1", "square-0"],
)
def test_hyperplane_split_is_the_negated_retired_concave_tent(poly, coord, level):
    # the convex tent, piece for piece and byte for byte, is the retired
    # concave split negated, which is how every caller used it
    sub, f = hyperplane_split(poly, coord, level)
    old_sub, old_tent = oracle_hyperplane_split(poly, coord, level)
    old = oracle_negate_pl(old_tent, old_sub)
    assert _keys(sub) == _keys(old_sub)
    assert list(f.pieces.items()) == list(old.pieces.items())
    assert [type(x) for piece in f.pieces.values() for x in (*piece[0], piece[1])] == [
        type(x) for piece in old.pieces.values() for x in (*piece[0], piece[1])
    ]
    assert f.convex is old.convex is True


def test_blowup_refinement_decides_each_minkowski_sum_once(monkeypatch):
    # build_quintic(2): the quintic's own nef partition, Delta_a + Delta_b =
    # Delta_0, and the blow-up parts summing to the prism, checked by the
    # NefPartition returned
    calls = []
    real = polytope.is_minkowski_sum

    def counted(parts, target):
        calls.append(len(parts))
        return real(parts, target)

    monkeypatch.setattr(polytope, "is_minkowski_sum", counted)
    monkeypatch.setattr(subdivision, "is_minkowski_sum", counted)
    build_quintic(2)
    assert calls == [1, 2, 2]


def test_split_and_sum_commute():
    # hyperplane_split then sum_refinement == sum_refinement then split
    sq = cube(2)
    pts = sq.lattice_points()
    sub_f, f = regular_subdivision(pts, [abs(p[0]) for p in pts])
    split_sub, tent = hyperplane_split(sq, 1, 0)
    a, _ = sum_refinement(f, PLFunction({c.key(): ((0, 0), Fraction(0)) for c in split_sub.maximal_cells}, True), sub_f, split_sub)
    b = common_refinement(split_sub, sub_f)
    assert _keys(a) == _keys(b)


# --- piece lookup against the containment scan it replaced --------------------
#
# The containment-based `_piece_on` that the recorded parent keys replaced is
# `oracles._oracle_piece_on`.


def _check_pieces(inputs):
    """Compare every piece lookup of sum_refinement (two inputs) and of
    graph_degeneration (folding the inputs itself, and given the refinement
    when sum_refinement built it) with the scan; (own-key, parent-key) counts."""
    refinements = [None]
    if len(inputs) == 2:
        (sub_f, f), (sub_g, g) = inputs
        refined, summed = sum_refinement(f, g, sub_f, sub_g)
        for cell in refined.maximal_cells:
            pf = _oracle_piece_on(f, sub_f, cell)
            pg = _oracle_piece_on(g, sub_g, cell)
            want = (tuple(Fraction(a) + Fraction(b) for a, b in zip(pf[0], pg[0])), Fraction(pf[1]) + Fraction(pg[1]))
            assert summed.pieces[cell.key()] == want
        refinements.append(refined)
    own = parent = 0
    for refinement in refinements:
        gd = graph_degeneration(inputs, refinement=refinement)
        graphs = []
        for cell in gd.refinement.maximal_cells:
            pieces = [_oracle_piece_on(f, sub, cell) for sub, f in inputs]
            for (sub, f), piece in zip(inputs, pieces):
                assert _piece_on(f, sub, gd.refinement, cell) == piece
                if cell.key() in f.pieces:
                    own += 1
                else:
                    parent += 1
            graphs.append(hull([tuple(v) + tuple(affine_value(p, v) for p in pieces) for v in cell.vertices]).key())
        assert list(gd.total_complex) == sorted(graphs)
    return own, parent


def _kp1_2_inputs(k):
    base = centered_dilated_simplex(k)
    sub_q, f_q = fine_crepant_subdivision(base)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    return [product_pullback(f_q, sub_q, segment(-1, 1), side="left"), product_pullback(f_s, sub_s, base, side="right")]


def _quintic_inputs(i):
    poly = hull(QUINTIC_COLUMNS)
    return [_orthant_tents(poly, skip_coord=0), hyperplane_split(poly, 0, i - 1)]


def _orthant_tent_inputs():
    """The three convex tents that `_orthant_tents` folds, for an r = 3 fold."""
    poly = hull(QUINTIC_COLUMNS)
    out = []
    for j in (1, 2, 3):
        out.append(hyperplane_split(poly, j, 0))
    return out


def _hypercube_inputs(k):
    pts = cube(k).lattice_points()
    pair = regular_subdivision(pts, [sum(abs(int(x)) for x in p) for p in pts])
    return [pair, pair]


@pytest.mark.parametrize(
    "build, branch",
    [
        *(pytest.param(lambda k=k: _kp1_2_inputs(k), "parent", id=f"kp1-2-k{k}") for k in (1, 2, 3)),
        pytest.param(lambda: _quintic_inputs(1), "parent", id="quintic-i1"),
        pytest.param(_orthant_tent_inputs, "parent", id="quintic-orthant-tents-r3"),
        *(pytest.param(lambda k=k: _hypercube_inputs(k), "own", id=f"hypercube-k{k}") for k in (1, 2, 3)),
    ],
)
def test_recorded_parents_give_the_pieces_containment_finds(build, branch):
    own, parent = _check_pieces(build())
    # each case reads every piece by the branch of _piece_on it names
    assert (own > 0, parent > 0) == (branch == "own", branch == "parent")


def test_graph_degeneration_assembles_no_polytope_and_takes_no_chart(monkeypatch):
    # each graph cell is kept as its lifted vertex key, so given the
    # refinement the degeneration puts no polytope together and charts nothing
    inputs = _kp1_2_inputs(2)
    (sub_q, g_q), (sub_s, g_s) = inputs
    refined, _ = sum_refinement(g_q, g_s, sub_q, sub_s)
    calls = []
    for name in ("_assemble", "_lattice_chart", "_span_chart"):
        real = getattr(polytope, name)
        counted = lambda *args, _real=real, _name=name: (calls.append(_name), _real(*args))[1]
        for module in (polytope, subdivision):
            monkeypatch.setattr(module, name, counted, raising=False)
    gd = graph_degeneration(inputs, refinement=refined)
    assert calls == []
    assert len(gd.total_complex) == len(refined.maximal_cells) == 18


_RANDOM_SUPPORTS = [
    cube(2).lattice_points(),
    hull([(0, 0), (3, 0), (0, 1), (3, 1)]).lattice_points(),
    standard_simplex(2, 3).lattice_points(),
    hull([(0, 0), (2, 1), (1, 3)]).lattice_points(),
    cube(3).lattice_points(),
    hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 1)]).lattice_points(),
    standard_simplex(3, 2).lattice_points(),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recorded_parents_match_containment_on_random_pairs(data):
    pts = data.draw(st.sampled_from(_RANDOM_SUPPORTS))
    heights = st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts))
    _check_pieces([regular_subdivision(pts, data.draw(heights)) for _ in range(2)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_common_refinement_matches_the_clip_every_facet_loop(data):
    # the random supports, and point sets that may span a lower-dimensional
    # or rational support
    pts = data.draw(st.one_of(st.sampled_from(_RANDOM_SUPPORTS), heights_on_points().map(lambda case: case[0])))
    heights = st.lists(st.integers(0, 4), min_size=len(pts), max_size=len(pts))
    sub1, sub2, sub3 = (regular_subdivision(pts, data.draw(heights))[0] for _ in range(3))
    first = common_refinement(sub1, sub2)
    # a refinement of a refinement carries its input's parents on
    for new, old in ((first, oracle_common_refinement(sub1, sub2)), (common_refinement(first, sub3), oracle_common_refinement(first, sub3))):
        assert [_cell_fields(c) for c in new.maximal_cells] == [_cell_fields(c) for c in old.maximal_cells]
        assert new.parents == old.parents


def test_refinement_not_built_from_the_inputs_is_rejected():
    pts = cube(2).lattice_points()
    sub_x, f_x = regular_subdivision(pts, [abs(p[0]) for p in pts])
    sub_y, f_y = regular_subdivision(pts, [abs(p[1]) for p in pts])
    refined = common_refinement(sub_x, sub_y)
    # an equal subdivision built again is not the one the refinement recorded
    other_y, other_f = regular_subdivision(pts, [abs(p[1]) for p in pts])
    with pytest.raises(ValueError, match="no recorded parent"):
        graph_degeneration([(sub_x, f_x), (other_y, other_f)], refinement=refined)


# --- pieces without solve_linear ----------------------------------------------


@st.composite
def heights_on_points(draw):
    """Points of dimension 1 to 3, mapped into ambient dimension up to 4, each with a height.

    The map is a random integer matrix plus a translation, so the support can
    be lower-dimensional; coordinates are divided by 1 to 3 and heights are
    ints or Fractions (given as Fraction(n, 1) too), and a point met twice
    keeps its first height.  A few points in general position give affine
    heights, hence one cell.
    """
    d = draw(st.integers(1, 3))
    ambient = draw(st.integers(d, 4))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 6))
    if ambient > d or draw(st.booleans()):
        m = draw(st.lists(st.tuples(*[coord] * d), min_size=ambient, max_size=ambient))
        shift = draw(st.tuples(*[coord] * ambient))
        pts = [tuple(dot(row, p) + t for row, t in zip(m, shift)) for p in pts]
    pden = draw(st.integers(1, 3))
    hden = draw(st.integers(1, 3))
    table = {}
    for p in pts:
        table.setdefault(tuple(Fraction(x, pden) for x in p), Fraction(draw(st.integers(-6, 6)), hden))
    return list(table), list(table.values())


@settings(max_examples=150, deadline=None)
@given(heights_on_points())
def test_lower_facet_pieces_match_retired_interpolation(case):
    # on a full-dimensional support the piece is unique, so the tuples agree;
    # on a lower-dimensional one only its values on the cell are fixed
    pts, heights = case
    height = dict(zip(pts, heights))
    sub, f = regular_subdivision(pts, heights)
    full = sub.support.dim == sub.support.ambient_dim
    for cell in sub.maximal_cells:
        verts = cell.vertices
        old = oracle_interpolate_ambient(verts, [height[v] for v in verts], cell.ambient_dim)
        new = f.pieces[cell.key()]
        if full:
            assert new == old
        assert all(affine_value(new, v) == affine_value(old, v) == height[v] for v in verts)


@pytest.mark.parametrize(
    "poly",
    [centered_dilated_simplex(2), cube(2), centered_dilated_simplex(3), cube(3)],
    ids=["3delta2", "square", "4delta3", "cube"],
)
def test_fine_crepant_pieces_match_retired_interpolation(poly):
    # each cone's piece interpolates the boundary heights and the origin's
    # pulled-down value, as the retired per-round solve did
    sub, f = fine_crepant_subdivision(poly)
    origin = (0,) * poly.ambient_dim
    cells, table = boundary_triangulation(poly, 0)
    assert sorted(hull(list(c.vertices) + [origin]).key() for c in cells) == _keys(sub)
    for cone in sub.maximal_cells:
        drop = f.pieces[cone.key()][1]
        assert drop < 0 and (-drop) & (-drop - 1) == 0
        base = [v for v in cone.vertices if v != origin]
        vals = [table[v] for v in base] + [drop]
        assert f.pieces[cone.key()] == oracle_interpolate_ambient(base + [origin], vals, poly.ambient_dim)


def test_pieces_make_no_linear_solve(monkeypatch):
    calls = []
    real = exactlin.solve_linear

    def counted(m, rhs):
        calls.append(m)
        return real(m, rhs)

    monkeypatch.setattr(polytope, "solve_linear", counted)
    monkeypatch.setattr(exactlin, "solve_linear", counted)
    fine_crepant_subdivision(centered_dilated_simplex(2))
    pts = cube(2).lattice_points()
    regular_subdivision(pts, [abs(p[0]) + 2 * abs(p[1]) for p in pts])
    regular_subdivision(pts, [p[0] - p[1] for p in pts])
    assert calls == []


# --- cells read off the lifted double description ----------------------------


@st.composite
def lifted_point_sets(draw):
    """Points spanning dimension 1 to 4, in an ambient space of dimension up to 4, each with a height.

    Either a few random points or every lattice point of a small box, mapped
    by a random integer matrix plus a translation when the ambient dimension
    is larger (and sometimes when not), so the span can be lower-dimensional.
    Coordinates are divided by 1 or 2; heights are ints or Fractions from a
    short range, so ties are common and a box's inner points are often tight
    at a cell without being its vertices.  A point met twice keeps its first
    height.
    """
    d = draw(st.integers(1, 4))
    ambient = draw(st.integers(d, 4))
    coord = st.integers(-2, 2)
    if draw(st.booleans()):
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 6))
    else:
        # at most 3 * 3 * 2 * 2 points
        sides = [draw(st.integers(1, 2 if i < 2 else 1)) for i in range(d)]
        pts = list(iproduct(*(range(s + 1) for s in sides)))
    if ambient > d or draw(st.booleans()):
        m = draw(st.lists(st.tuples(*[coord] * d), min_size=ambient, max_size=ambient))
        shift = draw(st.tuples(*[coord] * ambient))
        pts = [tuple(dot(row, p) + t for row, t in zip(m, shift)) for p in pts]
    pden = draw(st.integers(1, 2))
    hden = draw(st.integers(1, 2))
    table = {}
    for p in pts:
        table.setdefault(tuple(Fraction(x, pden) for x in p), Fraction(draw(st.integers(0, 2)), hden))
    return list(table), list(table.values())


def _cell_fields(cell):
    return cell.vertices, cell.facets, cell.equations, cell.chart, cell.incidence


def _square_tied():
    # every height 0: one cell, whose 5 points off the corners are tight but no vertices
    pts = cube(2).lattice_points()
    return pts, [0] * len(pts)


# points spanning a plane in 3-space, one height rational; (1, 1, 1), halfway
# between (0, 0, 0) and (2, 2, 2), lies below their chord, so it is a vertex
_PLANE_IN_3D = ([(0, 0, 0), (2, 2, 2), (1, 1, 1), (0, 2, 4)], [Fraction(1, 2), 1, 0, 3])


def _cube_tied():
    # heights |x| on the cube's 27 points: two cells, each with tight points that are no vertices
    pts = cube(3).lattice_points()
    return pts, [abs(p[0]) for p in pts]


@settings(max_examples=150, deadline=None)
@given(lifted_point_sets())
@example(_square_tied())
@example(_cube_tied())
@example(_PLANE_IN_3D)
def test_cells_match_the_per_cell_hull(case):
    pts, heights = case
    sub, f = regular_subdivision(pts, heights)
    old_sub, old_f = oracle_regular_subdivision(pts, heights)
    assert _cell_fields(sub.support) == _cell_fields(old_sub.support)
    assert len(sub.maximal_cells) == len(old_sub.maximal_cells)
    for cell, old in zip(sub.maximal_cells, old_sub.maximal_cells):
        assert _cell_fields(cell) == _cell_fields(old)
    assert (f.pieces, f.convex) == (old_f.pieces, old_f.convex)


def test_regular_subdivision_hulls_the_support_alone(monkeypatch):
    pts = cube(3).lattice_points()
    cases = [
        ([(-1,), (0,), (1,)], [1, 0, 1]),
        _square_tied(),
        _cube_tied(),
        (pts, [abs(p[0]) + 2 * abs(p[1]) + 3 * abs(p[2]) for p in pts]),
        _PLANE_IN_3D,
    ]
    calls = []
    real = LatticePolytope.hull
    monkeypatch.setattr(LatticePolytope, "hull", staticmethod(lambda points: (calls.append(points), real(points))[1]))
    for case in cases:
        calls.clear()
        sub, _ = regular_subdivision(*case)
        assert len(calls) == 1
        assert real(calls[0]).vertices == sub.support.vertices


# --- the origin pull-down against the round loop it replaced ------------------

HEXAGON = hull([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
OCTAHEDRON = hull([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


REFLEXIVE_CORPUS = pytest.mark.parametrize(
    "poly",
    [cube(1), *(centered_dilated_simplex(k) for k in (1, 2, 3)), cube(2), cube(3), HEXAGON, OCTAHEDRON],
    ids=["segment", "delta1", "3delta2", "4delta3", "square", "cube", "hexagon", "octahedron"],
)


@REFLEXIVE_CORPUS
def test_pull_down_matches_retired_round_loop(poly):
    sub, f = fine_crepant_subdivision(poly)
    old_sub, old_f = oracle_fine_crepant_subdivision(poly)
    assert _keys(sub) == _keys(old_sub)
    # every piece takes the origin's pulled-down value, drop, as its constant
    (drop,) = {c for _, c in f.pieces.values()}
    assert {c for _, c in old_f.pieces.values()} == {drop}
    assert f.pieces == old_f.pieces


@REFLEXIVE_CORPUS
def test_integer_fits_match_the_fraction_fits(poly):
    # the same cones, and the same pieces in the same number form
    sub, f = fine_crepant_subdivision(poly)
    old_sub, old_f = oracle_fraction_crepant_subdivision(poly)
    assert [vars(c) for c in sub.maximal_cells] == [vars(c) for c in old_sub.maximal_cells]
    assert f.pieces == old_f.pieces
    assert [type(x) for coeffs, c in f.pieces.values() for x in (*coeffs, c)] == [
        type(x) for coeffs, c in old_f.pieces.values() for x in (*coeffs, c)
    ]


@REFLEXIVE_CORPUS
def test_fine_crepant_cones_equal_the_hull_of_their_vertices(poly):
    sub, _ = fine_crepant_subdivision(poly)
    for cone in sub.maximal_cells:
        want = hull(cone.vertices)
        # the incidence is made on first use: make it on both
        assert cone.incidence == want.incidence
        assert vars(cone) == vars(want)


def test_fine_crepant_subdivision_hulls_no_cone(monkeypatch):
    hulled = []
    real_hull = polytope.LatticePolytope.hull

    def counted_hull(points):
        hulled.append(tuple(points))
        return real_hull(points)

    poly = centered_dilated_simplex(3)
    monkeypatch.setattr(polytope.LatticePolytope, "hull", staticmethod(counted_hull))
    fine_crepant_subdivision(poly)
    # the boundary triangulation hulls boundary points; a cone would hull the origin too
    assert hulled
    assert not [pts for pts in hulled if (0, 0, 0) in pts]


def test_pull_down_builds_one_function_and_scans_no_wall(monkeypatch):
    built = []
    real_function = subdivision.PLFunction

    def counted_function(*args, **kwargs):
        built.append(real_function(*args, **kwargs))
        return built[-1]

    values = []
    real_value = subdivision.affine_value

    def counted_value(functional, point):
        values.append(point)
        return real_value(functional, point)

    volumes = []
    real_volume = polytope.LatticePolytope.normalized_volume

    def counted_volume(self):
        volumes.append(self)
        return real_volume(self)

    poly = centered_dilated_simplex(3)
    monkeypatch.setattr(subdivision, "PLFunction", counted_function)
    monkeypatch.setattr(subdivision, "affine_value", counted_value)
    monkeypatch.setattr(polytope.LatticePolytope, "normalized_volume", counted_volume)
    sub, f = fine_crepant_subdivision(poly)
    # the facets' own triangulations build theirs on the facets' cells
    cones = {c.key() for c in sub.maximal_cells}
    assert [g for g in built if set(g.pieces) == cones] == [f]
    assert values == []
    assert volumes == [poly]
    assert sub.support is poly


def _patched_triangulation(monkeypatch, change):
    real = subdivision.boundary_triangulation

    def patched(poly, seed=0):
        return change(*real(poly, seed))

    monkeypatch.setattr(subdivision, "boundary_triangulation", patched)


def test_pull_down_fails_on_flat_boundary_heights(monkeypatch):
    # zero heights make the function linear on each facet's cones, so the
    # walls inside a facet never bend, however far the origin is pulled down
    _patched_triangulation(monkeypatch, lambda cells, table: (cells, {p: 0 for p in table}))
    with pytest.raises(ValueError, match="origin pull-down failed to certify a convex function"):
        fine_crepant_subdivision(centered_dilated_simplex(2))


def test_pull_down_rejects_a_triangulation_that_misses_a_cell(monkeypatch):
    _patched_triangulation(monkeypatch, lambda cells, table: (cells[1:], table))
    with pytest.raises(ValueError, match="boundary triangulation does not tile the polytope"):
        fine_crepant_subdivision(centered_dilated_simplex(2))


def test_pull_down_rejects_a_non_elementary_boundary_cell(monkeypatch):
    # a whole edge of 3 * Delta^2 holds four lattice points
    _patched_triangulation(monkeypatch, lambda cells, table: ([hull([(-1, -1), (2, -1)])] + cells, table))
    with pytest.raises(ValueError, match="height perturbation failed to reach an elementary triangulation"):
        fine_crepant_subdivision(centered_dilated_simplex(2))
