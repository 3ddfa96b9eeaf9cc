import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_basis_lattice_points, oracle_dilate_lattice_points

from tropdeg import zeroring
from tropdeg.cli import main
from tropdeg.embed import wall_fibration_data
from tropdeg.exactlin import _ratio, vadd
from tropdeg.polytope import (
    LatticePolytope,
    centered_dilated_simplex,
    cube,
    hull,
    polytope_from_inequalities,
    product,
    segment,
    standard_simplex,
)
from tropdeg.subdivision import (
    fine_crepant_subdivision,
    product_pullback,
    regular_subdivision,
    sum_refinement,
)
from tropdeg.tropical import TropicalSpace, hypersurface_trop
from tropdeg.zeroring import (
    GluingData,
    RingPresentation,
    embedded_ideal,
    genericity_scan,
    hilbert_count,
    proj_ring,
    vanilla_gluing,
)


def two_segments():
    a = segment(0, 1)
    b = segment(1, 2)
    return TropicalSpace(1, 1, [a, b], "solid")


def test_proj_ring_two_segments_vanilla():
    space = two_segments()
    pres = proj_ring(space, vanilla_gluing(1), 2)
    assert [p for p, _ in pres.generators] == [(0,), (1,), (2,)]
    # oracle: direct monoid computation on the two cones gives x0 x2 = 0 only
    assert pres.relations == (((1, 0, 1), None, 0),)


def test_proj_ring_unit_simplex_polynomial():
    cell = standard_simplex(2)
    space = TropicalSpace(2, 2, [cell], "solid")
    pres = proj_ring(space, vanilla_gluing(2), 3)
    assert len(pres.generators) == 3
    assert pres.relations == ()


def test_proj_ring_square_has_binomial():
    cell = hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    space = TropicalSpace(2, 2, [cell], "solid")
    pres = proj_ring(space, vanilla_gluing(2), 2)
    rels = [r for r in pres.relations if r[1] is not None]
    assert len(rels) == 1
    lhs, rhs, scalar = rels[0]
    assert scalar == 1
    # x_(0,0) x_(1,1) = x_(0,1) x_(1,0): the toric quadric relation
    assert sorted([lhs, rhs]) == sorted([(1, 0, 0, 1), (0, 1, 1, 0)])


def test_proj_ring_twisted_is_vanilla_after_rescaling():
    space = two_segments()
    lam = Fraction(3, 2)
    twisted = GluingData(1, {(((0,), (1,)), ((1,), (2,))): (lam, 1)})
    pres = proj_ring(space, twisted, 3)
    vanilla = proj_ring(space, vanilla_gluing(1), 3)
    # oracle: rescaling x1 -> lam * x1 maps one presentation to the other,
    # so relation supports agree and scalars match the rescaling weights
    assert [r[0] for r in pres.relations] == [r[0] for r in vanilla.relations]
    assert pres.hilbert == vanilla.hilbert


def test_hilbert_two_segments():
    space = two_segments()
    assert [hilbert_count(space, d) for d in range(3)] == [1, 3, 5]
    for d in range(6):
        assert hilbert_count(space, d) == (2 * d + 1 if d else 1)


def test_hilbert_single_segment():
    space = TropicalSpace(1, 1, [segment(0, 1)], "solid")
    for d in range(6):
        assert hilbert_count(space, d) == d + 1


def _intersection(cells):
    ineqs = []
    eqs = []
    ambient = cells[0].ambient_dim
    for c in cells:
        ineqs.extend(c.facets)
        eqs.extend(c.equations)
    return polytope_from_inequalities(ineqs, eqs, ambient)


def _hilbert_by_inclusion_exclusion(space, d):
    """Independent oracle: inclusion-exclusion over nonempty cell subsets."""
    if d == 0:
        return 1
    cells = list(space.maximal_cells)
    total = 0
    for r in range(1, len(cells) + 1):
        layer = 0
        any_nonempty = False
        for sub in combinations(cells, r):
            inter = _intersection(list(sub))
            if inter is None:
                continue
            any_nonempty = True
            layer += len(oracle_dilate_lattice_points(inter, d))
        total += layer if r % 2 == 1 else -layer
        if not any_nonempty:
            break
    return total


def test_hilbert_matches_inclusion_exclusion():
    spaces = [two_segments()]
    base = centered_dilated_simplex(2)
    sub, f = fine_crepant_subdivision(base)
    spaces.append(TropicalSpace(2, 2, sub.maximal_cells, "solid"))
    for space in spaces:
        for d in range(6):
            assert hilbert_count(space, d) == _hilbert_by_inclusion_exclusion(space, d)


# --- the contains-based presentation, kept as the oracle of the table one ---


def oracle_proj_ring(space, gluing, degree_bound):
    """Presentation of the glued cone algebra up to the given degree.

    Generators are the lattice points of the maximal cells, identified along
    faces via the gluing characters; relations are all binomial
    identifications among monomials of degree <= degree_bound, with products
    of generators sharing no cell set to zero.
    """
    cells = space.maximal_cells
    for c in cells:
        if not c.is_lattice():
            raise ValueError("proj ring needs integral cells")
    gluing.validate_cocycle(cells)
    # generators: one per lattice point, in its lex-min containing chart
    gen_points = sorted({p for c in cells for p in oracle_basis_lattice_points(c)})
    rep_chart = {}
    for p in gen_points:
        rep_chart[p] = min(c.key() for c in cells if c.contains(p))
    generators = [(p, rep_chart[p]) for p in gen_points]
    index = {p: i for i, (p, _) in enumerate(generators)}
    n_gen = len(generators)

    def common_cells(points):
        return [c for c in cells if all(c.contains(p) for p in points)]

    relations = []
    # zero relations in degree 2, when the bound reaches it
    if degree_bound >= 2:
        for i, j in combinations_with_replacement(range(n_gen), 2):
            pts = [generators[i][0], generators[j][0]]
            if not common_cells(pts):
                expo = [0] * n_gen
                expo[i] += 1
                expo[j] += 1
                relations.append((tuple(expo), None, 0))
    # binomial identifications per degree
    for d in range(2, degree_bound + 1):
        classes = {}
        for combo in combinations_with_replacement(range(n_gen), d):
            pts = [generators[i][0] for i in combo]
            hosts = common_cells(pts)
            if not hosts:
                continue
            chart = min(c.key() for c in hosts)
            total = pts[0]
            for p in pts[1:]:
                total = vadd(total, p)
            # transport each factor from its representative chart, then the
            # product to the lex-min chart containing the total point
            coeff = Fraction(1)
            for p in pts:
                coeff *= gluing.transport(rep_chart[p], chart, p, 1)
            total_hosts = [c.key() for c in cells if c.contains(tuple(Fraction(x, d) for x in total))]
            canonical = min(total_hosts)
            coeff *= gluing.transport(chart, canonical, total, d)
            expo = [0] * n_gen
            for i in combo:
                expo[i] += 1
            classes.setdefault((canonical, total), []).append((tuple(expo), coeff))
        for (canonical, total), monos in sorted(classes.items()):
            monos.sort()
            base_expo, base_coeff = monos[0]
            for expo, coeff in monos[1:]:
                relations.append((expo, base_expo, coeff / base_coeff))
    hilbert = [oracle_hilbert_count(space, d) for d in range(degree_bound + 1)]
    return RingPresentation(generators, relations, degree_bound, hilbert)


def oracle_hilbert_count(space, d):
    """Dimension of the degree-d piece: glued lattice points at height d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return 1
    pts = set()
    for c in space.maximal_cells:
        pts.update(oracle_dilate_lattice_points(c, d))
    return len(pts)


ORACLE_SUPPORTS = [
    standard_simplex(2, 2),
    hull([(0, 0), (2, 0), (0, 1), (2, 1)]),
    cube(2),
    standard_simplex(3),
    hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
    hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]),
]

CHARACTER_ENTRIES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(-2, 3)]


@st.composite
def ring_inputs(draw):
    """A regular subdivision with random heights, maybe with one more segment
    between two of its lattice points (a lower-dimensional maximal cell,
    which may cut through other cells), maybe twisted by a coboundary
    gluing; and a degree bound 0..3."""
    support = draw(st.sampled_from(ORACLE_SUPPORTS))
    pts = support.lattice_points()
    heights = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=len(pts), max_size=len(pts)))
    sub, _ = regular_subdivision(pts, heights)
    cells = list(sub.maximal_cells)
    n = support.ambient_dim
    if draw(st.booleans()):
        cells.append(hull(draw(st.lists(st.sampled_from(pts), min_size=2, max_size=2, unique=True))))
    space = TropicalSpace(n, n, cells, "solid")
    gluing = vanilla_gluing(n)
    if draw(st.booleans()):
        # twist(a, b) = chi_b / chi_a is a coboundary, so it is a cocycle
        entry = st.sampled_from(CHARACTER_ENTRIES)
        chi = {c.key(): draw(st.tuples(*[entry] * (n + 1))) for c in space.maximal_cells}
        keys = sorted(chi)
        twists = {
            (a, b): tuple(y / x for x, y in zip(chi[a], chi[b])) for i, a in enumerate(keys) for b in keys[i + 1 :]
        }
        gluing = GluingData(n, twists)
    return space, gluing, draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=100, deadline=None)
@given(ring_inputs())
def test_proj_ring_matches_contains_oracle(case):
    space, gluing, degree = case
    fast = proj_ring(space, gluing, degree)
    slow = oracle_proj_ring(space, gluing, degree)
    assert fast.generators == slow.generators
    assert fast.relations == slow.relations
    # the oracle divides Fractions; the ring's scalars are in the number form
    assert [type(s) for *_, s in fast.relations] == [type(_ratio(s)) for *_, s in slow.relations]
    assert fast.hilbert == slow.hilbert
    assert [hilbert_count(space, d) for d in range(degree + 1)] == list(slow.hilbert)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=4),
    st.integers(min_value=2, max_value=3),
)
def test_rational_cells_match_oracle(pts, den):
    rational = hull([(Fraction(x, den), Fraction(y, den)) for x, y in pts])
    lattice = hull([(0, 0), (1, 0), (0, 1)])
    space = TropicalSpace(2, 2, [rational, lattice], "solid")
    for d in range(4):
        assert hilbert_count(space, d) == oracle_hilbert_count(space, d)
    if rational.is_lattice():
        return
    errors = []
    for build in (proj_ring, oracle_proj_ring):
        with pytest.raises(ValueError) as info:
            build(space, vanilla_gluing(2), 2)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def _cube_complex():
    pts = cube(3).lattice_points()
    rng = random.Random(11)
    sub, _ = regular_subdivision(pts, [rng.randint(0, 1000) for _ in pts])
    return TropicalSpace(3, 3, sub.maximal_cells, "solid")


def test_proj_ring_makes_no_contains_or_hull_calls(monkeypatch):
    space = _cube_complex()
    degree = 3
    calls = {"contains": 0, "hull": 0}
    lattice_calls = []
    contains, hull_fn, cell_points = LatticePolytope.contains, LatticePolytope.hull, LatticePolytope.lattice_points

    def counting_contains(self, point):
        calls["contains"] += 1
        return contains(self, point)

    def counting_hull(points):
        calls["hull"] += 1
        return hull_fn(points)

    def counting_cell_points(cell, dilation=1):
        lattice_calls.append((cell.key(), dilation))
        return cell_points(cell, dilation)

    monkeypatch.setattr(LatticePolytope, "contains", counting_contains)
    monkeypatch.setattr(LatticePolytope, "hull", staticmethod(counting_hull))
    monkeypatch.setattr(LatticePolytope, "lattice_points", counting_cell_points)
    pres = proj_ring(space, vanilla_gluing(3), degree)
    assert calls == {"contains": 0, "hull": 0}
    expected = [(c.key(), d) for c in space.maximal_cells for d in range(1, degree + 1)]
    assert sorted(lattice_calls) == sorted(expected)
    assert pres.hilbert == (1, 27, 125, 343)


def test_ring_cli_reads_hilbert_counts_off_the_presentation(tmp_path, monkeypatch):
    space = _cube_complex()
    complex_file = tmp_path / "cube.json"
    complex_file.write_text(json.dumps({"cells": [[list(v) for v in c.vertices] for c in space.maximal_cells]}))
    out = tmp_path / "ring.json"
    counted = []

    def counting_hilbert_count(space, d):
        counted.append(d)
        return hilbert_count(space, d)

    monkeypatch.setattr(zeroring, "hilbert_count", counting_hilbert_count)
    assert main(["ring", "--complex", str(complex_file), "--degree", "2", "--out", str(out)]) == 0
    assert counted == []
    report = json.loads(out.read_text())
    assert report["hilbert_counts"] == report["hilbert"] == [1, 27, 125]


def test_gluing_cocycle_validation():
    # three triangles around the origin: the triple overlap is the origin, so
    # the vertical (height) components of the characters must compose
    t1 = hull([(0, 0), (1, 0), (0, 1)])
    t2 = hull([(0, 0), (0, 1), (-1, 0)])
    t3 = hull([(0, 0), (-1, 0), (0, -1)])
    space = TropicalSpace(2, 2, [t1, t2, t3], "solid")
    a, b, c = [cell.key() for cell in space.maximal_cells]
    good = GluingData(2, {(a, b): (1, 1, 2), (b, c): (1, 1, 3), (a, c): (1, 1, 6)})
    good.validate_cocycle(space.maximal_cells)
    bad = GluingData(2, {(a, b): (1, 1, 2), (b, c): (1, 1, 3), (a, c): (1, 1, 5)})
    with pytest.raises(ValueError, match="cocycle"):
        bad.validate_cocycle(space.maximal_cells)


# --- embedded ideals ---------------------------------------------------------


def toy_embedding(twist=None):
    """Two segments with a vertical fibration direction in Z^2."""
    a = hull([(0, 0), (1, 0)])
    b = hull([(1, 0), (2, 0)])
    space = TropicalSpace(2, 1, [a, b], "solid")
    fib = wall_fibration_data(space, 1, 0)
    assert set(fib) == {a.key(), b.key()}
    gluing = vanilla_gluing(2) if twist is None else GluingData(2, {(a.key(), b.key()): twist})
    return space, fib, gluing


def test_embedded_ideal_vanilla():
    _, fib, gluing = toy_embedding()
    ideal = embedded_ideal(fib, (1, 1), gluing)
    for key, rels in ideal.relations.items():
        assert all(a == 1 for _, a in rels)


def test_embedded_ideal_rescaling_invariance():
    _, fib, gluing = toy_embedding()
    rng = random.Random(5)
    base = embedded_ideal(fib, (1, 2), gluing).normalized()
    for _ in range(10):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = embedded_ideal(fib, (lam, 2 * lam), gluing).normalized()
        assert scaled == base
    other = embedded_ideal(fib, (1, 3), gluing).normalized()
    assert other != base


def test_embedded_ideal_twisted_transport():
    # gluing twist 2 on the vertical generator at the shared face: the
    # transported relations differ from vanilla by the hand-computed factors
    # 2 (for y0 = x2 + t) and 1/2 (for y1 = -x2 + t) in exactly the far chart
    _, fib, gluing = toy_embedding(twist=(1, 2, 1))
    ideal = embedded_ideal(fib, (1, 1), gluing)
    a_key = hull([(0, 0), (1, 0)]).key()
    b_key = hull([(1, 0), (2, 0)]).key()
    assert [a for _, a in ideal.relations[a_key]] == [1, 1]
    assert [a for _, a in ideal.relations[b_key]] == [2, Fraction(1, 2)]
    vanilla_ideal = embedded_ideal(fib, (1, 1), vanilla_gluing(2))
    assert [a for _, a in vanilla_ideal.relations[b_key]] == [1, 1]


def test_embedded_ideal_rejects_zero_parameter():
    _, fib, gluing = toy_embedding()
    with pytest.raises(ValueError, match="nonzero"):
        embedded_ideal(fib, (1, 0), gluing)


def test_embedded_ideal_and_genericity_scan_reject_an_empty_fibration():
    space, _, gluing = toy_embedding()
    with pytest.raises(ValueError, match="no fibration data"):
        embedded_ideal({}, (1, 1), gluing)
    with pytest.raises(ValueError, match="no fibration data"):
        genericity_scan(space, {}, [(1, 1)])


# --- genericity --------------------------------------------------------------


@pytest.fixture(scope="module")
def k3_embedding():
    base = centered_dilated_simplex(2)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    refined, g = sum_refinement(g_q, g_s, big_q, big_s)
    prism = product(base, seg)
    sphere = hypersurface_trop(prism, refined)
    fib = wall_fibration_data(sphere, 2, 0)
    return sphere, fib


def test_genericity_scan_k3(k3_embedding):
    sphere, fib = k3_embedding
    # barycentric choice (position 1) avoids all discriminant barycenters;
    # position 1/2 passes through the corner-vertical focus-focus points
    report = genericity_scan(sphere, fib, [(1, 1), (3, 1)])
    by_a = {r["a"]: r for r in report["samples"]}
    assert by_a[(Fraction(1), Fraction(1))]["generic"] is True
    assert by_a[(Fraction(3), Fraction(1))]["position"] == (Fraction(1, 2),)
    assert by_a[(Fraction(3), Fraction(1))]["generic"] is False
    assert (Fraction(1), Fraction(1)) in report["generic_subset"]


def test_genericity_empty_discriminant_all_generic():
    space, fib, _ = toy_embedding()
    report = genericity_scan(space, fib, [(1, 1), (5, 1), (1, 7)])
    assert all(r["generic"] for r in report["samples"])


def test_presentation_json_round_trip():
    space = two_segments()
    pres = proj_ring(space, vanilla_gluing(1), 2)
    js = pres.to_json()
    assert js["hilbert"] == [1, 3, 5]
    assert js["relations"][0]["scalar"] == "0"
