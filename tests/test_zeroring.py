import random
from fractions import Fraction
from itertools import combinations

import pytest

from tropdeg.embed import embed_D, wall_fibration_data
from tropdeg.polytope import (
    centered_dilated_simplex,
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
    zeros = pres.zero_relations()
    assert len(zeros) == 1
    # oracle: direct monoid computation on the two cones gives x0 x2 = 0 only
    assert zeros[0][0] == (1, 0, 1)
    assert pres.binomial_relations() == []


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
    rels = pres.binomial_relations()
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
            scaled = hull([tuple(d * Fraction(x) for x in v) for v in inter.vertices])
            layer += len(scaled.lattice_points())
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
    t_d, iota, surj = embed_D(space, fib)
    gluing = vanilla_gluing(2) if twist is None else GluingData(2, {(a.key(), b.key()): twist})
    return space, t_d, iota, gluing


def test_embedded_ideal_vanilla():
    space, t_d, iota, gluing = toy_embedding()
    ideal = embedded_ideal(space, t_d, iota, (1, 1), gluing)
    for key, rels in ideal.relations.items():
        assert all(a == 1 for _, a in rels)


def test_embedded_ideal_rescaling_invariance():
    space, t_d, iota, gluing = toy_embedding()
    rng = random.Random(5)
    base = embedded_ideal(space, t_d, iota, (1, 2), gluing).normalized()
    for _ in range(10):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = embedded_ideal(space, t_d, iota, (lam, 2 * lam), gluing).normalized()
        assert scaled == base
    other = embedded_ideal(space, t_d, iota, (1, 3), gluing).normalized()
    assert other != base


def test_embedded_ideal_twisted_transport():
    # gluing twist 2 on the vertical generator at the shared face: the
    # transported relations differ from vanilla by the hand-computed factors
    # 2 (for y0 = x2 + t) and 1/2 (for y1 = -x2 + t) in exactly the far chart
    space, t_d, iota, gluing = toy_embedding(twist=(1, 2, 1))
    ideal = embedded_ideal(space, t_d, iota, (1, 1), gluing)
    a_key = hull([(0, 0), (1, 0)]).key()
    b_key = hull([(1, 0), (2, 0)]).key()
    assert [a for _, a in ideal.relations[a_key]] == [1, 1]
    assert [a for _, a in ideal.relations[b_key]] == [2, Fraction(1, 2)]
    vanilla_ideal = embedded_ideal(space, t_d, iota, (1, 1), vanilla_gluing(2))
    assert [a for _, a in vanilla_ideal.relations[b_key]] == [1, 1]


def test_embedded_ideal_rejects_zero_parameter():
    space, t_d, iota, gluing = toy_embedding()
    with pytest.raises(ValueError, match="nonzero"):
        embedded_ideal(space, t_d, iota, (1, 0), gluing)


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
    t_d, iota, surj = embed_D(sphere, fib)
    return sphere, t_d, iota


def test_genericity_scan_k3(k3_embedding):
    sphere, t_d, iota = k3_embedding
    gluing = vanilla_gluing(3)
    # barycentric choice (position 1) avoids all discriminant barycenters;
    # position 1/2 passes through the corner-vertical focus-focus points
    report = genericity_scan(sphere, t_d, iota, gluing, [(1, 1), (3, 1)])
    by_a = {r["a"]: r for r in report["samples"]}
    assert by_a[(Fraction(1), Fraction(1))]["generic"] is True
    assert by_a[(Fraction(3), Fraction(1))]["position"] == (Fraction(1, 2),)
    assert by_a[(Fraction(3), Fraction(1))]["generic"] is False
    assert (Fraction(1), Fraction(1)) in report["generic_subset"]


def test_genericity_empty_discriminant_all_generic():
    space, t_d, iota, gluing = toy_embedding()
    report = genericity_scan(space, t_d, iota, gluing, [(1, 1), (5, 1), (1, 7)])
    assert all(r["generic"] for r in report["samples"])


def test_presentation_json_round_trip():
    space = two_segments()
    pres = proj_ring(space, vanilla_gluing(1), 2)
    js = pres.to_json()
    assert js["hilbert"] == [1, 3, 5]
    assert js["relations"][0]["scalar"] == "0"
