"""Theorems as oracles beyond the example corpus.

They hold for every input of a kind and share no code with tropdeg:
- on the boundary sphere of any reflexive 3-polytope, triangulated by the
  fine crepant subdivision, the focus-focus count with multiplicity is
  24 = chi(K3) (Haase and Zharkov, arXiv math/0205321; Gross, Math.
  Ann. 333, 2005), and the face table is a 2-sphere, of Euler
  characteristic 2;
- every reflexive polygon P has b(P) + b(P*) = 12, b counting boundary
  lattice points (Poonen and Rodriguez-Villegas, Amer. Math. Monthly 107,
  2000);
- the zeroth-order ring is flat: the homogeneous coordinate ring of the
  central fibre of a toric degeneration (Gross and Siebert, Ann. Math. 174,
  2011) has the Hilbert function of the anticanonical hypersurface of the
  reflexive polytope P its sphere bounds, so its degree-d piece has one
  monomial per lattice point on the boundary of dP (Hibi, Combinatorica 12,
  1992), here on the drawn spheres and on the examples;
- each loop around a focus-focus point has monodromy M with det 1 and
  (M - I)^2 = 0 that fixes the wall's tangents, and the reverse loop has
  M^-1 (criterion 5's algebra).

The polytopes are the distinct reflexive hulls of seeded random subsets of
a small box, so every run draws the same ones.  None is filtered out
beyond reflexivity: a polytope that breaks a theorem is a defect to report.
"""

import math
import random
from functools import cache
from itertools import product

import pytest
from oracles import oracle_fraction_crepant_subdivision

from tropdeg.exactlin import det, mat_identity, mat_mul, mat_vec
from tropdeg.pipelines import build_hypercube, build_kp1_2, build_quintic
from tropdeg.polytope import hull
from tropdeg.subdivision import fine_crepant_subdivision
from tropdeg.tropical import count_focus_focus, discriminant, hypersurface_trop
from tropdeg.zeroring import hilbert_count


def _reflexive_hulls(box, dim, draws, sizes, seed=7):
    """The distinct reflexive hulls, by vertex tuple, of `draws` seeded samples of the box's points, of sizes in `sizes`."""
    rng = random.Random(seed)
    origin = (0,) * dim
    found = {}
    for _ in range(draws):
        poly = hull(rng.sample(box, rng.randint(*sizes)))
        if poly.dim == dim and poly.contains_strictly(origin) and poly.is_reflexive():
            found.setdefault(poly.vertices, poly)
    return list(found.values())


REFLEXIVE_3_POLYTOPES = _reflexive_hulls(list(product((-1, 0, 1), repeat=3)), 3, 480, (4, 14))
REFLEXIVE_POLYGONS = _reflexive_hulls(list(product(range(-2, 3), repeat=2)), 2, 2000, (3, 4))


def _boundary_points(poly):
    return sum(1 for p in poly.lattice_points() if not poly.contains_strictly(p))


@cache
def _k3_sphere(poly):
    """The boundary sphere of a drawn reflexive 3-polytope, triangulated by its fine crepant subdivision."""
    sub, _ = fine_crepant_subdivision(poly)
    return hypersurface_trop(poly, sub)


@cache
def _boundary_points_of_dilate(poly, d):
    """The lattice points on the boundary of d * poly, by a box scan over poly's facet inequalities.

    A point of the box of d * poly lies on its boundary when its least
    slack <n, x> + d c over the facets (n, c) is 0.  Neither
    `lattice_points` nor `contains` is read.
    """
    lo, hi = poly.bounding_box()
    box = product(*(range(math.ceil(d * a), math.floor(d * b) + 1) for a, b in zip(lo, hi)))
    return sum(1 for x in box if min(sum(map(math.prod, zip(n, x))) + d * c for n, c in poly.facets) == 0)


def test_the_draws_are_many_and_distinct():
    assert len(REFLEXIVE_3_POLYTOPES) == 41
    assert len(REFLEXIVE_POLYGONS) == 47
    # every boundary point count a reflexive polygon can have, 3 to 9
    assert {_boundary_points(p) for p in REFLEXIVE_POLYGONS} == set(range(3, 10))


@pytest.mark.parametrize("poly", REFLEXIVE_3_POLYTOPES, ids=[f"hull{i}" for i in range(len(REFLEXIVE_3_POLYTOPES))])
def test_k3_sphere_has_24_focus_focus_points_and_euler_characteristic_2(poly):
    sphere = _k3_sphere(poly)
    assert count_focus_focus(sphere) == 24
    assert sum((-1) ** d for d in sphere.faces().values()) == 2


def test_integer_crepant_fits_match_the_fraction_fits():
    for poly in REFLEXIVE_3_POLYTOPES:
        sub, f = fine_crepant_subdivision(poly)
        old_sub, old_f = oracle_fraction_crepant_subdivision(poly)
        assert [vars(c) for c in sub.maximal_cells] == [vars(c) for c in old_sub.maximal_cells], poly.vertices
        assert f.pieces == old_f.pieces, poly.vertices
        assert [type(x) for piece in f.pieces.values() for x in (*piece[0], piece[1])] == [
            type(x) for piece in old_f.pieces.values() for x in (*piece[0], piece[1])
        ]


def test_reflexive_polygons_have_12_boundary_points_with_their_duals():
    for poly in REFLEXIVE_POLYGONS:
        assert _boundary_points(poly) + _boundary_points(poly.polar_dual()) == 12, poly.vertices


def _example_spheres():
    """(name, reflexive polytope, the boundary sphere of the example built on it) for every example.

    The hypercube's complex is a solid, so its sphere is the boundary of
    its tent subdivision.
    """
    for k in (1, 2, 3):
        res = build_kp1_2(k)
        yield f"kp1-2 k={k}", res.prism, res.sphere
    for i in range(1, 5):
        res = build_quintic(i)
        yield f"quintic i={i}", res.polytope, res.sphere
    for k in (1, 2, 3):
        res = build_hypercube(k)
        yield f"hypercube k={k}", res.box, hypersurface_trop(res.box, res.subdivision)


def test_the_zeroth_order_ring_has_the_hypersurface_hilbert_function():
    # no sphere is filtered out: a degree where the counts differ is a
    # defect of the ring or of the sphere, to be reported with its polytope
    cases = [(f"drawn {poly.vertices}", poly, _k3_sphere(poly)) for poly in REFLEXIVE_3_POLYTOPES]
    cases += list(_example_spheres())
    for name, poly, sphere in cases:
        assert poly.is_reflexive(), name
        for d in (1, 2, 3):
            assert hilbert_count(sphere, d) == _boundary_points_of_dilate(poly, d), (name, d)
    # the K3 Riemann-Roch count (b - 2) d^2 + 2 on the kp1-2 k=2 sphere, b = 29
    kp2 = next(poly for name, poly, _ in cases if name == "kp1-2 k=2")
    assert [_boundary_points_of_dilate(kp2, d) for d in (1, 2, 3)] == [29, 110, 245]


def test_monodromy_algebra_holds_on_every_loop_of_the_drawn_spheres():
    # criterion 5's algebra, beyond kp1-2 k=2, 3: a unipotent M other than
    # I (det 1, (M - I)^2 = 0), the wall's tangents fixed in the chart at
    # the edge's first vertex, and the loop run the other way round the
    # inverse
    loops = 0
    for poly in REFLEXIVE_3_POLYTOPES:
        sphere = _k3_sphere(poly)
        cells = sphere.cells()
        for entry in discriminant(sphere).entries:
            m = entry["matrix"]
            ident = mat_identity(len(m))
            assert m != ident and det(m) == 1, poly.vertices
            d = tuple(tuple(x - y for x, y in zip(row, irow)) for row, irow in zip(m, ident))
            assert not any(map(any, mat_mul(d, d))), poly.vertices
            v_plus, v_minus = sorted(cells[entry["edge"]].vertices)[:2]
            wall = cells[entry["wall"]]
            chart = sphere.chart_matrix(v_plus)
            for t in sphere.tangent_basis(wall):
                ct = mat_vec(chart, t)
                assert mat_vec(m, ct) == ct, poly.vertices
            s_plus, s_minus = (sphere.maximal_cells[i] for i in sphere.walls()[wall.key()])
            assert mat_mul(m, sphere._loop_matrix(v_plus, v_minus, s_minus, s_plus)) == ident, poly.vertices
            loops += 1
    assert loops == 673
