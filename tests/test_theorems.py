"""Theorems as oracles beyond the example corpus.

They hold for every input of a kind and share no code with tropdeg:
- on the boundary sphere of any reflexive 3-polytope, triangulated by the
  fine crepant subdivision, the focus-focus count with multiplicity is
  24 = chi(K3) (Haase and Zharkov, arXiv math/0205321; Gross, Math.
  Ann. 333, 2005), and the face table is a 2-sphere, of Euler
  characteristic 2;
- every reflexive polygon P has b(P) + b(P*) = 12, b counting boundary
  lattice points (Poonen and Rodriguez-Villegas, Amer. Math. Monthly 107,
  2000).

The polytopes are the distinct reflexive hulls of seeded random subsets of
a small box, so every run draws the same ones.  None is filtered out
beyond reflexivity: a polytope that breaks a theorem is a defect to report.
"""

import random
from itertools import product

import pytest
from oracles import oracle_fraction_crepant_subdivision

from tropdeg.polytope import hull
from tropdeg.subdivision import fine_crepant_subdivision
from tropdeg.tropical import count_focus_focus, hypersurface_trop


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


def test_the_draws_are_many_and_distinct():
    assert len(REFLEXIVE_3_POLYTOPES) == 41
    assert len(REFLEXIVE_POLYGONS) == 47
    # every boundary point count a reflexive polygon can have, 3 to 9
    assert {_boundary_points(p) for p in REFLEXIVE_POLYGONS} == set(range(3, 10))


@pytest.mark.parametrize("poly", REFLEXIVE_3_POLYTOPES, ids=[f"hull{i}" for i in range(len(REFLEXIVE_3_POLYTOPES))])
def test_k3_sphere_has_24_focus_focus_points_and_euler_characteristic_2(poly):
    sub, _ = fine_crepant_subdivision(poly)
    sphere = hypersurface_trop(poly, sub)
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
