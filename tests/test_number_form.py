"""The kernel's one number form: every vertex coordinate, anchor coordinate,
facet offset, equation constant and piece entry is an int or a Fraction with
denominator above 1, and never a float, whichever construction made it.
Facet normals, equation functionals and span bases are ints."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cone_over_cell

from tropdeg.embed import FibrationData, local_fibre
from tropdeg.exactlin import _ratio
from tropdeg.pipelines import build_hypercube, build_kp1_2, build_quintic
from tropdeg.polytope import LatticePolytope, clip_by_halfspace, graph_points, hull
from tropdeg.subdivision import PLFunction


def _exact(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _form_errors(poly):
    """(field, value) of each number of the polytope outside the number form."""
    rational = {
        "vertex": [x for v in poly.vertices for x in v],
        "anchor": list(poly.anchor),
        "facet offset": [c for _, c in poly.facets],
        "equation constant": [e for _, e in poly.equations],
    }
    integral = {
        "facet normal": [x for n, _ in poly.facets for x in n],
        "equation functional": [x for f, _ in poly.equations for x in f],
        "span basis": [x for b in poly.span_basis for x in b],
    }
    out = [(field, x) for field, xs in rational.items() for x in xs if not _exact(x)]
    return out + [(field, x) for field, xs in integral.items() for x in xs if type(x) is not int]


def _piece_errors(f):
    return [("piece", x) for coeffs, const in f.pieces.values() for x in (*coeffs, const) if not _exact(x)]


@pytest.mark.parametrize(
    "build, value",
    [(build_kp1_2, 2), (build_quintic, 2), (build_hypercube, 2)],
    ids=["kp1-2-k2", "quintic-i2", "hypercube-k2"],
)
def test_every_polytope_and_piece_a_build_makes_is_in_the_number_form(build, value, monkeypatch):
    made = []
    for cls in (LatticePolytope, PLFunction):

        def record(self, *args, _init=cls.__init__):
            _init(self, *args)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", record)
    build(value)
    polytopes = [x for x in made if isinstance(x, LatticePolytope)]
    functions = [x for x in made if isinstance(x, PLFunction)]
    assert len(polytopes) > 20 and len(functions) > 1
    errors = [e for p in polytopes for e in _form_errors(p)] + [e for f in functions for e in _piece_errors(f)]
    assert errors == []


def test_the_number_form_check_sees_floats_and_whole_fractions():
    poly = hull([(0, 0), (1, 0), (0, 1)])
    assert _form_errors(poly) == []
    poly.vertices = ((0, 0.5), (Fraction(2, 1), 0))
    assert _form_errors(poly) == [("vertex", 0.5), ("vertex", Fraction(2, 1))]


rationals = st.builds(_ratio, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def polytopes(draw):
    """Hulls of up to seven points in Q^dim, dim 1..3, integral or with small
    denominators, given as ints, Fractions or whole Fractions; few points
    give lower-dimensional hulls."""
    dim = draw(st.integers(1, 3))
    den = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-3, 3), st.just(den))
    return hull(draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=7)))


@settings(max_examples=150, deadline=None)
@given(polytopes(), st.data())
def test_hulls_clips_faces_and_graph_lifts_keep_the_number_form(poly, data):
    assert _form_errors(poly) == []
    for n, c in poly.facets:
        assert _form_errors(poly.face(n, c)) == []
    clipped = poly
    for _ in range(data.draw(st.integers(1, 3))):
        normal = data.draw(st.tuples(*[st.integers(-2, 2)] * poly.ambient_dim))
        clipped = clip_by_halfspace(clipped, normal, data.draw(rationals))
        if clipped is None:
            break
        assert _form_errors(clipped) == []
    pieces = data.draw(st.lists(st.tuples(st.tuples(*[rationals] * poly.ambient_dim), rationals), min_size=1, max_size=2))
    lifted = graph_points(poly, pieces)
    assert [x for v in lifted for x in v if not _exact(x)] == []
    assert tuple(lifted) == hull(lifted).key()


@settings(max_examples=100, deadline=None)
@given(polytopes(), st.data())
def test_local_fibres_over_integer_targets_keep_the_number_form(cell, data):
    # the y are nonnegative combinations of the facet normals of the cone
    # over the cell, so nonnegative on it, and p is the level
    cone = cone_over_cell(cell)
    level = (0,) * cell.ambient_dim + (1,)

    def functional():
        weights = data.draw(st.lists(st.integers(0, 2), min_size=len(cone.facet_normals), max_size=len(cone.facet_normals)))
        return tuple(sum(w * n[i] for w, n in zip(weights, cone.facet_normals)) for i in range(len(level)))

    ys = [functional() for _ in range(data.draw(st.integers(1, 2)))]
    try:
        fib = FibrationData(cell, ys, level)
    except ValueError:
        assume(False)
    target = data.draw(st.tuples(*[st.integers(0, 3)] * (len(ys) + 1)))
    fibre = local_fibre(fib, target)
    if fibre is not None:
        assert _form_errors(fibre) == []
