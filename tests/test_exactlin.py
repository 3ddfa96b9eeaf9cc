import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tropdeg.exactlin import (
    RationalCone,
    cone_from_generators,
    complete_to_unimodular,
    det,
    dot,
    dualize_cone,
    hnf_column_basis,
    is_integrally_surjective,
    kernel_basis,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    primitive,
    quotient_chart,
    saturate_lattice,
    smith_normal_form,
    snf_diagonal,
    solve_linear,
    vneg,
)

small_ints = st.integers(min_value=-9, max_value=9)


def test_primitive_examples():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError, match="zero vector"):
        primitive((0, 0))


@given(st.lists(small_ints, min_size=1, max_size=6))
def test_primitive_idempotent(coords):
    v = tuple(coords)
    if all(c == 0 for c in v):
        return
    p = primitive(v)
    assert primitive(p) == p
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    assert g == 1


def test_snf_identity():
    s, u, v = smith_normal_form(mat_identity(3))
    assert s == mat_identity(3)


def test_snf_2x2_example():
    m = ((2, 4), (6, 8))
    s, u, v = smith_normal_form(m)
    d = snf_diagonal(m)
    # oracle: d1 | d2, d1*d2 = |det| = 8, transforms unimodular
    assert d[1] % d[0] == 0
    assert d[0] * d[1] == abs(det(m)) == 8
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == s
    assert d == (2, 4)


def test_snf_1x2_bezout():
    m = ((2, 3),)
    s, u, v = smith_normal_form(m)
    assert s == ((1, 0),)
    # oracle: gcd(2,3) = 1 and the column transform is an explicit Bezout matrix
    assert abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == s


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_snf_random_property():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        s, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == s
        assert det(u) in (1, -1)
        assert det(v) in (1, -1)
        d = [s[i][i] for i in range(min(rows, cols))]
        for i in range(len(d) - 1):
            assert d[i] >= 0
            if d[i] == 0:
                assert d[i + 1] == 0
            else:
                assert d[i + 1] % d[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0


def test_integrally_surjective_examples():
    assert is_integrally_surjective(mat_identity(2))
    assert not is_integrally_surjective(((1, 0), (0, 2)))
    assert is_integrally_surjective(((2, 3),))  # gcd(2,3) = 1


def _max_abs_minor(m, size):
    rows, cols = len(m), len(m[0])
    best = 0
    for ri in combinations(range(rows), size):
        for ci in combinations(range(cols), size):
            sub = tuple(tuple(m[r][c] for c in ci) for r in ri)
            best = max(best, abs(det(sub)))
    return best


def _surjective_by_search(m):
    """Brute force: every e_i reachable as an integer combination of columns,
    coefficients bounded by a Bezout-style bound from the maximal minors."""
    rows, cols = len(m), len(m[0])
    r = mat_rank(m)
    if r < rows:
        return False
    bound = (1 + _max_abs_minor(m, r)) ** 2 * cols
    cols_t = list(zip(*m))
    for i in range(rows):
        target = tuple(1 if j == i else 0 for j in range(rows))
        found = False
        for x in product(range(-bound, bound + 1), repeat=cols):
            if tuple(sum(c * cv[k] for c, cv in zip(x, cols_t)) for k in range(rows)) == target:
                found = True
                break
        if not found:
            return False
    return True


def _surjective_by_minor_gcd(m):
    """Independent oracle: onto Z^rows iff the gcd of the maximal minors is 1."""
    rows = len(m)
    if mat_rank(m) < rows:
        return False
    g = 0
    for ci in combinations(range(len(m[0])), rows):
        sub = tuple(tuple(row[c] for c in ci) for row in m)
        g = gcd(g, abs(det(sub)))
    return g == 1


def test_integrally_surjective_vs_bruteforce():
    rng = random.Random(11)
    for _ in range(12):
        rows = rng.randint(1, 2)
        cols = rng.randint(rows, 3)
        m = _random_matrix(rng, rows, cols, -1, 1)
        assert is_integrally_surjective(m) == _surjective_by_search(m)


def test_integrally_surjective_vs_minor_gcd():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 3)
        m = _random_matrix(rng, rows, cols, -4, 4)
        assert is_integrally_surjective(m) == _surjective_by_minor_gcd(m)


def test_kernel_and_solve():
    m = ((1, 2, 3), (2, 4, 6))
    ker = kernel_basis(m)
    assert len(ker) == 2
    for k in ker:
        assert mat_vec(m, k) == (0, 0)
    x = solve_linear(((2, 0), (0, 3)), (4, 9))
    assert x == (Fraction(2), Fraction(3))
    assert solve_linear(((1, 1), (1, 1)), (0, 1)) is None


def test_hnf_and_saturation():
    basis = hnf_column_basis([(2, 0), (0, 2), (2, 2)])
    assert len(basis) == 2
    sat = saturate_lattice([(2, 0), (0, 2)], 2)
    assert sorted(sat) == [(0, 1), (1, 0)]
    sat2 = saturate_lattice([(2, 4)], 2)
    assert sat2 == [(1, 2)]


def test_complete_to_unimodular():
    for v in [(1, 0, 0), (2, -1, 1), (3, 5), (0, 0, -1)]:
        u = complete_to_unimodular(v)
        assert det(u) in (1, -1)
        e1 = tuple(1 if i == 0 else 0 for i in range(len(v)))
        assert mat_vec(u, v) == e1
        chart = quotient_chart(v)
        assert mat_vec(chart, v) == tuple(0 for _ in range(len(v) - 1))


# --- cones ---------------------------------------------------------------


def _dual_by_enumeration(gens, dim, box=6):
    """Oracle: integer points m in a box with <m, g> >= 0 for all g, reduced to
    primitive representatives; the dual cone's rays must all appear here."""
    pts = set()
    for m in product(range(-box, box + 1), repeat=dim):
        if all(x == 0 for x in m):
            continue
        if all(dot(m, g) >= 0 for g in gens):
            pts.add(primitive(m))
    return pts


def test_dualize_orthant_self_dual():
    c = cone_from_generators([(1, 0), (0, 1)], 2)
    d = dualize_cone(c)
    assert sorted(d.generators) == [(0, 1), (1, 0)]


def test_dualize_example_2d():
    c = cone_from_generators([(1, 0), (1, 2)], 2)
    d = dualize_cone(c)
    assert sorted(d.generators) == [(0, 1), (2, -1)]
    # oracle: every dual generator appears in the enumerated dual region and
    # every enumerated point is a nonnegative combination of the two rays
    region = _dual_by_enumeration([(1, 0), (1, 2)], 2)
    assert set(d.generators) <= region
    for p in region:
        assert d.contains(p)


def test_dualize_full_space_is_origin():
    c = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    d = dualize_cone(c)
    assert d.generators == ()
    dd = dualize_cone(d)
    assert dd.contains((1, 0)) and dd.contains((-1, 0)) and dd.contains((0, -1))


def test_dualize_involution_on_pointed_cones():
    rng = random.Random(23)
    cases = [
        [(1, 0), (1, 2)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 0, 0), (1, 2, 0), (1, 0, 3), (1, 1, 1)],
        [(2, 1), (1, 3)],
    ]
    for _ in range(6):
        gens = [tuple(rng.randint(0, 4) + (1 if i == j else 0) for i in range(3)) for j in range(3)]
        cases.append(gens)
    for gens in cases:
        dim = len(gens[0])
        c = cone_from_generators(gens, dim)
        if not c.is_pointed() or c.dim() < dim:
            continue
        dd = dualize_cone(dualize_cone(c))
        assert dd.contains_all(c.generators)
        assert c.contains_all(dd.generators)


def test_cone_lower_dimensional():
    c = cone_from_generators([(1, 1, 0)], 3)
    assert c.generators == ((1, 1, 0),)
    assert c.contains((2, 2, 0))
    assert not c.contains((1, 0, 0))
    assert not c.contains((-1, -1, 0))


def test_cone_rejects_redundant_generators():
    c = cone_from_generators([(1, 0), (0, 1), (1, 1)], 2)
    assert sorted(c.generators) == [(0, 1), (1, 0)]


def _in_cone_of(v, gens):
    """Is v a nonnegative rational combination of gens?  Exact LP by search.

    Small instances only: solves with Fourier-Motzkin style recursion via
    vertex enumeration on the coefficient polytope.
    """
    # Solve gens^T x = v, x >= 0.  Use a simple exact simplex-free method:
    # iterate over subsets of gens of size <= rank and test basic solutions.
    n = len(gens)
    rank = mat_rank(tuple(gens))
    for size in range(1, rank + 1):
        for sub in combinations(range(n), size):
            m = mat_transpose(tuple(gens[i] for i in sub))
            x = solve_linear(m, v)
            if x is None:
                continue
            if all(c >= 0 for c in x) and mat_vec(m, x) == tuple(Fraction(a) for a in v):
                return True
    return False


@st.composite
def pointed_cone_generators(draw):
    """Generators of a random pointed cone in Z^dim, dim = 2..4.

    The cone is built in Z^k (k <= dim) over points at positive height, so it
    is pointed, then mapped into Z^dim by an injective integer matrix; some
    sums of pairs are added as redundant generators.
    """
    dim = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=dim))
    coord = st.integers(min_value=-3, max_value=3)
    base = draw(
        st.lists(st.tuples(*[coord] * (k - 1), st.integers(min_value=1, max_value=3)), min_size=1, max_size=k + 3)
    )
    embed = draw(st.lists(st.tuples(*[coord] * k), min_size=dim, max_size=dim))
    assume(mat_rank(tuple(embed)) == k)
    gens = [mat_vec(embed, g) for g in base]
    pairs = draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.integers(0, len(gens) - 1)), max_size=2))
    gens += [tuple(a + b for a, b in zip(gens[i], gens[j])) for i, j in pairs]
    return gens, dim


@settings(max_examples=80, deadline=None)
@given(pointed_cone_generators())
def test_extreme_generators_match_cone_membership_search(case):
    gens, dim = case
    c = cone_from_generators(gens, dim)
    assert c.is_pointed()
    distinct = sorted({primitive(g) for g in gens})
    expected = [g for g in distinct if not _in_cone_of(g, [h for h in distinct if h != g])]
    assert list(c.generators) == expected
