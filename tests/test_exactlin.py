import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    _bareiss_det,
    _cone_by_subset_scan,
    _fraction_rank,
    _fraction_solve,
    basis_coordinates,
    cone_contains,
    oracle_dot,
    oracle_hnf_column_basis,
    oracle_is_integrally_surjective,
    oracle_complete_to_unimodular,
    oracle_mat_mul,
    oracle_smith_normal_form,
)

from tropdeg.exactlin import (
    _ratio,
    cone_from_generators,
    content,
    denominator_lcm,
    det,
    dot,
    hnf_column_basis,
    kernel_basis,
    left_inverse,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    primitive,
    saturate_lattice,
    smith_normal_form,
    solve_linear,
    unimodular_completion,
)
from tropdeg.polytope import _span_chart, _span_coordinates

small_ints = st.integers(min_value=-9, max_value=9)


def test_primitive_examples():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    with pytest.raises(ValueError, match="zero vector"):
        primitive((0, 0))


def test_content_and_primitive_reject_non_integers():
    assert primitive((Fraction(4, 2), 6)) == (1, 3)
    with pytest.raises(ValueError, match="non-integer"):
        content((Fraction(1, 2), 1))
    with pytest.raises(ValueError, match="non-integer"):
        primitive((Fraction(1, 2), 0, 1))


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
    s, u, v = oracle_smith_normal_form(mat_identity(3))
    assert s == mat_identity(3)
    assert smith_normal_form(mat_identity(3)) == (1, 1, 1)


def test_snf_2x2_example():
    m = ((2, 4), (6, 8))
    s, u, v = oracle_smith_normal_form(m)
    d = smith_normal_form(m)
    # oracle: d1 | d2, d1*d2 = |det| = 8, transforms unimodular
    assert d[1] % d[0] == 0
    assert d[0] * d[1] == abs(det(m)) == 8
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == s
    assert d == (2, 4) == (s[0][0], s[1][1])


def test_snf_1x2_bezout():
    m = ((2, 3),)
    s, u, v = oracle_smith_normal_form(m)
    assert s == ((1, 0),)
    # oracle: gcd(2,3) = 1 and the column transform is an explicit Bezout matrix
    assert abs(det(v)) == 1
    assert mat_mul(mat_mul(u, m), v) == s
    assert smith_normal_form(m) == (1,)


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def test_snf_random_property():
    rng = random.Random(7)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        s, u, v = oracle_smith_normal_form(m)
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
        assert smith_normal_form(m) == tuple(d)


_fold_entries = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**40), 2**40))


@st.composite
def _fold_matrices(draw):
    """A 1x1 to 7x7 integer matrix, some of whose rows are integer combinations of earlier ones."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    m = [draw(st.lists(_fold_entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    return tuple(map(tuple, m))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_fold_matrices())
def test_smith_diagonal_and_kernel_by_folds_match_the_transform_smith_form(m):
    # the diagonal is unique, and so is the Hermite basis of the kernel
    # lattice the last columns of the oracle's V span
    s, _, v = oracle_smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert smith_normal_form(m) == tuple(s[i][i] for i in range(min(rows, cols)))
    rank = sum(1 for i in range(min(rows, cols)) if s[i][i])
    ker = kernel_basis(m)
    assert len(ker) == cols - rank
    assert all(mat_vec(m, k) == (0,) * rows for k in ker)
    assert ker == hnf_column_basis(ker) == hnf_column_basis(mat_transpose(v)[rank:])


def test_integrally_surjective_examples():
    assert oracle_is_integrally_surjective(mat_identity(2))
    assert not oracle_is_integrally_surjective(((1, 0), (0, 2)))
    assert oracle_is_integrally_surjective(((2, 3),))  # gcd(2,3) = 1


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
        assert oracle_is_integrally_surjective(m) == _surjective_by_search(m)


def test_integrally_surjective_vs_minor_gcd():
    rng = random.Random(13)
    for _ in range(40):
        rows = rng.randint(1, 3)
        cols = rng.randint(rows, 3)
        m = _random_matrix(rng, rows, cols, -4, 4)
        assert oracle_is_integrally_surjective(m) == _surjective_by_minor_gcd(m)
        # the rule embed_D reads off each host's diagonal
        assert (smith_normal_form(m) == (1,) * rows) == _surjective_by_minor_gcd(m)


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
    sat, ann = saturate_lattice([(2, 0), (0, 2)], 2)
    assert sorted(sat) == [(0, 1), (1, 0)] and ann == []
    sat2, ann2 = saturate_lattice([(2, 4)], 2)
    assert sat2 == [(1, 2)]
    # the annihilators are the kernel the saturation is taken from
    assert ann2 == kernel_basis(((2, 4),)) == kernel_basis(tuple(sat2))
    assert saturate_lattice([], 2) == ([], [(1, 0), (0, 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**40), 2**40))] * dim), max_size=7
        )
    )
)
def test_hermite_basis_by_extended_gcd_matches_the_euclid_rounds(vectors):
    # the Hermite basis of a lattice is unique, so folding each column by
    # extended-gcd steps gives the basis the round-by-round reduction gives
    assert hnf_column_basis(vectors) == oracle_hnf_column_basis(vectors)


def test_complete_to_unimodular():
    for v in [(1, 0, 0), (2, -1, 1), (3, 5), (0, 0, -1)]:
        u, w = unimodular_completion(v)
        assert det(u) in (1, -1)
        e1 = tuple(1 if i == 0 else 0 for i in range(len(v)))
        assert mat_vec(u, v) == e1
        # its last rows are the quotient chart Z^n -> Z^n/Zv
        assert mat_vec(u[1:], v) == tuple(0 for _ in range(len(v) - 1))
        assert mat_mul(u, w) == mat_identity(len(v))
    with pytest.raises(ValueError, match="primitive"):
        unimodular_completion((2, 4))


@st.composite
def _primitive_vectors(draw):
    """A primitive integer vector of dimension 1 to 6, often with leading zeros and negative entries."""
    n = draw(st.integers(1, 6))
    zeros = draw(st.integers(0, n - 1))
    tail = draw(st.lists(st.integers(-30, 30), min_size=n - zeros, max_size=n - zeros).filter(any))
    return (0,) * zeros + primitive(tail)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_primitive_vectors())
def test_unimodular_completion_matches_the_smith_completion_and_left_inverse(v):
    # the sweep takes the Smith form's steps, so u is the same matrix, and w
    # is the inverse that the retired left inverse of u gave
    u, w = unimodular_completion(v)
    assert u == oracle_complete_to_unimodular(v)
    inv, d = left_inverse(u)
    assert w == tuple(tuple(d * x for x in row) for row in inv)
    assert all(type(x) is int for row in u + w for x in row)


# --- cones ---------------------------------------------------------------


def test_cone_lower_dimensional():
    c = cone_from_generators([(1, 1, 0)], 3)
    assert c.generators == ((1, 1, 0),)
    assert cone_contains(c, (2, 2, 0))
    assert not cone_contains(c, (1, 0, 0))
    assert not cone_contains(c, (-1, -1, 0))


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
    assert mat_rank(c.facet_normals) == dim  # pointed
    distinct = sorted({primitive(g) for g in gens})
    expected = [g for g in distinct if not _in_cone_of(g, [h for h in distinct if h != g])]
    assert list(c.generators) == expected


def test_cone_from_rational_generators_clears_denominators():
    c = cone_from_generators([(0, 0, 1), (Fraction(1, 2), 0, 1), (0, Fraction(1, 2), 1)], 3)
    assert c.generators == ((0, 0, 1), (0, 1, 2), (1, 0, 2))


@st.composite
def cone_generator_sets(draw):
    """Generators of a random cone in Z^dim, dim = 1..4.

    Built in Z^k (k <= dim) and mapped into Z^dim by an injective integer
    matrix, so the cone may be lower-dimensional; negated copies make it
    non-pointed, and repeated, doubled and zero generators are mixed in.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=dim))
    coord = st.integers(min_value=-3, max_value=3)
    base = draw(st.lists(st.tuples(*[coord] * k), max_size=6))
    embed = draw(st.lists(st.tuples(*[coord] * k), min_size=dim, max_size=dim))
    assume(mat_rank(tuple(embed)) == k)
    gens = [mat_vec(embed, g) for g in base]
    if gens:
        extra = draw(st.lists(st.tuples(st.integers(0, len(gens) - 1), st.sampled_from([-1, 1, 2])), max_size=3))
        gens += [tuple(s * x for x in gens[i]) for i, s in extra]
    return gens, dim


@settings(max_examples=150, deadline=None)
@given(cone_generator_sets())
def test_cone_from_generators_matches_subset_scan(case):
    gens, dim = case
    c = cone_from_generators(gens, dim)
    ref = _cone_by_subset_scan(gens, dim)
    assert (c.generators, c.facet_normals) == (ref.generators, ref.facet_normals)


@st.composite
def linear_systems(draw):
    """(m, rhs list, integral): a rows x cols matrix, rows and cols in 0..6,
    square half of the time.

    Entries are ints or rationals.  A third of the matrices are products
    through an inner dimension below both sides, so rank-deficient ones are
    common.  One right-hand side is random (often inconsistent), the other
    lies in the column span.
    """
    rows = draw(st.integers(0, 6))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 6))
    integral = draw(st.booleans())
    entry = small_ints if integral else st.builds(Fraction, small_ints, st.integers(1, 6))

    def matrix(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        a, b = matrix(rows, k), matrix(k, cols)
        m = tuple(tuple(sum((a[i][t] * b[t][j] for t in range(k)), 0) for j in range(cols)) for i in range(rows))
    else:
        m = tuple(map(tuple, matrix(rows, cols)))
    free = tuple(draw(entry) for _ in range(rows))
    x = [draw(small_ints) for _ in range(cols)]
    spanned = tuple(sum((a * b for a, b in zip(row, x)), 0) for row in m)
    return m, [free, spanned], integral


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_elimination_matches_fraction_oracles(case):
    m, rhs_list, integral = case
    assert mat_rank(m) == _fraction_rank(m)
    if integral and all(len(row) == len(m) for row in m):
        assert det(m) == _bareiss_det(m)
    for rhs in rhs_list:
        assert solve_linear(m, rhs) == _fraction_solve(m, rhs)


@st.composite
def spanning_sets(draw):
    """(basis, vectors): r rows in Z^n (1 <= r <= n <= 6) and test vectors.

    The last basis row is sometimes a combination of the others, so the
    rank can fall short.  The first vectors are integer and rational
    combinations of the basis; the last ones are random and usually lie
    outside its span.
    """
    n = draw(st.integers(1, 6))
    r = draw(st.integers(1, n))
    basis = [tuple(draw(small_ints) for _ in range(n)) for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        c = draw(small_ints)
        basis[-1] = tuple(x + c * y for x, y in zip(basis[0], basis[-2]))
    coeff = st.one_of(small_ints, st.builds(Fraction, small_ints, st.integers(1, 6)))
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        cs = [draw(coeff) for _ in range(r)]
        vectors.append(tuple(sum((c * b[i] for c, b in zip(cs, basis)), 0) for i in range(n)))
    spanned = len(vectors)
    vectors += [tuple(draw(small_ints) for _ in range(n)) for _ in range(draw(st.integers(0, 2)))]
    return tuple(basis), vectors, spanned


@settings(max_examples=300, deadline=None)
@given(spanning_sets())
def test_left_inverse_and_basis_coordinates_match_oracle_solve(case):
    basis, vectors, spanned = case
    m = mat_transpose(basis)
    r = len(basis)
    if _fraction_rank(basis) < r:
        with pytest.raises(ValueError, match="independent"):
            left_inverse(m)
        return
    a, d = left_inverse(m)
    assert d != 0
    if len(m) == r:
        assert abs(d) == abs(_bareiss_det(m))
    assert mat_mul(a, m) == tuple(tuple(d if i == j else 0 for j in range(r)) for i in range(r))
    # a^T / d solves the transposed system as the oracle does (free variables 0)
    for y in (tuple(range(1, r + 1)), tuple(v[0] for v in basis)):
        assert tuple(Fraction(x, d) for x in mat_vec(mat_transpose(a), y)) == _fraction_solve(basis, y)
    expected = [_fraction_solve(m, v) for v in vectors]
    assert all(x is not None for x in expected[:spanned])
    assert basis_coordinates(basis, vectors[:spanned]) == expected[:spanned]
    for v, x in zip(vectors[spanned:], expected[spanned:]):
        if x is None:
            with pytest.raises(ValueError, match="not in the span"):
                basis_coordinates(basis, [v])
        else:
            assert basis_coordinates(basis, [v]) == [x]


@settings(max_examples=300, deadline=None)
@given(spanning_sets(), st.data())
def test_span_coordinates_match_oracle_basis_coordinates(case, data):
    # the chart of the basis' span, an anchor that is integer or rational,
    # and the vectors as points from it: the coordinates are the oracle's in
    # the chart's saturated basis, as integer rows over their least common
    # denominator, and a point off the span raises as the oracle does
    basis, vectors, spanned = case
    n = len(basis[0])
    chart = _span_chart(tuple(hnf_column_basis(basis)), n)
    assume(chart[0])
    coord = st.one_of(small_ints, st.builds(Fraction, small_ints, st.integers(1, 6)))
    anchor = tuple(_ratio(x) for x in data.draw(st.tuples(*[coord] * n)))
    points = [tuple(a + x for a, x in zip(anchor, v)) for v in vectors]
    expected = basis_coordinates(chart[0], vectors[:spanned])
    rows, den = _span_coordinates(chart, anchor, points[:spanned])
    assert den == denominator_lcm(x for c in expected for x in c)
    assert all(type(x) is int for r in rows for x in r)
    assert [tuple(_ratio(x, den) for x in r) for r in rows] == expected
    for p, v in zip(points[spanned:], vectors[spanned:]):
        try:
            (x,) = basis_coordinates(chart[0], [v])
        except ValueError:
            with pytest.raises(ValueError, match="off the affine span"):
                _span_coordinates(chart, anchor, [p])
        else:
            ((r,), d) = _span_coordinates(chart, anchor, [p])
            assert tuple(_ratio(y, d) for y in r) == x


def test_left_inverse_rejects_non_integers_and_basis_coordinates_keep_ints():
    with pytest.raises(ValueError, match="non-integer"):
        left_inverse(((Fraction(1, 2), 0), (0, 1)))
    coords = basis_coordinates(((2, 0), (0, 1)), [(4, 3), (1, 0)])
    assert coords == [(2, 3), (Fraction(1, 2), 0)]
    assert type(coords[0][0]) is int and type(coords[1][0]) is Fraction


# --- the inner-product kernel against the generator forms it replaced -------

exact_numbers = st.one_of(small_ints, st.fractions(min_value=-9, max_value=9, max_denominator=6))


def _outcome(fn, *args):
    """fn(*args) with the type of each number, or the type of what it raised."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return "raised", type(exc)
    rows = value if isinstance(value, tuple) else ((value,),)
    return "value", value, [[type(x) for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_numbers, max_size=6), st.lists(exact_numbers, max_size=6))
def test_dot_matches_generator_form_and_rejects_mismatched_lengths(u, v):
    got = _outcome(dot, tuple(u), tuple(v))
    assert got == _outcome(oracle_dot, tuple(u), tuple(v))
    assert (got[0] == "raised") == (len(u) != len(v))


@st.composite
def matrix_pairs(draw):
    """(a, b): a with r rows of length n, b with m >= 1 rows of length c >= 1.

    Half the time m differs from n, or one row of a is one entry short or
    long, so the product is undefined.
    """
    r, n, c = draw(st.integers(0, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = n if draw(st.booleans()) else draw(st.integers(1, 4))
    a = [[draw(exact_numbers) for _ in range(n)] for _ in range(r)]
    if r and draw(st.booleans()):
        row = a[draw(st.integers(0, r - 1))]
        if row and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(exact_numbers))
    b = [[draw(exact_numbers) for _ in range(c)] for _ in range(m)]
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_generator_form_and_rejects_mismatched_shapes(case):
    a, b = case
    got = _outcome(mat_mul, a, b)
    assert got == _outcome(oracle_mat_mul, a, b)
    assert (got[0] == "raised") == any(len(row) != len(b) for row in a)


def test_mat_mul_rejects_rows_against_a_matrix_with_no_rows():
    # b has no rows, so it shows no columns; the generator form never
    # compared a row of a with it and returned one empty row
    assert oracle_mat_mul(((0,),), ()) == ((),)
    with pytest.raises(ValueError, match="rows of length 0"):
        mat_mul(((0,),), ())
    assert mat_mul(((),), ()) == ((),)


def test_det_rejects_a_matrix_that_is_not_square():
    assert det(((1, 2), (3, 4))) == -2
    for m in (((1, 2),), ((1, 2), (3,)), ((1, 2, 3), (4, 5, 6))):
        with pytest.raises(ValueError, match="not square"):
            det(m)
