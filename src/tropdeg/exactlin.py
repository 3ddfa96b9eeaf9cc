"""Exact integer/rational linear algebra kernel.

Vectors are plain tuples of ints (or Fractions where noted), matrices are
tuples of row tuples.  Everything is arbitrary precision; no floats anywhere,
since reflexivity and monodromy verdicts depend on exact offsets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class InvariantError(Exception):
    """An internal invariant of a construction failed: a defect of the package, not of its input.

    It is not a ValueError, so the CLI reports it apart from bad input.
    """


def content(v):
    """gcd of the entries of v (0 for the zero vector).

    Raises ValueError on an entry that is not an integer.
    """
    if all(type(x) is int for x in v):
        return gcd(*v)
    g = 0
    for x in v:
        if x.denominator != 1:
            raise ValueError(f"content of a vector with non-integer entry {x}")
        g = gcd(g, int(x))
    return g


def denominator_lcm(values):
    """Least common multiple of the denominators of ints and Fractions."""
    return lcm(*(x.denominator for x in values))


def clear_fractions(v):
    """v scaled by the lcm of its denominators, as a tuple of ints."""
    if all(type(x) is int for x in v):
        return tuple(v)
    den = denominator_lcm(v)
    return tuple(int(x * den) for x in v)


def primitive(v):
    """v divided by the gcd of its entries.

    Raises ValueError on the zero vector and on a non-integer entry.
    Idempotent.
    """
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(int(x) // g for x in v)


def is_zero(v):
    return all(x == 0 for x in v)


def dot(u, v):
    """The inner product of two sequences of equal length.

    Raises ValueError when the lengths differ, so a vector of the wrong
    dimension never pairs with a prefix of the other.
    """
    if len(u) != len(v):
        raise ValueError(f"inner product of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vneg(v):
    return tuple(-a for a in v)


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    """The product a @ b; raises ValueError when a row of a is not as long as b."""
    n = len(b)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix product needs rows of length {n}")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(dot(row, v) for row in a)


def mat_transpose(a):
    return tuple(zip(*a))


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    The pivot of each of the first ncols columns is the first nonzero entry
    at or below the current rank; later columns (a right-hand side, an
    identity block) are carried along.  Every update divides exactly by the
    previous pivot (Bareiss, Math. Comp. 22, 1968, carried on above the
    pivot as in Montante's method), so all entries stay integers, each row
    is a nonzero multiple of the row plain elimination would give, and every
    pivot ends equal to d, the determinant of the pivot block.

    Returns (pivot columns, d, sign), sign being the parity of the swaps.
    """
    pivots = []
    d = 1
    sign = 1
    for c in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pr = rows[k]
        p = pr[c]
        for i, row in enumerate(rows):
            if i != k:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, pr)]
        pivots.append(c)
        d = p
    return pivots, d, sign


def det(m):
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a matrix that is not square")
    pivots, d, sign = _eliminate([list(row) for row in m], n)
    return sign * d if len(pivots) == n else 0


def mat_rank(m):
    """Rank over the rationals, by fraction-free elimination."""
    rows = [list(clear_fractions(row)) for row in m]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def solve_linear(m, rhs):
    """One rational solution x of m x = rhs, or None if inconsistent.

    Free variables are set to 0.
    """
    cols = len(m[0]) if m else 0
    rows = [list(clear_fractions(tuple(row) + (b,))) for row, b in zip(m, rhs, strict=True)]
    pivots, _, _ = _eliminate(rows, cols)
    if any(row[cols] != 0 for row in rows[len(pivots) :]):
        return None
    x = [0] * cols
    for row, c in zip(rows, pivots):
        x[c] = _ratio(row[cols], row[c])
    return tuple(x)


def left_inverse(m):
    """(a, d) with a @ m = d * I, for an integer n x r matrix m of rank r.

    One fraction-free elimination of [m^T | I_r].  Column j of a is zero
    unless j is a pivot column of m^T, so a^T y / d is the solution of
    m^T x = y that `solve_linear` finds (free variables 0).  For square m,
    d is the determinant of the whole pivot block (see `_eliminate`), so
    |d| = |det m|.  Raises ValueError when the rank is below r or an entry
    is not an integer.
    """
    if any(x.denominator != 1 for row in m for x in row):
        raise ValueError("left inverse of a matrix with a non-integer entry")
    n = len(m)
    r = len(m[0]) if n else 0
    rows = [[int(x) for x in col] + [1 if i == k else 0 for i in range(r)] for k, col in enumerate(zip(*m))]
    pivots, d, _ = _eliminate(rows, n)
    if len(pivots) < r:
        raise ValueError("left inverse needs linearly independent columns")
    a = [[0] * n for _ in range(r)]
    for row, c in zip(rows, pivots):
        for i in range(r):
            a[i][c] = row[n + i]
    return tuple(tuple(row) for row in a), d


def _ratio(num, den=1):
    """num / den in the package's one number form: an int when integral, else a Fraction.

    num and den are ints or Fractions, den nonzero; a float raises
    TypeError.  The geometric kernel sends every number it reads from input
    and every exact division through here, so none of its values is a float
    or a Fraction with denominator 1.
    """
    if type(num) is int and type(den) is int:
        q, r = divmod(num, den)
        return q if r == 0 else Fraction(num, den)
    if den != 1 or type(num) is not Fraction:
        num = Fraction(num, den)
    return num.numerator if num.denominator == 1 else num


def _exgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0.

    When a divides b, t is guaranteed to be 0, so the associated 2x2 transform
    is a plain elimination and never swaps: a fold step leaves a pivot that
    divides its column as it is, and the sweep of `unimodular_completion`
    takes the steps of the retired Smith form (`oracle_smith_normal_form` in
    the tests).
    """
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _fold(vectors, ncoords):
    """(pivots, rest): integer vectors folded by unimodular steps on their first ncoords coordinates.

    For each coordinate c in turn, the vectors with a nonzero c-entry are
    folded into one pivot, a pair at a time: with s a + t b = g = gcd(a, b)
    (`_exgcd`) the step takes (p, v) to (s p + t v, (b/g) p - (a/g) v),
    whose c-entries are g and 0.  The pivot, negated if its c-entry is
    negative, leaves the work.  The pivots come in order of their leading
    coordinate, each with a positive leading entry; rest holds the nonzero
    vectors left zero on the first ncoords coordinates.  Pivots and rest
    span the lattice the vectors span, and later coordinates ride along.
    """
    pivots = []
    work = [list(v) for v in vectors if any(v)]
    for c in range(ncoords):
        nonzero = [v for v in work if v[c]]
        if not nonzero:
            continue
        work = [v for v in work if not v[c]]
        piv = nonzero[0]
        for v in nonzero[1:]:
            a, b = piv[c], v[c]
            g, s, t = _exgcd(a, b)
            ag, bg = a // g, b // g
            w = [bg * x - ag * y for x, y in zip(piv, v)]
            piv = [s * x + t * y for x, y in zip(piv, v)]
            if any(w):
                work.append(w)
        if piv[c] < 0:
            piv = [-x for x in piv]
        pivots.append(piv)
    return pivots, work


def smith_normal_form(m):
    """The Smith diagonal d1 | d2 | ... of an integer matrix: min(rows, cols) nonnegative entries.

    Row and column folds (`_fold`) alternate until every vector left has one
    nonzero entry (Kannan and Bachem, SIAM J. Comput. 8, 1979): each fold is
    unimodular, and the leading entry shrinks until it divides its row and
    column, which a fold then leaves alone.  One sweep of gcd/lcm pairs
    orders the entries left by divisibility.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    vecs, _ = _fold(m, cols)
    while any(sum(map(bool, v)) > 1 for v in vecs):
        vecs, _ = _fold(list(zip(*vecs)), len(vecs))
    d = [next(filter(None, v)) for v in vecs]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d) + (0,) * (min(rows, cols) - len(d))


def hnf_column_basis(vectors):
    """Column-style Hermite basis of the lattice spanned by the given vectors.

    The pivots of one fold (`_fold`), each earlier pivot reduced by the
    later ones, so the basis is canonical (lower-triangular-ish).  Empty
    list for rank 0.
    """
    basis, _ = _fold(vectors, len(vectors[0]) if vectors else 0)
    for k, piv in enumerate(basis):
        c = next(i for i, x in enumerate(piv) if x)
        for b in basis[:k]:
            q = b[c] // piv[c]
            if q:
                b[:] = [x - q * y for x, y in zip(b, piv)]
    return [tuple(b) for b in basis]


def kernel_basis(m):
    """Integer basis of the kernel lattice {x in Z^cols : m x = 0}, in Hermite form.

    The columns of m, each with e_j appended, are folded on m's rows
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4): the
    fold is unimodular, so the e-parts of the vectors it leaves zero there
    are a basis of the kernel.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    _, rest = _fold([col + tuple(int(i == j) for i in range(cols)) for j, col in enumerate(zip(*m))], rows)
    return hnf_column_basis([v[rows:] for v in rest])


def saturate_lattice(vectors, dim):
    """Basis of the saturation (span over Q intersected with Z^dim), in Hermite form."""
    basis = hnf_column_basis(vectors)
    if not basis:
        return []
    if len(basis) == dim:
        return [tuple(r) for r in mat_identity(dim)]
    # saturation = ker(ann) where ann = ker(basis), both over Z
    return kernel_basis(kernel_basis(basis))


def unimodular_completion(v):
    """(u, w): a unimodular u with u @ v = e1 and its inverse w, for primitive v, in one sweep.

    The sweep takes the steps the transform-carrying Smith form
    (`oracle_smith_normal_form` in the tests) takes on the column v: the
    first nonzero entry swapped to the top, each later nonzero entry b
    folded into the top one a by the determinant-1 step [[s, t], [-b/g, a/g]]
    with s a + t b = g (`_exgcd`), and the top row negated if a is left
    negative.  Applied to the identity the steps give u, the same u that
    Smith form gives; their inverses [[a/g, -t], [b/g, s]], applied on the
    right in the same order, give w.  Rows 2..n of u cut out the quotient
    Z^n/Zv, and columns 2..n of w are an integer section of them.  The
    rows of u are the boundary charts the reports write monodromy in, so
    the sweep is kept as it is rather than made a `_fold`.  Raises
    ValueError when v is not primitive.
    """
    if content(v) != 1:
        raise ValueError("vector must be primitive")
    n = len(v)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    wt = [row[:] for row in u]  # w transposed: its columns, so each column step is a row step
    p = next(i for i, x in enumerate(v) if x)
    u[0], u[p] = u[p], u[0]
    wt[0], wt[p] = wt[p], wt[0]
    a = v[p]
    # the entries above p are zero, and the swap leaves v[0] = 0 at p
    for i in range(p + 1, n):
        b = v[i]
        if b:
            g, s, t = _exgcd(a, b)
            c1, c2 = -b // g, a // g
            u0, ui = u[0], u[i]
            u[0] = [s * x + t * y for x, y in zip(u0, ui)]
            u[i] = [c1 * x + c2 * y for x, y in zip(u0, ui)]
            w0, wi = wt[0], wt[i]
            wt[0] = [c2 * x - c1 * y for x, y in zip(w0, wi)]
            wt[i] = [s * y - t * x for x, y in zip(w0, wi)]
            a = g
    if a < 0:
        u[0] = [-x for x in u[0]]
        wt[0] = [-x for x in wt[0]]
    return tuple(map(tuple, u)), tuple(zip(*wt))


class RationalCone:
    """A rational polyhedral cone with both generator and facet descriptions.

    Generators are primitive extreme rays plus, when the cone has a lineality
    space, a +-pair of primitive vectors per lineality basis direction.
    Every generator pairs >= 0 with every facet normal.
    """

    def __init__(self, ambient_dim, generators, facet_normals):
        self.ambient_dim = ambient_dim
        self.generators = tuple(sorted(generators))
        self.facet_normals = tuple(sorted(facet_normals))
        for g in self.generators:
            for h in self.facet_normals:
                if dot(g, h) < 0:
                    raise ValueError("generator violates facet inequality")

    def __repr__(self):
        return f"RationalCone(dim={self.ambient_dim}, rays={list(self.generators)})"


def cone_from_generators(gens, ambient_dim):
    """Build a RationalCone from ray generators, rational ones included.

    The facets of cone(gens) are the facets of P = conv({0} u gens) through
    the origin, plus a +- pair per equation of P's affine span, so `hull`
    finds them; the extreme generators are then picked by rank.
    """
    from .polytope import hull

    gens = sorted({primitive(clear_fractions(g)) for g in gens if not is_zero(g)})
    p = hull([tuple(0 for _ in range(ambient_dim))] + gens)
    normals = {n for n, c in p.facets if c == 0}
    for f, _ in p.equations:
        normals |= {f, vneg(f)}
    normals = sorted(normals)
    return RationalCone(ambient_dim, _extreme_generators(gens, normals, ambient_dim), normals)


def _extreme_generators(gens, facet_normals, ambient_dim):
    """The generators spanning extreme rays, by the rank of their tight facets.

    In a pointed cone g is extreme exactly when the facet normals vanishing
    at g have rank ambient_dim - 1 (the rule `hull` uses for vertices).  A
    cone with a lineality space has no extreme rays; its deduplicated
    generators are kept as they are.
    """
    if mat_rank(facet_normals) < ambient_dim:
        return gens
    return [g for g in gens if mat_rank(tuple(n for n in facet_normals if dot(n, g) == 0)) == ambient_dim - 1]
