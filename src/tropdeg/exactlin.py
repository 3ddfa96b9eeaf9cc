"""Exact integer/rational linear algebra kernel.

Vectors are plain tuples of ints (or Fractions where noted), matrices are
tuples of row tuples.  Everything is arbitrary precision; no floats anywhere,
since reflexivity and monodromy verdicts depend on exact offsets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

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
    is a plain elimination and never swaps; the clearing loops rely on this.
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


def smith_normal_form(m):
    """Smith normal form with transforms.

    Returns (S, U, V) with S = U @ m @ V, U and V unimodular, S diagonal with
    nonnegative entries d1 | d2 | ...
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = [list(r) for r in mat_identity(rows)]
    v = [list(r) for r in mat_identity(cols)]

    def row_op(i, j, g, s, t, ai, aj):
        # rows i,j <- (s*i + t*j, (-aj/g)*i + (ai/g)*j); determinant 1
        c1, c2 = -aj // g, ai // g
        for mat in (a, u):
            ri, rj = mat[i], mat[j]
            mat[i] = [s * x + t * y for x, y in zip(ri, rj)]
            mat[j] = [c1 * x + c2 * y for x, y in zip(ri, rj)]

    def col_op(i, j, g, s, t, ai, aj):
        c1, c2 = -aj // g, ai // g
        for mat in (a, v):
            for row in mat:
                x, y = row[i], row[j]
                row[i] = s * x + t * y
                row[j] = c1 * x + c2 * y

    def clear_pivot(k):
        """Alternate row/column gcd steps until row k and column k are clear."""
        while True:
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    g, s, t = _exgcd(a[k][k], a[i][k])
                    row_op(k, i, g, s, t, a[k][k], a[i][k])
            changed = False
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    g, s, t = _exgcd(a[k][k], a[k][j])
                    col_op(k, j, g, s, t, a[k][k], a[k][j])
                    changed = True
            if not changed or all(a[i][k] == 0 for i in range(k + 1, rows)):
                if all(a[i][k] == 0 for i in range(k + 1, rows)) and all(
                    a[k][j] == 0 for j in range(k + 1, cols)
                ):
                    return

    n = min(rows, cols)
    for k in range(n):
        while True:
            piv = next(
                ((i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j] != 0),
                None,
            )
            if piv is None:
                break
            pi, pj = piv
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                u[k], u[pi] = u[pi], u[k]
            if pj != k:
                for mat in (a, v):
                    for row in mat:
                        row[k], row[pj] = row[pj], row[k]
            clear_pivot(k)
            # enforce d_k | everything in the remaining block, else fold the
            # offending row into row k and redo the clearing
            bad = next(
                (
                    i
                    for i in range(k + 1, rows)
                    for j in range(k + 1, cols)
                    if a[i][j] % a[k][k] != 0
                ),
                None,
            )
            if bad is None:
                break
            for mat in (a, u):
                mat[k] = [x + y for x, y in zip(mat[k], mat[bad])]
    # normalize signs into U
    for k in range(n):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return (
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )


def snf_diagonal(m):
    s, _, _ = smith_normal_form(m)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)))


def is_integrally_surjective(m):
    """True iff m: Z^cols -> Z^rows is onto, i.e. the SNF has rows many 1s."""
    rows = len(m)
    if rows == 0:
        return True
    d = snf_diagonal(m)
    return len(d) >= rows and all(d[i] == 1 for i in range(rows))


def hnf_column_basis(vectors):
    """Column-style Hermite basis of the lattice spanned by the given vectors.

    Returns a list of r independent integer vectors spanning the same lattice,
    in a canonical (lower-triangular-ish) form.  Empty list for rank 0.
    """
    vecs = [list(v) for v in vectors if not is_zero(v)]
    if not vecs:
        return []
    dim = len(vecs[0])
    basis = []
    work = vecs
    for c in range(dim):
        nonzero = [v for v in work if v[c] != 0]
        rest = [v for v in work if v[c] == 0]
        if not nonzero:
            work = rest
            continue
        # fold the vectors with nonzero c-entry into one pivot, a pair at a
        # time: with s a + t b = g = gcd(a, b) (`_exgcd`) the unimodular step
        # takes (p, v) to (s p + t v, (b/g) p - (a/g) v), whose c-entries are
        # g and 0
        piv = nonzero[0]
        for v in nonzero[1:]:
            a, b = piv[c], v[c]
            g, s, t = _exgcd(a, b)
            ag, bg = a // g, b // g
            w = [bg * x - ag * y for x, y in zip(piv, v)]
            piv = [s * x + t * y for x, y in zip(piv, v)]
            if any(w):
                rest.append(w)
        if piv[c] < 0:
            piv = [-x for x in piv]
        # reduce earlier pivots against this one for canonicity
        for b in basis:
            if b[c] != 0:
                q = b[c] // piv[c]
                for i in range(dim):
                    b[i] -= q * piv[i]
        basis.append(piv)
        work = rest
    return [tuple(b) for b in basis]


def kernel_basis(m):
    """Integer basis of the kernel lattice {x in Z^cols : m x = 0}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [tuple(mat_identity(cols)[i]) for i in range(cols)]
    s, _, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(rows, cols)) if s[i][i] != 0)
    vt = mat_transpose(v)
    return [vt[j] for j in range(rank, cols)]


def saturate_lattice(vectors, dim):
    """Basis of the saturation (span over Q intersected with Z^dim)."""
    basis = hnf_column_basis(vectors)
    if not basis:
        return []
    if len(basis) == dim:
        return [tuple(r) for r in mat_identity(dim)]
    # saturation = ker(ann) where ann = ker(basis), both over Z
    return hnf_column_basis(kernel_basis(tuple(kernel_basis(tuple(basis)))))


def complete_to_unimodular(v):
    """A unimodular matrix U with U @ v = e1, for primitive v.

    Rows 2..n of U give a basis of functionals cutting out the quotient Z^n/Zv.
    """
    if content(v) != 1:
        raise ValueError("vector must be primitive")
    s, u, vv = smith_normal_form(tuple((x,) for x in v))
    assert s[0][0] == 1
    if vv[0][0] == -1:
        u = tuple(tuple(-x for x in row) for row in u)
    assert mat_vec(u, v) == tuple(1 if i == 0 else 0 for i in range(len(v)))
    return u


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
