"""Lattice polytopes with exact vertex/facet double description.

Convex hulls are computed by exact double description over the integers
(rational input is cleared to a common denominator first): the points are
added one at a time to the hull of a first simplex, and each new facet is an
integer combination of two adjacent old ones, so no Fraction, sub-hull or
Smith normal form enters the hull.  Facet inequalities are stored as
<n, x> >= -c with n primitive and inward, so reflexivity is the field scan
"all offsets equal 1".  Polytopes of lower dimension than their ambient space
carry an explicit affine-span basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

from .exactlin import (
    _eliminate,
    basis_coordinates,
    clear_fractions,
    denominator_lcm,
    dot,
    hnf_column_basis,
    kernel_basis,
    left_inverse,
    mat_rank,
    mat_transpose,
    mat_vec,
    primitive,
    saturate_lattice,
    solve_linear,
    vadd,
    vsub,
)
from .jsonio import num_json, parse_num


def normalize_point(p):
    """Canonical coordinate tuple: ints where integral, Fractions otherwise."""
    out = []
    for x in p:
        f = Fraction(x)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def is_lattice_point(p):
    return all(Fraction(x).denominator == 1 for x in p)


# --- exact hull engine ----------------------------------------------------


def _hull_full_dim(pts, d):
    """All facets of conv(pts), pts integer and affinely spanning R^d, d >= 1.

    Returns the sorted list of (inward primitive normal n, offset c, sorted
    tight index tuple) for the inequalities <n, x> >= -c.

    Double description (Fukuda and Prodon, "Double description method
    revisited", 1996) over the points lifted to (p, 1): a facet is a
    primitive y = (n, c) with y . (p, 1) >= 0 at every point seen so far.
    The facets of a first simplex are the rows of its left inverse; each
    further point drops the facets it violates and, for every pair (kept y+,
    violated y-) of adjacent facets, adds the facet v+ y- - v- y+ through the
    ridge they share, v being the values at the point.  Two facets are
    adjacent when they share at least d - 1 tight points and no third facet
    is tight at all of them (a purely combinatorial test); tight sets are int
    bitmasks over the point indices.
    """
    lifted = [tuple(p) + (1,) for p in pts]
    start, _, _ = _eliminate([list(col) for col in zip(*lifted)], len(lifted))
    a, det = left_inverse(mat_transpose([lifted[j] for j in start]))
    sign = 1 if det > 0 else -1
    simplex = sum(1 << j for j in start)
    # the facet opposite vertex j of the simplex is tight at its other vertices
    facets = [(primitive(tuple(sign * x for x in row)), simplex ^ (1 << j)) for row, j in zip(a, start)]
    for i, q in enumerate(lifted):
        bit = 1 << i
        if simplex & bit:
            continue
        vals = [dot(y, q) for y, _ in facets]
        new = []
        for k, (yk, tk) in enumerate(facets):
            if vals[k] <= 0:
                continue
            for m, (ym, tm) in enumerate(facets):
                if vals[m] >= 0:
                    continue
                shared = tk & tm
                if shared.bit_count() < d - 1 or any(
                    t & shared == shared for j, (_, t) in enumerate(facets) if j != k and j != m
                ):
                    continue
                new.append((primitive(tuple(vals[k] * b - vals[m] * c for b, c in zip(ym, yk))), shared | bit))
        facets = [(y, t | bit if v == 0 else t) for (y, t), v in zip(facets, vals) if v >= 0] + new
    return [(y[:d], y[d], tuple(i for i in range(len(pts)) if t >> i & 1)) for y, t in sorted(facets)]


def _face_facets(pts):
    """Facet tight-sets of conv(pts) inside its own affine span (local idx).

    The package itself reads faces off each hull's own facets and never calls
    this; like `polytope_from_inequalities`, it is kept as the helper of the
    re-hulling face oracle in the tests, and the benchmark tracer wraps it by
    name.
    """
    anchor = min(range(len(pts)), key=lambda i: pts[i])
    raw_diffs = [vsub(p, pts[anchor]) for p in pts]
    den = denominator_lcm(x for v in raw_diffs for x in v)
    diffs = [tuple(int(x * den) for x in v) for v in raw_diffs]
    basis = hnf_column_basis(diffs)
    r = len(basis)
    if r == 0:
        return []
    if len(pts) == r + 1:
        # a simplex: facets are the r-subsets
        return [tuple(j for j in range(r + 1) if j != i) for i in range(r + 1)]
    coords = _span_coordinates(diffs, basis)
    fac = _hull_full_dim(coords, r)
    return [tight for _, _, tight in fac]


def _span_coordinates(diffs, basis):
    """Integer coordinates of difference vectors in a lattice basis of them."""
    coords = basis_coordinates(basis, diffs)
    assert all(c.denominator == 1 for x in coords for c in x)
    return coords


class FaceLattice:
    """Graded face poset of a polytope, faces keyed by vertex index sets."""

    def __init__(self, faces_by_dim, top_dim):
        self.faces_by_dim = faces_by_dim  # dim -> sorted list of frozensets
        self.top_dim = top_dim

    def f_vector(self):
        return tuple(len(self.faces_by_dim.get(d, [])) for d in range(self.top_dim + 1))

    def faces(self, dim):
        return self.faces_by_dim.get(dim, [])

    def euler_alternating_sum(self):
        """Alternating sum over nonempty faces including the full face."""
        return sum((-1) ** d * len(fs) for d, fs in self.faces_by_dim.items() if d >= 0)


class LatticePolytope:
    """A convex polytope with exact vertices and inward facet inequalities.

    Vertices may be rational (slices, fibres); facet normals are primitive
    integer functionals.  Inequalities read <normal, x> >= -offset.  For a
    lower-dimensional polytope, `equations` pins down the affine span and
    `span_basis` is a saturated lattice basis of its direction space.
    """

    def __init__(self, ambient_dim, vertices, facets, equations, span_basis, anchor):
        self.ambient_dim = ambient_dim
        self.vertices = tuple(sorted(normalize_point(v) for v in vertices))
        self.facets = tuple(facets)
        self.equations = tuple(equations)
        self.span_basis = tuple(span_basis)
        self.anchor = normalize_point(anchor) if anchor is not None else None
        self.dim = len(self.span_basis)

    # -- construction

    @staticmethod
    def hull(points):
        if not points:
            raise ValueError("empty point list has no hull")
        pts = sorted(set(normalize_point(p) for p in points))
        ambient = len(pts[0])
        if any(len(p) != ambient for p in pts):
            raise ValueError("points of mixed dimension")
        anchor = pts[0]
        diffs = [vsub(p, anchor) for p in pts]
        den = denominator_lcm(x for v in diffs for x in v)
        int_diffs = [tuple(int(x * den) for x in v) for v in diffs]
        basis = saturate_lattice(int_diffs, ambient)
        d = len(basis)
        # affine-span equations: annihilator functionals of the direction space
        eqs = []
        if d < ambient:
            for f in kernel_basis(tuple(basis)) if basis else [tuple(1 if i == j else 0 for i in range(ambient)) for j in range(ambient)]:
                eqs.append((f, -dot(f, anchor)))
        if d == 0:
            return LatticePolytope(ambient, [anchor], [], eqs, [], anchor)
        facs = _hull_full_dim(_span_coordinates(int_diffs, basis), d)
        # vertices: points whose facets meet in that point alone
        meet = {}
        for n, c, tight in facs:
            for i in tight:
                meet[i] = meet[i].intersection(tight) if i in meet else frozenset(tight)
        verts = [pts[i] for i, face in meet.items() if len(face) == 1]
        # lift facet functionals to ambient integer functionals: with
        # a @ basis^T = dd * I, the functional dd * a^T n takes the values
        # dd^2 * n on the basis, so it is inward and tight where n is
        a, dd = left_inverse(mat_transpose(basis))
        lift = tuple(tuple(dd * x for x in col) for col in zip(*a))
        ambient_facets = []
        for n, c, tight in facs:
            f = primitive(mat_vec(lift, n))
            vals = [dot(f, p) for p in pts]
            lo = min(vals)
            assert frozenset(i for i, v in enumerate(vals) if v == lo) == frozenset(tight)
            off = -lo
            off = int(off) if Fraction(off).denominator == 1 else Fraction(off)
            ambient_facets.append((f, off))
        ambient_facets = sorted(set(ambient_facets))
        return LatticePolytope(ambient, verts, ambient_facets, eqs, basis, anchor)

    @staticmethod
    def from_json(obj):
        verts = [tuple(parse_num(x) for x in v) for v in obj["vertices"]]
        p = LatticePolytope.hull(verts)
        if p.ambient_dim != obj["ambient_dim"]:
            raise ValueError("ambient_dim mismatch in polytope JSON")
        return p

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "vertices": [[num_json(x) for x in v] for v in self.vertices],
        }

    # -- basic predicates

    def key(self):
        return self.vertices

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices and self.ambient_dim == other.ambient_dim

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, ambient={self.ambient_dim}, vertices={len(self.vertices)})"

    def contains(self, point):
        p = normalize_point(point)
        for f, c in self.equations:
            if dot(f, p) != -c:
                return False
        for n, c in self.facets:
            if dot(n, p) < -c:
                return False
        return True

    def contains_strictly(self, point):
        """Membership in the relative interior."""
        p = normalize_point(point)
        for f, c in self.equations:
            if dot(f, p) != -c:
                return False
        for n, c in self.facets:
            if dot(n, p) <= -c:
                return False
        return True

    def barycenter(self):
        k = len(self.vertices)
        return normalize_point(tuple(sum(Fraction(v[i]) for v in self.vertices) / k for i in range(self.ambient_dim)))

    def is_lattice(self):
        return all(is_lattice_point(v) for v in self.vertices)

    def bounding_box(self):
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        return lo, hi

    # -- lattice data

    def lattice_points(self):
        """All integer points of the polytope, in lexicographic order."""
        if self.dim == 0:
            v = self.vertices[0]
            return [v] if is_lattice_point(v) else []
        if self.is_lattice():
            anchor = self.vertices[0]
            coords = basis_coordinates(self.span_basis, [vsub(v, anchor) for v in self.vertices])
            lo = [min(c[i] for c in coords) for i in range(self.dim)]
            hi = [max(c[i] for c in coords) for i in range(self.dim)]
            ranges = [range(_ceil(a), _floor(b) + 1) for a, b in zip(lo, hi)]
            out = []
            for xi in iproduct(*ranges):
                p = anchor
                for c, b in zip(xi, self.span_basis):
                    if c:
                        p = vadd(p, tuple(c * bb for bb in b))
                if self.contains(p):
                    out.append(normalize_point(p))
            return sorted(out)
        lo, hi = self.bounding_box()
        ranges = [range(_ceil(a), _floor(b) + 1) for a, b in zip(lo, hi)]
        return sorted(p for p in iproduct(*ranges) if self.contains(p))

    def normalized_volume(self):
        """dim! times the Euclidean volume within the affine span (an integer)."""
        if self.dim == 0:
            return 1
        anchor = self.vertices[0]
        raw = basis_coordinates(self.span_basis, [vsub(v, anchor) for v in self.vertices])
        den = denominator_lcm(c for x in raw for c in x)
        coords = [tuple(int(c * den) for c in x) for x in raw]
        vol_scaled = _nvol_full_dim(coords, self.dim)
        nv = Fraction(vol_scaled, den**self.dim)
        assert nv.denominator == 1 or not self.is_lattice()
        return int(nv) if nv.denominator == 1 else nv

    def is_simplex(self):
        return len(self.vertices) == self.dim + 1

    def is_elementary_simplex(self):
        """A lattice simplex whose only integral points are its vertices."""
        if not self.is_lattice() or not self.is_simplex():
            return False
        return sorted(self.lattice_points()) == sorted(self.vertices)

    # -- duality

    def polar_dual(self):
        if self.dim < self.ambient_dim or not self.contains_strictly(tuple(0 for _ in range(self.ambient_dim))):
            raise ValueError("polar dual undefined: origin must be interior")
        verts = []
        for n, c in self.facets:
            verts.append(tuple(Fraction(x, 1) / c for x in n))
        return LatticePolytope.hull(verts)

    def is_reflexive(self):
        if self.dim < self.ambient_dim or not self.contains_strictly(tuple(0 for _ in range(self.ambient_dim))):
            raise ValueError("reflexivity undefined: origin must be interior")
        return all(c == 1 for _, c in self.facets)

    # -- algebra

    def translate(self, t):
        return LatticePolytope.hull([vadd(v, t) for v in self.vertices])

    def transform(self, u):
        """Image under the integer matrix u (applied on the left)."""
        return LatticePolytope.hull([tuple(dot(row, v) for row in u) for v in self.vertices])

    def facet_keys(self):
        """Vertex tuples of the facets, read off the facet inequalities.

        Entry i is the sorted tuple of vertices tight at `facets[i]`; no hull
        is computed.  A point has no facets.
        """
        return [tuple(v for v in self.vertices if dot(n, v) == -c) for n, c in self.facets]

    def faces(self):
        """The complete graded face poset, faces as vertex index sets.

        Every proper nonempty face is an intersection of facets, so the faces
        are the facets' vertex-index sets closed under intersection, plus the
        full set and the empty face.
        """
        index = {v: i for i, v in enumerate(self.vertices)}
        facets = {frozenset(index[v] for v in key) for key in self.facet_keys()}
        found = set(facets)
        frontier = facets
        while frontier:
            frontier = {f & g for f in frontier for g in facets} - found - {frozenset()}
            found |= frontier
        found.add(frozenset(range(len(self.vertices))))
        # grade by containment: a face sits one below the lowest face above it
        dims = {}
        for face in sorted(found, key=len, reverse=True):
            dims[face] = min((dims[g] for g in dims if face < g), default=self.dim + 1) - 1
        faces_sorted = {d: sorted((f for f in dims if dims[f] == d), key=sorted) for d in range(self.dim, -1, -1)}
        faces_sorted[-1] = [frozenset()]
        return FaceLattice(faces_sorted, self.dim)


def _nvol_full_dim(coords, d):
    """Normalized volume of conv(coords), full-dimensional in Z^d."""
    if d == 0:
        return 1
    if d == 1:
        return max(c[0] for c in coords) - min(c[0] for c in coords)
    facs = _hull_full_dim(coords, d)
    v0 = coords[0]
    total = 0
    for n, c, tight in facs:
        h = dot(n, v0) + c
        if h == 0:
            continue
        sub = [coords[i] for i in tight]
        anchor = sub[0]
        # the saturated lattice, so facet volumes are measured in the induced
        # lattice of the ambient space rather than the sublattice the
        # differences happen to generate
        diffs = [vsub(p, anchor) for p in sub]
        basis = saturate_lattice(diffs, d)
        total += abs(h) * _nvol_full_dim(_span_coordinates(diffs, basis), d - 1)
    return total


def _ceil(x):
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def _floor(x):
    f = Fraction(x)
    return f.numerator // f.denominator


# --- derived constructions -------------------------------------------------


def hull(points):
    return LatticePolytope.hull(points)


def walls(cells):
    """Each facet key of the cells, mapped to the indices of the cells having it."""
    out = {}
    for ci, cell in enumerate(cells):
        for key in cell.facet_keys():
            out.setdefault(key, []).append(ci)
    return {k: tuple(v) for k, v in sorted(out.items())}


def containing_cell(cells, cell):
    """The first of the cells that contains every vertex of cell, or None."""
    return next((big for big in cells if all(big.contains(v) for v in cell.vertices)), None)


def polytope_from_inequalities(ineqs, equations, ambient_dim):
    """Vertex enumeration of {x : <n,x> >= -c, <f,x> = -e}; bounded inputs only.

    Brute force over every C(m, n) subset of constraints.  The package itself
    intersects polyhedra with `clip_by_halfspace` and never calls this; it is
    kept as the independent reference that tests and the benchmark tracer
    compare against.
    """
    all_eqs = sorted({(tuple(f), Fraction(e)) for f, e in equations})
    ineqs = sorted({(tuple(n), Fraction(c)) for n, c in ineqs})
    rows_eq = [f for f, _ in all_eqs]
    rhs_eq = [-e for _, e in all_eqs]
    n_ineq = len(ineqs)
    need = ambient_dim - mat_rank(tuple(clear_fractions(r) for r in rows_eq)) if rows_eq else ambient_dim
    cand = set()
    for sub in combinations(range(n_ineq), min(need, n_ineq)):
        rows = list(rows_eq) + [ineqs[i][0] for i in sub]
        rhs = list(rhs_eq) + [-ineqs[i][1] for i in sub]
        x = solve_linear(tuple(rows), tuple(rhs))
        if x is None:
            continue
        if mat_rank(tuple(clear_fractions(r) for r in rows)) != ambient_dim:
            continue
        ok = all(dot(f, x) == -e for f, e in all_eqs) and all(dot(n, x) >= -c for n, c in ineqs)
        if ok:
            cand.add(normalize_point(x))
    if not cand:
        return None
    return LatticePolytope.hull(sorted(cand))


def clip_by_halfspace(cell, normal, offset):
    """cell intersected with {<normal, x> >= -offset}, by exact edge clipping.

    The vertices of the clip are the cell's vertices inside the halfspace plus
    the points where edges cross its boundary hyperplane.  Returns the cell
    itself when it lies inside, and None when the intersection is empty; a
    cell touching the hyperplane from outside clips to the touching face.
    """
    vals = [Fraction(dot(normal, v)) + offset for v in cell.vertices]
    if all(v >= 0 for v in vals):
        return cell
    if all(v < 0 for v in vals):
        return None
    verts = list(cell.vertices)
    tight_sets = [frozenset(n for n, c in cell.facets if dot(n, v) == -c) for v in verts]
    eq_rows = tuple(f for f, _ in cell.equations)
    pts = [v for v, val in zip(verts, vals) if val >= 0]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if vals[i] * vals[j] >= 0:
                continue
            # (v_i, v_j) is an edge iff its common tight facets together with
            # the span equations cut out a line
            shared = tuple(tight_sets[i] & tight_sets[j])
            if mat_rank(shared + eq_rows) != cell.ambient_dim - 1:
                continue
            t = vals[i] / (vals[i] - vals[j])
            pts.append(
                normalize_point(
                    tuple(Fraction(a) + t * (Fraction(b) - Fraction(a)) for a, b in zip(verts[i], verts[j]))
                )
            )
    if not pts:
        return None
    return LatticePolytope.hull(sorted(set(normalize_point(p) for p in pts)))


def minkowski_sum(p, q):
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return LatticePolytope.hull([vadd(a, b) for a in p.vertices for b in q.vertices])


def product(p, q):
    return LatticePolytope.hull([a + b for a in p.vertices for b in q.vertices])


def standard_simplex(dim, dilation=1):
    """dilation * Delta^dim, the hull of 0 and dilation*e_i."""
    pts = [tuple(0 for _ in range(dim))]
    for i in range(dim):
        pts.append(tuple(dilation if j == i else 0 for j in range(dim)))
    return LatticePolytope.hull(pts)


def centered_dilated_simplex(dim):
    """(dim+1) * Delta^dim - (1, ..., 1): the reflexive simplex of P^dim."""
    return standard_simplex(dim, dim + 1).translate(tuple(-1 for _ in range(dim)))


def cube(dim, radius=1):
    pts = list(iproduct(*[(-radius, radius)] * dim))
    return LatticePolytope.hull(pts)


def segment(a, b):
    return LatticePolytope.hull([(a,), (b,)])


class NefPartition:
    """A Minkowski decomposition of a reflexive polytope into lattice parts."""

    def __init__(self, parent, parts):
        self.parent = parent
        self.parts = tuple(parts)
        s = parts[0]
        for q in parts[1:]:
            s = minkowski_sum(s, q)
        if s.vertices != parent.vertices:
            raise ValueError("nef partition parts do not sum to the parent polytope")

    def __repr__(self):
        return f"NefPartition(parent dim={self.parent.dim}, {len(self.parts)} parts)"
