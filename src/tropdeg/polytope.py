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

import math
from functools import lru_cache
from itertools import combinations
from itertools import product as iproduct

from .exactlin import (
    _eliminate,
    _ratio,
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
from .jsonio import key_json, parse_num


def normalize_point(p):
    """An input point as a coordinate tuple in the number form of `_ratio`."""
    return tuple(map(_ratio, p))


def barycenter(points):
    """The barycenter of the points: one exact sum per coordinate, divided once."""
    return tuple(_ratio(sum(xs), len(points)) for xs in zip(*points))


def is_lattice_point(p):
    return all(x.denominator == 1 for x in p)


# --- exact hull engine ----------------------------------------------------


def _adjacent(masks, i, j, rank):
    """Whether items i and j of a polytope's double description are adjacent.

    masks[k] is the int bitmask of the constraints tight at item k: facets
    over the points they hold, or vertices over the facets holding them, of
    a polytope of dimension `rank`.  Two items are adjacent when they share
    at least rank - 1 tight constraints and no third item is tight at all of
    them (Fukuda and Prodon's combinatorial test).
    """
    shared = masks[i] & masks[j]
    return shared.bit_count() >= rank - 1 and not any(
        m & shared == shared for k, m in enumerate(masks) if k != i and k != j
    )


def _facets_of(incidence, face):
    """{mask: k}: the facets of a face, each with the first facet k of the polytope giving it.

    face is a face's vertex bitmask and incidence[k] facet k's.  The face's
    facets are the inclusion-maximal proper nonempty masks face & incidence[k]
    (Kaibel and Pfetsch, Comput. Geom. 23, 2002).
    """
    tight = {}
    for k, m in enumerate(incidence):
        m &= face
        if m and m != face:
            tight.setdefault(m, k)
    return {m: k for m, k in tight.items() if not any(m & o == m != o for o in tight)}


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def tight_at(facet, points):
    """Whether the facet inequality (n, c) is tight at every point: the package's one such test."""
    n, c = facet
    return all(dot(n, p) == -c for p in points)


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
    ridge they share, v being the values at the point.  Adjacency is the
    combinatorial test `_adjacent` on the facets' tight sets, int bitmasks
    over the point indices.
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
        masks = [t for _, t in facets]
        new = []
        for k, (yk, tk) in enumerate(facets):
            if vals[k] <= 0:
                continue
            for m, (ym, tm) in enumerate(facets):
                if vals[m] >= 0:
                    continue
                if _adjacent(masks, k, m, d):
                    y = primitive(tuple(vals[k] * b - vals[m] * c for b, c in zip(ym, yk)))
                    new.append((y, tk & tm | bit))
        facets = [(y, t | bit if v == 0 else t) for (y, t), v in zip(facets, vals) if v >= 0] + new
    return [(y[:d], y[d], tuple(i for i in range(len(pts)) if t >> i & 1)) for y, t in sorted(facets)]


def _face_facets(pts):
    """Facet tight-sets of conv(pts) inside its own affine span (local idx).

    The package itself reads faces off each hull's own facets and never calls
    this; like `polytope_from_inequalities`, it is kept as the helper of the
    re-hulling face oracle in the tests, and the benchmark tracer wraps it by
    name.
    """
    chart = _lattice_chart(pts)
    r = len(chart[0])
    if r == 0:
        return []
    if len(pts) == r + 1:
        # a simplex: facets are the r-subsets
        return [tuple(j for j in range(r + 1) if j != i) for i in range(r + 1)]
    rows, _ = _span_coordinates(chart, pts[0], pts)
    return [tight for _, _, tight in _hull_full_dim(rows, r)]


@lru_cache(maxsize=32)
def _span_chart(key, ambient):
    """(basis, a, dd, annihilators): the lattice chart of a linear span.

    key is the Hermite basis (`hnf_column_basis`) of integer vectors
    spanning it, and the chart depends on the span alone, so one chart
    serves every polytope with that span.  basis is the saturated lattice
    basis of the span, in echelon form; a @ basis^T = dd * I is one left
    inverse, whose columns vanish off the basis' pivot coordinates; and the
    annihilators are integer functionals cutting out the span (none when it
    is the whole space).  Every entry is a tuple of ints, so the memo holds
    no reference to a polytope.  It is kept small: a run meets few spans
    at a time, and each module import holds its own memo until collected.
    """
    basis = tuple(saturate_lattice(key, ambient))
    # an already saturated key is the basis: keep one copy of its tuples
    if basis == key:
        basis = key
    a, dd = left_inverse(mat_transpose(basis))
    if len(basis) == ambient:
        annihilators = ()
    elif basis:
        annihilators = tuple(kernel_basis(basis))
    else:
        annihilators = tuple(tuple(1 if i == j else 0 for i in range(ambient)) for j in range(ambient))
    return basis, a, dd, annihilators


@lru_cache(maxsize=128)
def _facet_chart(basis, normal):
    """The span chart of the hyperplane section {<normal, x> = const} of a span with saturated echelon basis.

    normal is an integer functional not constant on the span.  The section's
    lattice is the span's on which normal vanishes: the kernel of the
    integer row basis . normal, lifted through basis.  The kernel is
    saturated and so is the basis, so the lift is the section's saturated
    lattice, and its Hermite basis keys `_span_chart` to the chart
    `_lattice_chart` finds from the section's vertices.  A facet's chart is
    its polytope's basis cut by the facet normal; few hyperplanes recur, so
    the memo is keyed on int tuples only, like `_span_chart`.
    """
    lifted = [tuple(dot(column, t) for column in zip(*basis)) for t in kernel_basis((mat_vec(basis, normal),))]
    return _span_chart(tuple(hnf_column_basis(lifted)), len(normal))


def _lift(chart, n):
    """The ambient functional dd * a^T n, which takes the values dd^2 * n on the basis.

    So a functional n on span coordinates lifts to one that is inward and
    tight where n is, and vanishes off the basis' pivot coordinates.
    """
    _, a, dd, _ = chart
    return tuple(dd * dot(column, n) for column in zip(*a))


def _cleared_differences(anchor, points):
    """(ws, s): the differences p - anchor times s, their least common denominator, as int tuples.

    One common factor leaves the span of the differences, and so the chart,
    unchanged.
    """
    diffs = [vsub(p, anchor) for p in points]
    s = denominator_lcm(x for v in diffs for x in v)
    return [tuple(int(x * s) for x in v) for v in diffs], s


def _lattice_chart(points):
    """The span chart of the affine span of normalized points."""
    ws, _ = _cleared_differences(points[0], points)
    return _span_chart(tuple(hnf_column_basis(ws)), len(points[0]))


def _span_coordinates(chart, anchor, points):
    """(rows, den): the coordinates of the points from anchor in the chart's basis.

    The package's one change into span coordinates.  The coordinates are
    rows / den with integer rows and den > 0 their least common denominator,
    so points of the saturated lattice through anchor get den = 1.  Raises
    ValueError on a point off the affine span, which some annihilator of the
    chart does not vanish on.
    """
    ws, s = _cleared_differences(anchor, points)
    if any(dot(f, w) for f in chart[3] for w in ws):
        raise ValueError("point off the affine span of the chart")
    return _cleared_coordinates(chart, ws, s)


def _cleared_coordinates(chart, ws, s):
    """`_span_coordinates` of differences cleared by s (`_cleared_differences`), known to lie on the span.

    All in integers: the chart's left inverse gives the coordinates
    a (s (p - anchor)) / (dd s).
    """
    _, a, dd, _ = chart
    raw = [[dot(row, w) for row in a] for w in ws]
    scale = dd * s
    g = math.gcd(scale, *(x for r in raw for x in r))
    if scale < 0:
        g = -g
    return [tuple(x // g for x in r) for r in raw], scale // g


def _span_points(chart, pivots, origin, box):
    """The integer points of the affine span through origin over a pivot box.

    For each tuple of pivot coordinates in box, the chart's left inverse,
    which vanishes off the pivots, gives the span coordinates t = a (x -
    origin) / dd, and the point is origin + t @ basis; a point with a
    non-integer coordinate is skipped.  All in integers: with den clearing
    origin, den * dd * point = dd * den * origin + (den * a (x - origin)) @ basis.
    """
    basis, a, dd, _ = chart
    den = denominator_lcm(origin)
    o = [int(x * den) for x in origin]
    rows = [[row[p] for p in pivots] for row in a]
    scale = den * dd
    for xp in box:
        w = [sum(r * (den * x - o[p]) for r, x, p in zip(row, xp, pivots)) for row in rows]
        point = []
        for j, oj in enumerate(o):
            q, r = divmod(dd * oj + sum(wi * b[j] for wi, b in zip(w, basis)), scale)
            if r:
                break
            point.append(q)
        else:
            yield tuple(point)


def _facet(chart, functional, vertex):
    """The facet inequality (n, c) of the functional, least over the polytope at vertex.

    n is the one representative `hull` finds: the primitive lift of the
    functional's values on the span basis, which vanishes off the basis'
    pivot coordinates; c is read off the vertex, one of those the facet
    holds.
    """
    basis = chart[0]
    g = clear_fractions(functional)
    n = primitive(g if len(basis) == len(g) else _lift(chart, mat_vec(basis, g)))
    return n, _ratio(-dot(n, vertex))


def _vertex_indices(tights):
    """The sorted indices of the points alone in the meet of the facets holding them: the vertices.

    tights[k] holds the indices of the points tight at facet k of the
    polytope the points span.  A point on a face of dimension 1 or more is
    in the meet of its facets with that face's vertices; a point on no
    facet is in no meet.
    """
    meet = {}
    for tight in tights:
        for i in tight:
            meet[i] = meet[i].intersection(tight) if i in meet else frozenset(tight)
    return sorted(i for i, face in meet.items() if len(face) == 1)


def _low(mask):
    """The index of the lowest set bit of a nonzero bitmask."""
    return (mask & -mask).bit_length() - 1


def _assemble(chart, vertices, facets, incidence):
    """The LatticePolytope with these vertices, facet inequalities and incidence, and no hull.

    This is the one place a polytope is put together: `hull` passes the
    facets and tight sets its double description finds, and every other
    construction passes facets and incidences it reads off the cells it is
    made from.  The vertices are distinct tuples in the number form of
    `_ratio` and span the chart's span; each facet is (n, c) in the form
    `_facet` gives, and incidence[k] is the bitmask of the vertices, in the
    order given, tight at facets[k].  The vertices are sorted and the
    facets sorted and made distinct, the incidence re-indexed with them.
    The equations are the chart's annihilators through the least vertex,
    which is also the anchor, and the polytope keeps the chart.
    """
    order = sorted(range(len(vertices)), key=vertices.__getitem__)
    if any(i != j for i, j in enumerate(order)):
        moved = [0] * len(order)
        for j, i in enumerate(order):
            moved[i] = 1 << j
        incidence = [sum(moved[i] for i in _bits(m)) for m in incidence]
        vertices = [vertices[i] for i in order]
    table = dict(zip(facets, incidence))
    facets = sorted(table)
    eqs = [(f, _ratio(-dot(f, vertices[0]))) for f in chart[3]]
    return LatticePolytope(vertices, facets, eqs, chart, tuple(table[f] for f in facets))


class LatticePolytope:
    """A convex polytope with exact vertices and inward facet inequalities.

    Vertices may be rational (slices, fibres); facet normals are primitive
    integer functionals.  Inequalities read <normal, x> >= -offset.  For a
    lower-dimensional polytope, `equations` pins down the affine span.  The
    polytope keeps the span chart it is built with (`chart`); its saturated
    `span_basis`, anchor (least vertex) and dimensions are read off it and
    the vertices.  `incidence[k]` is the bitmask of the indices of the
    vertices tight at `facets[k]`.  Every coordinate, offset and constant is
    an int or a Fraction with denominator above 1, and the vertices and
    facets are sorted, as the constructions (`_assemble`) make them; the
    constructor takes them as they are.
    """

    def __init__(self, vertices, facets, equations, chart, incidence):
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.equations = tuple(equations)
        self.chart = chart
        self.incidence = incidence
        self.anchor = self.vertices[0]
        self.ambient_dim = len(self.anchor)
        self.span_basis = chart[0]
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
        # the differences from the anchor are cleared once, for the chart and the coordinates
        ws, s = _cleared_differences(pts[0], pts)
        chart = _span_chart(tuple(hnf_column_basis(ws)), ambient)
        d = len(chart[0])
        if d == 0:
            return _assemble(chart, pts, [], [])
        facs = _hull_full_dim(_cleared_coordinates(chart, ws, s)[0], d)
        # the points are sorted, so the vertices are too, and vertex j is point index[j]
        index = _vertex_indices([tight for _, _, tight in facs])
        bit = {i: 1 << j for j, i in enumerate(index)}
        # a lifted facet functional is inward and tight where n is
        facets = []
        incidence = []
        for n, c, tight in facs:
            f = primitive(_lift(chart, n))
            vals = [dot(f, p) for p in pts]
            lo = min(vals)
            assert frozenset(i for i, v in enumerate(vals) if v == lo) == frozenset(tight)
            facets.append((f, _ratio(-lo)))
            incidence.append(sum(bit.get(i, 0) for i in tight))
        return _assemble(chart, [pts[i] for i in index], facets, incidence)

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
            "vertices": key_json(self.vertices),
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
        return all(dot(f, point) == -c for f, c in self.equations) and all(dot(n, point) >= -c for n, c in self.facets)

    def contains_strictly(self, point):
        """Membership in the relative interior."""
        return all(dot(f, point) == -c for f, c in self.equations) and all(dot(n, point) > -c for n, c in self.facets)

    def barycenter(self):
        return barycenter(self.vertices)

    def is_lattice(self):
        return all(is_lattice_point(v) for v in self.vertices)

    def bounding_box(self):
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        return lo, hi

    # -- lattice data

    def lattice_points(self, dilation=1):
        """All integer points of dilation * self, in lexicographic order.

        The dilate is read off the polytope's own data: its equation
        constants and facet offsets scale by the dilation (a nonnegative
        integer), and its vertices by the dilation give the box to scan.
        Only the box of the span's pivot coordinates is scanned: the span
        basis is in echelon form, so a point of the span is fixed by those
        coordinates, in the same lexicographic order, and `_span_points`
        solves for the others.  Each integer point is tested against the
        scaled constraints directly, so no hull is taken and no point is
        normalized; rational polytopes are counted exactly too.
        """
        lo, hi = self.bounding_box()
        equations = [(f, -dilation * c) for f, c in self.equations]
        facets = [(n, -dilation * c) for n, c in self.facets]
        chart = self.chart
        pivots = [next(i for i, x in enumerate(b) if x) for b in chart[0]]
        box = iproduct(*(range(math.ceil(dilation * lo[i]), math.floor(dilation * hi[i]) + 1) for i in pivots))
        if len(pivots) < self.ambient_dim:
            box = _span_points(chart, pivots, tuple(dilation * x for x in self.vertices[0]), box)
        return [p for p in box if all(dot(f, p) == e for f, e in equations) and all(dot(n, p) >= e for n, e in facets)]

    def face(self, normal, offset):
        """The face cut out by the supporting hyperplane <normal, x> = -offset.

        Its vertices are the vertices on the hyperplane (`_support_mask`, `face_from_mask`).
        Raises ValueError when the hyperplane misses the polytope or cuts
        through it.
        """
        mask = _support_mask([dot(normal, v) + offset for v in self.vertices])
        if not mask:
            raise ValueError("the hyperplane does not support the polytope")
        return self.face_from_mask(mask)

    def face_from_mask(self, mask):
        """The face with the vertices indexed by the bitmask, and no hull.

        Its facets are `_facets_of` it, each reduced to the face's own span
        chart, and their vertex masks are the parent's, compressed to the
        face's vertices.  A facet's chart is the polytope's cut by the facet
        normal (`_facet_chart`).  The full mask gives the polytope itself.
        """
        if mask == (1 << len(self.vertices)) - 1:
            return self
        verts = self.vertices_of(mask)
        incidence = self.incidence
        if mask in incidence:
            chart = _facet_chart(self.span_basis, self.facets[incidence.index(mask)][0])
        else:
            chart = _lattice_chart(verts)
        facets = _facets_of(incidence, mask)
        bits = _bits(mask)
        return _assemble(
            chart,
            verts,
            [_facet(chart, self.facets[k][0], self.vertices[_low(m)]) for m, k in facets.items()],
            [sum(1 << j for j, i in enumerate(bits) if m >> i & 1) for m in facets],
        )

    def vertices_of(self, mask):
        """The vertices whose index is in the bitmask, in order."""
        return tuple(self.vertices[i] for i in _bits(mask))

    def normalized_volume(self):
        """dim! times the Euclidean volume within the affine span (an integer)."""
        if self.dim == 0:
            return 1
        rows, den = _span_coordinates(self.chart, self.anchor, self.vertices)
        nv = _ratio(_nvol_full_dim(rows, self.dim), den**self.dim)
        assert nv.denominator == 1 or not self.is_lattice()
        return nv

    def is_simplex(self):
        return len(self.vertices) == self.dim + 1

    def is_elementary_simplex(self):
        """A lattice simplex whose only integral points are its vertices."""
        if not self.is_lattice() or not self.is_simplex():
            return False
        return self.lattice_points() == list(self.vertices)

    # -- duality

    def polar_dual(self):
        if self.dim < self.ambient_dim or not self.contains_strictly(tuple(0 for _ in range(self.ambient_dim))):
            raise ValueError("polar dual undefined: origin must be interior")
        return LatticePolytope.hull([tuple(_ratio(x, c) for x in n) for n, c in self.facets])

    def is_reflexive(self):
        if self.dim < self.ambient_dim or not self.contains_strictly(tuple(0 for _ in range(self.ambient_dim))):
            raise ValueError("reflexivity undefined: origin must be interior")
        return all(c == 1 for _, c in self.facets)

    # -- algebra

    def translate(self, t):
        return LatticePolytope.hull([vadd(v, t) for v in self.vertices])

    def facet_keys(self):
        """Entry i is the sorted tuple of vertices tight at `facets[i]`, read off the incidence."""
        return [self.vertices_of(m) for m in self.incidence]


def _face_masks(incidence, nverts, dim):
    """The nonempty faces of a polytope as vertex bitmasks by dimension, from the top down.

    They depend on the incidence, the vertex count and the dimension alone.
    Each level is the facets (`_facets_of`) of the level above, sorted by
    vertex indices, so no containment scan grades them.
    """
    level = [(1 << nverts) - 1]
    out = {dim: level}
    for d in range(dim - 1, -1, -1):
        level = out[d] = sorted({m for face in level for m in _facets_of(incidence, face)}, key=_bits)
    return out


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
        # the saturated lattice, so facet volumes are measured in the induced
        # lattice of the ambient space rather than the sublattice the
        # differences happen to generate
        rows, _ = _span_coordinates(_lattice_chart(sub), sub[0], sub)
        total += abs(h) * _nvol_full_dim(rows, d - 1)
    return total


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
    all_eqs = sorted({(tuple(f), e) for f, e in equations})
    ineqs = sorted({(tuple(n), c) for n, c in ineqs})
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
            cand.add(x)
    if not cand:
        return None
    return LatticePolytope.hull(sorted(cand))


def clip_by_halfspace(cell, normal, offset):
    """cell intersected with {<normal, x> >= -offset}, by one double-description step.

    Returns the cell itself when it lies inside, and None when the
    intersection is empty; a cell touching the hyperplane from outside clips
    to the touching face (`LatticePolytope.face`).  When the cut crosses the
    cell, the clip keeps the cell's span and chart; its vertices are the
    cell's vertices inside the halfspace plus the points where edges cross
    the hyperplane (`_crossings`), and its facets are the cell's facets
    holding a vertex strictly inside, verbatim, plus the cut.  A kept vertex
    keeps its facets and a crossing has those of its edge, so the incidence
    is read off the cell's.  No hull is taken.
    """
    vals = [dot(normal, v) + offset for v in cell.vertices]
    if all(v >= 0 for v in vals):
        return cell
    if all(v < 0 for v in vals):
        return None
    if all(v <= 0 for v in vals):
        return cell.face(normal, offset)
    masks = _transpose(cell.incidence, range(len(vals)))
    kept = [(v, m, val == 0) for v, m, val in zip(cell.vertices, masks, vals) if val >= 0]
    kept += [(p, m, True) for p, m in _crossings(cell, vals, masks)]
    pts = [p for p, _, _ in kept]
    inside = 0
    for mask, val in zip(masks, vals):
        if val > 0:
            inside |= mask
    held = [k for k in range(len(cell.facets)) if inside >> k & 1]
    cut = sum(1 << i for i, (_, _, on) in enumerate(kept) if on)
    facets = [cell.facets[k] for k in held] + [_facet(cell.chart, normal, pts[_low(cut)])]
    return _assemble(cell.chart, pts, facets, _transpose([m for _, m, _ in kept], held) + [cut])


def section(cell, f, t):
    """cell intersected with the hyperplane {<f, x> = t}, by one double-description step.

    Returns None when the intersection is empty, and the face on the
    hyperplane (`_support_mask`, `LatticePolytope.face_from_mask`) when the
    hyperplane only touches the cell or holds it.  When it crosses the cell,
    the section's vertices are the cell's vertices on it plus the points where edges cross it
    (`_crossings`), each with its facets or its edge's, and its facets are
    `_facets_of` that incidence, each a cell facet reduced to the section's
    chart, the cell's cut by f (`_facet_chart`).  No hull is taken.
    """
    vals = [dot(f, v) - t for v in cell.vertices]
    face = _support_mask(vals)
    if face is not None:
        return cell.face_from_mask(face) if face else None
    masks = _transpose(cell.incidence, range(len(vals)))
    cut = [(v, m) for v, m, val in zip(cell.vertices, masks, vals) if val == 0] + _crossings(cell, vals, masks)
    pts = [p for p, _ in cut]
    chart = _facet_chart(cell.span_basis, primitive(clear_fractions(f)))
    facets = _facets_of(_transpose([m for _, m in cut], range(len(cell.facets))), (1 << len(pts)) - 1)
    return _assemble(chart, pts, [_facet(chart, cell.facets[k][0], pts[_low(m)]) for m, k in facets.items()], list(facets))


def _support_mask(vals):
    """The vertex mask of a hyperplane's face of a cell, 0 when it misses the cell and None when it crosses it.

    vals are an affine function's values at the cell's vertices.
    """
    if min(vals) < 0 < max(vals):
        return None
    return sum(1 << i for i, x in enumerate(vals) if x == 0)


def _transpose(masks, indices):
    """Entry j is the bitmask of the items i whose masks[i] has bit indices[j] set."""
    return [sum(1 << i for i, m in enumerate(masks) if m >> k & 1) for k in indices]


def _crossings(cell, vals, masks):
    """Each point where an edge of the cell crosses the hyperplane on which vals vanish, with the edge's facet mask.

    vals[i] is an affine function's value at vertex i, and masks[i] the
    bitmask of the facets tight at vertex i; an edge is a pair of vertices
    on opposite sides that `_adjacent` finds, and the facets tight at a point
    inside it are those holding both ends.
    """
    verts = cell.vertices
    out = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if vals[i] * vals[j] >= 0 or not _adjacent(masks, i, j, cell.dim):
                continue
            # the crossing a + t (b - a), t = vals[i] / (vals[i] - vals[j]), divided once
            gap = vals[i] - vals[j]
            out.append((tuple(_ratio(vals[i] * b - vals[j] * a, gap) for a, b in zip(verts[i], verts[j])), masks[i] & masks[j]))
    return out


def graph_points(cell, pieces):
    """The points (v, f_1(v), ..., f_r(v)) over the cell's vertices, in their order, for the affine (coeffs, const) in pieces.

    Each f is taken over its least common denominator, so a value is one
    integer inner product and one division.
    """
    cleared = []
    for a, b in pieces:
        den = denominator_lcm((*a, b))
        cleared.append(([int(x * den) for x in a], int(b * den), den))
    return [v + tuple(_ratio(dot(a, v) + b, den) for a, b, den in cleared) for v in cell.vertices]


def minkowski_sum(p, q):
    if p.ambient_dim != q.ambient_dim:
        raise ValueError("dimension mismatch in Minkowski sum")
    return LatticePolytope.hull([vadd(a, b) for a in p.vertices for b in q.vertices])


def product(p, q):
    """p x q, read off its factors with no hull.

    Its vertices are the pairs of vertices, and its facets are each factor's
    facets padded with zeros, reduced to the product's span chart (`_facet`).
    Pair (i, j) is vertex i * len(q.vertices) + j, and a padded facet is
    tight at the pairs whose entry from its factor is tight at it.  The
    product's lattice is the sum of its factors', so its Hermite basis is
    their bases padded, one after the other, and keys its chart.
    """
    verts = [a + b for a in p.vertices for b in q.vertices]
    zp, zq = (0,) * p.ambient_dim, (0,) * q.ambient_dim
    chart = _span_chart(tuple(b + zq for b in p.span_basis) + tuple(zp + b for b in q.span_basis), len(verts[0]))
    functionals = [n + zq for n, _ in p.facets] + [zp + m for m, _ in q.facets]
    nq = len(q.vertices)
    incidence = [sum(1 << i * nq for i in _bits(m)) * ((1 << nq) - 1) for m in p.incidence]
    incidence += [m * sum(1 << i * nq for i in range(len(p.vertices))) for m in q.incidence]
    return _assemble(chart, verts, [_facet(chart, f, verts[_low(m)]) for f, m in zip(functionals, incidence)], incidence)


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
