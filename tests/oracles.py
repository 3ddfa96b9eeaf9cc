"""Retired implementations, kept verbatim as the tests' independent oracles.

The lattice-point enumerator: `LatticePolytope.lattice_points` scans the
box of every pivot coordinate of a dilate's span but the last, and on each
row runs the last over the interval its facets, pulled back to the pivot
coordinates, cut; the pull-back is made once per polytope, per unit
dilation, and a full-dimensional span's rows are its points.  The same scan
as it was before (`oracle_lattice_points`) pulls every facet back again at
each dilation (`_oracle_pivot_cuts`) and copies every point through the
solver (`_oracle_solved_span_points`), full-dimensional or not.  The scan
before that (`oracle_box_lattice_points`) runs over the whole pivot box and
tests every candidate against the dilate's scaled equations and facet
inequalities.  The enumerator before that (`oracle_basis_lattice_points`)
scans a lattice polytope in coordinates of its saturated span basis, a
rational one over its bounding box, and sends every candidate through
`contains`.  The ring and criterion-6 oracles count through it, so they do
not share the primitive they check.

The hull's lattice chart: `LatticePolytope.hull` reads the span basis,
integer coordinates and facet lift off one left inverse of the memoized span
chart (`_span_chart`).  The hull it replaced took the coordinates through
`basis_coordinates` and a second left inverse for the lift.

The span coordinates: `polytope._span_coordinates(chart, anchor, points)`
reads the left inverse of the chart a polytope keeps and returns integer
rows over their least common denominator, raising off the span by the
chart's annihilators.  `basis_coordinates`, which it replaced in the
volume, `regular_subdivision`, `embed_D` and the SVG net, made a fresh left
inverse of the basis on every call and tested the span by multiplying back.

The clip's edge test: `clip_by_halfspace` finds the edges a cut crosses with
the combinatorial adjacency test `_adjacent` on facet bitmasks.  The clip it
replaced ran one rank computation per pair of vertices on opposite sides.

The deepest-stratum embedding: `embed.embed_D` builds one table of fibres
over (1,...,1) with every host of each fibre, and `embed.barycenter_fibre`
slices the host cells by the simplex map.  The `embed_D` it replaced kept
only the last host written for each fibre, and the `barycenter_fibre` it
replaced repeated that fibre loop.

The vertex-facet incidence: `LatticePolytope.incidence` holds, per facet,
the bitmask of the vertices tight on it, handed to `_assemble` by the
construction that makes the polytope; facet keys, faces, the clip and the
face table read it.  Each of them used to re-scan every facet inequality
over the vertices, as `facet_keys` did, and the incidence itself was such a
scan until the constructions handed theirs over; `oracle_hull` still makes
it by that scan.

The affine pieces: `regular_subdivision` reads each cell's piece off its
lower facet of the lifted hull, and `fine_crepant_subdivision` fits each
cone once with one left inverse.  Both used to interpolate every piece with
one `solve_linear` over the cell's points.

The origin pull-down: `fine_crepant_subdivision` computes one exact bend
`a + drop * b > 0` per interior wall, once, from the cones' fits, takes the
first `drop` in -1, -2, -4, ... that satisfies them all, and checks the
tiling by summing the fits' `|d|`.  The loop it replaced rebuilt every piece
and a `PLFunction` per round and re-ran the two wall scanners below
(`check_convex_certificate`, `is_strictly_convex`) over every vertex of both
cells of every wall, then ran `Subdivision.volume_check` (now
`oracle_volume_check`, which sums the cells' normalized volumes).

The inner product: `exactlin.dot` checks the two lengths once and sums
`map(mul, u, v)`, and `exactlin.mat_mul` transposes b once and sums each
entry the same way.  The forms they replaced, `oracle_dot` and
`oracle_mat_mul`, build a generator over `zip(..., strict=True)` per entry.

The piece lookup: `subdivision._piece_on` reads the parent keys that
`common_refinement` records.  The lookup it replaced scans the coarser
subdivision's cells for one containing the cell.

The common refinement: `subdivision.common_refinement` clips a cell of the
first input only by the facets of a cell of the second that are not facets
of the support, and stops a pair at the first facet that leaves no vertex
strictly inside.  The refinement it replaced (`oracle_common_refinement`)
clips by every facet and drops a pair when a clip comes out empty or of
lower dimension.

The monodromy: `TropicalSpace._loop_matrix` and `transition` are closed
forms, read off one chart and section per vertex and the hyperplane of each
cell.  The definition they replaced restricts the chart at each vertex to
each cell's tangent lattice, a square matrix when the ranks agree, and
composes those restrictions and their inverses (`oracle_loop_matrix`,
`oracle_transition`).  Where a space carries per-(vertex, cell) charts as
`explicit_charts`, as hand-built models in the tests do, the restriction
reads those instead of the vertex chart.

Integral surjectivity: each `embed.FibrationData` keeps the Smith diagonal
of its tangent map, and `embed_D` calls a host surjective when that diagonal
is r ones.  The predicate it replaced, `oracle_is_integrally_surjective`,
took the matrix and made its own Smith form.

The discriminant and its simplicity verdict: `tropical._compute_discriminant`
reads each loop's rank-one factors (a, phi) once, with the loop I - a (x) phi,
and `tropical._loop(a, phi)` reads the matrix, displacement and multiplicity
off one factorization a = c u in closed form; each entry keeps its monodromy
segment as its vertex pair and is elementary when its multiplicity is 1, and
`is_simple` reports the discriminant itself.  The two functions `_loop`
replaced are `oracle_transvection` (the matrix, checked integral entry by
entry in Fractions) and `oracle_loop_displacement` (the displacement and
multiplicity).  The displacement they in turn replaced
(`oracle_displacement`) recovers the factors from the matrix by a rank
computation and a division scan, and `monodromy_polytope` hulls the segment
for `is_elementary_simplex`.  The discriminant before the face table
(`_oracle_discriminant`) scans every edge against every interior wall,
composes each loop of restricted charts (`_oracle_monodromy`) and finds the
faces and the boundary with the re-hulling walkers (`_faces_by_key`,
`_oracle_is_boundary_cell`, `_oracle_boundary_cells`).

The local fibre: `embed.local_fibre` reads the fibre off the fibration's
cell, since p is the level and the cone's slice p = t is t * cell: one
`section` per y-equation, set at height t.  `embed_D` names each host's
fibre by its face mask (`embed._cut`) and builds each fibre once, and a
reduced cell is its fibre carried through the slice chart.  The fibre they
replaced (`cone_local_fibre`, on `ConeFibrationData`) builds the cone over
the cell (`cone_over_cell`), reads its slice w = level off the cone when the
cone is pointed and w > 0 on every generator (`_cone_slice`: the rescaled
generators are its vertices, and the facet normals that do not vanish on its
span its facets), and cuts that slice by one `section` per y-equation; it
takes any cone and any p.  `oracle_embed_D` and `oracle_barycenter_fibre` run
on it, and hull every reduced fibre.  The fibre it replaced in turn
(`oracle_local_fibre`) hulls the rescaled generators for every cone.

The hyperplane split: `subdivision.hyperplane_split` returns the convex tent
max(0, u_i - level).  The pair it replaced (`oracle_hyperplane_split`, with
the concave tent min(0, level - u_i), and `oracle_negate_pl`, which every
caller applied to it) is kept on a stand-in `RetiredPLFunction`, which
carries the domain and construction tag that `PLFunction` no longer has.

The section: `polytope.section` cuts a cell by a hyperplane in one
double-description step, with the cell's chart cut by the hyperplane
(`_facet_chart`).  The section it replaced (`oracle_section`) clips to each
side of the hyperplane in turn, and the second clip takes the face of the
first, with a fresh chart.

The product: `polytope.product` reads its vertices and facets off its
factors.  The product it replaced (`oracle_product`) hulls the vertex pairs.

The Hermite basis: `exactlin.hnf_column_basis` folds the vectors with a
nonzero entry in the current column into one pivot, one extended-gcd step
per vector.  The basis it replaced (`oracle_hnf_column_basis`) sorts them by
that entry and reduces them by the least, round after round, which takes as
many rounds as Euclid's algorithm on the entries.  The Hermite basis of a
lattice is unique, so the two agree.

The regular-subdivision cells: `regular_subdivision` reads each cell off its
lower facet of the lifted double description, with the support's chart: its
facets are the facet's inclusion-maximal ridges, its vertices the tight
points alone in the meet of their ridges.  The subdivision it replaced
(`oracle_regular_subdivision`) hulls each lower facet's tight points again.

The hull's facets: `_hull_full_dim` runs an integer double description.
The hull it replaced was a gift wrap in Fraction ratios that wrapped every
ridge from both of its facets, with a separate simplex branch
(`gift_wrap_full_dim`), and it called a point a vertex by the rank of its
tight facets (`_rank_vertices`).

The cone: `cone_from_generators` reads its facets off `hull`.  The double
description it replaced (`_cone_by_subset_scan`) tries every subset of
dim - 1 normals of the dual cone.  `RationalCone` keeps no membership test;
the tests read one off its facet normals (`cone_contains`).

The elimination: `det`, `mat_rank` and `solve_linear` share one
fraction-free elimination.  The forms they replaced are `_bareiss_det`,
`_fraction_rank` and `_fraction_solve`.

The boundary facets: `dual_intersection_complex` and `hypersurface_trop`
take the facets of a subdivision that one cell has.  The scan they replaced
(`oracle_support_facet_keys`) tests every facet key of the cells against
every facet of the support.

The boundary charts: `TropicalSpace._vertex_chart` reads the chart and
section at a vertex off one sweep of extended-gcd steps that makes a
unimodular completion and its inverse together
(`exactlin.unimodular_completion`).  The completion it replaced
(`oracle_complete_to_unimodular`) took a Smith normal form of the column,
and the section a left inverse of the completion (`oracle_vertex_chart`).

The Smith form: `exactlin.smith_normal_form` returns the diagonal alone,
read off alternating row and column folds (`exactlin._fold`) and one gcd/lcm
sweep, and `exactlin.kernel_basis` folds the columns of m, each with e_j
appended, on m's rows.  The Smith form they replaced
(`oracle_smith_normal_form`) cleared each pivot's row and column by
extended-gcd steps and carried both transforms U and V; the diagonal was
read off S, and the kernel off the last columns of V.
`oracle_complete_to_unimodular` reads its U.

The facet lift: `polytope._facet` reads each primitive lifted normal from a
bounded memo (`_facet_normal`).  The form it replaced (`oracle_facet`) lifts
on every call.

The crepant fits: `fine_crepant_subdivision` clears the boundary heights
once by the lcm of their denominators and fits every cone in ints.  The
form it replaced (`oracle_fraction_crepant_subdivision`) fits the Fraction
heights.

The volume: `LatticePolytope.normalized_volume` sums the pyramids over the
polytope's own facets, read off its incidence, so no face is hulled.  The
form it replaced (`oracle_normalized_volume`, with `oracle_nvol_full_dim`)
took the vertices' span coordinates and re-hulled every facet at every
level with `_hull_full_dim`.
"""

import math
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

from tropdeg.exactlin import (
    InvariantError,
    RationalCone,
    _exgcd,
    _extreme_generators,
    _ratio,
    clear_fractions,
    denominator_lcm,
    dot,
    content,
    hnf_column_basis,
    is_zero,
    kernel_basis,
    left_inverse,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    primitive,
    saturate_lattice,
    solve_linear,
    vadd,
    vneg,
    vsub,
)
from tropdeg.embed import ComplexMap, _check_face_consistency
from tropdeg.polytope import (
    LatticePolytope,
    _assemble,
    _face_facets,
    _face_masks,
    _facet,
    _hull_full_dim,
    _lattice_chart,
    _lift,
    _low,
    _span_chart,
    _span_coordinates,
    clip_by_halfspace,
    containing_cell,
    hull,
    is_lattice_point,
    normalize_point,
    section,
    tight_at,
)
from tropdeg.subdivision import PLFunction, Subdivision, affine_value, boundary_triangulation
from tropdeg.tropical import Discriminant, TropicalSpace, discriminant


def basis_coordinates(basis, vectors):
    """Exact coordinates of each vector in a basis of independent integer rows.

    One left inverse serves every vector.  A coordinate is an int where it
    is integral and a Fraction otherwise.  Raises ValueError on a vector
    outside the span of the basis.
    """
    m = mat_transpose(basis)
    a, d = left_inverse(m)
    out = []
    for v in vectors:
        s = denominator_lcm(v)
        w = tuple(int(x * s) for x in v)
        y = mat_vec(a, w)
        if mat_vec(m, y) != tuple(d * x for x in w):
            raise ValueError("vector is not in the span of the basis")
        out.append(tuple(_ratio(c, d * s) for c in y))
    return out


def oracle_dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def oracle_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(oracle_dot(row, col) for col in bt) for row in a)


def _ceil(x):
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def _floor(x):
    f = Fraction(x)
    return f.numerator // f.denominator


def oracle_basis_lattice_points(self):
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


def oracle_dilate_lattice_points(poly, d):
    """Lattice points of d * poly: the oracle run on the hull of the dilated vertices."""
    return oracle_basis_lattice_points(hull([tuple(d * Fraction(x) for x in v) for v in poly.vertices]))


def _oracle_span_points(chart, pivots, origin, box):
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


def oracle_box_lattice_points(poly, dilation=1):
    """All integer points of dilation * poly, in lexicographic order, by the retired pivot-box scan.

    The box of the span's pivot coordinates is scanned, `_oracle_span_points`
    solves for the other coordinates, and each point is tested against the
    scaled equations and facet inequalities.
    """
    lo, hi = poly.bounding_box()
    equations = [(f, -dilation * c) for f, c in poly.equations]
    facets = [(n, -dilation * c) for n, c in poly.facets]
    chart = poly.chart
    pivots = [next(i for i, x in enumerate(b) if x) for b in chart[0]]
    box = iproduct(*(range(math.ceil(dilation * lo[i]), math.floor(dilation * hi[i]) + 1) for i in pivots))
    if len(pivots) < poly.ambient_dim:
        box = _oracle_span_points(chart, pivots, tuple(dilation * x for x in poly.vertices[0]), box)
    return [p for p in box if all(dot(f, p) == e for f, e in equations) and all(dot(n, p) >= e for n, e in facets)]


def oracle_lattice_points(self, dilation=1):
    """All integer points of dilation * self, in lexicographic order.

    The dilate is read off the polytope's own data: its vertices and
    facet offsets scale by the dilation (a nonnegative integer).  A point
    of the dilate's affine span is fixed by its pivot coordinates, since
    the span basis is in echelon form, in the same lexicographic order,
    and `_span_points` solves for the others.  Each facet is pulled back
    once to an integer inequality <g, x_pivots> >= r (`_pivot_cuts`).
    The box of every pivot but the last is scanned, and on each row the
    last pivot runs over the integer interval those inequalities cut:
    a ceiling for a positive coefficient, a floor for a negative one,
    and a test on the row for a zero one.  So no candidate is tested
    against the facets, no hull is taken and no point is normalized;
    rational polytopes are counted exactly too.
    """
    lo, hi = self.bounding_box()
    chart = self.chart
    pivots = [next(i for i, x in enumerate(b) if x) for b in chart[0]]
    origin = tuple(dilation * x for x in self.anchor)
    ranges = [(math.ceil(dilation * lo[i]), math.floor(dilation * hi[i])) for i in pivots]
    return list(_oracle_solved_span_points(chart, pivots, origin, _oracle_scan_rows(_oracle_pivot_cuts(self, pivots, origin, dilation), ranges)))


def _oracle_solved_span_points(chart, pivots, origin, box):
    """The integer points of the affine span through origin over tuples of pivot coordinates.

    A point x of the span is origin + t @ basis with span coordinates
    t = a (x - origin) / dd, read off its pivot coordinates, since the
    chart's left inverse a vanishes off the pivots; so x keeps the given
    pivot coordinates, and each other coordinate j is an affine function of
    them.  All in integers: with den clearing origin and m_j the column
    (a^T basis)_j at the pivots, den * dd * x_j = dd * den * origin_j +
    <m_j, den * x_pivots - den * origin_pivots>.  A point with a
    non-integer coordinate is skipped; a full-dimensional span has no other
    coordinate to solve for.
    """
    basis, a, dd, _ = chart
    den = denominator_lcm(origin)
    o = [int(x * den) for x in origin]
    scale = den * dd
    solved = []
    for j in range(len(o)):
        if j not in pivots:
            m = [sum(row[p] * b[j] for row, b in zip(a, basis)) for p in pivots]
            solved.append((j, m, dd * o[j] - sum(x * o[p] for x, p in zip(m, pivots))))
    for xp in box:
        point = [0] * len(o)
        for p, x in zip(pivots, xp):
            point[p] = x
        for j, m, c in solved:
            q, r = divmod(c + den * dot(m, xp), scale)
            if r:
                break
            point[j] = q
        else:
            yield tuple(point)


def _oracle_pivot_cuts(poly, pivots, origin, dilation):
    """Each facet of dilation * poly as an integer inequality (g, r): <g, x_pivots> >= r on the dilate's span.

    origin is the dilated anchor.  A point x of the span through origin is
    origin + t @ basis with t = a (x - origin) / dd (`_span_points`), so
    <n, x> = <n, origin> + <g, x - origin> / dd, where g = a^T (basis n)
    vanishes off the pivots.  Then <n, x> >= -dilation * c reads
    <g, x_pivots> >= dd (-dilation * c - <n, origin>) + <g, origin>, whose
    right side may be rounded up, as the left is an integer.
    """
    basis, a, dd, _ = poly.chart
    cuts = []
    for n, c in poly.facets:
        bn = mat_vec(basis, n)
        g = [dot(column, bn) for column in zip(*a)]
        cuts.append(([g[p] for p in pivots], math.ceil(dd * (-dilation * c - dot(n, origin)) + dot(g, origin))))
    return cuts


def _oracle_scan_rows(cuts, ranges):
    """The integer points of the box ranges (inclusive (lo, hi) pairs) that satisfy every cut (g, r): <g, x> >= r.

    In lexicographic order: the box of every coordinate but the last is
    scanned, and on each row the last coordinate runs over the interval the
    cuts leave it.  No coordinates at all give the one empty point.
    """
    if not ranges:
        yield ()
        return
    *head, (lo, hi) = ranges
    split = [(g[:-1], g[-1], r) for g, r in cuts]
    for row in iproduct(*(range(a, b + 1) for a, b in head)):
        low, high = lo, hi
        for g, last, r in split:
            rest = r - dot(g, row)
            if last > 0:
                low = max(low, -(-rest // last))
            elif last < 0:
                high = min(high, rest // last)
            elif rest > 0:
                break
        else:
            for x in range(low, high + 1):
                yield row + (x,)


def oracle_common_refinement(sub1, sub2):
    """Cells = full-dimensional intersections of cells from the two inputs, each cell clipped by every facet.

    The retired `common_refinement`, with the same parent records.
    """
    if sub1.support.vertices != sub2.support.vertices:
        raise ValueError("domain mismatch")
    dim = sub1.support.dim
    cells = {}
    up1 = {}
    up2 = {}
    for a in sub1.maximal_cells:
        for b in sub2.maximal_cells:
            x = a
            for n, c in b.facets:
                x = clip_by_halfspace(x, n, c)
                if x is None or x.dim != dim:
                    break
            else:
                key = x.key()
                if key not in cells:
                    cells[key] = x
                    up1[key] = a.key()
                    up2[key] = b.key()
    parents = []
    for sub, up in ((sub1, up1), (sub2, up2)):
        parents.append((sub, up))
        parents.extend((source, {key: older[k] for key, k in up.items()}) for source, older in sub.parents)
    return Subdivision(sub1.support, cells.values(), parents)


class RetiredPLFunction:
    """The retired `PLFunction(domain, pieces, tag, convex)`, which the retired split and negation below build."""

    def __init__(self, domain, pieces, tag, convex):
        self.domain = domain
        self.pieces = dict(pieces)
        self.tag = tag
        self.convex = convex


def oracle_hyperplane_split(poly, coord_index, level):
    """Split along u_i = level with the concave tent min(0, level - u_i)."""
    vals = [v[coord_index] for v in poly.vertices]
    if not (min(vals) < level < max(vals)):
        raise ValueError("level outside the open coordinate range")
    ambient = poly.ambient_dim
    e_i = tuple(1 if j == coord_index else 0 for j in range(ambient))
    neg_e_i = tuple(-x for x in e_i)
    low = clip_by_halfspace(poly, neg_e_i, level)
    high = clip_by_halfspace(poly, e_i, -level)
    sub = Subdivision(poly, [low, high])
    zero = tuple(0 for _ in range(ambient))
    pieces = {
        low.key(): (zero, 0),
        high.key(): (neg_e_i, level),
    }
    f = RetiredPLFunction(poly, pieces, "min_combination", False)
    return sub, f


def oracle_negate_pl(f, sub):
    pieces = {k: (tuple(-c for c in coeffs), -const) for k, (coeffs, const) in f.pieces.items()}
    tag = {"min_combination": "max_combination", "max_combination": "min_combination"}.get(f.tag, f.tag)
    return RetiredPLFunction(f.domain, pieces, tag, not f.convex if f.tag in ("min_combination", "max_combination") else f.convex)


def _integer_basis_coordinates(diffs, basis):
    """Integer coordinates of difference vectors in a lattice basis of them."""
    coords = basis_coordinates(basis, diffs)
    assert all(c.denominator == 1 for x in coords for c in x)
    return coords


def oracle_hull(points):
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
    basis, _ = saturate_lattice(int_diffs, ambient)
    d = len(basis)
    # affine-span equations: annihilator functionals of the direction space
    eqs = []
    if d < ambient:
        for f in kernel_basis(tuple(basis)) if basis else [tuple(1 if i == j else 0 for i in range(ambient)) for j in range(ambient)]:
            eqs.append((f, -dot(f, anchor)))
    if d == 0:
        return LatticePolytope([anchor], [], eqs, _span_chart((), ambient), ())
    facs = _hull_full_dim(_integer_basis_coordinates(int_diffs, basis), d)
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
    verts = sorted(verts)
    incidence = tuple(sum(1 << i for i, v in enumerate(verts) if tight_at(f, (v,))) for f in ambient_facets)
    return LatticePolytope(verts, ambient_facets, eqs, _span_chart(tuple(basis), ambient), incidence)


def oracle_facet_keys(poly):
    """Vertex tuples of the facets, each facet inequality scanned over the vertices."""
    return [tuple(v for v in poly.vertices if dot(n, v) == -c) for n, c in poly.facets]


def oracle_clip_by_halfspace(cell, normal, offset):
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


def oracle_section(cell, f, t):
    """cell intersected with {<f, x> = t} as two clips: to <f, x> >= t, then to <f, x> <= t, or None."""
    cell = clip_by_halfspace(cell, f, -t)
    return None if cell is None else clip_by_halfspace(cell, tuple(-x for x in f), t)


class ConeFibrationData:
    """Local model of the log structure at a deepest stratum.

    cone lives in M + Z (position, level); the component functionals y_i and
    the smoothing functional p are linear there and nonnegative on the cone.
    """

    def __init__(self, cone, y_functionals, p_functional):
        self.cone = cone
        self.y = tuple(tuple(f) for f in y_functionals)
        self.p = tuple(p_functional)
        for f in list(self.y) + [self.p]:
            for g in cone.generators:
                if dot(f, g) < 0:
                    raise ValueError("fibration functional is negative on the cone")
        if mat_rank(self.y) != len(self.y):
            raise ValueError("component functionals must be linearly independent")

    @property
    def rank(self):
        return len(self.y) - 1


def cone_local_fibre(fib, target):
    """The polytope cut from the cone by <y_i, .> = target_i, <p, .> = target[-1].

    Returns None (the explicit empty polytope) when the fibre is empty.  The
    fibre lies in the slice of the cone where w = p + sum y_i equals the sum of
    the targets; that slice is spanned by the generators rescaled onto it
    (read off the cone by `_cone_slice` when w > 0 on every generator, which
    makes the cone pointed, else their hull), and each y-equation is then
    one `section` (the p-equation follows).  Raises ValueError when the
    fibre is nonempty but unbounded, which happens when some generator has
    w = 0.
    """
    if len(target) != len(fib.y) + 1:
        raise ValueError("target length must be number of y functionals plus one")
    w = tuple(sum(col) for col in zip(fib.p, *fib.y))
    level = sum(target)
    cone = fib.cone
    values = [dot(w, g) for g in cone.generators]
    flat = [g for g, v in zip(cone.generators, values) if v == 0]
    gens = [(g, v) for g, v in zip(cone.generators, values) if v != 0]
    if level == 0:
        poly = hull([tuple(0 for _ in range(cone.ambient_dim))])
    elif level > 0 and gens and min(values) > 0:
        # w > 0 on every generator is > 0 on every nonzero point of the cone, so the cone is pointed
        poly = _cone_slice(cone, values, level)
    elif level > 0 and gens:
        poly = hull([tuple(_ratio(level * x, v) for x in g) for g, v in gens])
    else:
        poly = None
    for f, t in zip(fib.y, target):
        if poly is not None:
            poly = section(poly, f, t)
    # the generators with w = 0 lie in the recession cone of the fibre
    if poly is not None and flat:
        raise ValueError("local fibre is unbounded: a cone generator has w = 0")
    return poly


def _cone_slice(cone, values, level):
    """The slice <w, x> = level > 0 of a pointed cone, values[i] = <w, g_i> > 0 at its generators, with no hull.

    The generators are the cone's extreme rays and the slice meets each once,
    at level / <w, g> times it, so these points are its vertices.  Its faces
    are the cone's nonzero faces cut by it, so its facets are read off the
    cone's facet normals that do not vanish on its span (`_facet`), each
    tight at the generators it vanishes on; the others are the equations of
    the cone's span.
    """
    verts = [tuple(_ratio(level * x, v) for x in g) for g, v in zip(cone.generators, values)]
    chart = _lattice_chart(verts)
    normals = [n for n in cone.facet_normals if any(dot(n, b) for b in chart[0])]
    incidence = [sum(1 << i for i, g in enumerate(cone.generators) if not dot(n, g)) for n in normals]
    return _assemble(chart, verts, [_facet(chart, n, verts[_low(m)]) for n, m in zip(normals, incidence)], incidence)


def cone_over_cell(cell):
    """The cone over (cell, 1) in M + Z, read off the cell's own facets.

    Each vertex v gives the ray (v, 1), each facet <n, x> >= -c the facet
    normal (n, c), and each span equation <f, x> = -e the pair +-(f, e),
    all cleared of denominators and made primitive; no hull is computed.
    """
    rays = [primitive(clear_fractions(v + (1,))) for v in cell.vertices]
    normals = [primitive(clear_fractions(n + (c,))) for n, c in cell.facets]
    for f, e in cell.equations:
        lift = primitive(clear_fractions(f + (e,)))
        normals += [lift, vneg(lift)]
    return RationalCone(cell.ambient_dim + 1, rays, normals)


def cone_contains(cone, v):
    """Whether v pairs >= 0 with every facet normal of the RationalCone, as `RationalCone.contains` read it."""
    return all(dot(v, h) >= 0 for h in cone.facet_normals)


def cone_fibration(fib):
    """The `ConeFibrationData` of `embed.FibrationData` fib: the cone over fib.cell, with p the level (0,...,0,1)."""
    return ConeFibrationData(cone_over_cell(fib.cell), fib.y, (0,) * fib.cell.ambient_dim + (1,))


def cone_fibre_over_ones(fib):
    """The fibre over (1,...,1) of `embed.FibrationData` fib, by the cone path: the cone over fib.cell, sliced and cut."""
    return cone_local_fibre(cone_fibration(fib), (1,) * (len(fib.y) + 1))


def oracle_local_fibre(fib, target):
    """The polytope cut from the cone by <y_i, .> = target_i, <p, .> = target[-1], or None.

    The slice of the cone where w = p + sum y_i equals the sum of the targets
    is the hull of the generators rescaled onto it, and each y-equation is
    then a two-sided clip.  Raises ValueError when the fibre is nonempty but
    unbounded.
    """
    if len(target) != len(fib.y) + 1:
        raise ValueError("target length must be number of y functionals plus one")
    w = tuple(sum(col) for col in zip(fib.p, *fib.y))
    level = sum(target)
    flat = [g for g in fib.cone.generators if dot(w, g) == 0]
    gens = [g for g in fib.cone.generators if dot(w, g) != 0]
    if level == 0:
        poly = hull([tuple(0 for _ in range(fib.cone.ambient_dim))])
    elif level > 0 and gens:
        poly = hull([tuple(_ratio(level * x, dot(w, g)) for x in g) for g in gens])
    else:
        poly = None
    for f, t in zip(fib.y, target):
        if poly is not None:
            poly = clip_by_halfspace(poly, f, -t)
        if poly is not None:
            poly = clip_by_halfspace(poly, tuple(-x for x in f), t)
    if poly is not None and flat:
        raise ValueError("local fibre is unbounded: a cone generator has w = 0")
    return poly


def oracle_hnf_column_basis(vectors):
    vecs = [list(v) for v in vectors if any(v)]
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
        # reduce all vectors with nonzero c-entry to a single pivot by gcd steps
        while len(nonzero) > 1:
            nonzero.sort(key=lambda v: abs(v[c]))
            p = nonzero[0]
            out = [p]
            for v in nonzero[1:]:
                q = v[c] // p[c]
                w = [x - q * y for x, y in zip(v, p)]
                if w[c] != 0:
                    out.append(w)
                elif not all(x == 0 for x in w):
                    rest.append(w)
            nonzero = out
        piv = nonzero[0]
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


def oracle_product(p, q):
    return hull([a + b for a in p.vertices for b in q.vertices])


def _oracle_reduce_cell(cell, anchor, basis):
    return hull(basis_coordinates(basis, [vsub(v, anchor) for v in cell.vertices]))


def oracle_embed_D(space, fibration):
    """The deepest-stratum complex as fibres over (1,...,1), with its embedding.

    Returns (T_D, iota, surjective): T_D in reduced slice coordinates, iota a
    ComplexMap back into the host, and surjective the conjunction of the
    integral tangent surjectivity checks over all cells of T_D.
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    fibres = {}
    hosts = {}
    for key, fib in sorted(fibration.items()):
        f = cone_fibre_over_ones(fib)
        if f is None:
            continue
        level_one = hull([v[:-1] for v in f.vertices])
        fibres[level_one.key()] = level_one
        hosts[level_one.key()] = key
    if not fibres:
        raise ValueError("all local fibres over (1,...,1) are empty")
    _check_face_consistency(fibration)
    cells = list(fibres.values())
    # the slice chart: anchor and saturated span basis of the cells' union
    chart = hull([v for c in cells for v in c.vertices])
    anchor, basis = chart.anchor, chart.span_basis
    surjective = True
    entries = []
    reduced_cells = []
    host_cells = {c.key(): c for c in space.maximal_cells}
    for key, cell in sorted(fibres.items()):
        host = host_cells[hosts[key]]
        tangent = space.tangent_basis(host)
        fib = fibration[hosts[key]]
        rows = []
        for y in fib.y[1:]:
            rows.append(tuple(dot(y[:-1], b) for b in tangent))
        if not oracle_is_integrally_surjective(tuple(rows)):
            surjective = False
        reduced = _oracle_reduce_cell(cell, anchor, basis) if basis else hull([(0,)])
        reduced_cells.append(reduced)
        entries.append(
            {
                "source": reduced.key(),
                "target": hosts[key],
                "matrix": tuple(zip(*basis)) if basis else ((0,),) * len(anchor),
                "translation": anchor,
            }
        )
    t_d = TropicalSpace(len(basis) or 1, max(c.dim for c in reduced_cells), reduced_cells, "solid")
    _oracle_assert_fan_compatibility(space, cells)
    iota = ComplexMap(entries, surjective=surjective, metadata={"fibration": dict(fibration)})
    return t_d, iota, surjective


def _oracle_assert_fan_compatibility(space, cells):
    """The vertex charts must not degenerate the embedded star at any vertex."""
    for cell in cells:
        for v in cell.vertices:
            if not all(Fraction(x).denominator == 1 for x in v):
                continue
            chart = space.chart_matrix(v)
            imgs = []
            for w in cell.vertices:
                d = vsub(w, v)
                if all(x == 0 for x in d):
                    continue
                imgs.append(mat_vec(chart, d))
            if imgs and mat_rank(tuple(imgs)) != cell.dim:
                raise ValueError("embedding is not compatible with the fan structure at " + str(v))


def oracle_barycenter_fibre(space, fibration):
    """Fibre of the simplex fibration over the barycenter: each cell key, with its sorted host keys."""
    out = {}
    for key, fib in sorted(fibration.items()):
        f = cone_fibre_over_ones(fib)
        if f is None:
            continue
        out.setdefault(hull([v[:-1] for v in f.vertices]).key(), []).append(key)
    return dict(sorted(out.items()))


def unreduced_cells(t_d, iota):
    """The T_D cells mapped back to ambient coordinates through iota, in entry order."""
    out = []
    cells = {c.key(): c for c in t_d.maximal_cells}
    for e in iota.entries:
        cell = cells[e["source"]]
        anchor = e["translation"]
        matrix = e["matrix"]
        pts = []
        for v in cell.vertices:
            img = list(anchor)
            for r in range(len(anchor)):
                img[r] = img[r] + sum(matrix[r][c] * v[c] for c in range(len(v)))
            pts.append(tuple(img))
        out.append(hull(pts))
    return out


def oracle_interpolate_ambient(points, values, ambient_dim):
    rows = [tuple(Fraction(x) for x in p) + (Fraction(1),) for p in points]
    sol = solve_linear(tuple(rows), tuple(Fraction(v) for v in values))
    assert sol is not None
    return (tuple(sol[:-1]), sol[-1])


def is_strictly_convex(f, subdivision):
    """True iff the affine pieces of adjacent maximal cells always differ."""
    cells = subdivision.maximal_cells
    for cell in cells:
        if cell.key() not in f.pieces:
            raise ValueError("function is not linear on some maximal cell")
    for wall, (i, j) in subdivision.interior_walls().items():
        pi = f.pieces[cells[i].key()]
        pj = f.pieces[cells[j].key()]
        test_points = set(cells[i].vertices) | set(cells[j].vertices)
        if all(affine_value(pi, p) == affine_value(pj, p) for p in test_points):
            return False
    return True


def check_convex_certificate(f, subdivision):
    """Certify that f is convex on the subdivision: across every interior wall
    the neighbouring piece lies weakly above the cell's own extension."""
    cells = subdivision.maximal_cells
    for wall, (i, j) in subdivision.interior_walls().items():
        pi = f.pieces[cells[i].key()]
        pj = f.pieces[cells[j].key()]
        for p in cells[j].vertices:
            if affine_value(pi, p) > affine_value(pj, p):
                return False
        for p in cells[i].vertices:
            if affine_value(pj, p) > affine_value(pi, p):
                return False
    return True


def oracle_fine_crepant_subdivision(poly):
    """Fine regular triangulation of the boundary coned at the origin.

    Desk-scale stand-in for an MPCP desingularization: vertex set is all
    boundary lattice points plus the origin, every maximal cell is the cone
    over an elementary boundary simplex, and the returned PLFunction is the
    regularity certificate.  Raises if the deterministic heights fail to
    produce an elementary triangulation.
    """
    if not poly.is_reflexive():
        raise ValueError("fine crepant subdivision needs a reflexive polytope")
    origin = tuple(0 for _ in range(poly.ambient_dim))
    last_bad = None
    for seed in range(8):
        cells, table = boundary_triangulation(poly, seed)
        bad = [c.key() for c in cells if not c.is_elementary_simplex()]
        if bad:
            last_bad = bad
            continue
        cones = [hull(list(c.vertices) + [origin]) for c in cells]
        sub = Subdivision(poly, cones)
        # certify regularity: interpolate the boundary heights with the origin
        # pulled down until the assembled function is strictly convex.  Each
        # cone is a full-dimensional simplex, so one left inverse a of its
        # rows (v, 1), with a @ rows = d * I, fits it once: the piece is a base
        # fit (origin at 0) plus drop times a correction (1 at the origin, 0
        # on the base), divided by d
        fits = []
        for cone in cones:
            a, d = left_inverse(tuple(v + (1,) for v in cone.vertices))
            base = mat_vec(a, [0 if v == origin else table[v] for v in cone.vertices])
            correction = tuple(row[cone.vertices.index(origin)] for row in a)
            fits.append((cone.key(), base, correction, d))
        drop = -1
        for _ in range(40):
            pieces = {}
            for key, base, correction, d in fits:
                x = tuple(_ratio(b + drop * c, d) for b, c in zip(base, correction))
                pieces[key] = (x[:-1], x[-1])
            f = PLFunction(pieces, True)
            if check_convex_certificate(f, sub) and is_strictly_convex(f, sub):
                if not oracle_volume_check(sub):
                    raise ValueError("boundary triangulation does not tile the polytope")
                return sub, f
            drop *= 2
        raise ValueError("origin pull-down failed to certify a convex function")
    raise ValueError(
        "height perturbation failed to reach an elementary triangulation; "
        f"non-elementary boundary cells remain after all deterministic seeds ({len(last_bad)} at the last seed)"
    )


def oracle_volume_check(sub):
    total = sum(c.normalized_volume() for c in sub.maximal_cells)
    return total == sub.support.normalized_volume()


def oracle_regular_subdivision(points, heights):
    """Lower-envelope subdivision of lifted points with its convex certificate.

    Points must affinely span their hull; duplicate points with conflicting
    heights are an error.  Returns (Subdivision, PLFunction).  Each cell is a
    lower facet of the lifted hull, and its piece is read off that facet.
    """
    table = {}
    for p, h in zip(points, heights, strict=True):
        key = normalize_point(p)
        h = _ratio(h)
        if key in table and table[key] != h:
            raise ValueError(f"duplicate point {key} with conflicting heights")
        table[key] = h
    pts = sorted(table)
    hts = [table[p] for p in pts]
    support = hull(pts)
    ambient = support.ambient_dim

    # work in span coordinates of the support, heights cleared to integers
    anchor = support.anchor
    d = support.dim
    if d == 0:
        cell = support
        f = PLFunction({cell.key(): (tuple(0 for _ in range(ambient)), hts[0])}, True)
        return Subdivision(support, [cell]), f
    den = denominator_lcm(hts)
    # rational span coordinates (rational inputs) come over one denominator
    # sden, and the heights are cleared to match
    span_rows, sden = _span_coordinates(support.chart, anchor, pts)
    lifted = [c + (int(h * den) * sden,) for c, h in zip(span_rows, hts)]
    # a point one above the first keeps the lifted set full-dimensional when
    # the heights are affine; it lies strictly above every lower facet, so it
    # changes none of them
    lifted.append(lifted[0][:-1] + (lifted[0][-1] + 1,))
    chart = support.chart
    dd = chart[2]
    cells = []
    pieces = {}
    for n, c, tight in _hull_full_dim(lifted, d + 1):
        if n[-1] <= 0:
            continue  # not a lower facet
        cell = hull([pts[i] for i in tight])
        cells.append(cell)
        # on the facet den * sden * h = -(c + sden <n', s>) / n[-1], where
        # s = a (x - anchor) / dd are the span coordinates and n' = n[:-1];
        # `_lift` gives w = dd * a^T n', so <n', s> = <w, x - anchor> / dd^2
        w = _lift(chart, n[:-1])
        scale = den * n[-1] * dd * dd
        coeffs = tuple(_ratio(-x, scale) for x in w)
        pieces[cell.key()] = (coeffs, _ratio(sden * dot(w, anchor) - c * dd * dd, sden * scale))
    return Subdivision(support, cells), PLFunction(pieces, True)


def _oracle_piece_on(f, sub, cell):
    """The affine piece of f valid on a cell of a finer subdivision."""
    big = containing_cell(sub.maximal_cells, cell)
    if big is None:
        raise ValueError("cell not contained in any cell of the coarser subdivision")
    return f.pieces[big.key()]


def oracle_chart_on_cell(space, v, cell):
    """Square matrix of the chart at v restricted to the cell's tangent lattice."""
    charts = getattr(space, "explicit_charts", None)
    chart = charts[(v, cell.key())] if charts else space.chart_matrix(v)
    basis = space.tangent_basis(cell)
    if len(basis) != len(chart):
        raise ValueError("chart restriction is singular")
    cols = [mat_vec(chart, b) for b in basis]
    return tuple(zip(*cols))  # columns are chart images of the basis


def oracle_loop_matrix(space, v_plus, v_minus, sigma_plus, sigma_minus):
    """The loop v+ -> sigma+ -> v- -> sigma- -> v+ at v+, composed of four restricted charts."""
    m_pp = oracle_chart_on_cell(space, v_plus, sigma_plus)
    m_mp = oracle_chart_on_cell(space, v_minus, sigma_plus)
    m_mm = oracle_chart_on_cell(space, v_minus, sigma_minus)
    m_pm = oracle_chart_on_cell(space, v_plus, sigma_minus)
    inv_mm, d_mm = left_inverse(m_mm)
    inv_pp, d_pp = left_inverse(m_pp)
    t = mat_mul(mat_mul(mat_mul(m_pm, inv_mm), m_mp), inv_pp)
    d = d_mm * d_pp
    if any(x % d for row in t for x in row):
        raise ValueError("monodromy is not integral; charts are incompatible on the lattice")
    return tuple(tuple(x // d for x in row) for row in t)


def oracle_transition(space, v_from, v_to, cell):
    """The chart transition v_from -> v_to across the cell: one restriction times the other's inverse."""
    m_to = oracle_chart_on_cell(space, v_to, cell)
    inv, d = left_inverse(oracle_chart_on_cell(space, v_from, cell))
    return tuple(tuple(Fraction(x, d) for x in row) for row in mat_mul(m_to, inv))


def oracle_support_facet_keys(cells, support):
    """Facet keys of the cells that lie on a facet of the support, sorted."""
    keys = {key for cell in cells for key in cell.facet_keys()}
    return sorted(key for key in keys if any(tight_at(f, key) for f in support.facets))


def oracle_displacement(m):
    """Displacement data of a rank-one transvection M = I + u * m_cov^T.

    Writing the difference as u (primitive) times an integral covector m_cov,
    the displacement (M - I) t for any primitive test vector t with the
    minimal positive pairing <m_cov, t> = content(m_cov) is content(m_cov)*u,
    independent of the choice of t; its lattice length is content(m_cov).
    """
    n = len(m)
    d = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n))
    cols = list(zip(*d))
    nz = [c for c in cols if any(x != 0 for x in c)]
    if not nz:
        return None, 0
    if mat_rank(d) != 1:
        raise ValueError("monodromy is not a rank-one transvection")
    u = primitive(nz[0])
    pivot = next(i for i, x in enumerate(u) if x != 0)
    m_cov = []
    for j in range(n):
        q, r = divmod(d[pivot][j], u[pivot])
        assert r == 0, "transvection covector is not integral"
        m_cov.append(q)
    g = content(tuple(m_cov))
    disp = tuple(g * x for x in u)
    return disp, g


def oracle_is_integrally_surjective(m):
    """True iff m: Z^cols -> Z^rows is onto, i.e. the SNF has rows many 1s."""
    rows = len(m)
    if rows == 0:
        return True
    s, _, _ = oracle_smith_normal_form(m)
    return len(s[0]) >= rows and all(s[i][i] == 1 for i in range(rows))


def oracle_transvection(a, phi):
    """The integer matrix I - a (x) phi; InvariantError when an entry is not an integer."""
    m = [[(1 if i == j else 0) - x * p for j, p in enumerate(phi)] for i, x in enumerate(a)]
    if any(x.denominator != 1 for row in m for x in row):
        raise InvariantError("monodromy is not integral; charts are incompatible on the lattice")
    return tuple(tuple(x.numerator for x in row) for row in m)


def oracle_loop_displacement(a, phi):
    """(displacement, multiplicity) of the nontrivial loop M = I - a (x) phi, an integer matrix.

    Write a = c u with u primitive and c > 0.  Then M - I = -u (x) c phi,
    and c phi is integral because u is primitive, so the multiplicity, the
    gcd of the entries of M - I, is content(c phi).  With the covector of
    M - I oriented so that its first nonzero entry is positive, a primitive
    t pairing with it to the least positive value is displaced by
    (M - I) t = -sgn(phi_j0) * multiplicity * u, phi_j0 the first nonzero
    entry of phi; so the segment [0, displacement] has lattice length the
    multiplicity.
    """
    u = primitive(clear_fractions(a))
    i = next(i for i, x in enumerate(u) if x)
    mult = content([_ratio(a[i] * p, u[i]) for p in phi])
    sign = -1 if next(p for p in phi if p) > 0 else 1
    return tuple(sign * mult * x for x in u), mult


def monodromy_polytope(space, disc_entry):
    """Convex hull of 0 and the loop displacement, in the base vertex chart.

    An entry with no matrix is a rotation of a 1-dimensional space, whose
    polytope is [0, multiplicity]; any other has its displacement re-derived
    from its matrix.
    """
    if disc_entry["matrix"] is None:
        return hull([(0,), (disc_entry["multiplicity"],)])
    disp, _ = oracle_displacement(disc_entry["matrix"])
    return hull([tuple(0 for _ in disp), disp])


def _faces_by_key(polys):
    """All nonempty faces of the polytopes, keyed by vertices.

    Each polytope stands for itself; each proper face is hulled once.
    """
    out = {}
    for poly in polys:
        for masks in _face_masks(poly.incidence, len(poly.vertices), poly.dim).values():
            for mask in masks:
                key = poly.vertices_of(mask)
                if key not in out:
                    out[key] = poly if key == poly.vertices else hull(list(key))
    return dict(sorted(out.items()))


def _oracle_is_boundary_cell(space, key):
    if key in space.boundary_keys:
        return True
    return any(set(key) <= set(bk) for bk in space.boundary_keys)


def _oracle_boundary_cells(space):
    return _faces_by_key([hull(list(key)) for key in space.boundary_keys])


def _oracle_monodromy(space, edge, wall):
    edge_key = edge.key()
    wall_key = wall.key()
    if _oracle_is_boundary_cell(space, edge_key) or _oracle_is_boundary_cell(space, wall_key):
        raise ValueError("monodromy needs interior cells")
    if not set(edge_key) <= set(wall_key):
        raise ValueError("edge must be a face of the wall")
    adj = space.walls().get(wall_key)
    if adj is None or len(adj) != 2:
        raise ValueError("wall must separate exactly two maximal cells")
    sigma_plus = space.maximal_cells[adj[0]]
    sigma_minus = space.maximal_cells[adj[1]]
    v_plus, v_minus = sorted(edge.vertices)[:2]
    return oracle_loop_matrix(space, v_plus, v_minus, sigma_plus, sigma_minus)


def _oracle_discriminant(space):
    entries = []
    n = space.dim
    if n == 0:
        return []
    all_cells = _faces_by_key(space.maximal_cells)
    if n == 1:
        if space.chart_kind != "boundary":
            return []
        for key, cell in sorted((k, c) for k, c in all_cells.items() if c.dim == 1):
            if _oracle_is_boundary_cell(space, key):
                continue
            length = int(cell.normalized_volume())
            poly = hull([(0,), (length,)])
            entries.append(
                {
                    "edge": key,
                    "wall": key,
                    "matrix": None,
                    "polytope": poly.vertices,
                    "multiplicity": length,
                    "elementary": poly.is_elementary_simplex(),
                }
            )
        return entries
    cells = all_cells
    walls = space.interior_walls()
    edges = {k: c for k, c in all_cells.items() if c.dim == 1}
    ident = None
    for edge_key, edge in sorted(edges.items()):
        if _oracle_is_boundary_cell(space, edge_key):
            continue
        for wall_key, adj in walls.items():
            if not set(edge_key) <= set(wall_key):
                continue
            wall = cells[wall_key]
            m = _oracle_monodromy(space, edge, wall)
            if ident is None or len(ident) != len(m):
                ident = mat_identity(len(m))
            if m == ident:
                continue
            disp, mult = oracle_displacement(m)
            poly = hull([tuple(0 for _ in disp), disp])
            entries.append(
                {
                    "edge": edge_key,
                    "wall": wall_key,
                    "matrix": m,
                    "polytope": poly.vertices,
                    "multiplicity": mult,
                    "elementary": poly.is_elementary_simplex(),
                }
            )
    return entries


def _oracle_is_simple(space):
    """`is_simple` with one hull per entry, of the displacement re-derived from its matrix."""
    disc = discriminant(space)
    entries = []
    verdict = True
    for e in disc.entries:
        poly = monodromy_polytope(space, e)
        elementary = poly.is_elementary_simplex()
        if not elementary:
            verdict = False
        entries.append(
            {
                "edge": e["edge"],
                "wall": e["wall"],
                "matrix": e["matrix"],
                "polytope": poly.vertices,
                "multiplicity": e["multiplicity"],
                "elementary": elementary,
            }
        )
    return verdict, Discriminant(entries)


# The double description by subset scan that cone_from_generators used before
# it read facets off `hull`, kept verbatim as the differential oracle.


def _extreme_rays_of_halfspaces(normals, dim):
    """Extreme rays of {x : <n,x> >= 0 for all n}, assuming the cone is pointed.

    In a pointed cone a ray is extreme exactly when the normals tight at it
    have rank dim - 1, so it spans the kernel of some dim - 1 of them.  The
    scan tries every (dim-1)-subset of rank dim - 1 and keeps the kernel
    direction that satisfies all inequalities; brute force, fine for the
    small cones here.
    """
    if mat_rank(normals) < dim:
        raise ValueError("cone is not pointed")
    if dim == 1:
        return sorted(c for c in ((1,), (-1,)) if all(dot(c, n) >= 0 for n in normals))
    rays = set()
    for sub in combinations(range(len(normals)), dim - 1):
        m = tuple(normals[i] for i in sub)
        if mat_rank(m) != dim - 1:
            continue
        r = primitive(kernel_basis(m)[0])
        for cand in (r, vneg(r)):
            if all(dot(cand, n) >= 0 for n in normals):
                rays.add(cand)
    return sorted(rays)


def _cone_by_subset_scan(gens, ambient_dim):
    """Build a RationalCone from ray generators (double description)."""
    gens = [primitive(g) for g in gens if not is_zero(g)]
    gens = sorted(set(gens))
    if not gens:
        return RationalCone(ambient_dim, [], [tuple(r) for r in mat_identity(ambient_dim)] + [vneg(r) for r in mat_identity(ambient_dim)])
    # facet normals of cone(gens) = extreme rays of the dual cone, computed in
    # the span when the cone is not full dimensional
    span, _ = saturate_lattice(gens, ambient_dim)
    rank = len(span)
    # coordinates of generators in the span basis
    span_t = mat_transpose(tuple(span))
    coords = []
    for g in gens:
        x = solve_linear(span_t, g)
        assert x is not None and all(xf.denominator == 1 for xf in x)
        coords.append(tuple(int(xf) for xf in x))
    dual_in_span = _dual_rays_general(coords, rank)
    # facet normals back in ambient coordinates: n_span composed with the
    # coordinate functionals of the span; plus +-normals cutting the span
    ann = kernel_basis(tuple(span))
    span_cut = [tuple(a) for a in ann] + [vneg(a) for a in ann]
    # lift span-normals: need integer functional on Z^n restricting correctly;
    # use a rational solve against span basis then clear denominators
    facet_normals = []
    for n_span in dual_in_span:
        # functional f with f(span_j) = n_span_j, f = y @ (rows = identity):
        # solve span_t^T y = n_span  (y in Q^n), then clear denominators
        y = solve_linear(tuple(span), n_span)
        assert y is not None
        den = denominator_lcm(y)
        f = tuple(int(c * den) for c in y)
        if not is_zero(f):
            facet_normals.append(primitive(f))
    facet_normals = sorted(set(facet_normals + span_cut))
    # extreme rays among gens, by the rank of their tight facet normals
    extreme = _extreme_generators(gens, facet_normals, ambient_dim)
    return RationalCone(ambient_dim, extreme, facet_normals)


def _dual_rays_general(gens, dim):
    """Extreme rays of the dual cone {m : <m,g> >= 0}, gens full rank in Z^dim.

    Handles the non-pointed dual (when gens do not span positively) by
    splitting off the lineality space {m : <m,g> = 0 for all g}.
    """
    if dim == 0:
        return []
    lin = kernel_basis(tuple(gens))
    if not lin:
        return _extreme_rays_of_halfspaces(tuple(gens), dim)
    # dual = lineality + pointed part in the quotient by the lineality span
    lin_t = tuple(lin)
    comp = kernel_basis(lin_t)  # functionals vanishing... complement lattice
    if not comp:
        return sorted(set([primitive(b) for b in lin] + [vneg(primitive(b)) for b in lin]))
    proj = tuple(comp)  # rows: basis of the complement lattice (as vectors)
    # constraints in complement coordinates: <m, g> with m = sum c_i comp_i
    constr = tuple(tuple(dot(c, g) for c in proj) for g in gens)
    sub_rays = _extreme_rays_of_halfspaces(constr, len(proj))
    rays = [primitive(tuple(dot(tuple(r[i] for i in range(len(proj))), col) for col in zip(*proj))) for r in sub_rays]
    rays += [primitive(b) for b in lin] + [vneg(primitive(b)) for b in lin]
    return sorted(set(rays))


# det, mat_rank and solve_linear as they were before they shared one
# fraction-free elimination, kept verbatim as the differential oracles.


def _bareiss_det(m):
    """Determinant by fraction-free Bareiss elimination (exact ints)."""
    n = len(m)
    if n == 0:
        return 1
    assert all(len(row) == n for row in m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _fraction_rank(m):
    """Rank over the rationals, by fraction-free elimination."""
    if not m:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        for r in range(rows):
            if r != rank and a[r][c] != 0:
                f = a[r][c] / pr[c]
                a[r] = [x - f * y for x, y in zip(a[r], pr)]
        rank += 1
        if rank == rows:
            break
    return rank


def _fraction_solve(m, rhs):
    """One rational solution x of m x = rhs, or None if inconsistent.

    Free variables are set to 0.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[Fraction(x) for x in m[r]] + [Fraction(rhs[r])] for r in range(rows)]
    pivots = []
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = [x / a[rank][c] for x in a[rank]]
        a[rank] = pr
        for r in range(rows):
            if r != rank and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], pr)]
        pivots.append(c)
        rank += 1
    for r in range(rank, rows):
        if a[r][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = a[r][cols]
    return tuple(x)


# --- gift wrapping ---------------------------------------------------------
#
# The hull as it was before double description replaced it, in the form it
# had before it went integer-only and wrapped each ridge once: gift wrapping
# with Fraction ratios, every ridge wrapped from both of its facets, a
# separate simplex branch, and a rank test for vertices.  Kept verbatim as the
# differential oracle (`gift_wrap_full_dim`, formerly a second `_hull_full_dim`
# in tests/test_polytope.py); it must run with polytope._hull_full_dim patched
# to it, so the facet sub-hulls that _face_facets makes go through the oracle
# too.


def _simplex_facets(pts, d):
    """Facets of a d-simplex given by exactly d+1 affinely independent points."""
    out = []
    for drop in range(d + 1):
        rest = [pts[i] for i in range(d + 1) if i != drop]
        anchor = rest[0]
        tangent = tuple(vsub(p, anchor) for p in rest[1:])
        ker = kernel_basis(tangent)
        assert len(ker) == 1
        n = primitive(ker[0])
        if dot(n, vsub(pts[drop], anchor)) < 0:
            n = tuple(-x for x in n)
        c = -dot(n, anchor)
        out.append((n, c, tuple(i for i in range(d + 1) if i != drop)))
    return sorted(out)


def _initial_facet(pts, d):
    """One hull facet of a full-dimensional integer point set, by rotation.

    Returns (inward_normal, tight_indices).
    """
    # inward normal convention: <n, p> >= <n, p0> for all p
    n = tuple(1 if i == 0 else 0 for i in range(d))
    vals = [dot(n, p) for p in pts]
    lo = min(vals)
    contact = [i for i, v in enumerate(vals) if v == lo]
    p0 = pts[contact[0]]
    while True:
        tangent = hnf_column_basis([vsub(pts[i], p0) for i in contact])
        if len(tangent) == d - 1:
            return n, contact
        ann = kernel_basis(tuple(tangent)) if tangent else [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
        moved = False
        for v in ann:
            pairs = [(dot(n, vsub(p, p0)), dot(v, vsub(p, p0))) for p in pts]
            if all(b == 0 for a, b in pairs if a > 0):
                continue
            # rotate n toward -v until the first outside point is hit
            t_star = max(Fraction(b, a) for a, b in pairs if a > 0)
            num, den = t_star.numerator, t_star.denominator
            cand = tuple(num * ni - den * vi for ni, vi in zip(n, v))
            if is_zero(cand):
                continue
            n = primitive(cand)
            vals = [dot(n, p) for p in pts]
            lo = min(vals)
            contact = [i for i, val in enumerate(vals) if val == lo]
            p0 = pts[contact[0]]
            moved = True
            break
        if not moved:
            raise AssertionError("initial facet search stalled; input not full-dimensional?")


def _neighbor_facet(pts, d, normal, facet_idx, ridge_idx):
    """Wrap across a ridge: the other facet containing the given ridge."""
    p_r = pts[ridge_idx[0]]
    tangent = hnf_column_basis([vsub(pts[i], p_r) for i in ridge_idx])
    if tangent:
        ann = kernel_basis(tuple(tangent))
    else:
        ann = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    w = None
    for cand in ann:
        if any(dot(cand, vsub(pts[i], p_r)) != 0 for i in facet_idx):
            w = cand
            break
    assert w is not None, "ridge annihilator degenerate"
    beta = next(dot(w, vsub(pts[i], p_r)) for i in facet_idx if dot(w, vsub(pts[i], p_r)) != 0)
    if beta > 0:
        w = tuple(-x for x in w)
    # new normal n' = t*n - w with t* = max over off-facet points of w_q/a_q
    best = None
    for q in pts:
        a_q = dot(normal, vsub(q, p_r))
        if a_q <= 0:
            continue
        w_q = dot(w, vsub(q, p_r))
        r = Fraction(w_q, a_q)
        if best is None or r > best:
            best = r
    assert best is not None, "no neighbor facet; point set not full-dimensional"
    num, den = best.numerator, best.denominator
    n2 = primitive(tuple(num * ni - den * wi for ni, wi in zip(normal, w)))
    vals = [dot(n2, p) for p in pts]
    lo = min(vals)
    tight = [i for i, v in enumerate(vals) if v == lo]
    return n2, tight


def gift_wrap_full_dim(pts, d):
    """All facets of conv(pts), pts integer and affinely spanning R^d.

    Returns a list of (inward primitive normal, offset c, tight index tuple)
    for the inequality <n, x> >= -c.
    """
    if d == 0:
        return []
    if d == 1:
        vals = [p[0] for p in pts]
        lo, hi = min(vals), max(vals)
        return [
            ((1,), -lo, tuple(i for i, v in enumerate(vals) if v == lo)),
            ((-1,), hi, tuple(i for i, v in enumerate(vals) if v == hi)),
        ]
    if len(pts) == d + 1:
        return _simplex_facets(pts, d)
    first_n, first_tight = _initial_facet(pts, d)
    facets = {}
    queue = [(first_n, tuple(first_tight))]
    while queue:
        n, tight = queue.pop()
        if n in facets:
            continue
        facets[n] = tight
        # ridges = facets of the (d-1)-dimensional face conv(tight); for a
        # simplicial facet these are just the (d-1)-subsets
        if len(tight) == d:
            ridge_sets = [tuple(tight[j] for j in range(d) if j != i) for i in range(d)]
        else:
            sub_pts = [pts[i] for i in tight]
            ridge_sets = [tuple(tight[i] for i in ridge_local) for ridge_local in _face_facets(sub_pts)]
        for ridge_idx in ridge_sets:
            n2, tight2 = _neighbor_facet(pts, d, n, tight, ridge_idx)
            if n2 not in facets:
                queue.append((n2, tuple(tight2)))
    out = []
    for n, tight in sorted(facets.items()):
        c = -dot(n, pts[tight[0]])
        out.append((n, c, tuple(sorted(tight))))
    return out


def _rank_vertices(pts, facs, d):
    """The points of pts that hull's former rank test calls vertices."""
    # vertices: points whose tight facet normals span the full span dim
    tight_at = {i: [] for i in range(len(pts))}
    for n, c, tight in facs:
        for i in tight:
            tight_at[i].append(n)
    verts = [pts[i] for i in range(len(pts)) if mat_rank(tuple(tight_at[i])) == d]
    return verts


def oracle_smith_normal_form(m):
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


def oracle_complete_to_unimodular(v):
    """A unimodular matrix U with U @ v = e1, for primitive v, read off a Smith normal form of the column v.

    Rows 2..n of U give a basis of functionals cutting out the quotient Z^n/Zv.
    """
    if content(v) != 1:
        raise ValueError("vector must be primitive")
    s, u, vv = oracle_smith_normal_form(tuple((x,) for x in v))
    if s[0][0] != 1:
        raise InvariantError(f"Smith form of primitive {v} has leading entry {s[0][0]}")
    if vv[0][0] == -1:
        u = tuple(tuple(-x for x in row) for row in u)
    if mat_vec(u, v) != tuple(1 if i == 0 else 0 for i in range(len(v))):
        raise InvariantError(f"completion of {v} does not send it to e1")
    return u


def oracle_vertex_chart(v):
    """(q, s) at the vertex v as the retired `_vertex_chart` made it: the Smith completion u, and a left inverse of u."""
    u = oracle_complete_to_unimodular(primitive(clear_fractions(v)))
    inv, d = left_inverse(u)  # d = det u = +-1, so u^-1 = d * inv
    return u[1:], tuple(tuple(d * row[j] for row in inv) for j in range(1, len(u)))


def oracle_facet(chart, functional, vertex):
    """`polytope._facet` with the lift made on every call."""
    basis = chart[0]
    g = clear_fractions(functional)
    n = primitive(g if len(basis) == len(g) else _lift(chart, mat_vec(basis, g)))
    return n, _ratio(-dot(n, vertex))


def oracle_fraction_crepant_subdivision(poly):
    """`fine_crepant_subdivision` with every fit made in the Fraction heights."""
    if not poly.is_reflexive():
        raise ValueError("fine crepant subdivision needs a reflexive polytope")
    origin = tuple(0 for _ in range(poly.ambient_dim))
    chart = poly.chart
    last_bad = None
    for seed in range(8):
        cells, table = boundary_triangulation(poly, seed)
        bad = [c.key() for c in cells if not c.is_elementary_simplex()]
        if bad:
            last_bad = bad
            continue
        cones = []
        fits = {}
        for c in cells:
            verts = sorted(c.vertices + (origin,))
            a, d = left_inverse(tuple(v + (1,) for v in verts))
            s = 1 if d > 0 else -1
            facets = [primitive(tuple(s * x for x in col)) for col in zip(*a)]
            full = (1 << len(verts)) - 1
            cone = _assemble(chart, verts, [(y[:-1], y[-1]) for y in facets], [full ^ 1 << k for k in range(len(verts))])
            cones.append(cone)
            base = mat_vec(a, [0 if v == origin else table[v] for v in verts])
            correction = tuple(row[verts.index(origin)] for row in a)
            fits[cone.key()] = (base, correction, d)
        sub = Subdivision(poly, cones)
        bends = []
        for wall, (i, j) in sub.interior_walls().items():
            base, correction, d = fits[sub.maximal_cells[i].key()]
            p = next(v for v in sub.maximal_cells[j].vertices if v not in wall)
            s = 1 if d > 0 else -1
            bends.append((s * (d * table[p] - dot(base, p + (1,))), -s * dot(correction, p + (1,))))
        drop = -1
        for _ in range(40):
            if all(a + drop * b > 0 for a, b in bends):
                break
            drop *= 2
        else:
            raise ValueError("origin pull-down failed to certify a convex function")
        if sum(abs(d) for _, _, d in fits.values()) != poly.normalized_volume():
            raise ValueError("boundary triangulation does not tile the polytope")
        pieces = {}
        for key, (base, correction, d) in fits.items():
            x = tuple(_ratio(b + drop * c, d) for b, c in zip(base, correction))
            pieces[key] = (x[:-1], x[-1])
        return sub, PLFunction(pieces, True)
    raise ValueError(
        "height perturbation failed to reach an elementary triangulation; "
        f"non-elementary boundary cells remain after all deterministic seeds ({len(last_bad)} at the last seed)"
    )


def oracle_nvol_full_dim(coords, d):
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
        total += abs(h) * oracle_nvol_full_dim(rows, d - 1)
    return total


def oracle_normalized_volume(poly):
    """dim! times the Euclidean volume of poly within its affine span, by re-hulling its facets."""
    if poly.dim == 0:
        return 1
    rows, den = _span_coordinates(poly.chart, poly.anchor, poly.vertices)
    return _ratio(oracle_nvol_full_dim(rows, poly.dim), den**poly.dim)
