"""Piecewise-linear functions and regular polyhedral subdivisions.

Regular subdivisions are computed as lower hulls of lifted point sets, with
all arithmetic over the integers after clearing denominators.  Tie-breaking is
fully deterministic (lexicographic point order everywhere), so two runs of any
construction produce identical cell lists.
"""

from __future__ import annotations

from .exactlin import _ratio, denominator_lcm, dot, left_inverse, mat_vec, primitive
from .polytope import (
    NefPartition,
    _assemble,
    _bits,
    _facets_of,
    _hull_full_dim,
    _lift,
    _span_coordinates,
    _vertex_indices,
    clip_by_halfspace,
    graph_points,
    hull,
    is_minkowski_sum,
    normalize_point,
    product,
    segment,
    tight_at,
    walls,
)


def affine_value(functional, point):
    coeffs, const = functional
    return dot(coeffs, point) + const


class PLFunction:
    """A piecewise-linear function given by one affine piece per maximal cell.

    `convex` is the certified convexity flag.  Pieces are keyed by the
    cell's canonical vertex tuple.
    """

    def __init__(self, pieces, convex):
        self.pieces = dict(pieces)
        self.convex = convex


class Subdivision:
    """A polyhedral decomposition of a support polytope into maximal cells.

    Maximal cells cover the support and intersect in common faces; normalized
    volumes of the cells sum to the support's.  The walls are computed on
    demand.  `parents` holds, for a common refinement, one pair (source,
    {cell key: key of the source cell holding it}) per subdivision it refines.
    """

    def __init__(self, support, maximal_cells, parents=()):
        self.support = support
        self.maximal_cells = tuple(sorted(maximal_cells, key=lambda c: c.key()))
        self.parents = tuple(parents)
        self._walls = None

    def __repr__(self):
        return f"Subdivision({len(self.maximal_cells)} cells, support dim={self.support.dim})"

    def walls(self):
        """Codimension-1 cells with the list of maximal cells containing each."""
        if self._walls is None:
            self._walls = walls(self.maximal_cells)
        return self._walls

    def interior_walls(self):
        return {k: v for k, v in self.walls().items() if len(v) == 2}


def regular_subdivision(points, heights, support=None):
    """Lower-envelope subdivision of lifted points with its convex certificate.

    Points must affinely span their hull; duplicate points with conflicting
    heights are an error.  support, when given, is taken for that hull
    unchecked, so the caller passes it only when it knows every point lies
    in it and every vertex of it is a point.  Returns (Subdivision,
    PLFunction).  Each cell is the projection of a lower facet F of the
    lifted points' double description (De Loera, Rambau and Santos,
    *Triangulations*, 2010), read off that description with no hull of its
    own: it spans the support, so it takes the support's chart; its facets
    are the inclusion-maximal ridges F & G over the other lifted facets G
    (`_facets_of` on their tight bitmasks), each the functional
    n_F[-1] g' - g[-1] n_F' with the height coordinate dropped (for a
    vertical G, g' itself), which is the inequality of G with the height of
    F put in; its vertices are the tight points alone in the meet of their
    ridges (`_vertex_indices`, the hull's rule), so a tight point of tied
    heights that is not a vertex drops out; and its incidence is read off
    the ridge masks.  Its piece is read off F.
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
    if support is None:
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
    facs = _hull_full_dim(lifted, d + 1)
    masks = [sum(1 << i for i in tight) for _, _, tight in facs]
    cells = []
    pieces = {}
    for (n, c, _), mask in zip(facs, masks):
        top = n[-1]
        if top <= 0:
            continue  # not a lower facet
        ridges = _facets_of(masks, mask)
        tights = [_bits(m) for m in ridges]
        index = _vertex_indices(tights)
        bit = {i: 1 << j for j, i in enumerate(index)}
        facets = []
        for k, t in zip(ridges.values(), tights):
            g = facs[k][0]
            f = primitive(_lift(chart, tuple(top * a - g[-1] * b for a, b in zip(g[:-1], n[:-1]))))
            facets.append((f, _ratio(-dot(f, pts[t[0]]))))
        incidence = [sum(bit.get(i, 0) for i in t) for t in tights]
        cell = _assemble(chart, [pts[i] for i in index], facets, incidence)
        cells.append(cell)
        # on the facet den * sden * h = -(c + sden <n', s>) / n[-1], where
        # s = a (x - anchor) / dd are the span coordinates and n' = n[:-1];
        # `_lift` gives w = dd * a^T n', so <n', s> = <w, x - anchor> / dd^2
        w = _lift(chart, n[:-1])
        scale = den * n[-1] * dd * dd
        coeffs = tuple(_ratio(-x, scale) for x in w)
        pieces[cell.key()] = (coeffs, _ratio(sden * dot(w, anchor) - c * dd * dd, sden * scale))
    return Subdivision(support, cells), PLFunction(pieces, True)


def common_refinement(sub1, sub2):
    """Cells = full-dimensional intersections of cells from the two inputs.

    Each intersection clips a cell a of sub1 by the facets of a cell b of
    sub2; both cells span the common support, so the equations already agree.
    A facet of b that is a facet of the support holds all of a, so it is
    skipped, and a pair stops at the first facet that leaves no vertex of
    the clip strictly inside, as what is left then has a lower dimension.
    The refinement records, for each kept cell, the key of a in sub1 and of b
    in sub2, and through them its parent in every subdivision an input
    itself refines, so `_piece_on` reads each piece with no containment test.
    """
    if sub1.support.vertices != sub2.support.vertices:
        raise ValueError("domain mismatch")
    bounding = set(sub1.support.facets)
    cells = {}
    up1 = {}
    up2 = {}
    for a in sub1.maximal_cells:
        for b in sub2.maximal_cells:
            x = a
            for n, c in b.facets:
                if (n, c) in bounding:
                    continue
                if all(dot(n, v) + c <= 0 for v in x.vertices):
                    break
                x = clip_by_halfspace(x, n, c)
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


def sum_refinement(f, g, sub_f, sub_g):
    """Common refinement with the summed functional; convex if inputs are."""
    refined = common_refinement(sub_f, sub_g)
    pieces = {}
    for cell in refined.maximal_cells:
        pf = _piece_on(f, sub_f, refined, cell)
        pg = _piece_on(g, sub_g, refined, cell)
        pieces[cell.key()] = (tuple(_ratio(a + b) for a, b in zip(pf[0], pg[0])), _ratio(pf[1] + pg[1]))
    return refined, PLFunction(pieces, f.convex and g.convex)


def _piece_on(f, sub, refined, cell):
    """The affine piece of f, a function on sub, valid on a maximal cell of refined.

    A cell that is a maximal cell of sub takes its own piece; any other takes
    the piece of the parent that `common_refinement` recorded for it in sub.
    Raises ValueError when refined records no parent in sub for the cell,
    that is when refined was not built by `common_refinement` from sub.
    """
    key = cell.key()
    if key in f.pieces:
        return f.pieces[key]
    for source, parent in refined.parents:
        if source is sub:
            return f.pieces[parent[key]]
    raise ValueError(f"cell {list(key)} has no recorded parent cell in the coarser subdivision")


def product_pullback(f, sub, other, side="left"):
    """Pull a PLFunction back along the projection of a product polytope.

    side="left": domain becomes domain x other; side="right": other x domain.
    """
    cells = []
    pieces = {}
    zeros = tuple(0 for _ in range(other.ambient_dim))
    for cell in sub.maximal_cells:
        big = product(cell, other) if side == "left" else product(other, cell)
        cells.append(big)
        coeffs, const = f.pieces[cell.key()]
        if side == "left":
            new_coeffs = tuple(coeffs) + zeros
        else:
            new_coeffs = zeros + tuple(coeffs)
        pieces[big.key()] = (new_coeffs, const)
    support = product(sub.support, other) if side == "left" else product(other, sub.support)
    return Subdivision(support, cells), PLFunction(pieces, f.convex)


def deterministic_jitter(point, seed=0):
    """A reproducible integer in [0, 2^31) mixed from the coordinates.

    A plain lexicographic index (or any multiply-add chain) is an affine
    function of the coordinates on grid-like point sets, so it cannot break
    the cospherical ties of a squared-norm lift.  The xor-shift rounds below
    are genuinely nonlinear, deterministic, and identical across platforms.
    """
    mask = (1 << 64) - 1
    acc = (0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9)) & mask
    for x in point:
        acc = (acc + (int(x) + 65537) * 0x94D049BB133111EB) & mask
        acc ^= acc >> 30
        acc = (acc * 0xBF58476D1CE4E5B9) & mask
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & mask
        acc ^= acc >> 31
    return acc % (1 << 31)


def jittered_heights(points, seed=0):
    """Squared-norm heights plus a tie-breaking jitter strictly below 1."""
    return [_ratio(sum(int(x) * int(x) for x in p) * (1 << 31) + deterministic_jitter(p, seed), 1 << 31) for p in points]


def boundary_triangulation(poly, seed=0):
    """Fine regular triangulation of the boundary by all its lattice points.

    Built facet by facet with one global height vector; the per-facet lower
    hulls agree on shared ridges because face restriction of a lower envelope
    only involves the points on that face.  Returns the list of boundary
    simplices and the height table.
    """
    boundary = sorted(p for p in poly.lattice_points() if not poly.contains_strictly(p))
    hts = jittered_heights(boundary, seed)
    table = dict(zip(boundary, hts))
    cells = []
    seen = set()
    for facet in poly.facets:
        pts = [p for p in boundary if tight_at(facet, (p,))]
        sub, _ = regular_subdivision(pts, [table[p] for p in pts])
        for c in sub.maximal_cells:
            if c.key() not in seen:
                seen.add(c.key())
                cells.append(c)
    return cells, table


def fine_crepant_subdivision(poly):
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
    chart = poly.chart
    last_bad = None
    for seed in range(8):
        cells, table = boundary_triangulation(poly, seed)
        bad = [c.key() for c in cells if not c.is_elementary_simplex()]
        if bad:
            last_bad = bad
            continue
        # certify regularity: interpolate the boundary heights with the origin
        # pulled down until the assembled function is strictly convex.  The
        # heights are cleared once, by the lcm s of their denominators, so
        # every fit is in ints.  Each cone is a full-dimensional simplex, so
        # one left inverse a of its rows (v, 1), with a @ rows = d * I, fits
        # it once: the piece is a base fit of the cleared heights (origin at
        # 0) plus drop * s times a correction (1 at the origin, 0 on the
        # base), divided by d * s, and |d| is the cone's normalized volume.
        # Column k of a, signed by d, is inward and vanishes at every vertex
        # but the k-th, so made primitive it is the facet opposite that vertex
        scale = denominator_lcm(table.values())
        cleared = {p: h.numerator * (scale // h.denominator) for p, h in table.items()}
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
            base = mat_vec(a, [0 if v == origin else cleared[v] for v in verts])
            correction = tuple(row[verts.index(origin)] for row in a)
            fits[cone.key()] = (base, correction, d)
        sub = Subdivision(poly, cones)
        # both cells of an interior wall are simplices sharing that facet, and
        # their pieces agree on it, so the one vertex p of cell j off the wall
        # decides the bend: f is strictly convex across the wall iff cell i's
        # piece at p lies strictly below table[p].  Times s * |d| of cell i
        # that reads a + drop * b > 0, with a and b fixed by the boundary
        # heights
        bends = []
        for wall, (i, j) in sub.interior_walls().items():
            base, correction, d = fits[sub.maximal_cells[i].key()]
            p = next(v for v in sub.maximal_cells[j].vertices if v not in wall)
            sign = 1 if d > 0 else -1
            bends.append((sign * (d * cleared[p] - dot(base, p + (1,))), -sign * scale * dot(correction, p + (1,))))
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
            x = tuple(_ratio(b + drop * scale * c, d * scale) for b, c in zip(base, correction))
            pieces[key] = (x[:-1], x[-1])
        return sub, PLFunction(pieces, True)
    raise ValueError(
        "height perturbation failed to reach an elementary triangulation; "
        f"non-elementary boundary cells remain after all deterministic seeds ({len(last_bad)} at the last seed)"
    )


def hyperplane_split(poly, coord_index, level):
    """Split along u_i = level with the convex tent max(0, u_i - level)."""
    vals = [v[coord_index] for v in poly.vertices]
    if not (min(vals) < level < max(vals)):
        raise ValueError("level outside the open coordinate range")
    ambient = poly.ambient_dim
    e_i = tuple(1 if j == coord_index else 0 for j in range(ambient))
    low = clip_by_halfspace(poly, tuple(-x for x in e_i), level)
    high = clip_by_halfspace(poly, e_i, -level)
    pieces = {low.key(): (tuple(0 for _ in range(ambient)), 0), high.key(): (e_i, -level)}
    return Subdivision(poly, [low, high]), PLFunction(pieces, True)


class GraphDegeneration:
    """Graphs of convex PL functions over a common refinement of their cells.

    Each cell of `total_complex` is the graph over a refined cell, kept as
    its vertex key: the sorted tuple of the lifted vertices (`graph_points`),
    since every lifted vertex is a vertex of the graph.  Restricting to the
    diagonal reproduces the one-parameter degeneration of the summed
    function.
    """

    def __init__(self, base, height_functions, refinement, total_cells):
        self.base = base
        self.heights = tuple(height_functions)
        self.refinement = refinement
        self.total_complex = tuple(sorted(total_cells))


def graph_degeneration(subs_and_fs, refinement=None):
    """r-parameter degeneration from (Subdivision, PLFunction) pairs.

    With no `refinement`, the input subdivisions are folded with
    `common_refinement`.  A caller that already has their refinement passes
    it: it must come from `common_refinement` of those same subdivision
    objects, since each cell reads its piece of each input off the parent
    keys recorded there (an input's own cells need no record).  Any other
    refinement raises ValueError naming the first cell with no record.
    """
    for _, f in subs_and_fs:
        if not f.convex:
            raise ValueError("graph degeneration needs convex height functions")
    if refinement is not None:
        refined = refinement
    else:
        refined = subs_and_fs[0][0]
        for s, _ in subs_and_fs[1:]:
            refined = common_refinement(refined, s)
    total = []
    for cell in refined.maximal_cells:
        pieces = [_piece_on(f, s, refined, cell) for s, f in subs_and_fs]
        total.append(tuple(graph_points(cell, pieces)))
    return GraphDegeneration(refined.support, [f for _, f in subs_and_fs], refined, total)


def blowup_refinement(nef, delta_a, delta_b):
    """Blow-up polytope data for a refined nef partition.

    parts are Delta_a x [0,1], Delta_b x [-1,0] and Delta_i x {0} for i >= 1;
    the Minkowski sum of the parts is parent x [-1,1], which is returned as
    the total.  Delta_a + Delta_b = Delta_0 is decided by `is_minkowski_sum`,
    with no hull; given it, the parts sum to the total, which the returned
    `NefPartition` checks again.
    """
    if not is_minkowski_sum([delta_a, delta_b], nef.parts[0]):
        raise ValueError("Minkowski split invalid: delta_a + delta_b != Delta_0")
    up = segment(0, 1)
    down = segment(-1, 0)
    origin = hull([(0,)])
    parts = [product(delta_a, up), product(delta_b, down)]
    for part in nef.parts[1:]:
        parts.append(product(part, origin))
    total = product(nef.parent, segment(-1, 1))
    return total, parts, NefPartition(total, parts)
