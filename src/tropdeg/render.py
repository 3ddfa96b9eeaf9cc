"""SVG emitter for 2-dimensional tropical spaces.

Boundary spheres are drawn as an unfolded net: facets of the support polytope
are placed in the plane by integral affine charts glued edge by edge along a
fixed breadth-first unfolding, so coordinates stay exact integers and two runs
emit identical bytes.  Discriminant points are marked in red.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import InvariantError, clear_fractions, det, left_inverse, mat_mul, primitive, vsub
from .polytope import _lattice_chart, _span_coordinates, barycenter, tight_at
from .tropical import discriminant

SCALE = 48
MARGIN = 24


def _facet_chart(poly, mask):
    """Anchor (least vertex) and span chart of a facet plane of a 3-polytope, read off the facet's vertex mask."""
    verts = poly.vertices_of(mask)
    return verts[0], _lattice_chart(verts)


def _local_coords(points, anchor, chart):
    """Exact coordinates of points of a facet plane in its chart."""
    rows, den = _span_coordinates(chart, anchor, points)
    return [tuple(Fraction(x, den) for x in r) for r in rows]


def _net_charts(poly):
    """Affine placement map per facet of a 3-polytope, glued across ridges.

    Returns {facet: (anchor, chart, linear 2x2, offset 2-vector)} so a point p
    on the facet lands at linear @ local(p) + offset.
    """
    facets = list(poly.facets)
    masks = poly.incidence
    # facets i and j meet in a ridge when they share two vertices
    ridge = {(i, j): f & g for i, f in enumerate(masks) for j, g in enumerate(masks) if i != j and (f & g).bit_count() >= 2}
    charts = {}
    root = 0
    a0, b0 = _facet_chart(poly, masks[root])
    charts[root] = (a0, b0, ((1, 0), (0, 1)), (0, 0))
    queue = [root]
    seen = {root}
    while queue:
        i = queue.pop(0)
        anchor_i, chart_i, lin_i, off_i = charts[i]

        def place(points):
            return [_apply(lin_i, off_i, loc) for loc in _local_coords(points, anchor_i, chart_i)]

        for j in range(len(facets)):
            if j in seen or (i, j) not in ridge:
                continue
            shared = poly.vertices_of(ridge[(i, j)])
            p0 = shared[0]
            delta = primitive(clear_fractions(vsub(shared[-1], p0)))
            p1 = tuple(a + b for a, b in zip(p0, delta))
            # vertices of facets i and j off the ridge fix the orientation below
            q_i, q_j = (poly.vertices_of(masks[k] & ~ridge[(i, j)])[0] for k in (i, j))
            anchor_j, chart_j = _facet_chart(poly, masks[j])
            # linear part: edge direction matches; the completion direction is
            # sent to the opposite side of the placed edge
            p1_img, p0_img, qi_img = place([p1, p0, q_i])
            d_img = tuple(int(x) for x in vsub(p1_img, p0_img))
            d_loc_j, p0_loc_j, qj_loc = _local_coords([p1, p0, q_j], anchor_j, chart_j)
            d_j = tuple(int(a - b) for a, b in zip(d_loc_j, p0_loc_j))
            # basis of the j-chart: (d_j, e_j) with e_j any unimodular completion
            e_j, d_perp_img = _completion(d_j), _completion(d_img)
            # choose the orientation putting facet j opposite facet i
            side_i = _side(p0_img, d_img, qi_img)
            for sign in (1, -1):
                w_img = (sign * d_perp_img[0], sign * d_perp_img[1])
                # linear map: d_j -> d_img, e_j -> w_img
                m = _solve_linear_map(d_j, e_j, d_img, w_img)
                off = _affine_offset(m, p0_loc_j, p0_img)
                qj_img = _apply(m, off, qj_loc)
                if _side(p0_img, d_img, qj_img) == -side_i:
                    charts[j] = (anchor_j, chart_j, m, off)
                    break
            else:
                raise InvariantError("could not orient facet in the net")
            seen.add(j)
            queue.append(j)
    return facets, charts


def _completion(d):
    """The first of four fixed vectors completing d to a unimodular basis of Z^2."""
    e = next((c for c in ((0, 1), (1, 0), (1, 1), (-1, 1)) if abs(det(((d[0], c[0]), (d[1], c[1])))) == 1), None)
    if e is None:
        raise InvariantError(f"no fixed vector completes {d} to a unimodular basis")
    return e


def _solve_linear_map(v1, v2, w1, w2):
    """2x2 integer matrix M with M v1 = w1, M v2 = w2, for unimodular (v1 v2)."""
    inv, d = left_inverse(((v1[0], v2[0]), (v1[1], v2[1])))
    return tuple(tuple(x // d for x in row) for row in mat_mul(((w1[0], w2[0]), (w1[1], w2[1])), inv))


def _affine_offset(m, loc, target):
    img = (m[0][0] * loc[0] + m[0][1] * loc[1], m[1][0] * loc[0] + m[1][1] * loc[1])
    return (Fraction(target[0]) - img[0], Fraction(target[1]) - img[1])


def _apply(m, off, loc):
    return (
        m[0][0] * loc[0] + m[0][1] * loc[1] + off[0],
        m[1][0] * loc[0] + m[1][1] * loc[1] + off[1],
    )


def _side(p, d, q):
    cross = d[0] * (Fraction(q[1]) - p[1]) - d[1] * (Fraction(q[0]) - p[0])
    return (cross > 0) - (cross < 0)


def render_svg(space, support=None):
    """SVG 1.1 picture of a 2-dimensional tropical space.

    Planar solid complexes are drawn in their own coordinates; boundary
    spheres are unfolded along the fixed net.  Discriminant points are red.
    """
    if space.dim != 2:
        raise ValueError("render needs a 2-dimensional tropical space")
    disc = discriminant(space)
    placed_cells = []
    placed_points = []
    boundary_segments = []
    if space.chart_kind == "boundary":
        if support is None:
            raise ValueError("boundary spaces need their support polytope for the net")
        if support.dim != 3:
            raise ValueError("the net of a boundary space needs a 3-dimensional support polytope")
        facets, charts = _net_charts(support)

        def host_facet(cell):
            for idx, facet in enumerate(facets):
                if tight_at(facet, cell.vertices):
                    return idx
            raise ValueError("cell lies in no facet of the support")

        for cell in space.maximal_cells:
            idx = host_facet(cell)
            anchor, chart, m, off = charts[idx]
            pts = [_apply(m, off, loc) for loc in _local_coords(_cycle(cell), anchor, chart)]
            placed_cells.append(pts)
        for entry in disc.entries:
            adj_key = min(
                c.key() for c in space.maximal_cells if set(entry["edge"]) <= set(c.vertices)
            )
            adj = next(c for c in space.maximal_cells if c.key() == adj_key)
            idx = host_facet(adj)
            anchor, chart, m, off = charts[idx]
            (loc,) = _local_coords([barycenter(entry["edge"])], anchor, chart)
            placed_points.append(_apply(m, off, loc))
    else:
        for cell in space.maximal_cells:
            placed_cells.append([(Fraction(v[0]), Fraction(v[1])) for v in _cycle(cell)])
        for entry in disc.entries:
            mid = barycenter(entry["edge"])
            placed_points.append((Fraction(mid[0]), Fraction(mid[1])))
        for key, adj in space.walls().items():
            if len(adj) == 1 and len(key) == 2:
                boundary_segments.append(((Fraction(key[0][0]), Fraction(key[0][1])), (Fraction(key[1][0]), Fraction(key[1][1]))))
    return _svg_document(placed_cells, placed_points, boundary_segments)


def _cycle(cell):
    """Vertices of a polygon in boundary order (walk its edge graph)."""
    verts = list(cell.vertices)
    if len(verts) <= 3:
        return verts
    adj = {}
    for a, b in cell.facet_keys():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    order = [verts[0]]
    prev = None
    while len(order) < len(verts):
        nxt = [x for x in adj[order[-1]] if x != prev]
        prev = order[-1]
        order.append(nxt[0])
    return order


def _svg_document(cells, points, boundary_segments=()):
    xs = [x for pts in cells for x, _ in pts]
    ys = [y for pts in cells for _, y in pts]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    def sx(x):
        return int((Fraction(x) - lo_x) * SCALE) + MARGIN

    def sy(y):
        return int((hi_y - Fraction(y)) * SCALE) + MARGIN

    width = int((hi_x - lo_x) * SCALE) + 2 * MARGIN
    height = int((hi_y - lo_y) * SCALE) + 2 * MARGIN
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
    ]
    for pts in cells:
        path = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
        out.append(f'<polygon points="{path}" fill="#f3f1e8" stroke="#444444" stroke-width="2"/>')
    for seg in boundary_segments:
        (x1, y1), (x2, y2) = seg
        out.append(
            f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{sx(x2)}" y2="{sy(y2)}" stroke="#000000" stroke-width="4"/>'
        )
    for x, y in sorted(points):
        out.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="6" fill="red"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
