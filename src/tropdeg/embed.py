"""Tropical embedding machinery: fibres, simplex fibrations, LG truncation.

The fibration data of a wall-type degeneration lives on the cone over each
wall-adjacent cell at level 1: component functionals y_0..y_r and the level
functional p, all nonnegative on the cone.  The deepest-stratum complex is the
union of the local fibres over (1,...,1), and integral tangent surjectivity of
the embedding is a Smith-normal-form check on every host cell.
"""

from __future__ import annotations

from .exactlin import (
    RationalCone,
    _ratio,
    clear_fractions,
    dot,
    is_integrally_surjective,
    mat_identity,
    mat_rank,
    mat_vec,
    primitive,
    snf_diagonal,
    vneg,
    vsub,
)
from .polytope import (
    _assemble,
    _facet,
    _lattice_chart,
    _low,
    _span_coordinates,
    clip_by_halfspace,
    containing_cell,
    hull,
    is_lattice_point,
    section,
    standard_simplex,
    walls,
)
from .tropical import TropicalSpace


class FibrationData:
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


def local_fibre(fib, target):
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


def wall_fibration_data(space, coord, level):
    """Per-cell fibration data for a rank-1 Tyurin wall {x_coord = level}.

    Only cells meeting the wall get data (the positive integral
    neighbourhood); each gets the cone over its clip to the unit collar, so
    the component functionals stay nonnegative.
    """
    n = space.ambient_dim
    e = tuple(1 if i == coord else 0 for i in range(n))
    y0 = tuple(x for x in e) + (1 - level,)  # y0(x,t) = x_coord + (1-level) t
    y1 = tuple(-x for x in e) + (1 + level,)  # y1(x,t) = -x_coord + (1+level) t
    p = tuple(0 for _ in range(n)) + (1,)
    out = {}
    for cell in space.maximal_cells:
        vals = [v[coord] for v in cell.vertices]
        if not (min(vals) <= level <= max(vals)):
            continue
        clipped = clip_by_halfspace(cell, e, 1 - level)
        if clipped is not None:
            clipped = clip_by_halfspace(clipped, tuple(-x for x in e), 1 + level)
        if clipped is None or clipped.dim != cell.dim:
            continue
        out[cell.key()] = FibrationData(cone_over_cell(clipped), [y0, y1], p)
    return out


class ComplexMap:
    """A cellwise integral affine map between complexes.

    entries: {source: key, target: key, matrix, translation}; `surjective`,
    `missing_cells` and `warnings` carry the verdicts of the construction.
    """

    def __init__(self, entries, surjective=None, missing_cells=(), warnings=(), metadata=None):
        self.entries = tuple(entries)
        self.surjective = surjective
        self.missing_cells = tuple(missing_cells)
        self.warnings = tuple(warnings)
        self.metadata = dict(metadata or {})


def _tangent_map(host, fib):
    """Integer matrix of y_1..y_r on the host cell's tangent lattice."""
    return tuple(tuple(dot(y[:-1], b) for b in host.span_basis) for y in fib.y[1:])


def embed_D(space, fibration):
    """The deepest-stratum complex as fibres over (1,...,1), with its embedding.

    Returns (T_D, iota, surjective): T_D in reduced slice coordinates, iota a
    ComplexMap back into the host, and surjective the conjunction of the
    integral tangent surjectivity checks.  Each fibre is computed once, into
    a table of fibre vertices -> (dimension, host keys), and only the reduced
    cells are hulled.  Tangent surjectivity is checked on every host, and
    fan compatibility once per fibre, since the charts are the vertices';
    iota maps a fibre to its last host, and iota.metadata["fibres"] lists
    the keys.
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    table = {}
    rank = None
    for key, fib in sorted(fibration.items()):
        rank = fib.rank
        f = local_fibre(fib, (1,) * (len(fib.y) + 1))
        if f is None:
            continue
        # the fibre lies in the level p = 1, so dropping that coordinate keeps its sorted vertices
        level_one = tuple(v[:-1] for v in f.vertices)
        table.setdefault(level_one, (f.dim, []))[1].append(key)
    if not table:
        raise ValueError("all local fibres over (1,...,1) are empty")
    _check_face_consistency(fibration)
    # the slice chart: the span chart of the cells' union, anchored at its
    # least point, the first vertex of the least key
    chart = _lattice_chart([v for verts in table for v in verts])
    anchor, basis = min(table)[0], chart[0]
    surjective = True
    entries = []
    reduced_cells = []
    host_cells = {c.key(): c for c in space.maximal_cells}
    for verts, (dim, hosts) in sorted(table.items()):
        for h in hosts:
            if not is_integrally_surjective(_tangent_map(host_cells[h], fibration[h])):
                surjective = False
        _assert_fan_compatibility(space, verts, dim)
        rows, den = _span_coordinates(chart, anchor, verts)
        reduced = hull([tuple(_ratio(x, den) for x in r) for r in rows]) if basis else hull([(0,)])
        reduced_cells.append(reduced)
        entries.append(
            {
                "source": reduced.key(),
                "target": hosts[-1],
                "matrix": tuple(zip(*basis)) if basis else ((0,),) * len(anchor),
                "translation": anchor,
            }
        )
    t_d = TropicalSpace(
        len(basis) or 1,
        max(c.dim for c in reduced_cells),
        reduced_cells,
        "solid",
        metadata={"embedded": "deepest stratum fibre over (1,...,1)", "anchor": anchor, "basis": basis, "rank": rank},
    )
    iota = ComplexMap(entries, surjective=surjective, metadata={"anchor": anchor, "fibration": dict(fibration), "fibres": sorted(table)})
    return t_d, iota, surjective


def _check_face_consistency(fibration):
    """Fibration functionals of cells sharing a face must agree on the overlap.

    Each vertex keeps the values of the first cell holding it, in key order;
    every other cell holding the vertex must give the same values.
    """
    seen = {}
    for key, fib in sorted(fibration.items()):
        for v in key:
            vals = tuple(dot(y, v + (1,)) for y in fib.y)
            if seen.setdefault(v, vals) != vals:
                raise ValueError("fibration data inconsistent across a shared face")


def _assert_fan_compatibility(space, vertices, dim):
    """The vertex charts must not degenerate the embedded cell, given by its vertices and dimension, at any vertex."""
    for v in vertices:
        if not is_lattice_point(v):
            continue
        chart = space.chart_matrix(v)
        imgs = []
        for w in vertices:
            d = vsub(w, v)
            if all(x == 0 for x in d):
                continue
            imgs.append(mat_vec(chart, d))
        if imgs and mat_rank(tuple(imgs)) != dim:
            raise ValueError("embedding is not compatible with the fan structure at " + str(v))


def simplex_fibration(space, fibration):
    """Cellwise affine map onto the (r+1)-dilated r-simplex.

    Its fibre over the barycenter (1,...,1) is `barycenter_fibre`; a warning
    is flagged when the fibration rescales the integral affine structure (a
    nontrivial SNF diagonal on some cell).
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    rank = next(iter(fibration.values())).rank
    target = standard_simplex(rank, rank + 1)
    entries = []
    warnings = []
    host_cells = {c.key(): c for c in space.maximal_cells}
    for key, fib in sorted(fibration.items()):
        matrix = tuple(tuple(y[:-1]) for y in fib.y[1:])
        translation = tuple(y[-1] for y in fib.y[1:])
        if any(d > 1 for d in snf_diagonal(_tangent_map(host_cells[key], fib))):
            warnings.append(f"fibration rescales the integral affine structure on {key}")
        entries.append(
            {
                "source": key,
                "target": target.key(),
                "matrix": matrix,
                "translation": translation,
            }
        )
    return ComplexMap(entries, surjective=None, warnings=warnings, metadata={"target": target, "rank": rank})


def barycenter_fibre(space, fibration):
    """Fibre of the simplex fibration over the barycenter, as sorted cell keys.

    Each host cell is cut by the simplex map's equations y_i(x, 1) = 1,
    i = 1..r, each one `section`; no cone and no local fibre is used, so
    the keys check those of `embed_D` independently.
    """
    host_cells = {c.key(): c for c in space.maximal_cells}
    out = set()
    for key, fib in fibration.items():
        cell = host_cells[key]
        for y in fib.y[1:]:
            if cell is not None:
                cell = section(cell, y[:-1], 1 - y[-1])
        if cell is not None:
            out.add(cell.key())
    return sorted(out)


def side_subcomplex(space, coord, level, side):
    """Cells of the space on one side of a coordinate level (closed)."""
    cells = []
    for c in space.maximal_cells:
        vals = [v[coord] for v in c.vertices]
        if side == "low" and max(vals) <= level:
            cells.append(c)
        elif side == "high" and min(vals) >= level:
            cells.append(c)
    boundary = [k for k in space.boundary_keys if any(set(k) <= set(c.vertices) for c in cells)]
    return TropicalSpace(
        space.ambient_dim,
        space.dim,
        cells,
        space.chart_kind,
        boundary_keys=boundary,
        metadata=dict(space.metadata),
    )


def lg_truncate(space, u_functional):
    """Clip all cells to u <= 1 and record the new boundary at level 1.

    u must be affine on every cell (it is given as one global affine
    functional); no interior walls are created inside the fibre over 1.
    """
    coeffs, const = u_functional
    ambient = space.ambient_dim
    neg_coeffs = vneg(coeffs)
    clipped = []
    for c in space.maximal_cells:
        # a cell below the level stays, one crossing it is clipped, and one
        # above it or touching it from above keeps nothing of its dimension
        vals = [dot(coeffs, v) + const for v in c.vertices]
        if max(vals) <= 1:
            clipped.append(c)
        elif min(vals) < 1:
            clipped.append(clip_by_halfspace(c, neg_coeffs, 1 - const))
    below = [any(dot(coeffs, v) + const < 1 for v in c.vertices) for c in clipped]
    level_keys = set()
    for key, hosts in walls(clipped).items():
        if not all(dot(coeffs, p) + const == 1 for p in key):
            continue
        level_keys.add(key)
        # a slab inside the fibre over 1: a level wall separating two cells
        # that both dip strictly below the level
        if sum(1 for i in hosts if below[i]) > 1:
            raise ValueError("interior wall created inside the fibre over 1")
    new_boundary = set(space.boundary_keys) | level_keys
    out = TropicalSpace(
        ambient,
        space.dim,
        clipped,
        space.chart_kind,
        boundary_keys=sorted(new_boundary),
        metadata={**space.metadata, "lg_truncated": True},
    )
    return out


def _containment_entries(cells, hosts, ambient_dim, unmatched, host_is_source=False):
    """Identity entries between each cell and the first host containing it.

    Returns (entries, keys of the hosts covered).  An entry maps the cell to
    its host, or the host to the cell when host_is_source; a cell no host
    contains raises ValueError with `unmatched` followed by the cell's key.
    """
    entries = []
    covered = set()
    ident = mat_identity(ambient_dim)
    zero = tuple(0 for _ in range(ambient_dim))
    for c in cells:
        host = containing_cell(hosts, c)
        if host is None:
            raise ValueError(unmatched + str(c.key()))
        covered.add(host.key())
        source, target = (host, c) if host_is_source else (c, host)
        entries.append({"source": source.key(), "target": target.key(), "matrix": ident, "translation": zero})
    return entries, covered


def open_embed_LG(t_z, t_x):
    """Cell correspondence embedding an LG-model complex into the total one.

    Each cell of t_z must land inside a cell of t_x (identity coordinates);
    per-cell certificates are identity maps, hence unimodular.  Maximal cells
    of t_x not meeting the image are reported as missing.
    """
    entries, covered = _containment_entries(
        t_z.maximal_cells, t_x.maximal_cells, t_x.ambient_dim, "no locally isomorphic correspondence for cell "
    )
    missing = [c.key() for c in t_x.maximal_cells if c.key() not in covered]
    return ComplexMap(entries, surjective=not missing, missing_cells=missing)


def specialization_map(xi_gen, xi_zero):
    """Cellwise specialization from the generic-fibre complex onto the central one.

    Every cell of xi_zero must lie in a cell of xi_gen (closure containment in
    the common refinement); the map is the identity on supports.
    """
    entries, covered = _containment_entries(
        xi_zero.maximal_cells,
        xi_gen.maximal_cells,
        xi_gen.ambient_dim,
        "inputs come from unrelated pipelines: unmatched cell ",
        host_is_source=True,
    )
    return ComplexMap(entries, surjective=covered == {c.key() for c in xi_gen.maximal_cells})
