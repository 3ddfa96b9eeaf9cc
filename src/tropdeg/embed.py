"""Tropical embedding machinery: fibres, simplex fibrations, LG truncation.

The fibration data of a wall-type degeneration lives on the cone over each
wall-adjacent cell at level 1: component functionals y_0..y_r, all
nonnegative on the cone.  Its slice at level 1 is the cell, so the
deepest-stratum complex is the union of the cells cut by y_i(x, 1) = 1,
and integral tangent surjectivity of the embedding is a Smith-normal-form
check on every host cell.
"""

from __future__ import annotations

from .exactlin import (
    _ratio,
    dot,
    mat_identity,
    mat_rank,
    mat_vec,
    smith_normal_form,
    vneg,
    vsub,
)
from .polytope import (
    _assemble,
    _bits,
    _facet,
    _lattice_chart,
    _low,
    _span_chart,
    _span_coordinates,
    _support_mask,
    clip_by_halfspace,
    containing_cell,
    is_lattice_point,
    section,
    standard_simplex,
    walls,
)
from .tropical import TropicalSpace


class FibrationData:
    """Local model of the log structure at a deepest stratum: the cone over (cell, 1) in M + Z.

    The points (v, 1) over the cell's vertices generate the cone; the
    functionals y_i are nonnegative on it, and its slice at level t, the
    smoothing functional (0,...,0,1), is t * cell.  `diagonal` is the Smith
    diagonal of y_1..y_r on the cell's tangent lattice, made once: the
    embedding is integrally surjective on the cell when it is r ones, and
    the simplex map rescales the lattice there when an entry exceeds 1.
    """

    def __init__(self, cell, y_functionals):
        self.cell = cell
        self.y = tuple(tuple(f) for f in y_functionals)
        for f in self.y:
            for v in cell.vertices:
                if dot(f, v + (1,)) < 0:
                    raise ValueError("fibration functional is negative on the cone")
        if mat_rank(self.y) != len(self.y):
            raise ValueError("component functionals must be linearly independent")
        self.diagonal = smith_normal_form(tuple(tuple(dot(y[:-1], b) for b in cell.span_basis) for y in self.y[1:]))

    @property
    def rank(self):
        return len(self.y) - 1


def local_fibre(fib, target):
    """The polytope cut from the cone by <y_i, .> = target_i at level t = target[-1], or None when it is empty.

    The slice at level t is t * cell, the origin at t = 0; each y-equation is one
    `section` of it, <y_i[:-1], x> = target_i - y_i[-1] t, and the cut is
    set at height t with its facets and incidence.  No cone, no hull.
    """
    if len(target) != len(fib.y) + 1:
        raise ValueError("target length must be number of y functionals plus one")
    t = target[-1]
    if t < 0:
        return None
    cell = fib.cell
    if t == 0:
        cell = _assemble(_span_chart((), cell.ambient_dim), [(0,) * cell.ambient_dim], [], [])
    elif t != 1:
        # t * cell keeps the cell's chart, facet normals and incidence
        verts = [tuple(_ratio(t * x) for x in v) for v in cell.vertices]
        cell = _assemble(cell.chart, verts, [(n, _ratio(t * c)) for n, c in cell.facets], cell.incidence)
    for f, target_i in zip(fib.y, target):
        cell = section(cell, f[:-1], target_i - f[-1] * t)
        if cell is None:
            return None
    chart = _span_chart(tuple(b + (0,) for b in cell.span_basis), cell.ambient_dim + 1)
    return _assemble(chart, [v + (t,) for v in cell.vertices], [(n + (0,), c) for n, c in cell.facets], cell.incidence)


def _cut(cell, functionals):
    """(polytope, mask): the cell cut by y(x, 1) = 1 for each y is polytope.face_from_mask(mask), or None when empty.

    While no hyperplane crosses the cut so far, it is a face of the cell,
    named by its vertex mask (`_support_mask`) and not built; from the
    first crossing on, it is taken one `section` at a time.
    """
    mask = (1 << len(cell.vertices)) - 1
    for i, y in enumerate(functionals):
        bits = _bits(mask)
        face = _support_mask([dot(y[:-1], cell.vertices[j]) + y[-1] - 1 for j in bits])
        if face is None:
            cell = cell.face_from_mask(mask)
            for z in functionals[i:]:
                cell = section(cell, z[:-1], 1 - z[-1])
                if cell is None:
                    return None
            return cell, (1 << len(cell.vertices)) - 1
        if not face:
            return None
        mask = sum(1 << j for k, j in enumerate(bits) if face >> k & 1)
    return cell, mask


def wall_fibration_data(space, coord, level):
    """Per-cell fibration data for a rank-1 Tyurin wall {x_coord = level}.

    Only cells meeting the wall get data (the positive integral
    neighbourhood); each gets its clip to the unit collar, on whose cone
    the component functionals stay nonnegative.  The clip keeps the host's
    chart, so its tangent lattice, and the Smith diagonal read on it, are
    the host's.
    """
    n = space.ambient_dim
    e = tuple(1 if i == coord else 0 for i in range(n))
    y0 = tuple(x for x in e) + (1 - level,)  # y0(x,t) = x_coord + (1-level) t
    y1 = tuple(-x for x in e) + (1 + level,)  # y1(x,t) = -x_coord + (1+level) t
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
        out[cell.key()] = FibrationData(clipped, [y0, y1])
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


def embed_D(space, fibration):
    """The deepest-stratum complex as fibres over (1,...,1), with its embedding.

    Returns (T_D, iota, surjective): T_D in reduced slice coordinates, iota a
    ComplexMap back into the host, and surjective the conjunction of the
    integral tangent surjectivity checks.  Each host's fibre, its cell cut
    by every y_i (`_cut`), is named by its vertices and built once; its
    reduced cell is its image under the slice chart, facets carried through
    the chart, so no hull is taken.  Tangent surjectivity is checked on
    every host, fan compatibility once per fibre; iota maps a fibre to its
    last host, and iota.metadata["fibres"] maps it to its sorted hosts.
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    table = {}
    for key, fib in sorted(fibration.items()):
        cut = _cut(fib.cell, fib.y)
        if cut is not None:
            table.setdefault(cut[0].vertices_of(cut[1]), (cut, []))[1].append(key)
    if not table:
        raise ValueError("all local fibres over (1,...,1) are empty")
    _check_face_consistency(fibration)
    # the slice chart: the span chart of the cells' union, anchored at its
    # least point, the first vertex of the least key
    chart = _lattice_chart([v for verts in table for v in verts])
    anchor, basis = min(table)[0], chart[0]
    matrix = tuple(zip(*basis)) if basis else ((0,),) * len(anchor)
    surjective = all(fibration[h].diagonal == (1,) * fibration[h].rank for _, hosts in table.values() for h in hosts)
    entries = []
    reduced_cells = []
    for verts, ((cell, mask), hosts) in sorted(table.items()):
        fibre = cell.face_from_mask(mask)
        _assert_fan_compatibility(space, verts, fibre.dim)
        rows, den = _span_coordinates(chart, anchor, verts)
        pts = [tuple(_ratio(x, den) for x in r) for r in rows] if basis else [(0,)]
        rchart = _lattice_chart(pts)
        facets = [_facet(rchart, mat_vec(basis, n), pts[_low(m)]) for (n, _), m in zip(fibre.facets, fibre.incidence)]
        reduced = _assemble(rchart, pts, facets, fibre.incidence)
        reduced_cells.append(reduced)
        entries.append({"source": reduced.key(), "target": hosts[-1], "matrix": matrix, "translation": anchor})
    t_d = TropicalSpace(len(basis) or 1, max(c.dim for c in reduced_cells), reduced_cells, "solid")
    fibres = {verts: hosts for verts, (_, hosts) in sorted(table.items())}
    iota = ComplexMap(entries, surjective=surjective, metadata={"fibration": dict(fibration), "fibres": fibres})
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


def simplex_fibration(fibration):
    """Cellwise affine map onto the (r+1)-dilated r-simplex.

    Its fibre over the barycenter (1,...,1) is `barycenter_fibre`; a warning
    is flagged when the fibration rescales the integral affine structure (an
    entry above 1 in some cell's `FibrationData.diagonal`).
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    rank = next(iter(fibration.values())).rank
    target = standard_simplex(rank, rank + 1)
    entries = []
    warnings = []
    for key, fib in sorted(fibration.items()):
        matrix = tuple(tuple(y[:-1]) for y in fib.y[1:])
        translation = tuple(y[-1] for y in fib.y[1:])
        if any(d > 1 for d in fib.diagonal):
            warnings.append(f"fibration rescales the integral affine structure on {key}")
        entries.append({"source": key, "target": target.key(), "matrix": matrix, "translation": translation})
    return ComplexMap(entries, surjective=None, warnings=warnings, metadata={"target": target})


def barycenter_fibre(space, fibration):
    """Fibre of the simplex fibration over the barycenter: each cell key, with its sorted host keys.

    Each host cell of the space is cut by the simplex map's equations
    y_i(x, 1) = 1, i = 1..r (`_cut`); neither the fibration's own cells
    nor y_0 is read, so the map checks `embed_D`'s independently.
    """
    host_cells = {c.key(): c for c in space.maximal_cells}
    out = {}
    for key, fib in sorted(fibration.items()):
        cut = _cut(host_cells[key], fib.y[1:])
        if cut is not None:
            out.setdefault(cut[0].vertices_of(cut[1]), []).append(key)
    return dict(sorted(out.items()))


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
    return TropicalSpace(space.ambient_dim, space.dim, cells, space.chart_kind, boundary_keys=boundary)


def lg_truncate(space, u_functional):
    """Clip all cells to u <= 1 and record the new boundary at level 1.

    u must be affine on every cell (it is given as one global affine
    functional); no interior walls are created inside the fibre over 1.
    """
    coeffs, const = u_functional
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
    return TropicalSpace(space.ambient_dim, space.dim, clipped, space.chart_kind, boundary_keys=sorted(new_boundary))


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
    """Cellwise specialization from the generic-fibre subdivision onto the central one.

    Every cell of the Subdivision xi_zero must lie in a cell of the
    Subdivision xi_gen (closure containment in the common refinement); the
    map is the identity on supports.
    """
    entries, covered = _containment_entries(
        xi_zero.maximal_cells,
        xi_gen.maximal_cells,
        xi_gen.support.ambient_dim,
        "inputs come from unrelated pipelines: unmatched cell ",
        host_is_source=True,
    )
    return ComplexMap(entries, surjective=covered == {c.key() for c in xi_gen.maximal_cells})
