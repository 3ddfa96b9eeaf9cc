"""Tropical spaces: cell complexes with fan structures and their monodromy.

Two chart kinds cover the corpus, each in closed form.  A "solid" space (the
dual intersection complex of a toric total space) uses identity charts, so
its integral affine structure is globally flat and every transition and loop
is the identity.  A "boundary" space (hypersurface tropicalization supported
on the boundary sphere of a reflexive polytope) charts each vertex v by the
quotient projection M -> M/Zv.  Each of its cells lies in a hyperplane
<n, x> = 1 missing the origin, so a transition is read off the two vertex
charts and n, and the loop across a joint off the two cells' hyperplanes: it
is the identity when they agree and a transvection otherwise.  That loop is
the monodromy this module computes.  The boundary of a complex is the set of
facets that one cell has.
"""

from __future__ import annotations

from itertools import combinations

from .exactlin import (
    InvariantError,
    _ratio,
    clear_fractions,
    content,
    dot,
    mat_identity,
    mat_vec,
    primitive,
    unimodular_completion,
    vsub,
)
from .jsonio import key_json, point_json
from .polytope import _bits, _face_masks, tight_at, walls

CHART_KINDS = ("solid", "boundary")


class TropicalSpace:
    """A polyhedral complex with vertex fan structures and chart data.

    `chart_kind` is "solid" (identity charts) or "boundary" (the quotient by
    each vertex).  `boundary_keys` marks the cells of the topological
    boundary.
    """

    def __init__(self, ambient_dim, dim, maximal_cells, chart_kind, boundary_keys=()):
        if chart_kind not in CHART_KINDS:
            raise ValueError(f"unknown chart kind {chart_kind!r}; choose from {CHART_KINDS}")
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.maximal_cells = tuple(sorted(maximal_cells, key=lambda c: c.key()))
        self.chart_kind = chart_kind
        self.boundary_keys = frozenset(boundary_keys)
        self._faces = None
        self._boundary_faces = None
        self._face_owners = None
        self._cells = None
        self._walls = None
        self._charts = {}
        self._normals = {}
        self._disc_cache = None

    def __repr__(self):
        return f"TropicalSpace(dim={self.dim}, cells={len(self.maximal_cells)}, charts={self.chart_kind})"

    # -- complex structure

    def faces(self):
        """The face table: each face's vertex key mapped to its dimension.

        Sorted by key and read off the face masks of the maximal cells, with
        no hull; the boundary face keys, and the first cell holding each
        face with its vertex mask there, are found with it.
        """
        if self._faces is None:
            self._faces, self._boundary_faces, self._face_owners = _face_table(self.maximal_cells, self.boundary_keys)
        return self._faces

    def cells(self):
        """Every face as a polytope, keyed like faces().

        Each face is built from its vertex mask in the first cell holding
        it, so a maximal cell stands for itself and no face is hulled.
        """
        if self._cells is None:
            self.faces()
            self._cells = {k: cell.face_from_mask(mask) for k, (cell, mask, _) in self._face_owners.items()}
        return self._cells

    def walls(self):
        """Codimension-1 cells mapped to the maximal cells containing them."""
        if self._walls is None:
            self._walls = walls(self.maximal_cells)
        return self._walls

    def interior_walls(self):
        return {k: v for k, v in self.walls().items() if len(v) == 2 and k not in self.boundary_keys}

    def is_boundary_cell(self, key):
        """True iff the face lies in one of the recorded boundary cells."""
        self.faces()
        return key in self._boundary_faces

    def boundary_cells(self):
        """The faces of the recorded boundary cells, keyed by vertices."""
        return {k: c for k, c in self.cells().items() if self.is_boundary_cell(k)}

    # -- charts and fan structures

    def chart_matrix(self, v):
        """Integer matrix taking ambient tangent vectors to chart coordinates at the vertex v."""
        if self.chart_kind == "solid":
            return mat_identity(self.ambient_dim)
        return self._vertex_chart(v)[0]

    def _vertex_chart(self, v):
        """(q, s): the boundary chart q at v, with kernel Zv, and the columns s of an integer section, q @ s = I.

        Both are read off one unimodular completion u of v made primitive,
        u v = e_1, and its inverse (`unimodular_completion`): q is the last
        n - 1 rows of u and s the last n - 1 columns of u^-1.  Made once per
        vertex.
        """
        if v not in self._charts:
            if all(x == 0 for x in v):
                raise ValueError("boundary chart undefined at the origin")
            p = primitive(clear_fractions(v))
            u, w = unimodular_completion(p)
            if mat_vec(u, p) != (1,) + (0,) * (len(p) - 1):
                raise InvariantError(f"the chart completion at vertex {point_json(v)} does not send it to e1")
            self._charts[v] = u[1:], tuple(zip(*w))[1:]
        return self._charts[v]

    def _equations(self, cell):
        """The cell's equations: none for a cell of a solid space, one (f, e) with e != 0 for a boundary one.

        Any other cell raises ValueError: the vertex charts do not restrict
        to a square matrix on a cell of another dimension, nor to an
        invertible one on a hyperplane through the origin, which holds the
        kernel of each of its vertices' charts.
        """
        if cell.dim != self.ambient_dim - (self.chart_kind == "boundary"):
            raise ValueError("chart restriction is singular")
        if cell.equations and cell.equations[0][1] == 0:
            raise ValueError("boundary cell lies in a hyperplane through the origin, where no vertex chart restricts")
        return cell.equations

    def tangent_basis(self, cell):
        """Saturated lattice basis of the cell's direction space."""
        return cell.span_basis

    # -- monodromy

    def _bend(self, sigma_plus, sigma_minus):
        """None when sigma+- have the same equations, and always in a solid space, else n- - n+.

        <n+-, .> = 1 are the hyperplanes of sigma+-; each cell's n is read
        once per space (`_cell_normal`).
        """
        if self._equations(sigma_plus) == self._equations(sigma_minus):
            return None
        return vsub(self._cell_normal(sigma_minus), self._cell_normal(sigma_plus))

    def _loop_factors(self, v_plus, v_minus, bend):
        """(a, phi) with I - a (x) phi the loop at v+ across two cells whose hyperplanes differ by bend (`_bend`).

        By `transition`, with q, s the chart and section at v+, the loop is
        the transvection I - q(v-) (x) (n- - n+) s (Haase and Zharkov, arXiv
        math/0205321; Gross, Math. Ann. 333, 2005).  A loop whose cells have
        the same equation has no bend and is the identity, and no chart is
        made for it.
        """
        q, s = self._vertex_chart(v_plus)
        return mat_vec(q, v_minus), [dot(bend, col) for col in s]

    def _cell_normal(self, cell):
        """`_normal` of a boundary cell, made once per cell."""
        if cell not in self._normals:
            self._normals[cell] = _normal(cell)
        return self._normals[cell]

    def _loop_matrix(self, v_plus, v_minus, sigma_plus, sigma_minus):
        """The loop T(v- -> v+, sigma-) @ T(v+ -> v-, sigma+) at v+, an integer matrix read off `_loop_factors`."""
        bend = self._bend(sigma_plus, sigma_minus)
        if bend is None:
            return mat_identity(self.ambient_dim - (self.chart_kind == "boundary"))
        return _loop(*self._loop_factors(v_plus, v_minus, bend))[0]

    def transition(self, v_from, v_to, cell):
        """Chart transition v_from -> v_to across a maximal cell having both vertices.

        A chart vector x at v_from lifts to the tangent vector s x - <n, s x>
        v_from of the cell, s the section at v_from and <n, .> = 1 the cell's
        hyperplane; the chart q at v_to reads it.  So the transition is
        q s - (q v_from) (x) n s, in the number form of `_ratio`.
        """
        if not self._equations(cell):
            return mat_identity(self.ambient_dim)
        q = self.chart_matrix(v_to)
        s = self._vertex_chart(v_from)[1]
        n = self._cell_normal(cell)
        phi = [dot(n, col) for col in s]
        return tuple(tuple(_ratio(dot(row, col) - ui * p) for col, p in zip(s, phi)) for row, ui in zip(q, mat_vec(q, v_from)))


def _normal(cell):
    """The covector n with <n, x> = 1 on the hyperplane of a boundary cell, f / -e for its one equation (f, e)."""
    ((f, e),) = cell.equations
    return tuple(_ratio(x, -e) for x in f)


def _face_table(cells, boundary_keys):
    """(dimension of each face key, set of boundary face keys, owner of each key), sorted by key, with no hull.

    A key's owner is (first cell holding it, its vertex mask there, its
    dimension).  The faces are read off each cell's face masks, made once
    per incidence type (`_face_masks`), and the faces of a boundary key are
    the masks inside its mask in each cell having it.
    """
    owners = {}
    boundary = set()
    lattices = {}  # one face lattice per incidence type: each face's dimension, mask and vertex indices
    for cell in cells:
        kind = (cell.incidence, len(cell.vertices), cell.dim)
        if kind not in lattices:
            lattices[kind] = [(d, m, _bits(m)) for d, masks in _face_masks(*kind).items() for m in masks]
        verts = cell.vertices
        keyed = [(tuple(verts[i] for i in bits), d, m) for d, m, bits in lattices[kind]]
        for key, d, face in keyed:
            owners.setdefault(key, (cell, face, d))
            if key in boundary_keys:
                boundary.update(k for k, _, f in keyed if f & face == f)
    owners = dict(sorted(owners.items()))
    return {k: d for k, (_, _, d) in owners.items()}, frozenset(boundary), owners


# --- constructions ----------------------------------------------------------


def dual_intersection_complex(subdivision):
    """Tropicalization of the toric total space: the subdivision's cells, with identity charts.

    The boundary keys are the subdivision's walls that one cell has.
    """
    support = subdivision.support
    return TropicalSpace(
        support.ambient_dim,
        support.dim,
        subdivision.maximal_cells,
        "solid",
        boundary_keys=[key for key, adj in subdivision.walls().items() if len(adj) == 1],
    )


def hypersurface_trop(poly, subdivision, enforce_fine=True):
    """Tropicalization of the anticanonical hypersurface: the boundary sphere.

    Cells are the boundary faces of the given solid subdivision of the
    reflexive polytope, its walls that one cell has; charts quotient by each
    vertex.  Pass enforce_fine=False for deliberately coarse slice complexes
    (the hyperplane-split pipelines), where monodromy is not meaningful but
    the wall structure is.
    """
    if not poly.is_reflexive():
        raise ValueError("hypersurface tropicalization needs a reflexive polytope")
    if subdivision.support != poly:
        raise ValueError("subdivision is not a subdivision of the polytope")
    # each boundary facet is read off the one refined cell it bounds
    walls = subdivision.walls()
    cells = [
        cell.face_from_mask(mask)
        for cell in subdivision.maximal_cells
        for mask, key in zip(cell.incidence, cell.facet_keys())
        if len(walls[key]) == 1
    ]
    if enforce_fine:
        # fineness: every boundary lattice point must be a vertex of the complex
        vertex_set = set()
        for c in cells:
            vertex_set.update(c.vertices)
        for p in poly.lattice_points():
            if not poly.contains_strictly(p) and p not in vertex_set:
                raise ValueError("subdivision is not fine on the boundary: missing vertex " + str(p))
    return TropicalSpace(poly.ambient_dim, poly.dim - 1, cells, "boundary")


class Discriminant:
    """Singular locus data: barycentric joints (edge, wall) with monodromy and elementary-simplex verdicts."""

    def __init__(self, entries):
        self.entries = tuple(entries)

    def total_multiplicity(self):
        return sum(e["multiplicity"] for e in self.entries)

    def to_json(self):
        # the entries share their edges and walls: one JSON list per distinct key
        keys = dict.fromkeys(k for e in self.entries for k in (e["edge"], e["wall"], e["polytope"]))
        keys = {k: key_json(k) for k in keys}
        return [
            {
                "loop": {"edge": keys[e["edge"]], "wall": keys[e["wall"]]},
                "matrix": [list(r) for r in e["matrix"]] if e["matrix"] is not None else None,
                "polytope": keys[e["polytope"]],
                "multiplicity": e["multiplicity"],
                "elementary": e["elementary"],
            }
            for e in self.entries
        ]


def discriminant(space):
    """Barycentric joints (edge, wall) whose loop monodromy is nontrivial.

    In a 1-dimensional space the affine circle carries its rotation on every
    edge; each edge contributes a point with multiplicity its lattice length,
    so the total matches the normalized boundary volume.  Memoized per space
    (spaces are immutable).
    """
    if space._disc_cache is not None:
        return space._disc_cache
    space._disc_cache = _compute_discriminant(space)
    return space._disc_cache


def _compute_discriminant(space):
    entries = []
    n = space.dim
    if n == 0:
        return Discriminant([])
    if n == 1:
        if space.chart_kind != "boundary":
            # identity charts on a 1-complex are globally flat
            return Discriminant([])
        for cell in space.maximal_cells:
            key = cell.key()
            if space.is_boundary_cell(key):
                continue
            length = int(cell.normalized_volume())
            entries.append(_entry(key, key, None, (length,), length))
        return Discriminant(entries)
    # each loop is an interior edge of an interior wall: a vertex pair of the
    # wall that is an edge key.  Only a bent wall (`_bend`, one per wall: the
    # loops across it share their two cells) has nontrivial loops, so only
    # its pairs are listed; sorted, the loops come edge first, wall second
    faces = space.faces()
    cells = space.maximal_cells
    loops = []
    for wall_key, (i, j) in space.interior_walls().items():
        bend = space._bend(cells[i], cells[j])
        if bend is not None:
            loops += [
                (pair, wall_key, bend)
                for pair in combinations(wall_key, 2)
                if faces.get(pair) == 1 and not space.is_boundary_cell(pair)
            ]
    loops.sort()  # each (edge, wall) is listed once, so no two bends are compared
    for edge_key, wall_key, bend in loops:
        a, phi = space._loop_factors(edge_key[0], edge_key[1], bend)
        try:
            m, disp, mult = _loop(a, phi)
        except InvariantError as e:
            raise InvariantError(f"{e}, at the loop across edge {key_json(edge_key)} and wall {key_json(wall_key)}") from None
        entries.append(_entry(edge_key, wall_key, m, disp, mult))
    return Discriminant(entries)


def _entry(edge, wall, matrix, end, multiplicity):
    """One discriminant entry; its monodromy polytope is the segment [0, end], kept as its sorted vertex pair.

    The segment has lattice length the multiplicity, so it is an elementary
    simplex exactly when the multiplicity is 1, and no polytope is built.
    The entry keeps no point of its edge or wall: a reader that needs one
    takes the barycenter of the key.
    """
    return {
        "edge": edge,
        "wall": wall,
        "matrix": matrix,
        "polytope": tuple(sorted([tuple(0 for _ in end), end])),
        "multiplicity": multiplicity,
        "elementary": multiplicity == 1,
    }


def _loop(a, phi):
    """(matrix, displacement, multiplicity) of the nontrivial loop M = I - a (x) phi.

    Write a = c u with u primitive and c > 0, so M = I - u (x) c phi.  M is
    integral exactly when c phi is, since an integer combination of the
    entries of u is 1; so InvariantError is raised on the n entries of c phi,
    and M is built in ints.  The multiplicity, the gcd of the entries of
    M - I, is content(c phi).  With the covector of M - I oriented so that
    its first nonzero entry is positive, a primitive t pairing with it to the
    least positive value is displaced by (M - I) t = -sgn(phi_j0) *
    multiplicity * u, phi_j0 the first nonzero entry of phi; so the segment
    [0, displacement] has lattice length the multiplicity.
    """
    u = primitive(clear_fractions(a))
    k = next(k for k, x in enumerate(u) if x)
    cphi = [_ratio(a[k] * p, u[k]) for p in phi]
    if any(type(x) is not int for x in cphi):
        raise InvariantError("monodromy is not integral; charts are incompatible on the lattice")
    m = tuple(tuple((1 if i == j else 0) - x * p for j, p in enumerate(cphi)) for i, x in enumerate(u))
    mult = content(cphi)
    sign = -1 if next(p for p in phi if p) > 0 else 1
    return m, tuple(sign * mult * x for x in u), mult


def is_simple(space):
    """(verdict, discriminant(space)): simple iff every monodromy polytope of the discriminant's entries is elementary."""
    disc = discriminant(space)
    return all(e["elementary"] for e in disc.entries), disc


def count_focus_focus(space):
    """Discriminant points counted with displacement lattice length."""
    if space.dim != 2:
        raise ValueError("focus-focus counting needs a 2-dimensional space")
    return discriminant(space).total_multiplicity()


def classify_faces(keys, factor_facets, coord, levels):
    """The boundary face type of each face key of a (factor) x [low, high] product, in order.

    The segment is the coordinate `coord` and levels is (low, high); the
    factor's facets are read on the other coordinates.  A face lies on the
    factor's boundary when one factor facet is tight at the projections of
    all its vertices, so each vertex is tested once, into the bitmask of the
    factor facets tight at it, and a face ANDs those of its vertices.
    """
    low, high = levels
    tight = {}
    out = []
    for key in keys:
        on_factor_boundary = -1
        for v in key:
            if v not in tight:
                proj = v[:coord] + v[coord + 1 :]
                tight[v] = sum(1 << i for i, f in enumerate(factor_facets) if tight_at(f, (proj,)))
            on_factor_boundary &= tight[v]
        zs = {v[coord] for v in key}
        if zs == {high} or zs == {low}:
            out.append("BoundaryCap" if on_factor_boundary else "InteriorCap")
        elif zs == {0}:
            out.append("HorizontalSide")
        elif on_factor_boundary:
            out.append("VerticalSide")
        else:
            raise ValueError("cell is not a boundary face of the product")
    return out
