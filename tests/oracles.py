"""Retired implementations, kept verbatim as the tests' independent oracles.

The lattice-point enumerator: `LatticePolytope.lattice_points` scans the
bounding box of a dilate against the polytope's own inequalities.  The
enumerator it replaced scans a lattice polytope in coordinates of its
saturated span basis, a rational one over its bounding box, and sends
every candidate through `contains`.  The ring and criterion-6 oracles count
through it, so they do not share the primitive they check.

The hull's lattice chart: `LatticePolytope.hull` reads the span basis,
integer coordinates and facet lift off one left inverse (`_lattice_chart`).
The hull it replaced took the coordinates through `basis_coordinates` and a
second left inverse for the lift.

The clip's edge test: `clip_by_halfspace` finds the edges a cut crosses with
the combinatorial adjacency test `_adjacent` on facet bitmasks.  The clip it
replaced ran one rank computation per pair of vertices on opposite sides.
"""

from fractions import Fraction
from itertools import product as iproduct

from tropdeg.exactlin import (
    basis_coordinates,
    denominator_lcm,
    dot,
    kernel_basis,
    left_inverse,
    mat_rank,
    mat_transpose,
    mat_vec,
    primitive,
    saturate_lattice,
    vadd,
    vsub,
)
from tropdeg.polytope import LatticePolytope, _hull_full_dim, hull, is_lattice_point, normalize_point


def _ceil(x):
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


def _floor(x):
    f = Fraction(x)
    return f.numerator // f.denominator


def oracle_lattice_points(self):
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
    return oracle_lattice_points(hull([tuple(d * Fraction(x) for x in v) for v in poly.vertices]))


def _span_coordinates(diffs, basis):
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
