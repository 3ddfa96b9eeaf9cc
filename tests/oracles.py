"""Retired implementations, kept verbatim as the tests' independent oracles.

The lattice-point enumerator: `LatticePolytope.lattice_points` scans the
bounding box of a dilate against the polytope's own inequalities.  The
enumerator it replaced scans a lattice polytope in coordinates of its
saturated span basis, a rational one over its bounding box, and sends
every candidate through `contains`.  The ring and criterion-6 oracles count
through it, so they do not share the primitive they check.
"""

from fractions import Fraction
from itertools import product as iproduct

from tropdeg.exactlin import basis_coordinates, vadd, vsub
from tropdeg.polytope import hull, is_lattice_point, normalize_point


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
