"""Zeroth-order mirror algebra: Proj of a glued cone complex.

Degree-d pieces are lattice points at height d of the cones over the cells,
glued along shared faces; gluing data twists the identifications by a
multiplicative character per ordered incident cell pair.  Products of
generators from non-adjacent maximal cells vanish, matching the
gluing-of-spectra semantics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .exactlin import _ratio, dot
from .polytope import _low, barycenter


class GluingData:
    """Multiplicative characters twisting chart identifications.

    ``twists`` maps an ordered pair of cell keys to a tuple of nonzero
    rationals (t_1, ..., t_n, t_h): the character sends a lattice point p at
    height h to prod t_i^(p_i) * t_h^h.  Missing pairs are untwisted; vanilla
    data has no twists at all.  The cocycle condition is checked on demand.
    """

    def __init__(self, ambient_dim, twists=None):
        self.ambient_dim = ambient_dim
        self.twists = {}
        for pair, vec in (twists or {}).items():
            vec = tuple(Fraction(x) for x in vec)
            if len(vec) != ambient_dim + 1 or any(x == 0 for x in vec):
                raise ValueError("twist must be a tuple of ambient_dim+1 nonzero scalars")
            self.twists[pair] = vec

    def transport(self, from_key, to_key, point, height):
        """Scalar applied to z^(point, height) when moving between charts.

        In the number form of `exactlin._ratio`: an untwisted pair
        transports by the int 1.
        """
        if from_key == to_key:
            return 1
        vec = self.twists.get((from_key, to_key))
        if vec is None:
            rev = self.twists.get((to_key, from_key))
            if rev is None:
                return 1
            vec = tuple(1 / x for x in rev)
        out = vec[-1] ** int(height)
        for x, t in zip(point, vec[:-1]):
            out *= t ** int(x)
        return _ratio(out)

    def validate_cocycle(self, cells):
        """Characters must compose along chains sharing a common point.

        Without twists every transport is 1, so the check cannot fail.
        """
        if not self.twists:
            return
        keys = [c.key() for c in cells]
        probe_height = 1
        for a in keys:
            for b in keys:
                for c in keys:
                    shared = set(a) & set(b) & set(c)
                    for p in sorted(shared):
                        direct = self.transport(a, c, p, probe_height)
                        via = self.transport(a, b, p, probe_height) * self.transport(b, c, p, probe_height)
                        if direct != via:
                            raise ValueError("gluing data violates the cocycle condition")


def vanilla_gluing(ambient_dim):
    return GluingData(ambient_dim)


class RingPresentation:
    """Degree-1 generators and binomial relations of the glued cone algebra.

    Relations are homogeneous; setting every gluing scalar to 1 recovers the
    vanilla presentation.
    """

    def __init__(self, generators, relations, degree_bound, hilbert):
        self.generators = tuple(generators)  # (point, representative cell key)
        self.relations = tuple(relations)  # (exponents_lhs, exponents_rhs, scalar) or (exponents, None, 0)
        self.degree_bound = degree_bound
        self.hilbert = tuple(hilbert)

    def to_json(self):
        from .jsonio import key_json, num_json, point_json

        return {
            "generators": [
                {"point": point_json(p), "cell": key_json(k)} for p, k in self.generators
            ],
            "relations": [
                {
                    "lhs": list(l),
                    "rhs": list(r) if r is not None else None,
                    "scalar": num_json(s) if r is not None else "0",
                }
                for l, r, s in self.relations
            ],
            "hilbert": list(self.hilbert),
            "degree_bound": self.degree_bound,
        }


def _lattice_point_table(cells, d):
    """Map each lattice point of some d * cell to the bitmask of the cells holding it.

    Bit i stands for cells[i].
    """
    table = {}
    for i, cell in enumerate(cells):
        for p in cell.lattice_points(d):
            table[p] = table.get(p, 0) | 1 << i
    return table


def proj_ring(space, gluing, degree_bound):
    """Presentation of the glued cone algebra up to the given degree.

    Generators are the lattice points of the maximal cells, identified along
    faces via the gluing characters; relations are all binomial
    identifications among monomials of degree <= degree_bound, with products
    of generators sharing no cell set to zero.

    Everything is read off one table per degree d = 1..degree_bound (degree
    1 at least, for the generators), mapping each lattice point of the
    dilates d * sigma to the bitmask of the maximal cells sigma holding it:
    the cells common to a tuple of generators are the AND of their masks,
    and the degree-d Hilbert count is the size of the degree-d table.
    """
    if degree_bound < 0:
        raise ValueError("degree must be nonnegative")
    cells = space.maximal_cells
    for c in cells:
        if not c.is_lattice():
            raise ValueError("proj ring needs integral cells")
    gluing.validate_cocycle(cells)
    keys = [c.key() for c in cells]
    tables = {d: _lattice_point_table(cells, d) for d in range(1, max(degree_bound, 1) + 1)}
    # generators: one per lattice point, in its lex-min containing chart.
    # space.maximal_cells is sorted by key, so that chart is the lowest bit.
    gen_points = sorted(tables[1])
    masks = [tables[1][p] for p in gen_points]
    rep_chart = [keys[_low(m)] for m in masks]
    generators = list(zip(gen_points, rep_chart))
    n_gen = len(generators)

    relations = []
    # zero relations in degree 2, when the bound reaches it
    if degree_bound >= 2:
        for i, j in combinations_with_replacement(range(n_gen), 2):
            if not masks[i] & masks[j]:
                expo = [0] * n_gen
                expo[i] += 1
                expo[j] += 1
                relations.append((tuple(expo), None, 0))
    # binomial identifications per degree
    for d in range(2, degree_bound + 1):
        classes = {}
        for combo in combinations_with_replacement(range(n_gen), d):
            hosts = -1  # every bit set
            for i in combo:
                hosts &= masks[i]
            if not hosts:
                continue
            chart = keys[_low(hosts)]
            total = tuple(map(sum, zip(*[gen_points[i] for i in combo])))
            # transport each factor from its representative chart, then the
            # product to the lex-min chart containing the total point
            coeff = 1
            for i in combo:
                coeff *= gluing.transport(rep_chart[i], chart, gen_points[i], 1)
            canonical = keys[_low(tables[d][total])]
            coeff *= gluing.transport(chart, canonical, total, d)
            expo = [0] * n_gen
            for i in combo:
                expo[i] += 1
            classes.setdefault((canonical, total), []).append((tuple(expo), coeff))
        for (canonical, total), monos in sorted(classes.items()):
            monos.sort()
            base_expo, base_coeff = monos[0]
            for expo, coeff in monos[1:]:
                relations.append((expo, base_expo, _ratio(coeff, base_coeff)))
    hilbert = [1] + [len(tables[d]) for d in range(1, degree_bound + 1)]
    return RingPresentation(generators, relations, degree_bound, hilbert)


def hilbert_count(space, d):
    """Dimension of the degree-d piece: glued lattice points at height d.

    It is the number of distinct lattice points over the dilates d * sigma
    of the maximal cells, the size of the degree-d table `proj_ring` reads.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return 1
    return len(_lattice_point_table(space.maximal_cells, d))


class EmbeddedIdeal:
    """Per-chart relations z^(m_sigma) = a_sigma with a 0th-order normal form.

    ``relations`` maps a chart key to the list of (exponent functional,
    scalar); the normalized representative divides every chart's scalars by
    its first one, so rescaling the parameter vector is invisible.
    """

    def __init__(self, relations):
        self.relations = dict(relations)

    def normalized(self):
        out = {}
        for key, rels in sorted(self.relations.items()):
            base = rels[0][1]
            out[key] = tuple((m, a / base) for m, a in rels)
        return out


def embedded_ideal(fibration, parameters, gluing):
    """Relations z^(m) = a per chart, transported through the gluing data.

    The exponents m are the fibration's functionals (`wall_fibration_data`);
    charts are its cells.  Restriction compatibility is verified along
    every shared face, and the normalized class identifies parameter
    vectors up to common rescaling.  Raises ValueError on an empty
    fibration, as `embed_D` does.
    """
    if not fibration:
        raise ValueError("no fibration data supplied")
    if any(Fraction(a) == 0 for a in parameters):
        raise ValueError("parameters must be nonzero")
    charts = sorted(fibration.keys())
    rank = next(iter(fibration.values())).rank
    if len(parameters) != rank + 1:
        raise ValueError("need one parameter per component functional")
    initial = charts[0]
    values = {initial: tuple(Fraction(a) for a in parameters)}
    frontier = [initial]
    while frontier:
        current = frontier.pop()
        for other in charts:
            if not (set(current) & set(other)):
                continue
            fib = fibration[current]
            transported = tuple(
                values[current][i] * gluing.transport(current, other, fib.y[i][:-1], fib.y[i][-1])
                for i in range(rank + 1)
            )
            if other in values:
                if values[other] != transported:
                    raise ValueError("relations are incompatible under restriction: invalid gluing data")
            else:
                values[other] = transported
                frontier.append(other)
    missing = [c for c in charts if c not in values]
    if missing:
        raise ValueError("chart graph is disconnected; cannot transport relations")
    relations = {}
    for key in charts:
        fib = fibration[key]
        relations[key] = tuple((fib.y[i], values[key][i]) for i in range(rank + 1))
    return EmbeddedIdeal(relations)


def genericity_scan(space, fibration, samples):
    """Flag which parameter vectors give fibres transverse to the discriminant of space.

    The tropical shadow of a parameter vector a is the simplex position
    (r+1) * a_i / sum(a); a choice is non-generic when its translated fibre
    passes through a discriminant barycenter.  Raises ValueError on an
    empty fibration, as `embed_D` does.
    """
    from .tropical import discriminant

    if not fibration:
        raise ValueError("no fibration data supplied")
    rank = next(iter(fibration.values())).rank
    # the simplex position of each discriminant barycenter in each cell holding it
    hit = {
        tuple(dot(y, pt + (1,)) for y in fib.y[1:])
        for entry in discriminant(space).entries
        for pt in (barycenter(entry["edge"]), barycenter(entry["wall"]))
        for fib in fibration.values()
        if fib.cell.contains(pt)
    }
    report = []
    for a in samples:
        a = tuple(Fraction(x) for x in a)
        position = tuple((rank + 1) * x / sum(a) for x in a[1:])
        report.append({"a": a, "position": position, "generic": position not in hit})
    return {
        "samples": report,
        "generic_subset": [r["a"] for r in report if r["generic"]],
    }
