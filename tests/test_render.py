"""The SVG net of a boundary sphere glues each facet to its neighbour."""

from tropdeg import render
from tropdeg.exactlin import dot, solve_linear, vsub
from tropdeg.polytope import centered_dilated_simplex, product, segment


def test_unfolded_net_glues_each_facet_to_an_earlier_one():
    # every facet after the first is placed across a ridge it shares with a
    # facet placed before it, and both charts must put that ridge in one place
    poly = product(centered_dilated_simplex(2), segment(-1, 1))
    facets, charts = render._net_charts(poly)

    def place(idx, p):
        anchor, basis, m, off = charts[idx]
        x = solve_linear(tuple(zip(*basis)), vsub(p, anchor))
        return tuple(m[r][0] * x[0] + m[r][1] * x[1] + off[r] for r in range(2))

    order = list(charts)
    for k, j in enumerate(order[1:], start=1):
        glued = False
        for i in order[:k]:
            shared = [v for v in poly.vertices if all(dot(n, v) == -c for n, c in (facets[i], facets[j]))]
            if len(shared) >= 2 and all(place(i, v) == place(j, v) for v in shared):
                glued = True
        assert glued, f"facet {facets[j]} is not glued to any facet placed before it"
