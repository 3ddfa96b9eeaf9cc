"""The SVG net of a boundary sphere glues each facet to its neighbour."""

import hashlib

import pytest

from tropdeg import render
from tropdeg.cli import main
from tropdeg.exactlin import dot, solve_linear, vsub
from tropdeg.pipelines import build_kp1_2
from tropdeg.polytope import centered_dilated_simplex, product, segment


def test_unfolded_net_glues_each_facet_to_an_earlier_one():
    # every facet after the first is placed across a ridge it shares with a
    # facet placed before it, and both charts must put that ridge in one place
    poly = product(centered_dilated_simplex(2), segment(-1, 1))
    facets, charts = render._net_charts(poly)

    def place(idx, p):
        anchor, chart, m, off = charts[idx]
        x = solve_linear(tuple(zip(*chart[0])), vsub(p, anchor))
        return tuple(m[r][0] * x[0] + m[r][1] * x[1] + off[r] for r in range(2))

    order = list(charts)
    for k, j in enumerate(order[1:], start=1):
        glued = False
        for i in order[:k]:
            shared = [v for v in poly.vertices if all(dot(n, v) == -c for n, c in (facets[i], facets[j]))]
            if len(shared) >= 2 and all(place(i, v) == place(j, v) for v in shared):
                glued = True
        assert glued, f"facet {facets[j]} is not glued to any facet placed before it"


def test_render_rejects_a_boundary_space_whose_support_is_not_3_dimensional():
    # the kp1-2 k=2 sphere lies on the boundary of the 3-dimensional prism;
    # its 2-dimensional base is no support for the net
    result = build_kp1_2(2)
    assert result.base.dim == 2 and result.sphere.chart_kind == "boundary"
    with pytest.raises(ValueError, match="3-dimensional support"):
        render.render_svg(result.sphere, support=result.base)


@pytest.mark.parametrize(
    "args, sha256",
    [
        (["--example", "kp1-2", "--k", "2"], "85cefbb756957bfd01ec782863712abb90cb3bd5e902852dc588ab9304f5ec09"),
        (["--example", "hypercube", "--k", "2"], "af28ac650e3083fd0d88b7e5d3e2dc6b0bc6be410a707d8d41ba607a86ec4d2b"),
        # a 1-dimensional sphere: the net falls back to the solid of the refinement
        (["--example", "kp1-2", "--k", "1"], "af28ac650e3083fd0d88b7e5d3e2dc6b0bc6be410a707d8d41ba607a86ec4d2b"),
    ],
)
def test_render_bytes_are_pinned(tmp_path, args, sha256):
    out = tmp_path / "net.svg"
    assert main(["render", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
