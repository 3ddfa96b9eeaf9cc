"""Acceptance suite: one test per criterion, exact tolerances, timed where stated.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints an ACCEPTANCE line.
"""

import json
import random
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from oracles import (
    cone_fibre_over_ones,
    oracle_barycenter_fibre,
    oracle_dilate_lattice_points,
    oracle_embed_D,
    unreduced_cells,
)

from tropdeg.cli import main as cli_main
from tropdeg.embed import local_fibre
from tropdeg.exactlin import det, mat_identity, mat_mul, mat_vec
from tropdeg.pipelines import build_hypercube, build_kp1_2, build_quintic
from tropdeg.polytope import hull, polytope_from_inequalities
from tropdeg.tropical import discriminant, is_simple
from tropdeg.zeroring import hilbert_count

QUINTIC_COLUMNS = [
    (-1, -1, -1, -1),
    (4, -1, -1, -1),
    (-1, 4, -1, -1),
    (-1, -1, 4, -1),
    (-1, -1, -1, 4),
]


def _line(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}", file=sys.stderr)


@pytest.fixture(scope="module")
def kp12():
    return {k: build_kp1_2(k) for k in (1, 2, 3)}


@pytest.fixture(scope="module")
def quintics():
    return {i: build_quintic(i) for i in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def hypercubes():
    return {k: build_hypercube(k) for k in (1, 2, 3)}


def test_criterion_1_k3_focus_focus_count(tmp_path):
    out = tmp_path / "k3.json"
    start = time.monotonic()
    code = cli_main(["check-simple", "--example", "kp1-2", "--k", "2", "--out", str(out)])
    elapsed = time.monotonic() - start
    report = json.loads(out.read_text())
    assert code == 0
    assert report["focus_focus_total"] == 24
    assert elapsed < 10.0, f"k=2 pipeline took {elapsed:.1f}s"
    _line(1, f"focus_focus_total = 24 in {elapsed:.1f}s (< 10s)")


def test_criterion_2_simplicity_k2_k3(kp12, tmp_path):
    # the k=3 bound covers the whole run: build, simplicity, report
    out = tmp_path / "k3pipeline.json"
    start = time.monotonic()
    code = cli_main(["check-simple", "--example", "kp1-2", "--k", "3", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    assert json.loads(out.read_text())["simple"] is True
    assert elapsed < 60.0, f"k=3 build + simplicity took {elapsed:.1f}s"
    for k in (2, 3):
        res = kp12[k]
        simple, report = is_simple(res.sphere)
        violations = [e for e in report.entries if not e["elementary"]]
        assert simple, f"k={k} not simple"
        assert violations == []
    _line(2, f"all monodromy polytopes elementary for k=2,3; zero violations; k=3 end to end in {elapsed:.1f}s (< 60s)")


def test_criterion_3_quintic_data():
    poly = hull(QUINTIC_COLUMNS)
    # oracle: every primitive facet offset is 1
    assert all(c == 1 for _, c in poly.facets)
    assert poly.is_reflexive()
    dual = poly.polar_dual()
    expected = sorted(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    )
    assert sorted(dual.vertices) == expected
    # oracle: count of degree-5 monomials in 5 variables
    assert len(poly.lattice_points()) == comb(9, 4) == 126
    # oracle: dilation scaling 5^4 of the unit simplex
    assert poly.normalized_volume() == 5**4 == 625
    _line(3, "quintic reflexive, polar dual {e1..e4, -1}, 126 points, volume 625")


def test_criterion_4_embedding_lemma(kp12, quintics):
    from tropdeg.embed import barycenter_fibre

    for i in (1, 2, 3, 4):
        res = quintics[i]
        assert res.surjective, f"quintic i={i}: tangent surjectivity failed"
        fibre = barycenter_fibre(res.sphere, res.fibration)
        assert sorted(fibre) == sorted(c.key() for c in unreduced_cells(res.t_d, res.iota)), f"quintic i={i}: barycenter fibre mismatch"
    for k in (1, 2, 3):
        res = kp12[k]
        assert res.surjective, f"kp1-2 k={k}: tangent surjectivity failed"
        fibre = barycenter_fibre(res.sphere, res.fibration)
        assert sorted(fibre) == sorted(c.key() for c in unreduced_cells(res.t_d, res.iota)), f"kp1-2 k={k}: barycenter fibre mismatch"
    _line(4, "embed_D integrally surjective and barycenter fibre matches for quintic i=1..4 and kp1-2 k=1..3")


def test_embed_d_matches_the_retired_fibre_loop(kp12, quintics, hypercubes):
    # the fibre table gives the same T_D, iota and verdict as the loop that
    # kept one host per fibre, and its fibre keys are the retired ones
    from tropdeg.embed import barycenter_fibre

    for group in (kp12, quintics, hypercubes):
        for res in group.values():
            space = getattr(res, "sphere", res.solid)  # the hypercube embeds into its solid
            t_d, iota, surjective = oracle_embed_D(space, res.fibration)
            assert [c.key() for c in res.t_d.maximal_cells] == [c.key() for c in t_d.maximal_cells]
            assert res.iota.entries == iota.entries
            assert res.surjective == surjective
            fibres = oracle_barycenter_fibre(space, res.fibration)
            assert res.iota.metadata["fibres"] == fibres == barycenter_fibre(space, res.fibration)


def test_local_fibre_matches_the_cone_path_on_every_host(kp12, quintics, hypercubes):
    # the fibre read off each host's cell is the retired cone slice's, field
    # by field, chart and incidence included
    hosts = 0
    for group in (kp12, quintics, hypercubes):
        for res in group.values():
            for fib in res.fibration.values():
                expected = cone_fibre_over_ones(fib)
                assert vars(local_fibre(fib, (1,) * (len(fib.y) + 1))) == vars(expected)
                hosts += 1
    assert hosts > 100


def test_criterion_5_monodromy_algebra(kp12):
    checked = 0
    for k in (2, 3):
        sphere = kp12[k].sphere
        cells = sphere.cells()
        disc = discriminant(sphere)
        for entry in disc.entries:
            m = entry["matrix"]
            n = len(m)
            ident = mat_identity(n)
            assert det(m) == 1
            d = tuple(tuple(m[a][b] - ident[a][b] for b in range(n)) for a in range(n))
            # rank(M - I) <= 1 here, so (M - I)^2 = 0 must hold
            assert mat_mul(d, d) == tuple(tuple(0 for _ in range(n)) for _ in range(n))
            edge = cells[entry["edge"]]
            wall = cells[entry["wall"]]
            v_plus, v_minus = sorted(edge.vertices)[:2]
            chart = sphere.chart_matrix(v_plus)
            for t in sphere.tangent_basis(wall):
                ct = mat_vec(chart, t)
                assert mat_vec(m, ct) == ct
            adj = sphere.walls()[wall.key()]
            s_plus = sphere.maximal_cells[adj[0]]
            s_minus = sphere.maximal_cells[adj[1]]
            rev = sphere._loop_matrix(v_plus, v_minus, s_minus, s_plus)
            assert mat_mul(m, rev) == ident
            other = sphere._loop_matrix(v_minus, v_plus, s_minus, s_plus)
            psi = sphere.transition(v_plus, v_minus, s_plus)
            lhs = _mm(psi, m)
            rhs = _mm(other, psi)
            assert lhs == rhs
            checked += 1
    assert checked > 0
    _line(5, f"det=1, (M-I)^2=0, wall fixing, loop inversion, chart conjugacy on {checked} loops")


def _mm(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in bt) for row in a)


def _nerve_inclusion_exclusion(space, d):
    """Independent oracle: inclusion-exclusion over nonempty intersections."""
    if d == 0:
        return 1
    cells = list(space.maximal_cells)

    def points_of(poly):
        return len(oracle_dilate_lattice_points(poly, d))

    total = 0

    def extend(start, current_poly, size):
        nonlocal total
        for nxt in range(start, len(cells)):
            ineqs = list(current_poly.facets) + list(cells[nxt].facets)
            eqs = list(current_poly.equations) + list(cells[nxt].equations)
            inter = polytope_from_inequalities(ineqs, eqs, cells[nxt].ambient_dim)
            if inter is None:
                continue
            sign = 1 if (size + 1) % 2 == 1 else -1
            total += sign * points_of(inter)
            extend(nxt + 1, inter, size + 1)

    for idx in range(len(cells)):
        total += points_of(cells[idx])
        extend(idx + 1, cells[idx], 1)
    return total


def test_criterion_6_ring_oracles(kp12):
    from tropdeg.embed import embed_D, wall_fibration_data
    from tropdeg.polytope import segment
    from tropdeg.subdivision import fine_crepant_subdivision
    from tropdeg.polytope import centered_dilated_simplex
    from tropdeg.tropical import TropicalSpace
    from tropdeg.zeroring import embedded_ideal, vanilla_gluing

    # corpus complexes: glued segments, the MPCP solid of 3*Delta^2, the
    # hypercube solid, and the K3 sphere complex
    two_segments = TropicalSpace(1, 1, [segment(0, 1), segment(1, 2)], "solid")
    sub, _ = fine_crepant_subdivision(centered_dilated_simplex(2))
    mpcp_solid = TropicalSpace(2, 2, sub.maximal_cells, "solid")
    cube_solid = build_hypercube(2).solid
    k3_sphere = kp12[2].sphere
    for space in (two_segments, mpcp_solid, cube_solid, k3_sphere):
        for d in range(6):
            assert hilbert_count(space, d) == _nerve_inclusion_exclusion(space, d)
    for d in range(6):
        assert hilbert_count(two_segments, d) == (2 * d + 1 if d else 1)
    # rescaling invariance of embedded ideals for 10 random scalar vectors
    toy = TropicalSpace(2, 1, [hull([(0, 0), (1, 0)]), hull([(1, 0), (2, 0)])], "solid")
    fib = wall_fibration_data(toy, 1, 0)
    t_d, iota, _ = embed_D(toy, fib)
    gluing = vanilla_gluing(2)
    rng = random.Random(77)
    base = embedded_ideal(toy, t_d, iota, (2, 3), gluing).normalized()
    for _ in range(10):
        lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        scaled = embedded_ideal(toy, t_d, iota, (2 * lam, 3 * lam), gluing).normalized()
        assert scaled == base
    _line(6, "hilbert counts match inclusion-exclusion (d <= 5); 2d+1 on segments; rescaling invariance x10")


def test_criterion_7_diagonal_compatibility(kp12, quintics, hypercubes):
    for group in (kp12, quintics, hypercubes):
        for res in group.values():
            assert res.report()["diagonal_compatible"] is True
    _line(7, "two-parameter diagonal restriction reproduces the one-parameter degeneration on every example")


def test_graph_cells_are_the_vertex_keys_of_their_hulls(kp12, quintics, hypercubes):
    # every lifted vertex is a vertex of its graph, so a graph cell kept as
    # its lifted points is the key its hull would have
    for group in (kp12, quintics, hypercubes):
        for res in group.values():
            for cell in res.two_param.total_complex:
                assert cell == hull(cell).key()


def test_criterion_8_determinism(kp12, quintics, hypercubes):
    from tropdeg.pipelines import build_example

    groups = (("kp1-2", kp12), ("quintic", quintics), ("hypercube", hypercubes))
    for name, group in groups:
        for value, first in group.items():
            fresh = build_example(name, value).report_json()
            assert first.report_json() == fresh, f"report of {name} {value} not byte-identical"
    _line(8, "byte-identical reports across two independent runs for all pipelines")
