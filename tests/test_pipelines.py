import hashlib
import sys

import pytest

from tropdeg import polytope, subdivision
from tropdeg.embed import specialization_map
from tropdeg.pipelines import _linear_across, build_example, build_hypercube, build_kp1_2, build_quintic
from tropdeg.polytope import containing_cell
from tropdeg.subdivision import Subdivision


@pytest.fixture(scope="module")
def kp2():
    return build_kp1_2(2)


@pytest.fixture(scope="module")
def quintic2():
    return build_quintic(2)


def test_kp1_2_k2_k3_report(kp2):
    r = kp2.report()
    assert r["simple"] is True
    assert r["focus_focus_total"] == 24
    assert r["hypersurface_cells"] == 36
    assert r["embedding"]["integrally_surjective"] is True
    assert r["embedding"]["barycenter_fibre_matches"] is True
    assert r["diagonal_compatible"] is True
    assert set(r["face_census"]) == {"InteriorCap", "BoundaryCap", "HorizontalSide", "VerticalSide"}


def test_kp1_2_constructions_scan_no_incidence_and_facets_take_no_fresh_chart(monkeypatch):
    # during build_kp1_2(2) tight_at runs only in the readers that test
    # points against a polytope's facets, never under a construction, and a
    # face that is a facet of its cell reads its chart off the cell's
    from tropdeg import polytope, render, subdivision, tropical

    constructions = {
        "hull",
        "clip_by_halfspace",
        "face_from_mask",
        "section",
        "product",
        "_assemble",
    }
    tight_callers = []
    real_tight_at = polytope.tight_at

    def counted_tight_at(facet, points):
        frame, stack = sys._getframe(1), []
        while frame is not None:
            stack.append(frame.f_code.co_name)
            frame = frame.f_back
        tight_callers.append(stack)
        return real_tight_at(facet, points)

    for module in (polytope, render, subdivision, tropical):
        monkeypatch.setattr(module, "tight_at", counted_tight_at, raising=False)
    facet_faces = []
    fresh_facet_charts = []
    real_chart = polytope._lattice_chart

    def counted_chart(points):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "face_from_mask" and caller.f_locals["mask"] in caller.f_locals["self"].incidence:
            fresh_facet_charts.append(points)
        return real_chart(points)

    real_face = polytope.LatticePolytope.face_from_mask

    def counted_face(self, mask):
        if mask in self.incidence:
            facet_faces.append(mask)
        return real_face(self, mask)

    monkeypatch.setattr(polytope, "_lattice_chart", counted_chart)
    monkeypatch.setattr(polytope.LatticePolytope, "face_from_mask", counted_face)
    build_kp1_2(2).report()
    callers = {next(name for name in stack if not name.startswith("<")) for stack in tight_callers}
    assert callers == {"boundary_triangulation", "classify_faces"}
    assert not [stack for stack in tight_callers if constructions & set(stack)]
    # the boundary sphere's cells and the fibres are facet faces
    assert facet_faces and fresh_facet_charts == []


def test_kp1_2_k1():
    res = build_kp1_2(1)
    r = res.report()
    assert r["simple"] is True
    assert r["focus_focus_total"] is None  # circle, not a surface
    # discriminant empty on the central slice direction: the solid square's
    # interior walls all carry identity monodromy
    from tropdeg.tropical import discriminant, dual_intersection_complex

    assert discriminant(dual_intersection_complex(res.refinement)).entries == ()
    assert r["embedding"]["integrally_surjective"] is True


def test_kp1_2_scale_limit():
    with pytest.raises(ValueError, match="scale limit"):
        build_kp1_2(5)


def test_quintic_i2(quintic2):
    r = quintic2.report()
    assert r["reflexive"] is True
    assert r["lattice_points"] == 126
    assert r["normalized_volume"] == 625
    assert r["split_cells"] == 2
    assert r["embedding"]["integrally_surjective"] is True
    assert r["embedding"]["fibre_dim"] == 2
    assert r["phi_linear_across_wall"] is True
    assert r["diagonal_compatible"] is True


def test_phi_linear_across_wall_is_false_for_the_tyurin_tent(quintic2):
    # the Tyurin tent bends across the wall x_0 = 1 that the toric tents stay linear across
    r = quintic2
    assert _linear_across(r.tyurin_function, r.split, r.refinement, 0, 1) is False


def test_specialization_is_not_surjective_onto_one_side(quintic2):
    # the refined cells inside one split cell cover that cell alone
    r = quintic2
    one = r.split.maximal_cells[0]
    inside = [c for c in r.refinement.maximal_cells if containing_cell([one], c) is not None]
    assert 0 < len(inside) < len(r.refinement.maximal_cells)
    rho = specialization_map(r.split, Subdivision(r.polytope, inside))
    assert rho.surjective is False
    assert {e["source"] for e in rho.entries} == {one.key()}


def test_kp1_2_k4_report_is_pinned():
    # the k=4 report is about 10 MB, so it is pinned by its SHA-256 rather than a golden file
    r = build_kp1_2(4)
    assert r.report()["simple"] is True
    digest = hashlib.sha256(r.report_json().encode()).hexdigest()
    assert digest == "0e4521cc7a48235e49ccefc7a29fea82b0001b5912f78388581bfc61a3dd5cc4"


def test_quintic_i1_point_factor():
    res = build_quintic(1)
    r = res.report()
    # i=1 blows up a hyperplane: Delta_a = 1 * Delta^4, still a valid split
    assert r["embedding"]["integrally_surjective"] is True
    total, parts, nef = res.blowup
    assert parts[0].dim == 5


def test_quintic_out_of_range():
    with pytest.raises(ValueError):
        build_quintic(5)
    with pytest.raises(ValueError):
        build_quintic(0)


def test_quintic_mirror_involution():
    # i = 4 is mirror to i = 1 under the coordinate involution u1 -> 3 - u1
    # (a unimodular affine map): the combinatorial reports agree
    r1 = build_quintic(1).report()
    r4 = build_quintic(4).report()
    for key in ("split_cells", "phi_linear_across_wall", "diagonal_compatible"):
        assert r1[key] == r4[key]
    assert r1["embedding"]["integrally_surjective"] == r4["embedding"]["integrally_surjective"]
    assert r1["embedding"]["fibre_cells"] == r4["embedding"]["fibre_cells"]
    assert r1["lg"]["embedded_cells"] + r4["lg"]["embedded_cells"] > 0


def test_hypercube_examples():
    for k in (1, 2, 3):
        r = build_hypercube(k).report()
        assert r["cells"] == 2**k
        assert r["minimal_stratum_dim"] == 0
        assert r["embedding"]["integrally_surjective"] is True
        assert r["diagonal_compatible"] is True
    with pytest.raises(ValueError):
        build_hypercube(4)


def test_hypercube_k2_target_simplex():
    res = build_hypercube(2)
    target = res.simplex_map.metadata["target"]
    assert target.normalized_volume() == 9  # 3 * Delta^2


def test_determinism_byte_identical():
    for name, value in (("kp1-2", 2), ("quintic", 2), ("hypercube", 2)):
        a = build_example(name, value).report_json()
        b = build_example(name, value).report_json()
        assert a == b


def test_unknown_example_rejected():
    with pytest.raises(ValueError, match="unknown example"):
        build_example("nope", 1)


def test_golden_reports(kp2, quintic2):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden"
    cases = {
        "kp1_2_2.json": kp2,
        "quintic_2.json": quintic2,
    }
    for fn, res in cases.items():
        expected = (golden / fn).read_text(encoding="utf-8")
        assert res.report_json() + "\n" == expected, f"golden report drift: {fn}"


def test_golden_reports_cheap():
    import pathlib

    from tropdeg.pipelines import build_example

    golden = pathlib.Path(__file__).parent / "golden"
    for name, value in (("kp1-2", 1), ("hypercube", 1), ("hypercube", 2), ("hypercube", 3)):
        fn = golden / f"{name.replace('-', '_')}_{value}.json"
        expected = fn.read_text(encoding="utf-8")
        assert build_example(name, value).report_json() + "\n" == expected


def test_kp1_2_k2_embed_d_takes_no_hull_and_no_extra_left_inverse():
    # embed_D takes no hull: each fibre is a face of its host cells and each
    # reduced cell that fibre carried through the slice chart; and
    # normalized_volume, regular_subdivision and
    # embed_D make no left inverse outside _span_chart's misses,
    # _hull_full_dim and the sections of the boundary vertex charts, which
    # the fan compatibility check does not read
    from tropdeg import embed, exactlin, polytope, subdivision

    watched = {
        polytope.LatticePolytope.normalized_volume.__code__: "normalized_volume",
        subdivision.regular_subdivision.__code__: "regular_subdivision",
        embed.embed_D.__code__: "embed_D",
    }
    entered = set()
    embed_hulls = []
    stray_inverses = []

    def callers(frame):
        names = []
        while frame is not None:
            names.append(frame.f_code.co_name)
            if frame.f_code in watched:
                entered.add(watched[frame.f_code])
            frame = frame.f_back
        return names

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in watched:
            entered.add(watched[frame.f_code])
        if frame.f_code is polytope.LatticePolytope.hull.__code__:
            names = callers(frame.f_back)
            if "embed_D" in names:
                embed_hulls.append(names[: names.index("embed_D") + 1])
        elif frame.f_code is exactlin.left_inverse.__code__:
            names = callers(frame.f_back)
            if names[0] not in ("_span_chart", "_hull_full_dim", "_vertex_chart") and set(names) & set(watched.values()):
                stray_inverses.append(names)

    sys.setprofile(profile)
    try:
        result = build_kp1_2(2)
    finally:
        sys.setprofile(None)
    assert entered == set(watched.values())
    assert embed_hulls == []
    assert len(result.t_d.maximal_cells) == 9
    assert stray_inverses == []


# --- quintic and hypercube builds: sums by support functions, clips that can cut


QUINTIC_AND_HYPERCUBE = [*((build_quintic, i) for i in range(1, 5)), *((build_hypercube, k) for k in range(1, 4))]


def test_quintic_and_hypercube_builds_take_no_minkowski_sum(monkeypatch):
    calls = []
    real = polytope.minkowski_sum

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    for module in (polytope, subdivision):
        monkeypatch.setattr(module, "minkowski_sum", counted, raising=False)
    for build, value in QUINTIC_AND_HYPERCUBE:
        build(value)
    assert calls == []


def test_common_refinement_never_clips_by_a_facet_of_the_support(monkeypatch):
    supports = []
    clips = []
    real_refinement = subdivision.common_refinement
    real_clip = subdivision.clip_by_halfspace

    def tracked(sub1, sub2):
        supports.append(set(sub1.support.facets))
        try:
            return real_refinement(sub1, sub2)
        finally:
            supports.pop()

    def counted(cell, normal, offset):
        if supports:
            clips.append((normal, offset) in supports[-1])
        return real_clip(cell, normal, offset)

    monkeypatch.setattr(subdivision, "common_refinement", tracked)
    monkeypatch.setattr(subdivision, "clip_by_halfspace", counted)
    for build, value in QUINTIC_AND_HYPERCUBE:
        build(value)
    assert clips and not any(clips)


def test_quintic_builds_hull_only_small_point_sets(monkeypatch):
    # the input polytope, the simplices and segments: no Minkowski sum and
    # no translate is hulled
    sizes = []
    real = polytope.LatticePolytope.hull

    def counted(points):
        sizes.append(len(points))
        return real(points)

    monkeypatch.setattr(polytope.LatticePolytope, "hull", staticmethod(counted))
    for i in range(1, 5):
        build_quintic(i)
    assert sizes and max(sizes) <= 5


def _counting_calls(monkeypatch, modules, name):
    """The argument tuples of every call to `name` through any of the modules' bindings of it."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("build", [build_kp1_2, build_quintic])
def test_kp1_2_and_quintic_builds_make_no_solid(monkeypatch, build):
    # no report reads the solid: kp1-2's solid_cells counts the refinement's cells
    from tropdeg import pipelines, tropical

    calls = _counting_calls(monkeypatch, (tropical, pipelines), "dual_intersection_complex")
    result = build(2)
    assert calls == [] and not hasattr(result, "solid")
    if build is build_kp1_2:
        assert result.report()["solid_cells"] == len(result.refinement.maximal_cells)


EXAMPLE_BUILDS = [*((build_kp1_2, k) for k in (1, 2, 3)), *QUINTIC_AND_HYPERCUBE]


@pytest.mark.parametrize("build, value", EXAMPLE_BUILDS)
def test_each_build_makes_one_tangent_smith_form_per_fibration_host(monkeypatch, build, value):
    # FibrationData makes each host's diagonal once; embed_D's surjectivity
    # check and the simplex map's rescaling warnings both read it
    from tropdeg import embed, exactlin

    calls = _counting_calls(monkeypatch, (exactlin, embed), "smith_normal_form")
    result = build(value)
    assert len(calls) == len(result.fibration) > 0


@pytest.mark.parametrize("build, value", EXAMPLE_BUILDS)
def test_each_fibration_cell_keeps_its_hosts_tangent_lattice(build, value):
    # the collar clip keeps the host's chart, so the diagonal read on the
    # fibration cell is the one read on the host
    result = build(value)
    space = result.sphere if hasattr(result, "sphere") else result.solid
    hosts = {c.key(): c for c in space.maximal_cells}
    for key, fib in result.fibration.items():
        assert fib.cell.span_basis == hosts[key].span_basis, key
