"""Canned pipelines reproducing the worked examples end to end.

Each build runs deterministically and returns a PipelineResult whose
report() is byte-stable across runs: all cell lists are sorted, all scalars
exact, and every tie-break documented in the constructions it relies on.
"""

from __future__ import annotations

from collections import Counter

from .embed import (
    FibrationData,
    barycenter_fibre,
    embed_D,
    lg_truncate,
    open_embed_LG,
    side_subcomplex,
    simplex_fibration,
    specialization_map,
    wall_fibration_data,
)
from .exactlin import InvariantError
from .jsonio import dumps, key_json
from .polytope import (
    NefPartition,
    centered_dilated_simplex,
    cube,
    graph_points,
    hull,
    product,
    segment,
    standard_simplex,
)
from .subdivision import (
    PLFunction,
    Subdivision,
    _piece_on,
    affine_value,
    blowup_refinement,
    fine_crepant_subdivision,
    graph_degeneration,
    hyperplane_split,
    product_pullback,
    regular_subdivision,
    sum_refinement,
)
from .tropical import (
    classify_faces,
    count_focus_focus,
    dual_intersection_complex,
    hypersurface_trop,
    is_simple,
)

QUINTIC_COLUMNS = (
    (-1, -1, -1, -1),
    (4, -1, -1, -1),
    (-1, 4, -1, -1),
    (-1, -1, 4, -1),
    (-1, -1, -1, 4),
)


class PipelineResult:
    """All artifacts of one example build plus its deterministic report."""

    def __init__(self, **objects):
        self.objects = objects
        for k, v in objects.items():
            if k != "report":
                setattr(self, k, v)

    def report(self):
        return self.objects["report"]

    def report_json(self):
        return dumps(self.report())


def _diagonal_matches(two_param, summed):
    """Restriction of the r-parameter graph to the diagonal equals the
    one-parameter graph of the summed function, cell by cell (compared on
    lifted vertex sets, which determine the graph cells)."""
    acc_sub, acc_f = summed
    n = two_param.base.ambient_dim
    expected = sorted(tuple(graph_points(cell, [acc_f.pieces[cell.key()]])) for cell in acc_sub.maximal_cells)
    got = sorted(tuple(sorted(v[:n] + (sum(v[n:]),) for v in c)) for c in two_param.total_complex)
    return expected == got


def _face_census(sphere, base):
    """Number of boundary faces of each of the four types of the solid base x [-1, 1], read off its sphere's face keys.

    The solid's boundary faces are the faces of the refinement's one-cell
    walls, which are the sphere's faces.
    """
    return dict(sorted(Counter(classify_faces(sphere.faces(), base.facets, base.ambient_dim, (-1, 1))).items()))


def build_kp1_2(k):
    """(k+1, 2) hypersurface in P^k x P^1: the product-of-dilations pipeline."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > 4:
        raise ValueError("scale limit: k must be at most 4")
    base = centered_dilated_simplex(k)
    sub_q, f_q = fine_crepant_subdivision(base)
    seg = segment(-1, 1)
    sub_s, f_s = regular_subdivision([(-1,), (0,), (1,)], [1, 0, 1])
    big_q, g_q = product_pullback(f_q, sub_q, seg, side="left")
    big_s, g_s = product_pullback(f_s, sub_s, base, side="right")
    refined, g_sum = sum_refinement(g_q, g_s, big_q, big_s)
    two_param = graph_degeneration([(big_q, g_q), (big_s, g_s)], refinement=refined)
    diagonal_ok = _diagonal_matches(two_param, (refined, g_sum))
    prism = product(base, seg)
    sphere = hypersurface_trop(prism, refined)
    simple, disc = is_simple(sphere)
    focus = count_focus_focus(sphere) if sphere.dim == 2 else None
    fibration = wall_fibration_data(sphere, k, 0)
    t_d, iota, surjective = embed_D(sphere, fibration)
    fmap = simplex_fibration(fibration)
    fibre_keys = barycenter_fibre(sphere, fibration)
    # specialization data: Tyurin-only refinement versus the full central one
    rho = specialization_map(big_s, refined)
    report = {
        "example": "kp1-2",
        "parameters": {"k": k},
        "polytope": prism.to_json(),
        "solid_cells": len(refined.maximal_cells),
        "hypersurface_cells": len(sphere.maximal_cells),
        "simple": simple,
        "focus_focus_total": focus,
        "discriminant_points": len(disc.entries),
        "monodromy_report": disc.to_json(),
        "embedding": {
            "integrally_surjective": surjective,
            "fibre_cells": len(t_d.maximal_cells),
            "barycenter_fibre_matches": fibre_keys == iota.metadata["fibres"],
            "warnings": list(fmap.warnings),
        },
        "diagonal_compatible": diagonal_ok,
        "face_census": _face_census(sphere, base),
        "specialization_surjective": rho.surjective,
    }
    return PipelineResult(
        base=base,
        prism=prism,
        refinement=refined,
        two_param=two_param,
        sphere=sphere,
        discriminant=disc,
        simple=simple,
        fibration=fibration,
        t_d=t_d,
        iota=iota,
        surjective=surjective,
        simplex_map=fmap,
        specialization=rho,
        report=report,
    )


def _orthant_tents(poly, skip_coord):
    """Sum of max(0, x_j) tents over all coordinates except one.

    The skipped coordinate keeps the toric-direction function linear across
    the Tyurin wall, which is the transversality statement the pipeline
    verifies.
    """
    sub = Subdivision(poly, [poly])
    f = PLFunction({poly.key(): (tuple(0 for _ in range(poly.ambient_dim)), 0)}, True)
    for j in range(poly.ambient_dim):
        if j == skip_coord:
            continue
        vals = [v[j] for v in poly.vertices]
        if not (min(vals) < 0 < max(vals)):
            continue
        split_sub, tent = hyperplane_split(poly, j, 0)
        sub, f = sum_refinement(f, tent, sub, split_sub)
    return sub, f


def _linear_across(f, f_sub, refined, coord, level):
    """No bend of f across any wall of the refinement inside {x_coord = level}."""
    cells = refined.maximal_cells
    for wall, (i, j) in refined.interior_walls().items():
        if not all(v[coord] == level for v in wall):
            continue
        pi = _piece_on(f, f_sub, refined, cells[i])
        pj = _piece_on(f, f_sub, refined, cells[j])
        pts = set(cells[i].vertices) | set(cells[j].vertices)
        if any(affine_value(pi, p) != affine_value(pj, p) for p in pts):
            return False
    return True


def build_quintic(i):
    """Quintic threefold degenerating to a degree-i and a degree-(5-i) piece."""
    if not 1 <= i <= 4:
        raise ValueError("i must be between 1 and 4")
    poly = hull(list(QUINTIC_COLUMNS))
    if not poly.is_reflexive():
        raise InvariantError("the quintic polytope is not reflexive")
    level = i - 1
    split_sub, h_tyu = hyperplane_split(poly, 0, level)
    # nef partition O(5) = O(i) + O(5-i) and its blow-up refinement
    nef = NefPartition(poly, [poly])
    delta_a = standard_simplex(4, i)
    delta_b = standard_simplex(4, 5 - i).translate((-1, -1, -1, -1))
    blow_total, blow_parts, blow_nef = blowup_refinement(nef, delta_a, delta_b)
    # toric-direction tents, kept linear across the wall
    tor_sub, h_tor = _orthant_tents(poly, skip_coord=0)
    refined, h_total = sum_refinement(h_tor, h_tyu, tor_sub, split_sub)
    phi_linear_across_wall = _linear_across(h_tor, tor_sub, refined, 0, level)
    two_param = graph_degeneration([(tor_sub, h_tor), (split_sub, h_tyu)], refinement=refined)
    diagonal_ok = _diagonal_matches(two_param, (refined, h_total))
    sphere = hypersurface_trop(poly, split_sub, enforce_fine=False)
    fibration = wall_fibration_data(sphere, 0, level)
    t_d, iota, surjective = embed_D(sphere, fibration)
    fmap = simplex_fibration(fibration)
    fibre_keys = barycenter_fibre(sphere, fibration)
    # LG model of the low (degree-i) component, truncated one unit in
    t_z = side_subcomplex(sphere, 0, level, "low")
    truncated = lg_truncate(t_z, (tuple(-1 if c == 0 else 0 for c in range(4)), level))
    lg_embedding = open_embed_LG(truncated, sphere)
    rho = specialization_map(split_sub, refined)
    report = {
        "example": "quintic",
        "parameters": {"i": i},
        "polytope": poly.to_json(),
        "reflexive": True,
        "lattice_points": len(poly.lattice_points()),
        "normalized_volume": poly.normalized_volume(),
        "split_cells": len(split_sub.maximal_cells),
        "blowup_prism": blow_total.to_json(),
        "phi_linear_across_wall": phi_linear_across_wall,
        "embedding": {
            "integrally_surjective": surjective,
            "fibre_cells": len(t_d.maximal_cells),
            "fibre_dim": t_d.dim,
            "barycenter_fibre_matches": fibre_keys == iota.metadata["fibres"],
            "warnings": list(fmap.warnings),
        },
        "lg": {
            "truncated_cells": len(truncated.maximal_cells),
            "missing_cells": [key_json(k) for k in lg_embedding.missing_cells],
            "embedded_cells": len(lg_embedding.entries),
        },
        "diagonal_compatible": diagonal_ok,
        "specialization_surjective": rho.surjective,
        "gen_cells": len(split_sub.maximal_cells),
        "zero_cells": len(refined.maximal_cells),
    }
    return PipelineResult(
        polytope=poly,
        split=split_sub,
        tyurin_function=h_tyu,
        blowup=(blow_total, blow_parts, blow_nef),
        refinement=refined,
        two_param=two_param,
        sphere=sphere,
        fibration=fibration,
        t_d=t_d,
        iota=iota,
        surjective=surjective,
        simplex_map=fmap,
        lg_truncated=truncated,
        lg_embedding=lg_embedding,
        specialization=rho,
        report=report,
    )


def build_hypercube(k):
    """Anticanonical data of [-1,1]^k split along all coordinate hyperplanes."""
    if not 1 <= k <= 3:
        raise ValueError("k must be between 1 and 3")
    box = cube(k)
    pts = box.lattice_points()
    heights = [sum(abs(int(x)) for x in p) for p in pts]
    sub, f = regular_subdivision(pts, heights)
    if len(sub.maximal_cells) != 2**k:
        raise InvariantError(f"the hypercube's tent subdivision has {len(sub.maximal_cells)} cells, not {2**k}")
    summed = sum_refinement(f, f, sub, sub)
    two_param = graph_degeneration([(sub, f), (sub, f)], refinement=summed[0])
    diagonal_ok = _diagonal_matches(two_param, summed)
    solid = dual_intersection_complex(summed[0])
    # rank-k fibration: folded tents y_i = t - s_i x_i per orthant cell
    fibration = {}
    for cell in solid.maximal_cells:
        bary = cell.barycenter()
        signs = [1 if b > 0 else -1 for b in bary]
        ys = [tuple(signs) + (1,)] + [tuple(-s if j == i else 0 for j in range(k)) + (1,) for i, s in enumerate(signs)]
        fibration[cell.key()] = FibrationData(cell, ys)
    t_d, iota, surjective = embed_D(solid, fibration)
    fmap = simplex_fibration(fibration)
    target = fmap.metadata["target"]
    rho = specialization_map(sub, sub)
    report = {
        "example": "hypercube",
        "parameters": {"k": k},
        "polytope": box.to_json(),
        "cells": len(solid.maximal_cells),
        "minimal_stratum_dim": t_d.dim,
        "embedding": {
            "integrally_surjective": surjective,
            "fibre_cells": len(t_d.maximal_cells),
            "warnings": list(fmap.warnings),
        },
        "simplex_target": target.to_json(),
        "diagonal_compatible": diagonal_ok,
        "specialization_surjective": rho.surjective,
    }
    return PipelineResult(
        box=box,
        subdivision=sub,
        two_param=two_param,
        solid=solid,
        fibration=fibration,
        t_d=t_d,
        iota=iota,
        surjective=surjective,
        simplex_map=fmap,
        specialization=rho,
        report=report,
    )


EXAMPLES = {"kp1-2": build_kp1_2, "quintic": build_quintic, "hypercube": build_hypercube}


def build_example(name, value):
    if name not in EXAMPLES:
        raise ValueError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    return EXAMPLES[name](value)
