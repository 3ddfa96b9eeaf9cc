"""Command-line front end: build examples, run checks, emit reports and SVG.

Exit codes: 0 success, 1 check failure (not simple, not surjective), 2 input
error.  All file I/O is UTF-8 JSON plus SVG 1.1; reports are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .jsonio import dumps, parse_num, point_json


class InputError(Exception):
    pass


def _max_dim():
    return int(os.environ.get("TROPDEG_MAX_DIM", "6"))


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}")


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _example_from_args(args):
    from .pipelines import EXAMPLES, build_example

    name = args.example
    if name not in EXAMPLES:
        raise InputError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    value = args.k if args.k is not None else args.i
    if value is None:
        raise InputError(f"example {name!r} needs --k or --i")
    try:
        return build_example(name, value)
    except ValueError as e:
        raise InputError(str(e))


def _polytope_from_json(obj):
    from .polytope import LatticePolytope

    try:
        poly = LatticePolytope.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad polytope JSON (field 'vertices'/'ambient_dim'): {e}")
    if poly.ambient_dim > _max_dim():
        raise InputError(f"ambient dimension {poly.ambient_dim} exceeds TROPDEG_MAX_DIM={_max_dim()}")
    return poly


def cmd_example(args):
    result = _example_from_args(args)
    _write(result.report_json() + "\n", args.out)
    return 0


def cmd_tropicalize(args):
    from .subdivision import regular_subdivision
    from .tropical import dual_intersection_complex, hypersurface_trop
    from .subdivision import graph_degeneration

    obj = _load_json(args.input)
    if "support" not in obj or "heights" not in obj:
        raise InputError("tropicalize input needs fields 'support' and 'heights'")
    support = _polytope_from_json(obj["support"])
    points = []
    heights = []
    for item in obj["heights"]:
        try:
            p, h = item
            points.append(tuple(parse_num(x) for x in p))
            heights.append(parse_num(h))
        except (TypeError, ValueError) as e:
            raise InputError(f"bad heights entry {item!r}: {e}")
        if len(points[-1]) != support.ambient_dim or not support.contains(points[-1]):
            raise InputError(f"heights point {point_json(points[-1])} lies outside 'support'")
    try:
        sub, f = regular_subdivision(points, heights)
    except ValueError as e:
        raise InputError(str(e))
    if args.hypersurface:
        space = hypersurface_trop(support, sub, enforce_fine=not args.coarse)
    else:
        space = dual_intersection_complex(graph_degeneration([(sub, f)]))
    point_table = sorted({v for c in space.maximal_cells for v in c.vertices})
    idx = {p: i for i, p in enumerate(point_table)}
    report = {
        "points": [point_json(p) for p in point_table],
        "maximal_cells": [[idx[v] for v in c.vertices] for c in space.maximal_cells],
        "dim": space.dim,
        "kind": space.chart_kind,
    }
    _write(dumps(report) + "\n", args.out)
    return 0


def cmd_check_simple(args):
    from .tropical import is_simple

    result = _example_from_args(args)
    report = dict(result.report())
    if "simple" not in report:
        sphere = getattr(result, "sphere", None) or result.solid
        report["simple"], _ = is_simple(sphere)
    _write(dumps(report) + "\n", args.out)
    return 0 if report["simple"] else 1


def cmd_embed_check(args):
    result = _example_from_args(args)
    report = result.report()
    ok = report["embedding"]["integrally_surjective"] and report["embedding"].get("barycenter_fibre_matches", True)
    _write(dumps(report["embedding"]) + "\n", args.out)
    return 0 if ok else 1


def cmd_lg_truncate(args):
    result = _example_from_args(args)
    truncated = getattr(result, "lg_truncated", None)
    if truncated is None:
        raise InputError(f"example {args.example!r} has no LG truncation")
    point_table = sorted({v for c in truncated.maximal_cells for v in c.vertices})
    idx = {p: i for i, p in enumerate(point_table)}
    report = {
        "points": [point_json(p) for p in point_table],
        "maximal_cells": [[idx[v] for v in c.vertices] for c in truncated.maximal_cells],
        "boundary_cells": len(truncated.boundary_keys),
        "dim": truncated.dim,
    }
    _write(dumps(report) + "\n", args.out)
    return 0


def cmd_ring(args):
    from .polytope import hull
    from .tropical import TropicalSpace
    from .zeroring import GluingData, hilbert_count, proj_ring, vanilla_gluing

    obj = _load_json(args.complex)
    if "cells" not in obj:
        raise InputError("ring input needs field 'cells'")
    cells = []
    ambient = None
    for ci, cell_pts in enumerate(obj["cells"]):
        pts = [tuple(parse_num(x) for x in p) for p in cell_pts]
        if not pts:
            raise InputError(f"ring cell {ci} is empty")
        if ambient is None:
            ambient = len(pts[0])
        if any(len(p) != ambient for p in pts):
            raise InputError(f"ring cell {ci} has a point whose dimension is not {ambient}, the dimension of cell 0")
        cells.append(hull(pts))
    if ambient is None:
        raise InputError("ring input has no cells")
    if ambient > _max_dim():
        raise InputError(f"ambient dimension {ambient} exceeds TROPDEG_MAX_DIM={_max_dim()}")
    space = TropicalSpace(ambient, max(c.dim for c in cells), cells, "solid")
    gluing = vanilla_gluing(ambient)
    if "gluing" in obj:
        twists = {}
        for entry in obj["gluing"]:
            frm = tuple(sorted(tuple(parse_num(x) for x in p) for p in entry["from"]))
            to = tuple(sorted(tuple(parse_num(x) for x in p) for p in entry["to"]))
            twists[(frm, to)] = tuple(parse_num(x) for x in entry["twist"])
        gluing = GluingData(ambient, twists)
    pres = proj_ring(space, gluing, args.degree)
    report = pres.to_json()
    report["hilbert_counts"] = [hilbert_count(space, d) for d in range(args.degree + 1)]
    _write(dumps(report) + "\n", args.out)
    return 0


def cmd_render(args):
    from .render import render_svg

    result = _example_from_args(args)
    sphere = getattr(result, "sphere", None)
    space = sphere if sphere is not None and sphere.dim == 2 else result.solid
    if space.dim != 2:
        raise InputError("render needs a 2-dimensional tropical space; pick a surface example")
    support = getattr(result, "prism", None) or getattr(result, "polytope", None) or getattr(result, "box", None)
    svg = render_svg(space, support=support)
    _write(svg, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tropdeg",
        description="Exact combinatorics of toric Tyurin degenerations: polytopes, subdivisions, tropical spaces, monodromy, mirror rings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_example_flags(p):
        p.add_argument("--example", required=True, help="example name: kp1-2, quintic, hypercube")
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--i", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("example", help="run a full example pipeline and write its report")
    add_example_flags(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("tropicalize", help="regular subdivision and tropical space from a heights file")
    p.add_argument("--input", required=True)
    p.add_argument("--hypersurface", action="store_true")
    p.add_argument("--coarse", action="store_true", help="skip the boundary fineness check")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tropicalize)

    p = sub.add_parser("check-simple", help="simplicity verdict; exit 1 when not simple")
    add_example_flags(p)
    p.set_defaults(func=cmd_check_simple)

    p = sub.add_parser("embed-check", help="integral tangent surjectivity of the deepest-stratum embedding")
    add_example_flags(p)
    p.set_defaults(func=cmd_embed_check)

    p = sub.add_parser("lg-truncate", help="LG model truncated over [0, 1]")
    add_example_flags(p)
    p.set_defaults(func=cmd_lg_truncate)

    p = sub.add_parser("ring", help="presentation and Hilbert counts of the glued cone algebra")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("render", help="SVG of a 2-dimensional tropical space (discriminant in red)")
    add_example_flags(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
