"""Command-line front end: build examples, run checks, emit reports and SVG.

Exit codes: 0 success, 1 check failure (not simple, not surjective), 2 input
error, 3 internal error (an `InvariantError` or any other uncaught
exception).  All file I/O is UTF-8 JSON plus SVG 1.1; reports are
byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .exactlin import InvariantError
from .jsonio import dumps, parse_num, point_json


class InputError(Exception):
    pass


def _check_dim(ambient):
    """InputError if the ambient dimension exceeds TROPDEG_MAX_DIM (default 6); called before any hull.

    A setting that is not a positive integer is an InputError that names it.
    """
    raw = os.environ.get("TROPDEG_MAX_DIM", "6")
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise InputError(f"TROPDEG_MAX_DIM must be a positive integer, not {raw!r}") from None
    if ambient > cap:
        raise InputError(f"ambient dimension {ambient} exceeds TROPDEG_MAX_DIM={cap}")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}")
    except OSError as e:
        raise InputError(f"cannot read input file {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(obj, dict):
        raise InputError(f"top-level JSON value in {path} must be an object")
    return obj


def _point(value, field):
    """Exact coordinates from a JSON list of numbers; InputError names the field."""
    if isinstance(value, list):
        try:
            return tuple(parse_num(x) for x in value)
        except TypeError:
            pass
    raise InputError(f"{field} must be a list of numbers")


def _points(value, field):
    """Exact points from a JSON list of lists of numbers; InputError names the field."""
    if not isinstance(value, list):
        raise InputError(f"{field} must be a list of points")
    return [_point(p, f"{field} point {i}") for i, p in enumerate(value)]


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write output file {out}: {e.strerror or e}")


def _example_from_args(args):
    from .pipelines import EXAMPLES, build_example

    name = args.example
    if name not in EXAMPLES:
        raise InputError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    if args.k is not None and args.i is not None:
        raise InputError(f"example {name!r} takes --k or --i, not both")
    value = args.k if args.k is not None else args.i
    if value is None:
        raise InputError(f"example {name!r} needs --k or --i")
    try:
        return build_example(name, value)
    except ValueError as e:
        raise InputError(str(e))


def _polytope_from_json(obj):
    """The polytope of a JSON object, its dimension checked against the cap before any hull."""
    from .polytope import LatticePolytope

    bad = "bad polytope JSON (field 'vertices'/'ambient_dim')"
    ambient = obj.get("ambient_dim") if isinstance(obj, dict) else None
    if type(ambient) is not int:
        raise InputError(f"{bad}: the polytope must be an object with an integer 'ambient_dim'")
    _check_dim(ambient)
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or any(not isinstance(v, list) or len(v) != ambient for v in vertices):
        raise InputError(f"{bad}: each vertex must be a list of {ambient} numbers")
    try:
        return LatticePolytope.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{bad}: {e}")


def _point_table(cells):
    """The cells' vertices, sorted, as "points", and each cell as indices into them."""
    points = sorted({v for c in cells for v in c.vertices})
    idx = {p: i for i, p in enumerate(points)}
    return {
        "points": [point_json(p) for p in points],
        "maximal_cells": [[idx[v] for v in c.vertices] for c in cells],
    }


def cmd_example(args):
    result = _example_from_args(args)
    _write(result.report_json() + "\n", args.out)
    return 0


def cmd_tropicalize(args):
    from .subdivision import regular_subdivision
    from .tropical import dual_intersection_complex, hypersurface_trop

    obj = _load_json(args.input)
    if "support" not in obj or "heights" not in obj:
        raise InputError("tropicalize input needs fields 'support' and 'heights'")
    if not isinstance(obj["heights"], list):
        raise InputError("tropicalize field 'heights' must be a list of [point, height] pairs")
    support = _polytope_from_json(obj["support"])
    points = []
    heights = []
    for i, item in enumerate(obj["heights"]):
        try:
            p, h = item
            points.append(_point(p, f"heights entry {i} point"))
            heights.append(parse_num(h))
        except (TypeError, ValueError) as e:
            raise InputError(f"bad heights entry {item!r}: {e}")
        if len(points[-1]) != support.ambient_dim or not support.contains(points[-1]):
            raise InputError(f"heights point {point_json(points[-1])} lies outside 'support'")
    # every point lies in the support, so the points' hull is the support
    # exactly when every support vertex is a point; the subdivision then
    # takes the support's hull rather than hulling the points again
    covered = set(support.vertices) <= set(points)
    try:
        sub, _ = regular_subdivision(points, heights, support if covered else None)
    except ValueError as e:
        raise InputError(str(e))
    if not covered:
        raise InputError("the hull of the 'heights' points is not the polytope 'support'")
    if args.hypersurface:
        space = hypersurface_trop(support, sub, enforce_fine=not args.coarse)
    else:
        space = dual_intersection_complex(sub)
    report = {**_point_table(space.maximal_cells), "dim": space.dim, "kind": space.chart_kind}
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
    report = {
        **_point_table(truncated.maximal_cells),
        "boundary_cells": len(truncated.boundary_keys),
        "dim": truncated.dim,
    }
    _write(dumps(report) + "\n", args.out)
    return 0


def cmd_ring(args):
    from .polytope import hull
    from .tropical import TropicalSpace
    from .zeroring import GluingData, proj_ring, vanilla_gluing

    obj = _load_json(args.complex)
    if not isinstance(obj.get("cells"), list):
        raise InputError("ring input needs field 'cells', a list of cells")
    cells = []
    ambient = None
    for ci, cell_pts in enumerate(obj["cells"]):
        pts = _points(cell_pts, f"ring cell {ci}")
        if not pts:
            raise InputError(f"ring cell {ci} is empty")
        if ambient is None:
            ambient = len(pts[0])
            _check_dim(ambient)
        if any(len(p) != ambient for p in pts):
            raise InputError(f"ring cell {ci} has a point whose dimension is not {ambient}, the dimension of cell 0")
        cells.append(hull(pts))
    if ambient is None:
        raise InputError("ring input has no cells")
    space = TropicalSpace(ambient, max(c.dim for c in cells), cells, "solid")
    gluing = vanilla_gluing(ambient)
    if "gluing" in obj:
        if not isinstance(obj["gluing"], list):
            raise InputError("ring field 'gluing' must be a list of entries")
        twists = {}
        for gi, entry in enumerate(obj["gluing"]):
            field = f"ring gluing entry {gi}"
            if not isinstance(entry, dict) or not {"from", "to", "twist"} <= entry.keys():
                raise InputError(f"{field} needs fields 'from', 'to' and 'twist'")
            frm = tuple(sorted(_points(entry["from"], f"{field} field 'from'")))
            to = tuple(sorted(_points(entry["to"], f"{field} field 'to'")))
            twists[(frm, to)] = _point(entry["twist"], f"{field} field 'twist'")
        gluing = GluingData(ambient, twists)
    pres = proj_ring(space, gluing, args.degree)
    report = pres.to_json()
    report["hilbert_counts"] = list(pres.hilbert)
    _write(dumps(report) + "\n", args.out)
    return 0


def cmd_render(args):
    from .render import render_svg
    from .tropical import dual_intersection_complex

    result = _example_from_args(args)
    space = getattr(result, "sphere", None)
    if space is None or space.dim != 2:
        space = getattr(result, "solid", None) or dual_intersection_complex(result.refinement)
    if space.dim != 2:
        raise InputError("render needs a 2-dimensional tropical space; pick a surface example")
    support = getattr(result, "prism", None) or getattr(result, "polytope", None) or getattr(result, "box", None)
    svg = render_svg(space, support=support)
    _write(svg, args.out)
    return 0


@functools.cache
def build_parser():
    """The CLI's argument parser, built on the first call and shared by every later one in the process.

    Parsing leaves a parser unchanged, so one serves every `main` call; it
    is not built at import, so importing the package builds no parser.
    """
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except InvariantError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 3
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
