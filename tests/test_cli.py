import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import tropdeg
from tropdeg import pipelines, tropical
from tropdeg.cli import build_parser, main
from tropdeg.exactlin import mat_identity
from tropdeg.jsonio import parse_num
from tropdeg.polytope import LatticePolytope


def run(args):
    return main(args)


def fresh_cli(args):
    """Run the CLI in a fresh interpreter; the finished process, with its output as text."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tropdeg.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "tropdeg.cli", *args], capture_output=True, text=True, env=env)


def run_cli(args):
    """Run the CLI in a fresh interpreter; (exit code, stderr)."""
    proc = fresh_cli(args)
    return proc.returncode, proc.stderr


def assert_input_error(args, *words):
    code, err = run_cli(args)
    assert code == 2, err
    assert "Traceback" not in err
    for w in words:
        assert w in err


def test_check_simple_kp1_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["check-simple", "--example", "kp1-2", "--k", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["focus_focus_total"] == 24
    assert report["simple"] is True


def test_embed_check_quintic(tmp_path):
    out = tmp_path / "embed.json"
    code = run(["embed-check", "--example", "quintic", "--i", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["integrally_surjective"] is True


def test_ring_two_segments(tmp_path):
    complex_file = tmp_path / "two-segments.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
    out = tmp_path / "ring.json"
    code = run(["ring", "--complex", str(complex_file), "--degree", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hilbert_counts"] == [1, 3, 5]


def test_ring_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"cells": [[[0], [1]],')
    code = run(["ring", "--complex", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_unknown_example_exit_2(capsys):
    assert run(["check-simple", "--example", "nope", "--k", "2"]) == 2


def test_missing_parameter_exit_2(capsys):
    assert run(["check-simple", "--example", "kp1-2"]) == 2


def test_scale_limit_exit_2(capsys):
    assert run(["check-simple", "--example", "kp1-2", "--k", "9"]) == 2


def test_failed_invariant_exits_3_with_one_line(capsys, monkeypatch):
    # a kernel that calls the quintic polytope not reflexive breaks an
    # invariant of the build, not the input
    monkeypatch.setattr(LatticePolytope, "is_reflexive", lambda self: False)
    assert run(["example", "--example", "quintic", "--i", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: the quintic polytope is not reflexive\n"


def test_non_integral_monodromy_exits_3_not_2(capsys, monkeypatch):
    # loop factors whose transvection has the entry 1/2: the charts broke an
    # invariant of the construction, which is no fault of the input
    monkeypatch.setattr(tropical.TropicalSpace, "_loop_factors", lambda self, v_plus, v_minus, bend: ((Fraction(1, 2), 0), (1, 0)))
    assert run(["check-simple", "--example", "kp1-2", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err == (
        "internal error: monodromy is not integral; charts are incompatible on the lattice, "
        "at the loop across edge [[-1, -1, -1], [-1, -1, 0]] and wall [[-1, -1, -1], [-1, -1, 0]]\n"
    )


def test_a_non_integral_bend_names_its_loop(capsys, monkeypatch):
    # every bend halved: each loop of kp1-2 k=2 has multiplicity 1, so the
    # first one is not integral, and it is named by its edge and wall
    real_bend = tropical.TropicalSpace._bend

    def half_bend(self, sigma_plus, sigma_minus):
        bend = real_bend(self, sigma_plus, sigma_minus)
        return None if bend is None else tuple(Fraction(x, 2) for x in bend)

    monkeypatch.setattr(tropical.TropicalSpace, "_bend", half_bend)
    assert run(["check-simple", "--example", "kp1-2", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal error: monodromy is not integral")
    assert err.endswith(", at the loop across edge [[-1, -1, -1], [-1, -1, 0]] and wall [[-1, -1, -1], [-1, -1, 0]]\n")


def test_a_failed_chart_completion_names_its_vertex(capsys, monkeypatch):
    # a completion that does not send its vertex to e1 breaks the chart at
    # that vertex
    monkeypatch.setattr(tropical, "unimodular_completion", lambda v: (mat_identity(len(v)), mat_identity(len(v))))
    assert run(["check-simple", "--example", "kp1-2", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: the chart completion at vertex [-1, -1, -1] does not send it to e1\n"


def test_any_other_uncaught_exception_exits_3_with_one_line(capsys, monkeypatch):
    # exit 1 means a failed check, so a stray exception must not reach the
    # interpreter, which would exit 1 with a traceback
    def broken(value):
        raise KeyError("cell")

    monkeypatch.setitem(pipelines.EXAMPLES, "hypercube", broken)
    assert run(["example", "--example", "hypercube", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'cell'\n"


def test_example_report_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["example", "--example", "hypercube", "--k", "2", "--out", str(out1)]) == 0
    assert run(["example", "--example", "hypercube", "--k", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_lg_truncate_quintic(tmp_path):
    out = tmp_path / "lg.json"
    assert run(["lg-truncate", "--example", "quintic", "--i", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["dim"] == 3
    assert report["boundary_cells"] > 0


def test_tropicalize_solid(tmp_path):
    data = {
        "support": {"ambient_dim": 1, "vertices": [[-1], [1]]},
        "heights": [[[-1], 1], [[0], 0], [[1], 1]],
    }
    inp = tmp_path / "tent.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "trop.json"
    assert run(["tropicalize", "--input", str(inp), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["maximal_cells"]) == 2
    assert report["dim"] == 1


def test_tropicalize_solid_builds_no_graph_lift(tmp_path, monkeypatch):
    # the solid is the subdivision's own cells: no graph degeneration is made
    from tropdeg import subdivision

    calls = []
    real = subdivision.graph_degeneration
    monkeypatch.setattr(subdivision, "graph_degeneration", lambda *args, **kw: (calls.append(args), real(*args, **kw))[1])
    data = {
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[[x, y], x * x + y * y] for x in (-1, 0, 1) for y in (-1, 0, 1)],
    }
    inp = tmp_path / "square.json"
    inp.write_text(json.dumps(data))
    out = tmp_path / "trop.json"
    assert run(["tropicalize", "--input", str(inp), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (len(report["maximal_cells"]), report["dim"], report["kind"]) == (4, 2, "solid")
    assert calls == []


def test_tropicalize_max_dim(tmp_path, monkeypatch):
    monkeypatch.setenv("TROPDEG_MAX_DIM", "1")
    data = {
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[[0, 0], 0]],
    }
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps(data))
    assert run(["tropicalize", "--input", str(inp)]) == 2


def _cross_polytope(n):
    return [[s * (i == j) for j in range(n)] for i in range(n) for s in (1, -1)]


@pytest.mark.parametrize(
    "verb, data",
    [
        ("tropicalize", {"support": {"ambient_dim": 7, "vertices": _cross_polytope(7)}, "heights": [[[0] * 7, 0]]}),
        ("tropicalize", {"support": {"ambient_dim": 2, "vertices": _cross_polytope(7)}, "heights": [[[0] * 7, 0]]}),
        ("ring", {"cells": [_cross_polytope(7), _cross_polytope(7)]}),
    ],
    ids=["tropicalize-7d", "tropicalize-vertices-longer-than-ambient-dim", "ring-7d"],
)
def test_dimension_checks_exit_2_before_any_hull(tmp_path, monkeypatch, verb, data):
    # a 7-dimensional cross-polytope has 128 facets; the cap of 6 turns it
    # away before the double description finds them
    monkeypatch.delenv("TROPDEG_MAX_DIM", raising=False)
    calls = []
    real = LatticePolytope.hull
    monkeypatch.setattr(LatticePolytope, "hull", staticmethod(lambda points: (calls.append(points), real(points))[1]))
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps(data))
    flag = "--complex" if verb == "ring" else "--input"
    assert run([verb, flag, str(inp)]) == 2
    assert calls == []


def test_render_k3_svg(tmp_path):
    out = tmp_path / "k3.svg"
    code = run(["render", "--example", "kp1-2", "--k", "2", "--out", str(out)])
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<polygon") == 36
    # exactly the discriminant points are highlighted
    assert svg.count('fill="red"') == 24


def test_render_wrong_dim_exit_2(capsys):
    assert run(["render", "--example", "quintic", "--i", "2"]) == 2


def test_render_determinism(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(["render", "--example", "kp1-2", "--k", "2", "--out", str(a)]) == 0
    assert run(["render", "--example", "kp1-2", "--k", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tropicalize_zero_denominator_exit_2(tmp_path):
    data = {
        "support": {"ambient_dim": 1, "vertices": [[-1], [1]]},
        "heights": [[[-1], 1], [[0], "1/0"], [[1], 1]],
    }
    inp = tmp_path / "zero.json"
    inp.write_text(json.dumps(data))
    assert_input_error(["tropicalize", "--input", str(inp)], "zero denominator")


def test_tropicalize_height_outside_support_exit_2(tmp_path):
    data = {
        "support": {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
        "heights": [[[0, 0], 0], [[1, 0], 0], [[0, 1], 0], [[3, 3], 1]],
    }
    inp = tmp_path / "outside.json"
    inp.write_text(json.dumps(data))
    assert_input_error(["tropicalize", "--input", str(inp)], "[3, 3]", "outside 'support'")


def test_tropicalize_heights_short_of_support_exit_2(tmp_path):
    # three corners of the square subdivide only half of it
    data = {
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[[-1, -1], 0], [[1, -1], 0], [[1, 1], 1]],
    }
    inp = tmp_path / "half.json"
    inp.write_text(json.dumps(data))
    for args in (["tropicalize"], ["tropicalize", "--hypersurface", "--coarse"]):
        assert_input_error([*args, "--input", str(inp)], "'heights'", "'support'")


@pytest.mark.parametrize(
    "args, words",
    [
        (["ring", "--complex", "{dir}"], ["cannot read input file", "{dir}"]),
        (["tropicalize", "--input", "{dir}"], ["cannot read input file", "{dir}"]),
        (
            ["example", "--example", "kp1-2", "--k", "1", "--out", "{dir}/missing/x.json"],
            ["cannot write output file", "{dir}/missing/x.json"],
        ),
    ],
)
def test_file_system_errors_exit_2(tmp_path, args, words):
    # a directory as the input file, and an output file in a missing directory
    def fill(s):
        return s.replace("{dir}", str(tmp_path))

    assert_input_error([fill(a) for a in args], *map(fill, words))


def test_ring_empty_cell_exit_2(tmp_path):
    complex_file = tmp_path / "empty-cell.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], []]}))
    assert_input_error(["ring", "--complex", str(complex_file)], "cell 1 is empty")


def test_ring_mixed_dimension_exit_2(tmp_path):
    complex_file = tmp_path / "mixed.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], [[0, 0], [1, 0]]]}))
    assert_input_error(["ring", "--complex", str(complex_file)], "cell 1")


def test_ring_negative_degree_exit_2(tmp_path):
    complex_file = tmp_path / "two-segments.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
    assert_input_error(["ring", "--complex", str(complex_file), "--degree", "-1"], "degree must be nonnegative")


@pytest.mark.parametrize("bad, word", [(0.5, "0.5"), (2.7, "2.7"), (True, "True")], ids=["half", "float", "bool"])
def test_ring_inexact_coordinate_exit_2(tmp_path, bad, word):
    # a float or a boolean coordinate is not read as a truncated integer
    complex_file = tmp_path / "inexact.json"
    complex_file.write_text(json.dumps({"cells": [[[bad], [3]]]}))
    assert_input_error(["ring", "--complex", str(complex_file), "--degree", "1"], "not an exact number", word)


@pytest.mark.parametrize("text, value", [("4/2", 2), ("-3/1", -3), ("6/-4", Fraction(-3, 2)), ("7", 7)])
def test_parse_num_gives_the_normal_form(text, value):
    # an integral "p/q" reads as an int, not as a Fraction with denominator 1
    assert parse_num(text) == value and type(parse_num(text)) is type(value)


MALFORMED_NUMBERS = ["3/", "1_000", " 2 ", "\u0663", "", "/2", "1/2/3", "+", "2.5", "1e3", "3\n", "0x10", "\uff17"]
MALFORMED_IDS = ["no-q", "underscore", "spaces", "arabic-indic", "empty", "no-p", "two-slashes", "sign-only", "decimal",
                 "exponent", "newline", "hex", "fullwidth"]


@pytest.mark.parametrize("text", MALFORMED_NUMBERS, ids=MALFORMED_IDS)
def test_parse_num_takes_only_ascii_p_or_p_over_q(text):
    # int() would read several of these, "3/" as 3 and "1_000" as 1000
    with pytest.raises(ValueError, match="not a number of the form p or p/q") as err:
        parse_num(text)
    assert repr(text) in str(err.value)


@pytest.mark.parametrize("text", ["3/", "1_000", " 2 ", "\u0663"], ids=["no-q", "underscore", "spaces", "arabic-indic"])
def test_malformed_number_strings_exit_2(tmp_path, text):
    # as a tropicalize height and as a ring cell coordinate
    heights = tmp_path / "heights.json"
    heights.write_text(json.dumps({
        "support": {"ambient_dim": 1, "vertices": [[-1], [1]]},
        "heights": [[[-1], 1], [[0], text], [[1], 1]],
    }))
    assert_input_error(["tropicalize", "--input", str(heights)], "bad heights entry", "not a number of the form p or p/q")
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"cells": [[[0], [text]]]}))
    assert_input_error(["ring", "--complex", str(cells), "--degree", "1"], "not a number of the form p or p/q")


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_ring_relations_stop_at_the_degree_bound(tmp_path, degree):
    # x0 * x2 = 0 has degree 2, so it appears only from --degree 2 on
    complex_file = tmp_path / "two-segments.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
    out = tmp_path / "ring.json"
    assert run(["ring", "--complex", str(complex_file), "--degree", str(degree), "--out", str(out)]) == 0
    relations = json.loads(out.read_text())["relations"]
    assert all(sum(r["lhs"]) <= degree for r in relations)
    assert ({"lhs": [1, 0, 1], "rhs": None, "scalar": "0"} in relations) == (degree >= 2)


@pytest.mark.parametrize(
    "verb, data, words",
    [
        ("ring", 5, ["top-level JSON value", "object"]),
        ("tropicalize", 5, ["top-level JSON value", "object"]),
        ("ring", {"cells": 7}, ["'cells'"]),
        ("ring", {"cells": [[0, 1]]}, ["ring cell 0 point 0", "list of numbers"]),
        (
            "ring",
            {"cells": [[[0], [1]], [[1], [2]]], "gluing": [{"from": [[0], [1]], "to": [[1], [2]]}]},
            ["gluing entry 0", "'twist'"],
        ),
        (
            "ring",
            {"cells": [[[0], [1]], [[1], [2]]], "gluing": [{"from": 5, "to": [[1], [2]], "twist": [2, 1]}]},
            ["gluing entry 0 field 'from'"],
        ),
        ("tropicalize", {"support": {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}, "heights": 5}, ["'heights'"]),
        # a string point is not read character by character as the point (0, 0)
        (
            "tropicalize",
            {"support": {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}, "heights": [["00", 0], [[1, 0], 0], [[0, 1], 0]]},
            ["heights entry 0 point", "list of numbers"],
        ),
    ],
    ids=["ring-top-level", "tropicalize-top-level", "cells-not-list", "cell-not-points", "gluing-no-twist",
         "gluing-from-not-points", "heights-not-list", "heights-point-not-list"],
)
def test_json_shape_errors_exit_2(tmp_path, verb, data, words):
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    flag = "--complex" if verb == "ring" else "--input"
    assert_input_error([verb, flag, str(inp)], *words)


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # each call in one process, the flags of the one before it included,
    # writes what a fresh interpreter writes for it alone
    assert build_parser() is build_parser()
    heights = tmp_path / "square.json"
    square = [[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1)]
    heights.write_text(json.dumps({
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[p, abs(p[0]) + abs(p[1])] for p in square],
    }))
    segments = tmp_path / "two-segments.json"
    segments.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
    calls = [
        ["tropicalize", "--hypersurface", "--coarse", "--input", str(heights)],
        ["tropicalize", "--input", str(heights)],
        ["ring", "--complex", str(segments), "--degree", "1"],
        ["ring", "--complex", str(segments)],
        ["ring", "--degree", "1"],
        ["ring", "--complex", str(segments), "--degree", "1"],
    ]
    codes = []
    for args in calls:
        try:
            codes.append(main(args))
        except SystemExit as e:
            codes.append(e.code)
        out, err = capsys.readouterr()
        fresh = fresh_cli(args)
        assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    # the missing --complex is argparse's SystemExit(2)
    assert codes == [0, 0, 0, 0, 2, 0]


@pytest.mark.parametrize("verb, value", [("tropicalize", "abc"), ("ring", "0"), ("tropicalize", "-3")])
def test_max_dim_setting_must_be_a_positive_integer(tmp_path, monkeypatch, verb, value):
    monkeypatch.setenv("TROPDEG_MAX_DIM", value)
    inp = tmp_path / "input.json"
    if verb == "ring":
        inp.write_text(json.dumps({"cells": [[[0], [1]], [[1], [2]]]}))
        args = ["ring", "--complex", str(inp)]
    else:
        inp.write_text(json.dumps({"support": {"ambient_dim": 1, "vertices": [[-1], [1]]}, "heights": [[[-1], 1], [[1], 1]]}))
        args = ["tropicalize", "--input", str(inp)]
    assert_input_error(args, "TROPDEG_MAX_DIM", "positive integer", repr(value))


@pytest.mark.parametrize("verb", ["example", "check-simple", "embed-check", "lg-truncate", "render"])
def test_k_and_i_together_exit_2(verb):
    # neither flag is silently dropped for the other
    assert_input_error([verb, "--example", "hypercube", "--k", "2", "--i", "3"], "--k", "--i", "not both")
