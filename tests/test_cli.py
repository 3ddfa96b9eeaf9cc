import json
import os
import pathlib
import subprocess
import sys

import tropdeg
from tropdeg.cli import main


def run(args):
    return main(args)


def run_cli(args):
    """Run the CLI in a fresh interpreter; (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tropdeg.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "tropdeg.cli", *args], capture_output=True, text=True, env=env)
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


def test_tropicalize_max_dim(tmp_path, monkeypatch):
    monkeypatch.setenv("TROPDEG_MAX_DIM", "1")
    data = {
        "support": {"ambient_dim": 2, "vertices": [[-1, -1], [1, -1], [-1, 1], [1, 1]]},
        "heights": [[[0, 0], 0]],
    }
    inp = tmp_path / "big.json"
    inp.write_text(json.dumps(data))
    assert run(["tropicalize", "--input", str(inp)]) == 2


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


def test_ring_empty_cell_exit_2(tmp_path):
    complex_file = tmp_path / "empty-cell.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], []]}))
    assert_input_error(["ring", "--complex", str(complex_file)], "cell 1 is empty")


def test_ring_mixed_dimension_exit_2(tmp_path):
    complex_file = tmp_path / "mixed.json"
    complex_file.write_text(json.dumps({"cells": [[[0], [1]], [[0, 0], [1, 0]]]}))
    assert_input_error(["ring", "--complex", str(complex_file)], "cell 1")
