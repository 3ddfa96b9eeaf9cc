#!/usr/bin/env python3
"""tropdeg benchmark: seeded workloads driven through tropdeg.cli.main.

    python3 perfbench/run.py --workload kp1-2 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory.  One single-threaded process per run; cases run one after
another (a closed loop).  A pass is one trip through the workload's case
list, started from a fresh import of tropdeg, as a new CLI process would
be.  Passes repeat until --seconds have elapsed; there is always at least
one, so a pass longer than --seconds makes the run longer.

--trace 0 reports the end-to-end metrics: setup_s (median of 21 set-ups,
11 before the passes and 10 after), wall_s (median pass wall time),
case_p50_s (median latency of all cases of the run), case_max_s (median over
passes of the slowest case) and peak_rss_mb.  --trace 1 follows each pass
with the same pass traced, and reports the per-layer metrics of
perfbench/tracer.py as means per traced pass.  Every output is checked after
its pass; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import cli_inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

# set-ups timed before and after the passes: the median then spans the run,
# not one moment of a machine whose speed drifts.  A traced run reports no
# setup_s, so it sets up once.
SETUP_REPEATS = (11, 10)
MAX_PASSES = 12  # cli-random writes this many passes of distinct inputs
clock = time.perf_counter


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or data)."""


class Case:
    """One CLI invocation: `prep` runs first (untimed glue), `check` after the pass."""

    def __init__(self, name, argv, out, check, prep=None):
        self.name, self.argv, self.out, self.check, self.prep = name, argv, out, check, prep


# -- output checks: each returns None or a message


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def golden_check(filename):
    expected = _read(os.path.join(GOLDEN, filename))

    def check(out):
        return None if _read(out) == expected else f"report differs from tests/golden/{filename}"

    return check


def pinned_check(sha256, fields):
    def check(out):
        data = _read(out)
        report = json.loads(data)
        for path, want in fields.items():
            got = report
            for part in path.split("."):
                got = got[part]
            if got != want:
                return f"{path} is {got!r}, expected {want!r}"
        got_sha = hashlib.sha256(data).hexdigest()
        return None if got_sha == sha256 else f"report sha256 {got_sha} != pinned {sha256}"

    return check


def json_check(fn, name):
    def check(out):
        with open(out, encoding="utf-8") as fh:
            return fn(name, json.load(fh))

    return check


# -- workloads: name -> case list of one pass


def _pins():
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


KP_FIELDS = {"simple": True, "embedding.integrally_surjective": True, "diagonal_compatible": True}
QUINTIC_FIELDS = {
    "embedding.integrally_surjective": True,
    "diagonal_compatible": True,
    "lattice_points": 126,
    "normalized_volume": 625,
}


def _example(out_dir, example, flag, value, check):
    out = os.path.join(out_dir, f"{example}_{value}.json")
    argv = ["example", "--example", example, f"--{flag}", str(value), "--out", out]
    return Case(f"{example} {flag}={value}", argv, out, check)


def kp12_cases(out_dir, pins, index):
    return [
        _example(out_dir, "kp1-2", "k", 2, golden_check("kp1_2_2.json")),
        _example(out_dir, "kp1-2", "k", 3, pinned_check(pins["kp1-2 k=3"], KP_FIELDS)),
    ]


def quintic_hypercube_cases(out_dir, pins, index):
    cases = []
    for i in (1, 2, 3, 4):
        check = golden_check("quintic_2.json") if i == 2 else pinned_check(pins[f"quintic i={i}"], QUINTIC_FIELDS)
        cases.append(_example(out_dir, "quintic", "i", i, check))
    for k in (1, 2, 3):
        cases.append(_example(out_dir, "hypercube", "k", k, golden_check(f"hypercube_{k}.json")))
    return cases


INPUTS = os.path.join(WORK, "inputs")


def cli_random_cases(out_dir, pins, index):
    cases = []
    for name in cli_inputs.SUPPORTS:
        heights = os.path.join(cli_inputs.pass_dir(INPUTS, index), f"{name}.heights.json")
        solid = os.path.join(out_dir, f"{name}.solid.json")
        boundary = os.path.join(out_dir, f"{name}.boundary.json")
        complex_in = os.path.join(out_dir, f"{name}.complex.json")
        ring = os.path.join(out_dir, f"{name}.ring.json")

        def prep(solid=solid, complex_in=complex_in):
            with open(solid, encoding="utf-8") as fh:
                obj = cli_inputs.ring_complex(json.load(fh))
            with open(complex_in, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)

        cases += [
            Case(f"{name} solid", ["tropicalize", "--input", heights, "--out", solid], solid,
                 json_check(cli_inputs.check_solid, name)),
            Case(f"{name} hypersurface", ["tropicalize", "--input", heights, "--hypersurface", "--coarse",
                                          "--out", boundary], boundary, json_check(cli_inputs.check_boundary, name)),
            Case(f"{name} ring", ["ring", "--complex", complex_in, "--degree", str(cli_inputs.RING_DEGREE),
                                  "--out", ring], ring, json_check(cli_inputs.check_ring, name), prep),
        ]
    return cases


def write_cli_inputs(seed):
    cli_inputs.write_inputs(seed, MAX_PASSES, INPUTS)


WORKLOADS = {
    "kp1-2": (kp12_cases, None),
    "quintic-hypercube": (quintic_hypercube_cases, None),
    "cli-random": (cli_random_cases, write_cli_inputs),
}


# -- running


def fresh_import():
    """Drop every tropdeg module and import the package again from src/."""
    for name in [m for m in sys.modules if m == "tropdeg" or m.startswith("tropdeg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tropdeg")
    if os.path.dirname(os.path.realpath(pkg.__file__)) != os.path.realpath(os.path.join(SRC, "tropdeg")):
        raise BenchError(f"imported tropdeg from {pkg.__file__}, not from {SRC}")
    importlib.import_module("tropdeg.cli")
    return pkg


def setup(workload, seed):
    """Import, input generation and a warm-up build; returns its duration."""
    t0 = clock()
    pkg = fresh_import()
    generate = WORKLOADS[workload][1]
    if generate is not None:
        generate(seed)
    pkg.build_kp1_2(1).report_json()
    return clock() - t0


class PassResult:
    def __init__(self, wall, latencies, errors, digest):
        self.wall, self.latencies, self.errors, self.digest = wall, latencies, errors, digest


def run_pass(cases, tracer=None):
    """Run the cases back to back, then check every output."""
    cli = fresh_import().cli
    if tracer is not None:
        tracer.install()
    codes, latencies, crashes = [], [], {}
    try:
        with contextlib.redirect_stdout(sys.stderr):
            t_pass = clock()
            for case in cases:
                t0 = clock()
                try:
                    if case.prep is not None:
                        case.prep()
                    t0 = clock()
                    codes.append(cli.main(case.argv))
                except Exception:  # a crash is a failed case; keep measuring
                    codes.append(None)
                    crashes[case.name] = traceback.format_exc(limit=3)
                latencies.append(clock() - t0)
            wall = clock() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = {}
    digest = hashlib.sha256()
    for case, code in zip(cases, codes):
        if code != 0:
            errors[case.name] = crashes.get(case.name, f"exit code {code}")
            continue
        try:
            err = case.check(case.out)
            digest.update(case.name.encode() + b"\0" + _read(case.out))
        except (OSError, ValueError, KeyError, TypeError) as e:
            err = f"unreadable output: {e!r}"
        if err:
            errors[case.name] = err
    return PassResult(wall, latencies, errors, digest.hexdigest())


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    if not os.path.exists(os.path.join(git, "HEAD")):
        return "none (not a git checkout)"
    head = _read(os.path.join(git, "HEAD")).decode().strip()
    if not head.startswith("ref: "):
        return head  # detached HEAD
    ref = head[5:]
    if os.path.exists(os.path.join(git, ref)):
        return _read(os.path.join(git, ref)).decode().strip()
    if os.path.exists(os.path.join(git, "packed-refs")):
        for line in _read(os.path.join(git, "packed-refs")).decode().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return head


def environment():
    src_files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(os.path.join(SRC, "tropdeg")) for f in fs if f.endswith(".py")
    )
    h = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = _read(path)
        h.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": h.hexdigest(),
    }


def measure(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "tropdeg", "__init__.py")):
        raise BenchError(f"no tropdeg sources under {SRC}; run from the root of a source checkout")
    if workload != "cli-random" and not os.path.isdir(GOLDEN):
        raise BenchError(f"golden reports not found under {GOLDEN}")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    sys.path.insert(0, SRC)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    before, after = (1, 0) if trace else SETUP_REPEATS
    setup_times = [setup(workload, seed) for _ in range(before)]
    make_cases = WORKLOADS[workload][0]
    pins = _pins()

    def cases_for(index, tag):
        out_dir = os.path.join(WORK, "out", f"{tag}{index}")
        os.makedirs(out_dir, exist_ok=True)
        return make_cases(out_dir, pins, index)

    # In a traced run each pass is followed by a traced pass over the same
    # inputs; alternating keeps slow drift of the machine out of the overhead.
    tracer = Tracer() if trace else None
    passes, traced = [], []
    start = clock()
    for index in range(MAX_PASSES):
        passes.append(run_pass(cases_for(index, "pass")))
        if tracer is not None:
            traced.append(run_pass(cases_for(index, "traced"), tracer))
        if clock() - start >= seconds:
            break
    setup_times += [setup(workload, seed) for _ in range(after)]

    everything = passes + traced
    attempted = sum(len(p.latencies) for p in everything)
    failed = sum(len(p.errors) for p in everything)
    for label, runs in (("pass", passes), ("traced pass", traced)):
        for j, p in enumerate(runs):
            print(f"{label} {j}: wall {p.wall:.3f} s, {len(p.latencies)} cases, {len(p.errors)} failed, "
                  f"output sha256 {p.digest}")
            for name, err in p.errors.items():
                print(f"  FAILED {name}: {err.strip()}")
    print(f"output_digest {passes[0].digest}")

    failed_frac = (failed / attempted, "fraction")
    if trace:
        # per-layer figures are means per traced pass, so they do not grow
        # with the number of passes that fit into --seconds
        untraced_wall = sum(p.wall for p in passes)
        traced_wall = sum(p.wall for p in traced)
        metrics = tracer.metrics(traced_wall, len(traced))
        metrics["traced_wall_s"] = (traced_wall / len(traced), "s")
        metrics["untraced_wall_s"] = (untraced_wall / len(passes), "s")
        metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1, "fraction")
        metrics["failed_frac"] = failed_frac
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "case_p50_s": (statistics.median(t for p in passes for t in p.latencies), "s"),
            "case_max_s": (statistics.median(max(p.latencies) for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(f"workload {workload} seed {seed} trace {trace}: {len(passes)} passes + {len(traced)} traced passes, "
          f"{len(setup_times)} set-ups, {attempted} cases (samples), {failed} failed")
    # failed_frac is printed on every run; see README.md for why it is not an end-to-end metric
    for name, (value, unit) in {**metrics, "failed_frac": failed_frac}.items():
        print(f"metric {name} {value} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="tropdeg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=cli_inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
