#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see ledger/README.md).

    python3 ledger/run.py --workload ga_paper --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --selftest

Run from the root of a checkout. The first run configures and builds
ledger/ (which compiles ../src) into $CARGO_TARGET_DIR/ledger, default
.bench_build/ledger; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the result JSON. Records
and Chrome traces land in .bench_out/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ledger")


def build(out):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "ca2a_ledger",
           "ca2a_ledger_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    want = expected_metrics(trace)
    if want is None:
        return None
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    return None


def main(argv):
    out = build_dir()
    if not build(out):
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(out, "ca2a_ledger_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0 or argv == ["--selftest"]:
        return selftest.returncode

    trace = argv[argv.index("--trace") + 1] if "--trace" in argv[:-1] else "0"
    proc = subprocess.run(
        [os.path.join(out, "ca2a_ledger"), *argv, "--out",
         os.path.join(ROOT, ".bench_out")],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode == 2 or not proc.stdout.strip():
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    problem = check_result(lines[-1], trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("error: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
