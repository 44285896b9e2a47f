#!/usr/bin/env python3
"""Build and run the ARTEMIS performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tune-paper --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the `perfbench`
program under .bench_build/ (a few minutes); later calls only check that
the build is up to date. The program's standard output is passed through; its
last line is the JSON result ({"correct", "attempted", "failed",
"metrics"}), whose metrics must be exactly BENCHMARK.json's end_to_end
metrics (--trace 0) or its per_layer metrics (--trace 1), each in its unit.
The exit status is non-zero when the build fails, when any output check
fails, when the result line does not match BENCHMARK.json (it is then not
printed), or when the run does not finish in time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("tune-paper", "serve-mix", "sim-measure")
# One run must end within 180 s; the program measures for --seconds and
# needs a little set-up and warm-up around it.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """A digest of src/, the code under test. It tells runs of different
    sources apart even when uncommitted changes or a checkout without git
    history would make a commit id wrong or missing."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ARTEMIS sources (src/CMakeLists.txt) next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.SubprocessError) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (exit {rc}); log in {log_path}")
    return os.path.join(BUILD_DIR, "perfbench")


def result_problems(line, trace):
    """What is wrong with the result line against BENCHMARK.json: the
    contract's four keys, and exactly the listed metrics in their units."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return ["the result does not have exactly the keys correct, "
                "attempted, failed and metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"metric {n} is not in BENCHMARK.json" for n in got
                 if n not in want]
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"not {unit}")
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"metric {name} has no numeric value")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        fail("--seconds must be in [1, 120]")

    binary = build()
    state = os.path.join(BUILD_ROOT, "state", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(state, ignore_errors=True)
    os.makedirs(state)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.relpath(state, ROOT),
           "--commit", source_digest()]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.relpath(
            os.path.join(traces, f"{args.workload}-{args.seed}.json"), ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines = proc.stdout.splitlines()
    problems = result_problems(lines[-1], args.trace) if lines else [
        "no output"]
    if problems:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
