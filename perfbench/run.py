#!/usr/bin/env python3
"""Build and run the libfjs benchmark.

    python3 perfbench/run.py --workload {sweep|mine|replay|reproduce} \
        --seed N --seconds S --trace {0|1} [--record FILE]

Run from the root of a libfjs checkout. The first call configures and
builds perfbench/CMakeLists.txt (the repository's libraries with their
default configuration plus the benchmark executable) into the directory
named by CARGO_TARGET_DIR, or .bench_build; later calls rebuild
incrementally. Build output goes to stderr; stdout is the benchmark's,
whose last line is the JSON result. --record appends the result with its
provenance as one JSON line to FILE, for compare.py.

Exit status: the benchmark's (0 all output checks passed, 1 a check
failed), or 2 when the build or a run fails without a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep", "mine", "replay", "reproduce")
BUILD_TIMEOUT_S = 870
# A run measures --seconds, then finishes its last cycle; set-up, the
# reference results and that last cycle take well under this margin
# (under a minute even on a host running at half speed).
RUN_MARGIN_S = 120


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository (with -dirty when
    it has local changes), otherwise a digest of the source files."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            git = ["git", "-C", ROOT]
            head = subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                                  capture_output=True, text=True).stdout
            dirty = subprocess.run(git + ["status", "--porcelain"], check=True,
                                   capture_output=True, text=True).stdout
            return head.strip() + ("-dirty" if dirty.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no libfjs source tree at {ROOT}; run from a full checkout")
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout.
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    # Once configured, the build step re-runs CMake itself when needed.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", build_dir, "--target", "fjs_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step failed: {err}")
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return os.path.join(build_dir, "fjs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append result + provenance here")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in [1, 3600]")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_dir, "scratch"),
               "--commit", source_id()]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited {done.returncode} without a result")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.record:
        provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                           if line.startswith("provenance ")), {})
        with open(args.record, "a") as handle:
            handle.write(json.dumps({"provenance": provenance,
                                     "result": result}) + "\n")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
