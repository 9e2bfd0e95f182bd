#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and
builds the library and the benchmark binary from the checkout's
sources into $CARGO_TARGET_DIR (default: .bench_build); later runs
reuse that build.
The binary's stdout is passed through: human-readable metric lines,
then one JSON result line. With --trace 1 the spans are written to
<build dir>/spans/. The exit code is the binary's: 0 when every output
check passed, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("c51-train-read", "dqn-serve-write-ftl", "fleet-mixed-8")
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    """The build directory, kept inside the checkout."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.realpath(os.path.join(root, target))
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return path


def build(root, out_dir, env):
    """Configure once, then build (a no-op when nothing changed)."""
    os.makedirs(out_dir, exist_ok=True)
    cmake_dir = os.path.join(out_dir, "perfbench")
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(os.path.join(out_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=log, env=env,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    fail("build timed out; see " + log_path)
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed; see " + log_path)
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no library sources at {root} (need CMakeLists.txt and src/)")

    # The library reads SIBYL_* variables (trace scale, thread count);
    # the benchmark pins both explicitly and runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIBYL_")}
    out_dir = build_dir(root)
    binary = build(root, out_dir, env)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-dir", spans_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {BINARY_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
