#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the library and the benchmark
driver from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs one workload and relays its
output; the last line of standard output is the JSON result.  Exits non-zero
without a result when the library sources are missing or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return 1


def env():
    """Environment for every child: temporary files stay in the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return {**os.environ, "TMPDIR": tmp}


def build():
    """Configures (once) and builds; returns the driver binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at src/; run from the root "
                 "of a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(jobs())])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env()).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "cbe_perfbench")


def arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv[:-1] else None


def main(argv):
    binary = build()
    cmd = [binary] + argv
    if arg(argv, "--trace") == "1" and "--spans-out" not in argv:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.jsonl" % (arg(argv, "--workload"), arg(argv, "--seed"))
        cmd += ["--spans-out", os.path.join(spans, name)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=env()).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
