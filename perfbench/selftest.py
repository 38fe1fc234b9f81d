#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny size.

    python3 perfbench/selftest.py

Builds like run.py, then for every workload runs the driver twice with the
same seed in each mode (--trace 0 and --trace 1, --size tiny) and checks:
  - the run passes its correctness gate and exits 0;
  - the JSON line carries exactly the BENCHMARK.json metrics, with units;
  - every workload-named metric is printed with its unit;
  - exact metrics repeat bit-for-bit across the two same-seed runs: the
    simulated/virtual latencies, throughput and capacity, sim_makespan_s,
    and every per-layer count;
  - run.py refuses (non-zero, no result) in a directory holding only
    BENCHMARK.json and perfbench/.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own entry point)

NAMED = {
    "sim_sweep": {"sim_tasks_per_s": "1/s", "sim_makespan_s": "s"},
    "svc_backlog": {"svc_host_us_per_job": "us", "svc_p50_latency_s": "s",
                    "svc_p99_latency_s": "s", "svc_throughput_jps": "1/s"},
    "svc_open": {"svc_host_us_per_job": "us", "svc_p50_latency_s": "s",
                 "svc_p99_latency_s": "s", "svc_capacity_jps": "1/s"},
    "native_bootstrap": {"native_bootstraps_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "ops_failed_share": "share"}
# End-to-end metrics computed in simulated or virtual time: exact.
EXACT_E2E = {"p50_latency_s", "tail_latency_s", "capacity_per_s"}
EXACT_NAMED = {"sim_makespan_s", "svc_p50_latency_s", "svc_p99_latency_s",
               "svc_throughput_jps", "svc_capacity_jps"}
SIMULATED = {"sim_sweep", "svc_backlog", "svc_open"}
# Counts that depend on thread timing.
RACY_COUNTS = {"native.steals"}


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def run_once(binary, workload, trace):
    cmd = [binary, "--workload", workload, "--seed", "11", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, p.returncode,
                                             p.stderr))
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: JSON keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("%s trace=%d: %s" % (workload, trace, lines[-1]))
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("#"):
            printed[parts[0]] = (parts[1], parts[2])
    return result, printed


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            a, printed = run_once(binary, w, trace)
            b, printed_again = run_once(binary, w, trace)
            got = {n: v["unit"] for n, v in a["metrics"].items()}
            if got != want:
                fail("%s trace=%d: metrics/units differ from BENCHMARK.json: "
                     "%s" % (w, trace, sorted(set(got.items()) ^
                                              set(want.items()))))
            if trace == 0:
                for name, unit in {**COMMON, **NAMED[w]}.items():
                    if printed.get(name, (None, None))[1] != unit:
                        fail("%s: %s not printed with unit %s" %
                             (w, name, unit))
                for name in EXACT_NAMED & set(NAMED[w]):
                    if printed[name][0] != printed_again[name][0]:
                        fail("%s: %s not exact across runs" % (w, name))
            exact = [n for n, u in want.items()
                     if u == "count" and n not in RACY_COUNTS]
            if trace == 0 and w in SIMULATED:
                exact = sorted(EXACT_E2E)
            for n in exact:
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]:
                    fail("%s trace=%d: %s differs across same-seed runs "
                         "(%r vs %r)" % (w, trace, n, a["metrics"][n],
                                         b["metrics"][n]))
            if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
                fail("%s: attempted/failed differ across runs" % w)
        print("selftest: %s ok" % w)

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "sim_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=170,
                       env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("run.py did not refuse a directory without src/")
    print("selftest: bare directory refused ok")
    print("selftest: all ok")


if __name__ == "__main__":
    main()
