# Regression-harness contract, end to end:
#   1. a bench run with --json emits a cbe-bench-v1 report;
#   2. bench_diff over two identical-seed runs exits 0 (determinism means
#      the medians match exactly, well under any threshold);
#   3. bench_diff --scale=2 (an injected 2x slowdown) exits 1, and
#      --exact rejects a 0.1% drift in either direction;
#   4. a run with a different config is rejected via the config hash.
# Invoked by ctest as:
#   cmake -DBENCH=<bench_table2> -DBENCH_DIFF=<bench_diff> -DWORKDIR=<dir>
#         -P bench_regression.cmake
cmake_minimum_required(VERSION 3.16)

foreach(v BENCH BENCH_DIFF WORKDIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "bench_regression.cmake: -D${v}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_bench out_json)
  execute_process(
    COMMAND "${BENCH}" --tasks=20 ${ARGN} "--json=${out_json}"
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench exited ${rc}\nstdout:\n${stdout}\n"
            "stderr:\n${stderr}")
  endif()
  if(NOT EXISTS "${WORKDIR}/${out_json}")
    message(FATAL_ERROR "bench did not write ${out_json}")
  endif()
endfunction()

function(run_diff expected_rc)
  execute_process(
    COMMAND "${BENCH_DIFF}" ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR "bench_diff ${ARGN}: expected exit ${expected_rc}, "
            "got ${rc}\nstdout:\n${stdout}\nstderr:\n${stderr}")
  endif()
endfunction()

# 1+2. Two identical-seed runs: the diff must be clean.
run_bench(base.json --seed=42)
run_bench(rerun.json --seed=42)
run_diff(0 base.json rerun.json)

# 3. Injected 2x slowdown must be flagged as a regression.
run_diff(1 --scale=2 base.json rerun.json)

# 3b. --exact fails on any drift, in either direction: an "improvement" of
# a simulated-time series is a behaviour change too.
run_diff(0 base.json rerun.json --exact)
run_diff(1 --scale=1.001 base.json rerun.json --exact)
run_diff(1 --scale=0.999 base.json rerun.json --exact)

# 4. A different config (the task-time CV) must be rejected by the config
# hash...
run_bench(other.json --seed=42 --cv=0.9)
run_diff(1 base.json other.json)
# ...unless explicitly overridden (huge threshold: only the hash override is
# under test here, not the timing delta the config change causes).
run_diff(0 --ignore-config --threshold=100 base.json other.json)

# Malformed input is a usage error, not a silent pass.
file(WRITE "${WORKDIR}/garbage.json" "{\"schema\":\"nope\"}")
run_diff(2 base.json garbage.json)

message(STATUS "bench-regression: harness detects slowdowns and config drift")
