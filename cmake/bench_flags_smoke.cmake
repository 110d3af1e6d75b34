# Bench flag contract, run as a ctest via `cmake -P`: a malformed worker
# count (`--jobs` flag or MRTS_BENCH_JOBS) is an input error — exit 2 with a
# message naming the flag, before google-benchmark sees the command line and
# before any sweep worker starts — and a valid `--jobs 1` runs to completion.
#
# Inputs: -DBENCH=<path to bench_fig1_pif> -DWORK_DIR=<scratch dir>

if(NOT DEFINED BENCH OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DWORK_DIR=... -P bench_flags_smoke.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{MRTS_BENCH_FRAMES} 2)
unset(ENV{MRTS_BENCH_JOBS})

# Runs the bench with ARGN; expects exit code expected_rc and, when
# flag_name is non-empty, stderr naming that flag.
function(run_bench expected_rc flag_name)
  execute_process(
    COMMAND "${BENCH}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected ${expected_rc}:\n${out}${err}")
  endif()
  if(flag_name AND NOT err MATCHES "error: invalid ${flag_name} ")
    message(FATAL_ERROR "'${ARGN}' did not name ${flag_name}:\n${err}")
  endif()
endfunction()

run_bench(2 --jobs --jobs 2x)    # trailing garbage
run_bench(2 --jobs --jobs abc)   # not a number
run_bench(2 --jobs --jobs=-1)    # negative
run_bench(2 --jobs --jobs)       # missing value
run_bench(2 --jobs --jobs 4294967296)  # does not fit unsigned

set(ENV{MRTS_BENCH_JOBS} abc)
run_bench(2 MRTS_BENCH_JOBS)
unset(ENV{MRTS_BENCH_JOBS})

run_bench(0 "" --jobs 1 --benchmark_min_time=0.01s)

message(STATUS "bench flags smoke OK: malformed --jobs / MRTS_BENCH_JOBS exit 2")
