# Bench flag contract, run as a ctest via `cmake -P`. Each figure harness
# parses one flag table (bench_common.h parse_bench_args):
#  * an argument outside the harness's table, a malformed or value-less
#    flag value (`--jobs`, `--fault-rate`, `--fault-seed`, `--max-retries`,
#    `--trace-dir`) and a malformed MRTS_BENCH_JOBS or MRTS_BENCH_FRAMES
#    are input errors: exit 2 with a message naming the argument, before
#    any sweep worker starts;
#  * `--help` prints the table and exits 0;
#  * a valid `--jobs 1` runs to completion.
#
# Inputs: -DBENCH=<path to bench_fig1_pif, which takes no flag>
#         -DFLAG_BENCH=<path to bench_fig8_state_of_the_art, which takes
#                       every flag>
#         -DSWEEP_BENCH=<path to bench_fig9_heuristic_vs_optimal, a sweep
#                        with --jobs and --no-bb-cache only>
#         -DWORK_DIR=<scratch dir>

if(NOT DEFINED BENCH OR NOT DEFINED FLAG_BENCH OR NOT DEFINED SWEEP_BENCH
   OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DFLAG_BENCH=... -DSWEEP_BENCH=... -DWORK_DIR=... -P bench_flags_smoke.cmake")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{MRTS_BENCH_FRAMES} 2)
unset(ENV{MRTS_BENCH_JOBS})

set(bench "${BENCH}")
# Runs ${bench} with ARGN; expects exit code expected_rc and, when pattern
# is non-empty, stdout+stderr matching that regex.
function(run_bench expected_rc pattern)
  execute_process(
    COMMAND "${bench}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected ${expected_rc}:\n${out}${err}")
  endif()
  if(pattern AND NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR "'${ARGN}' output does not match '${pattern}':\n${out}${err}")
  endif()
endfunction()

# MRTS_BENCH_FRAMES is held to the same contract: no partial parse, no
# silent fall-back to the full 16 frames.
foreach(frames 2x abc 0 -3 4294967296)
  set(ENV{MRTS_BENCH_FRAMES} ${frames})
  run_bench(2 "error: invalid MRTS_BENCH_FRAMES '${frames}'")
endforeach()
set(ENV{MRTS_BENCH_FRAMES} 2)

run_bench(0 "")

# Arguments outside fig1's table: flags it does not act on (it computes
# Eq. 1 analytically, with neither a sweep nor a simulator), a bare unknown
# flag and a positional. MRTS_BENCH_JOBS is not read where --jobs is not
# taken.
run_bench(2 "error: unknown argument '--jobs'" --jobs 1)
set(ENV{MRTS_BENCH_JOBS} abc)
run_bench(0 "")
unset(ENV{MRTS_BENCH_JOBS})
file(MAKE_DIRECTORY "${WORK_DIR}/traces")
run_bench(2 "error: unknown argument '--trace-dir'"
          --trace-dir "${WORK_DIR}/traces")
file(GLOB traces "${WORK_DIR}/traces/*")
if(traces)
  message(FATAL_ERROR "a rejected --trace-dir still wrote: ${traces}")
endif()
run_bench(2 "error: unknown argument '--bogus'" --bogus)
run_bench(2 "error: unknown argument '--no-bb-cache=1'" --no-bb-cache=1)
run_bench(2 "error: unknown argument 'xyz'" xyz)

# --help lists exactly the harness's table: fig1's is empty.
run_bench(0 "usage:" --help)
execute_process(COMMAND "${bench}" --help OUTPUT_VARIABLE help)
if(help MATCHES "--jobs|--no-bb-cache|--fault|--trace-dir")
  message(FATAL_ERROR "fig1 --help lists a flag it does not act on:\n${help}")
endif()

# A sweep: --jobs and MRTS_BENCH_JOBS, both held to the strict contract.
set(bench "${SWEEP_BENCH}")
run_bench(2 "error: invalid --jobs " --jobs 2x)    # trailing garbage
run_bench(2 "error: invalid --jobs " --jobs abc)   # not a number
run_bench(2 "error: invalid --jobs " --jobs=-1)    # negative
run_bench(2 "error: invalid --jobs " --jobs)       # missing value
run_bench(2 "error: invalid --jobs " --jobs 4294967296)  # does not fit unsigned

set(ENV{MRTS_BENCH_JOBS} abc)
run_bench(2 "error: invalid MRTS_BENCH_JOBS ")
unset(ENV{MRTS_BENCH_JOBS})

run_bench(0 "" --jobs 1)
run_bench(0 "--jobs <n>.*--no-bb-cache" --help)
execute_process(COMMAND "${bench}" --help OUTPUT_VARIABLE help)
if(help MATCHES "--fault|--trace-dir")
  message(FATAL_ERROR "fig9 --help lists a flag it does not act on:\n${help}")
endif()

# A repeated flag and a value on a boolean flag are errors, not "last one
# wins".
run_bench(2 "error: repeated flag '--jobs=2'" --jobs 1 --jobs=2)
run_bench(2 "error: unknown argument '--no-bb-cache=1'" --no-bb-cache=1)

# A sweep without fault flags rejects them instead of running fault-free.
run_bench(2 "error: unknown argument '--fault-rate'"
          --fault-rate 0.5 --bogus xyz)

# The harness that takes every flag: each trailing without a value, then
# malformed.
set(bench "${FLAG_BENCH}")
foreach(flag --fault-rate --fault-seed --max-retries --trace-dir)
  run_bench(2 "error: invalid ${flag} " ${flag})
endforeach()
run_bench(2 "error: invalid --fault-rate " --fault-rate 1.5)
run_bench(2 "error: invalid --fault-rate " --fault-rate=abc)
run_bench(2 "error: invalid --fault-seed " --fault-seed -1)
run_bench(2 "error: invalid --fault-seed " --fault-seed=18446744073709551616)
run_bench(2 "error: invalid --max-retries " --max-retries 1001)
run_bench(2 "error: invalid --max-retries " --max-retries=2x)
run_bench(2 "error: invalid --trace-dir " --trace-dir=)
run_bench(0 "--fault-rate <p>.*--fault-seed <n>.*--max-retries <n>.*--trace-dir <dir>"
          --help)

message(STATUS "bench flags smoke OK: arguments outside a harness's flag table and malformed values exit 2")
