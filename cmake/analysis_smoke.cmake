# Smoke test for the trace-analysis CLI paths, run as a ctest via
# `cmake -P` (no external JSON tools needed):
#  * `run --report` writes a markdown run report alongside the trace;
#  * `trace-analyze` renders the same trace to stdout (markdown), to a JSON
#    file (--out), and is byte-deterministic across invocations;
#  * the cycle-accounting table carries every row with a matching total;
#  * parser hardening: empty files and trailing newlines are zero-event
#    successes, truncated/garbage lines and malformed numbers are input
#    errors (exit 2) naming the bad line, and a missing file is an input
#    error too;
#  * `run-multi` prints bounced tenants sorted by name;
#  * `trace-summary` surfaces the span-duration percentiles.
#
# Inputs: -DMRTS_CLI=<path to mrts_cli> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DWORK_DIR=... -P analysis_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/analysis_smoke.jsonl")
set(report_md "${WORK_DIR}/analysis_smoke_report.md")
set(report_json "${WORK_DIR}/analysis_smoke_report.json")

# 1. Traced run with --report writes both artifacts.
execute_process(
  COMMAND "${MRTS_CLI}" run h264 2 2 2 --trace "${trace}" --report "${report_md}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --report exited ${rc}, expected 0")
endif()
file(READ "${report_md}" md)
foreach(needle "# Run report" "## Cycle accounting" "| core |" "## Occupancy"
        "## Reconfiguration critical path")
  string(FIND "${md}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run report is missing '${needle}'")
  endif()
endforeach()

# 2. trace-analyze renders the saved trace: markdown to stdout, JSON via
#    --out, and both runs of the same input are byte-identical.
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${trace}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE stdout_md)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-analyze exited ${rc}, expected 0")
endif()
string(FIND "${stdout_md}" "| core |" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace-analyze stdout is missing the core accounting row")
endif()
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${trace}" --out "${report_json}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-analyze --out exited ${rc}, expected 0")
endif()
file(READ "${report_json}" json_a)
string(FIND "${json_a}" "\"schema\": \"mrts.run_report.v1\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace-analyze JSON is missing the schema marker")
endif()
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${trace}" --out "${report_json}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
file(READ "${report_json}" json_b)
if(NOT json_a STREQUAL json_b)
  message(FATAL_ERROR "trace-analyze JSON is not deterministic")
endif()

# 3. Parser hardening. Empty file: zero-event success.
file(WRITE "${WORK_DIR}/empty.jsonl" "")
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${WORK_DIR}/empty.jsonl"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "empty trace exited ${rc}, expected 0")
endif()
# Truncated last line: input error naming the line.
file(READ "${trace}" good)
string(SUBSTRING "${good}" 0 120 truncated)
file(WRITE "${WORK_DIR}/truncated.jsonl" "${truncated}")
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${WORK_DIR}/truncated.jsonl"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "truncated trace exited ${rc}, expected input error 2")
endif()
string(FIND "${err}" "line" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "truncated-trace error does not name the bad line: ${err}")
endif()
# Malformed numbers: a negative duration, a non-number, an out-of-range
# u32, trailing junk on a double and on the timestamp are each an input
# error for both verbs, never a silently clamped or wrapped value.
set(good_line "{\"kind\":\"block_end\",\"at\":5,\"dur\":3,\"track\":0,\"arg0\":1,\"arg1\":2,\"tenant\":0,\"v0\":0,\"v1\":0}")
set(case 0)
foreach(bad "\"dur\":-3" "\"arg0\":abc" "\"arg1\":4294967297" "\"v0\":1.5xyz"
        "\"at\":12junk")
  string(REGEX MATCH "^\"[a-z0-9]+\":" key "${bad}")
  string(REGEX REPLACE "${key}[^,}]*" "${bad}" line "${good_line}")
  math(EXPR case "${case} + 1")
  set(bad_file "${WORK_DIR}/bad_number_${case}.jsonl")
  file(WRITE "${bad_file}" "${good_line}\n${line}\n")
  foreach(verb trace-summary trace-analyze)
    execute_process(
      COMMAND "${MRTS_CLI}" ${verb} "${bad_file}"
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${verb} on a line with ${bad} exited ${rc}, "
                          "expected input error 2")
    endif()
  endforeach()
endforeach()
# Missing file: input error.
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${WORK_DIR}/no_such_file.jsonl"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "missing trace exited ${rc}, expected input error 2")
endif()
# Usage error: trailing argument after --out value.
execute_process(
  COMMAND "${MRTS_CLI}" trace-analyze "${trace}" --out "${report_json}" extra
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "trailing argument exited ${rc}, expected usage error 1")
endif()

# 4. run-multi bounced tenants print sorted by name (zeta registered first,
#    alpha second: the diagnostics must list alpha before zeta).
execute_process(
  COMMAND "${MRTS_CLI}" run-multi 2 1 3 zeta=reserved:9+9 alpha=reserved:8+8
          video=weighted:2
  RESULT_VARIABLE rc OUTPUT_VARIABLE multi)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run-multi exited ${rc}, expected 0")
endif()
string(FIND "${multi}" "alpha" alpha_pos)
string(FIND "${multi}" "zeta" zeta_pos)
if(alpha_pos EQUAL -1 OR zeta_pos EQUAL -1)
  message(FATAL_ERROR "run-multi output is missing a bounced tenant")
endif()
if(alpha_pos GREATER zeta_pos)
  message(FATAL_ERROR "bounced tenants are not sorted by name")
endif()

# 5. trace-summary surfaces the span-duration percentiles.
execute_process(
  COMMAND "${MRTS_CLI}" trace-summary "${trace}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE summary)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace-summary exited ${rc}, expected 0")
endif()
string(FIND "${summary}" "span durations:" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace-summary output is missing the percentile line")
endif()

message(STATUS "analysis smoke OK: ${report_json}")
