# Exit-code contract of `mrts_cli` number parsing, run as a ctest via
# `cmake -P`: well-formed KERNEL=e[,tf,tb] specs must select (exit 0);
# partially-parsing or non-finite numbers must be input errors (exit 2)
# instead of being silently truncated the way a bare strtod would parse
# "1.5x" as 1.5 or "" as 0. The positional counts of select, run and
# checkpoint are held to the same contract (atoi read "2x" as 2), and so
# are the numbers of a library file.
#
# Inputs: -DMRTS_CLI=<path to mrts_cli> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DWORK_DIR=... -P select_parse_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(lib "${WORK_DIR}/select_parse_lib.txt")
file(WRITE "${lib}" "# minimal library for CLI parse tests
datapath dp0 FG units=1 bitstream=83047
kernel   sad sw=520
ise      sad_v1 kernel=sad dps=dp0 lat=520,100
")

function(expect_select rc_want)
  execute_process(
    COMMAND "${MRTS_CLI}" select "${lib}" 2 2 ${ARGN}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL ${rc_want})
    message(FATAL_ERROR "select ${ARGN}: exited ${rc}, expected ${rc_want}")
  endif()
endfunction()

# Well-formed specs select fine.
expect_select(0 "sad=120")
expect_select(0 "sad=120.5")
expect_select(0 "sad=120,400,90")

# Trailing garbage after a number used to be silently dropped by strtod.
expect_select(2 "sad=1.5x")
expect_select(2 "sad=120,400x")
expect_select(2 "sad=120,400,90,7")

# Non-finite / empty / negative values are input errors, not zero.
expect_select(2 "sad=inf")
expect_select(2 "sad=nan")
expect_select(2 "sad=")
expect_select(2 "sad=-3")
expect_select(2 "sad=120,-1")

# Runs mrts_cli with ARGN; expects exit code rc_want and a stderr that
# names \p token.
function(expect_cli rc_want token)
  execute_process(
    COMMAND "${MRTS_CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL ${rc_want})
    message(FATAL_ERROR "mrts_cli ${ARGN}: exited ${rc}, expected ${rc_want}:\n${err}")
  endif()
  string(FIND "${err}" "'${token}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mrts_cli ${ARGN}: error does not name '${token}':\n${err}")
  endif()
endfunction()

# Positional counts parse in full and in range.
expect_cli(2 "2x" select "${lib}" 2x 2 "sad=120")
expect_cli(2 "4294967298" select "${lib}" 4294967298 2 "sad=120")
expect_cli(2 "2x" run h264 2x 2 1)
expect_cli(2 "1x" run h264 2 2 1x)
expect_cli(2 "2x" checkpoint h264 2x 2 1 --at-cycle 1000
           --out "${WORK_DIR}/never.snapshot")

# Library numbers: a unit count with trailing garbage, a negative or
# overflowing kernel latency and a malformed ISE latency fail the load and
# name their line.
function(expect_bad_library line datapath kernel ise)
  file(WRITE "${WORK_DIR}/bad_lib.txt" "${datapath}\n${kernel}\n${ise}\n")
  execute_process(
    COMMAND "${MRTS_CLI}" info "${WORK_DIR}/bad_lib.txt"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "line ${line}: bad number")
    message(FATAL_ERROR "info on a bad line ${line}: exited ${rc}, expected 2 "
                        "naming the line:\n${err}")
  endif()
endfunction()
set(dp "datapath dp0 FG units=1 bitstream=83047")
set(kernel "kernel sad sw=520")
set(ise "ise sad_v1 kernel=sad dps=dp0 lat=520,100")
expect_bad_library(1 "datapath dp0 FG units=1x bitstream=83047" "${kernel}"
                   "${ise}")
# (sw=-1 used to wrap to 2^64-1, which this ISE's RISC latency matches.)
expect_bad_library(2 "${dp}" "kernel sad sw=-1"
                   "ise sad_v1 kernel=sad dps=dp0 lat=18446744073709551615,100")
expect_bad_library(2 "${dp}" "kernel sad sw=18446744073709551616" "${ise}")
expect_bad_library(3 "${dp}" "${kernel}"
                   "ise sad_v1 kernel=sad dps=dp0 lat=520,100x")

message(STATUS "select parse smoke OK")
