# Byte pins of the flight-recorder outputs, run as a ctest via `cmake -P`:
# the JSONL and Chrome traces and the run reports of two `mrts_cli run`
# configurations, and the snapshot file of a `--checkpoint-every` run, must
# hash to the SHA-256 digests below. The digests were recorded from the
# snprintf/ostream writers that the shared to_chars formatter and append
# buffer (util/text_buffer.h) replaced, so any byte the rewrite moves fails
# here. Outputs are written under relative names from WORK_DIR, because the
# snapshot records its own file paths.
#
# Inputs: -DMRTS_CLI=<path to mrts_cli> -DWORK_DIR=<scratch dir>

if(NOT DEFINED MRTS_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DMRTS_CLI=... -DWORK_DIR=... -P output_digests.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(
    COMMAND "${MRTS_CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'mrts_cli ${ARGN}' exited ${rc}:\n${err}")
  endif()
endfunction()

run_cli(run h264 2 2 4 --trace small.jsonl --report small_report.json)
run_cli(run h264 2 2 4 --trace small.json)
run_cli(run h264 2 2 4 --report small_report.csv)
run_cli(run h264 2 2 4 --report small_report.md)
run_cli(run h264 6 3 16 --fault-rate 0.02 --trace fault.jsonl
        --report fault_report.json)
run_cli(run h264 6 3 16 --fault-rate 0.02 --trace fault.json)
run_cli(run h264 4 1 3 --fault-rate 0.05 --fault-seed 7 --trace ckpt.jsonl
        --checkpoint-every 2000000 --checkpoint ckpt.snapshot)

set(pins
  small.jsonl        e5b3fcb9a327da6b86ebd23e5308803be63d793171dad3c8b61d3a9c5da6e024
  small.json         4900706d189dd33cd4387de1b01a030661c6fcc094488e4e100fe690cda0d804
  small_report.json  7720f47b5914c3a1afd598c9b391d07c42827c4e590621510b25c50b9211fe07
  small_report.csv   70b7daa7711520b96c248f8d305d73afaa7d6ebd04d8c47a1e5cd7674adff097
  small_report.md    7bc4146a1eb9791ddeff6984f1717b76c7c9fe4fbe4be9883643f1311ad149b1
  fault.jsonl        a20dc9597dc9749ad7124625280d018816582c34ade1389cadbc10b6f95a3de5
  fault.json         2f79a3d87635d52658a3d859b643aef5f211954c1e93ce672228331e8480e131
  fault_report.json  1c489f5cb0f2f7dacb4a12fe84c6e78d39af755c12d2727bc5cecc167d9cd3f9
  ckpt.jsonl         313d966f5d0cfa74c8a2a10a4d6d09f35f009b48fb44c6c8bccda4934f997d39
  ckpt.snapshot      d1f30882fef2a2c93a11fb91f1d1ab99ef4574334aee8bef9b6532bf6d420559)

set(failed "")
list(LENGTH pins n)
math(EXPR last "${n} - 1")
foreach(i RANGE 0 ${last} 2)
  math(EXPR j "${i} + 1")
  list(GET pins ${i} name)
  list(GET pins ${j} expected)
  file(SHA256 "${WORK_DIR}/${name}" actual)
  if(NOT actual STREQUAL expected)
    string(APPEND failed "\n  ${name}: ${actual} (pinned ${expected})")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "output bytes moved:${failed}")
endif()
message(STATUS "output digests OK: ${WORK_DIR}")
