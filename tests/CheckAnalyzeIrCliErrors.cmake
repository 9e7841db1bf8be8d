# CLI contract for analyze_ir: a flag the run would silently drop, or a
# malformed --max-tuples, exits 1 with a diagnostic that names the flag.
# The introspective flavors solve their second pass with plain casts and
# assemble no tuples, so --filter-casts and --stats are rejected there;
# `--max-tuples=abc` used to abort on an escaped std::invalid_argument.
#
# Run as: cmake -DANALYZE_IR=<path> -P CheckAnalyzeIrCliErrors.cmake

if(NOT DEFINED ANALYZE_IR)
  message(FATAL_ERROR "pass -DANALYZE_IR=<path to analyze_ir>")
endif()

# check_exit(<expected-code> <expected-stderr-substring> <arg>...): runs
# analyze_ir on its built-in demo program.
function(check_exit WANT EXPECT)
  execute_process(
    COMMAND ${ANALYZE_IR} ${ARGN}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT CODE EQUAL WANT)
    message(SEND_ERROR "${ARGN}: expected exit ${WANT}, got ${CODE}\n"
                       "stderr: ${ERR}")
  endif()
  string(FIND "${ERR}" "${EXPECT}" POS)
  if(POS EQUAL -1)
    message(SEND_ERROR "${ARGN}: stderr does not name the flag\n"
                       "expected substring: ${EXPECT}\nstderr: ${ERR}")
  endif()
endfunction()

foreach(FLAVOR 2objH-introA 2objH-introB)
  check_exit(1 "--filter-casts" ${FLAVOR} --filter-casts)
  check_exit(1 "--stats" ${FLAVOR} --stats)
endforeach()

check_exit(1 "--max-tuples" --max-tuples=abc)
check_exit(1 "--max-tuples" --max-tuples=)
check_exit(1 "--max-tuples" --max-tuples=18446744073709551616)
check_exit(1 "--max-tuples" 2objH-introA --max-tuples=-5)

# The same flags still run where they apply.
check_exit(0 "" 2objH --filter-casts --stats --max-tuples=1000)
check_exit(0 "" 2objH-introB --max-tuples=1000)
