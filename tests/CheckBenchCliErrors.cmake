# Command-line contract for the figure and ablation harnesses: every
# unknown or malformed argument must exit with code 2 (ExitBadInput) and
# print a diagnostic that names the offending flag, before any sweep
# starts, so a typo such as `--worker=8` cannot silently benchmark the
# wrong configuration.
#
# Run as: cmake -DFIGURE=<path> -DABLATION=<path> -P CheckBenchCliErrors.cmake

if(NOT DEFINED FIGURE OR NOT DEFINED ABLATION)
  message(FATAL_ERROR "pass -DFIGURE=<harness path> -DABLATION=<harness path>")
endif()

# check_rejects(<harness> <argument> <expected-stderr-substring>)
function(check_rejects HARNESS ARG EXPECT)
  get_filename_component(NAME "${HARNESS}" NAME)
  execute_process(
    COMMAND ${HARNESS} ${ARG}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT CODE EQUAL 2)
    message(SEND_ERROR "${NAME} ${ARG}: expected exit 2 (bad input), got "
                       "${CODE}\nstderr: ${ERR}")
  endif()
  string(FIND "${ERR}" "${EXPECT}" POS)
  if(POS EQUAL -1)
    message(SEND_ERROR "${NAME} ${ARG}: stderr does not name the flag\n"
                       "expected substring: ${EXPECT}\nstderr: ${ERR}")
  endif()
endfunction()

foreach(HARNESS IN ITEMS "${FIGURE}" "${ABLATION}")
  # Removed or misspelled flags are unknown, not ignored.
  check_rejects("${HARNESS}" --supervised "--supervised")
  check_rejects("${HARNESS}" --worker=8 "--worker=8")
  # Out-of-range worker counts are rejected, not clamped.
  check_rejects("${HARNESS}" --workers=0 "--workers")
  check_rejects("${HARNESS}" --workers=1025 "--workers")
  check_rejects("${HARNESS}" --workers=abc "--workers")
  # An empty trace path is malformed on a figure, unknown on an ablation.
  check_rejects("${HARNESS}" --trace= "--trace")
endforeach()

# The ablations implement only --workers: tracing and caching are rejected.
check_rejects("${ABLATION}" --trace=ablation.json "--trace")
check_rejects("${ABLATION}" --cache-dir=ablation_cache "--cache-dir")
