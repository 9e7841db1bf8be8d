# Tool-level CLI contract for intro_batch: every malformed numeric flag
# must exit with code 2 (ExitBadInput) and print a diagnostic that names
# the offending flag.  Before the strict parser, `--seed=x` escaped
# std::stoul as std::invalid_argument and surfaced as exit 3 ("internal
# error"), and out-of-range values were silently truncated.  Flags that
# would be silently ignored are rejected the same way: the daemon-owned
# flags in --server mode, and a cache cap without a cache.
#
# Run as: cmake -DINTRO_BATCH=<path> -P CheckBatchCliErrors.cmake

if(NOT DEFINED INTRO_BATCH)
  message(FATAL_ERROR "pass -DINTRO_BATCH=<path to intro_batch>")
endif()

set(FAILURES 0)

# check_rejects(<expected-stderr-substring> <flag>...)
function(check_rejects EXPECT)
  execute_process(
    COMMAND ${INTRO_BATCH} ${ARGN} nonexistent.intro
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT CODE EQUAL 2)
    message(SEND_ERROR "${ARGN}: expected exit 2 (bad input), got ${CODE}\n"
                       "stderr: ${ERR}")
  endif()
  string(FIND "${ERR}" "${EXPECT}" POS)
  if(POS EQUAL -1)
    message(SEND_ERROR "${ARGN}: stderr does not name the flag\n"
                       "expected substring: ${EXPECT}\nstderr: ${ERR}")
  endif()
endfunction()

# Garbage values: must be diagnosed, not escape as an exception (exit 3).
check_rejects("--max-attempts" --max-attempts=x)
check_rejects("--seed"         --seed=12q)
check_rejects("--deadline"     --deadline=nan)
check_rejects("--workers"      --workers=)

# Out-of-range / overflow: must be rejected, not silently truncated.
check_rejects("--max-attempts" --max-attempts=0)
check_rejects("--workers"      --workers=4294967296)
check_rejects("--workers"      --workers=1025)
# The largest worker count is accepted: the run gets as far as the input.
check_rejects("nonexistent.intro" --workers=1024)
check_rejects("--seed"         --seed=18446744073709551616)

# --mem-limit=0 means "no address space at all", not "no limit": rejected.
check_rejects("--mem-limit" --mem-limit=0)

# A nonzero cache cap without a cache directory would cap nothing.
check_rejects("--cache-max-entries=3 needs --cache-dir"
              --cache-max-entries=3)

# In --server mode the jobs run under the daemon's settings, so every flag
# the daemon owns is rejected before any input is read, whichever side of
# --server it is on.  The socket does not exist: a run that got as far as
# the connect would fail there instead, without naming the flag.
set(SERVER --server=nonexistent.sock)
foreach(FLAG --quarantine=q --workers=2 --no-deep --cache-dir=c
             --cache-max-entries=3 --max-attempts=2 --cpu-limit=5
             --mem-limit=512 --seed=7)
  string(REGEX REPLACE "=.*" "" NAME "${FLAG}")
  check_rejects("${NAME} cannot be combined with --server" ${SERVER} ${FLAG})
endforeach()
check_rejects("--no-deep cannot be combined with --server" --no-deep ${SERVER})

# Unknown flags still fail fast.
execute_process(
  COMMAND ${INTRO_BATCH} --retries=3 nonexistent.intro
  RESULT_VARIABLE CODE
  ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 2)
  message(SEND_ERROR "unknown flag: expected exit 2, got ${CODE}")
endif()

# --help and -h print the usage to stdout and exit 0; the text lists the
# real flags.
foreach(HELP --help -h)
  execute_process(
    COMMAND ${INTRO_BATCH} ${HELP}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT CODE EQUAL 0)
    message(SEND_ERROR "${HELP}: expected exit 0, got ${CODE}\nstderr: ${ERR}")
  endif()
  string(FIND "${OUT}" "--workers" POS)
  if(POS EQUAL -1)
    message(SEND_ERROR "${HELP}: stdout does not list --workers:\n${OUT}")
  endif()
endforeach()
