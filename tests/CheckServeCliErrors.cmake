# Tool-level CLI contract for intro_serve: every bad flag must exit with
# code 2 (ExitBadInput) before the daemon binds its socket, and print a
# diagnostic that names the offending flag.  That includes a default
# --deadline above --max-deadline: the server clamps only a request's own
# deadline_seconds, so such a default would let every deadline-less submit
# outlive the clamp.
#
# Every case runs under a TIMEOUT: a daemon that wrongly accepts its flags
# starts listening and blocks, which must fail the test, not hang it.
#
# Run as: cmake -DINTRO_SERVE=<path> -DSOCKET=<path> -P CheckServeCliErrors.cmake

if(NOT DEFINED INTRO_SERVE OR NOT DEFINED SOCKET)
  message(FATAL_ERROR
    "pass -DINTRO_SERVE=<path to intro_serve> -DSOCKET=<socket path>")
endif()

# check_rejects(<expected-stderr-substring> <flag>...)
function(check_rejects EXPECT)
  execute_process(
    COMMAND ${INTRO_SERVE} --socket=${SOCKET} ${ARGN}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    TIMEOUT 10)
  file(REMOVE ${SOCKET})
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

# Malformed and out-of-range values of per-tool and shared flags.
check_rejects("--workers"   --workers=0)
check_rejects("--workers"   --workers=1025)
check_rejects("--seed"      --seed=12q)
check_rejects("--deadline"  --deadline=0)
check_rejects("--mem-limit" --mem-limit=0)

# Unknown flags fail fast.
check_rejects("--retries" --retries=3)

# A nonzero cache cap without a cache directory would cap nothing.
check_rejects("--cache-max-entries=3 needs --cache-dir" --cache-max-entries=3)

# A default deadline above the clamp is rejected, naming both flags.
check_rejects("--deadline=900"     --deadline=900 --max-deadline=600)
check_rejects("--max-deadline=600" --deadline=900 --max-deadline=600)

# The largest worker count parses: the run fails at the deadline check
# that follows flag parsing, before any worker thread starts.
check_rejects("--deadline=900" --workers=1024 --deadline=900 --max-deadline=600)

# --help and -h print the usage to stdout and exit 0; the text lists the
# real flags.
foreach(HELP --help -h)
  execute_process(
    COMMAND ${INTRO_SERVE} ${HELP}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR
    TIMEOUT 10)
  if(NOT CODE EQUAL 0)
    message(SEND_ERROR "${HELP}: expected exit 0, got ${CODE}\nstderr: ${ERR}")
  endif()
  string(FIND "${OUT}" "--socket=PATH" POS)
  if(POS EQUAL -1)
    message(SEND_ERROR "${HELP}: stdout does not list --socket:\n${OUT}")
  endif()
endforeach()
