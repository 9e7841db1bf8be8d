# The fig5 golden, pinned in the test suite: run fig5_object_sens with a
# trace and require its report's "deterministic" section — per-attempt
# solver stats and the trace summary's span, counter and instant counts —
# to equal bench/golden/fig5_deterministic.json byte for byte, rendered the
# way the CI perf-smoke step renders it (json.dumps, indent=1, sorted keys,
# trailing newline).
#
# Run as: cmake -DFIG5=<path> -DPYTHON=<python3> -DGOLDEN=<json>
#               -DWORK_DIR=<dir> -P CheckFig5Golden.cmake

foreach(VAR FIG5 PYTHON GOLDEN WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "pass -D${VAR}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(
  COMMAND ${FIG5} --workers=2 --trace=${WORK_DIR}/fig5_trace.json
  RESULT_VARIABLE CODE
  OUTPUT_QUIET
  ERROR_VARIABLE ERR
  TIMEOUT 240)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "fig5_object_sens failed (${CODE}): ${ERR}")
endif()

set(COMPARE [=[
import json, sys
report, golden, drift = sys.argv[1:4]
got = json.dumps(json.load(open(report))['deterministic'],
                 indent=1, sort_keys=True) + '\n'
if got != open(golden).read():
    open(drift, 'w').write(got)
    sys.exit('fig5 deterministic section drifted from the golden; '
             'got written to ' + drift)
]=])
execute_process(
  COMMAND ${PYTHON} -c "${COMPARE}"
    ${WORK_DIR}/fig5_trace.report.json ${GOLDEN}
    ${WORK_DIR}/fig5_deterministic.got.json
  RESULT_VARIABLE CODE
  ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(FATAL_ERROR "${ERR}")
endif()
