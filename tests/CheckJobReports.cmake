# Regression test for `intro_batch --job-reports=DIR` in local mode: the
# files must be exactly the ones server mode writes — the verbatim healthy
# intro-run-report-v1 line of each job, and no file for a job whose child
# never wrote one.  A job whose every attempt cuts its report mid-object
# (truncate chaos) once left a spliced, invalid JSON file behind: the
# partial line of one attempt glued onto the next attempt's progress line.
#
# The same run pins the configuration keys the reports carry: a clean
# job's "options", its "outcome" (no "notes"), and the batch report's
# "retry_policy".  A setting that becomes a constant leaves these objects,
# and this check keeps it from coming back unnoticed.
#
# Run as: cmake -DINTRO_BATCH=<path> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>
#               -P CheckJobReports.cmake

if(NOT DEFINED INTRO_BATCH OR NOT DEFINED CORPUS_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "pass -DINTRO_BATCH=<path> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>")
endif()

# json_keys(<out-var> <json> <member-path>...): the member names of the
# object at the path, sorted by name (CMake's JSON reader sorts them).
function(json_keys OUT JSON)
  string(JSON COUNT LENGTH "${JSON}" ${ARGN})
  set(KEYS "")
  if(COUNT GREATER 0)
    math(EXPR LAST "${COUNT} - 1")
    foreach(INDEX RANGE ${LAST})
      string(JSON KEY MEMBER "${JSON}" ${ARGN} ${INDEX})
      list(APPEND KEYS ${KEY})
    endforeach()
  endif()
  set(${OUT} "${KEYS}" PARENT_SCOPE)
endfunction()

set(JOBS_DIR ${WORK_DIR}/jobs)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(
  COMMAND ${INTRO_BATCH} --deadline=30 --job-reports=${JOBS_DIR}
    --report=${WORK_DIR}/batch.json
    --chaos=truncate:deep@boxes
    ${CORPUS_DIR}/boxes.intro ${CORPUS_DIR}/dispatch.intro
  RESULT_VARIABLE CODE
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)

# boxes exhausts its retries on bad reports and is quarantined: exit 1.
if(NOT CODE STREQUAL "1")
  message(SEND_ERROR "expected exit 1 (boxes quarantined), got '${CODE}'\n"
                     "stdout: ${OUT}\nstderr: ${ERR}")
endif()

if(EXISTS ${JOBS_DIR}/boxes.report.json)
  file(READ ${JOBS_DIR}/boxes.report.json TEXT)
  message(SEND_ERROR
    "a job with no healthy report line must leave no report file, got:\n"
    "${TEXT}")
endif()

if(NOT EXISTS ${JOBS_DIR}/dispatch.report.json)
  message(SEND_ERROR "the clean job's report file was not written")
else()
  file(READ ${JOBS_DIR}/dispatch.report.json TEXT)
  string(JSON SCHEMA ERROR_VARIABLE JSON_ERROR GET "${TEXT}" schema)
  if(JSON_ERROR)
    message(SEND_ERROR "dispatch.report.json is not valid JSON "
                       "(${JSON_ERROR}):\n${TEXT}")
  elseif(NOT SCHEMA STREQUAL "intro-run-report-v1")
    message(SEND_ERROR "dispatch.report.json has schema '${SCHEMA}'")
  else()
    json_keys(OPTIONS "${TEXT}" deterministic options)
    set(WANT "attempt_deep;attempt_intro_a;attempt_intro_b;deep_budget;\
first_pass_budget;level_faults;params_a;params_b;refined_budget;\
tightened_rounds")
    if(NOT OPTIONS STREQUAL WANT)
      message(SEND_ERROR "deterministic.options keys are '${OPTIONS}', "
                         "expected '${WANT}'")
    endif()
    json_keys(OUTCOME "${TEXT}" deterministic outcome)
    list(FIND OUTCOME notes NOTES)
    if(NOT NOTES EQUAL -1)
      message(SEND_ERROR "deterministic.outcome still has 'notes'")
    endif()
  endif()
endif()

file(READ ${WORK_DIR}/batch.json BATCH)
json_keys(RETRY "${BATCH}" deterministic retry_policy)
if(NOT RETRY STREQUAL "max_attempts;seed")
  message(SEND_ERROR "deterministic.retry_policy keys are '${RETRY}', "
                     "expected 'max_attempts;seed'")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
