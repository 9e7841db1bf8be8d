# Regression test for `intro_batch --job-reports=DIR` in local mode: the
# files must be exactly the ones server mode writes — the verbatim healthy
# intro-run-report-v1 line of each job, and no file for a job whose child
# never wrote one.  A job whose every attempt cuts its report mid-object
# (truncate chaos) once left a spliced, invalid JSON file behind: the
# partial line of one attempt glued onto the next attempt's progress line.
#
# Run as: cmake -DINTRO_BATCH=<path> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>
#               -P CheckJobReports.cmake

if(NOT DEFINED INTRO_BATCH OR NOT DEFINED CORPUS_DIR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "pass -DINTRO_BATCH=<path> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
execute_process(
  COMMAND ${INTRO_BATCH} --deadline=30 --job-reports=${WORK_DIR}
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

if(EXISTS ${WORK_DIR}/boxes.report.json)
  file(READ ${WORK_DIR}/boxes.report.json TEXT)
  message(SEND_ERROR
    "a job with no healthy report line must leave no report file, got:\n"
    "${TEXT}")
endif()

if(NOT EXISTS ${WORK_DIR}/dispatch.report.json)
  message(SEND_ERROR "the clean job's report file was not written")
else()
  file(READ ${WORK_DIR}/dispatch.report.json TEXT)
  string(JSON SCHEMA ERROR_VARIABLE JSON_ERROR GET "${TEXT}" schema)
  if(JSON_ERROR)
    message(SEND_ERROR "dispatch.report.json is not valid JSON "
                       "(${JSON_ERROR}):\n${TEXT}")
  elseif(NOT SCHEMA STREQUAL "intro-run-report-v1")
    message(SEND_ERROR "dispatch.report.json has schema '${SCHEMA}'")
  endif()
endif()
file(REMOVE_RECURSE ${WORK_DIR})
