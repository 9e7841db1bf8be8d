# Fuzz-lane smoke for intro_fuzz, exercising the tool end to end:
#
#   1. the checked-in seed corpus replays clean through the oracle harness;
#   2. a short generated campaign is clean and its report's deterministic
#      section is byte-identical across runs and worker counts;
#   3. a planted soundness bug is detected, auto-reduced, and filed as a
#      repro + triage artifact triple;
#   4. malformed flags exit 2 with a diagnostic naming the flag.
#
# Run as: cmake -DINTRO_FUZZ=<path> -DCORPUS_DIR=<dir> -DWORK_DIR=<dir>
#               -P CheckFuzzSmoke.cmake

foreach(VAR INTRO_FUZZ CORPUS_DIR WORK_DIR)
  if(NOT DEFINED ${VAR})
    message(FATAL_ERROR "pass -D${VAR}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# 1. Corpus replay: every checked-in program must be oracle-clean.
execute_process(
  COMMAND ${INTRO_FUZZ} ${CORPUS_DIR}
  RESULT_VARIABLE CODE
  OUTPUT_VARIABLE OUT
  ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(SEND_ERROR "corpus replay failed (exit ${CODE})\n${OUT}${ERR}")
endif()

# 2. Campaign determinism: same seeds, different worker counts, plus a
# repeat run — the reports must agree outside the timing section.
execute_process(
  COMMAND ${INTRO_FUZZ} --seed=101 --count=30 --mutate=2
          --report=${WORK_DIR}/a.json
  RESULT_VARIABLE CODE OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(SEND_ERROR "campaign run failed (exit ${CODE})\n${OUT}${ERR}")
endif()
execute_process(
  COMMAND ${INTRO_FUZZ} --seed=101 --count=30 --mutate=2 --workers=4
          --report=${WORK_DIR}/b.json
  RESULT_VARIABLE CODE OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 0)
  message(SEND_ERROR "4-worker campaign failed (exit ${CODE})\n${OUT}${ERR}")
endif()
foreach(NAME a b)
  file(READ ${WORK_DIR}/${NAME}.json ${NAME}_JSON)
  string(FIND "${${NAME}_JSON}" "\"timing\"" CUT)
  string(SUBSTRING "${${NAME}_JSON}" 0 ${CUT} ${NAME}_DET)
endforeach()
if(NOT a_DET STREQUAL b_DET)
  message(SEND_ERROR "report deterministic section differs across worker "
                     "counts:\n--- 1 worker\n${a_DET}\n--- 4 workers\n${b_DET}")
endif()

# 3. Planted bug: must be found (exit 1), reduced, and filed as artifacts.
execute_process(
  COMMAND ${INTRO_FUZZ} --seed=1 --count=6 --plant-bug=drop-max-heap
          --repro-dir=${WORK_DIR}/repros --report=${WORK_DIR}/planted.json
  RESULT_VARIABLE CODE OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(NOT CODE EQUAL 1)
  message(SEND_ERROR "planted bug: expected exit 1, got ${CODE}\n${OUT}${ERR}")
endif()
file(GLOB REPROS ${WORK_DIR}/repros/*.ir)
list(LENGTH REPROS NUM_REPROS)
if(NUM_REPROS EQUAL 0)
  message(SEND_ERROR "planted bug produced no .ir repros")
endif()
foreach(REPRO ${REPROS})
  string(REPLACE ".ir" ".triage.json" TRIAGE ${REPRO})
  string(REPLACE ".ir" ".reason.txt" REASON ${REPRO})
  foreach(FILE ${TRIAGE} ${REASON})
    if(NOT EXISTS ${FILE})
      message(SEND_ERROR "missing artifact: ${FILE}")
    endif()
  endforeach()
endforeach()
file(READ ${WORK_DIR}/planted.json PLANTED)
string(FIND "${PLANTED}" "\"clean\":false" POS)
if(POS EQUAL -1)
  message(SEND_ERROR "planted-bug report does not record findings:\n${PLANTED}")
endif()

# 4. CLI contract: malformed flags are diagnosed with exit 2.
# The name of a retired oracle is refused like any unknown one.
foreach(BAD --seed=x --count=0 --fuzz-budget=nan --oracles=bogus
        --oracles=portfolio-parity --plant-bug=bogus)
  execute_process(
    COMMAND ${INTRO_FUZZ} ${BAD}
    RESULT_VARIABLE CODE
    OUTPUT_VARIABLE OUT
    ERROR_VARIABLE ERR)
  if(NOT CODE EQUAL 2)
    message(SEND_ERROR "${BAD}: expected exit 2, got ${CODE}\n${ERR}")
  endif()
  if(BAD MATCHES "^--oracles=")
    string(FIND "${ERR}" "unknown oracle" POS)
    if(POS EQUAL -1)
      message(SEND_ERROR "${BAD}: expected 'unknown oracle', got:\n${ERR}")
    endif()
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
