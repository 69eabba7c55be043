# Journal compatibility gate, run by ctest (cli_journal_compat).
#
# tests/data/aho_loss0.01_3rounds.sj is a journal that an earlier
# statsched_cli cut after three of the campaign's four rounds:
#
#   statsched_cli iterate --benchmark aho --loss 0.01 --ninit 300
#       --ndelta 100 --max 2000 --fault-rate 5 --max-rounds 3
#       --journal aho_loss0.01_3rounds.sj
#
# This script resumes a copy of it with the CLI under test and
# requires the same stdout and exit code as an uninterrupted run of
# that CLI, with a non-zero replayed count on stderr. A change to the
# journal's record layout, its CRC, the key hash or the campaign
# identity hash makes the resume refuse the journal or diverge from
# it; a change to the simulator's values makes the resumed stdout
# differ. Either fails here, before any journal in the field does.
#
# Usage: cmake -DCLI=<statsched_cli> -DFIXTURE=<journal>
#              -DWORK_DIR=<scratch> -P check_journal_compat.cmake

if(NOT CLI OR NOT FIXTURE OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DCLI=..., -DFIXTURE=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CAMPAIGN iterate --benchmark aho --loss 0.01 --ninit 300
    --ndelta 100 --max 2000 --fault-rate 5)

execute_process(
    COMMAND ${CLI} ${CAMPAIGN}
    OUTPUT_FILE "${WORK_DIR}/uninterrupted.out"
    ERROR_FILE "${WORK_DIR}/uninterrupted.err"
    RESULT_VARIABLE uninterrupted_code)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E copy "${FIXTURE}" "${WORK_DIR}/resumed.sj"
    RESULT_VARIABLE copied)
if(NOT copied EQUAL 0)
    message(FATAL_ERROR "cannot copy ${FIXTURE} to ${WORK_DIR}")
endif()
execute_process(
    COMMAND ${CLI} ${CAMPAIGN} --journal "${WORK_DIR}/resumed.sj"
            --resume
    OUTPUT_FILE "${WORK_DIR}/resumed.out"
    ERROR_FILE "${WORK_DIR}/resumed.err"
    RESULT_VARIABLE resumed_code)

if(NOT resumed_code EQUAL uninterrupted_code)
    message(FATAL_ERROR "the resumed campaign exited ${resumed_code}, "
        "the uninterrupted one ${uninterrupted_code} "
        "(${WORK_DIR}/resumed.err)")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/uninterrupted.out" "${WORK_DIR}/resumed.out"
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "resumed stdout differs from the uninterrupted "
        "run (${WORK_DIR}/resumed.out vs ${WORK_DIR}/uninterrupted.out)")
endif()

file(READ "${WORK_DIR}/resumed.err" resumed_err)
if(NOT resumed_err MATCHES "journal: resumed; ([0-9]+) replayed")
    message(FATAL_ERROR "no resume report on stderr "
        "(${WORK_DIR}/resumed.err)")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "the resume replayed nothing from the fixture "
        "(${WORK_DIR}/resumed.err)")
endif()
message(STATUS "fixture resumed: ${CMAKE_MATCH_1} measurements "
    "replayed, stdout identical to the uninterrupted run")
