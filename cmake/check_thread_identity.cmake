# Thread-count determinism gate for the memo and the quarantine, run
# by ctest (cli_thread_identity).
#
# Runs three campaigns at --threads 1 and --threads 4 and asserts that
# stdout and stderr are identical apart from the engine report's
# "engine: N thread(s)" line, and that the exit codes agree. At one
# thread the memo computes its keys serially; at four it computes them
# on the measuring pool before its in-order lookup pass, so any
# difference between the two key passes shows as a different cache hit
# rate or a different estimate:
#   - a 6-task estimate of 5000 samples, 87.62 % of them cache hits;
#   - a 9-task iterate of 20 rounds, 21.25 % of them cache hits;
#   - a 6-task iterate under 30 % injected faults that quarantines 11
#     classes and ends with 30 measurements failed, so the
#     quarantine's lookups and hits run too.
#
# Usage: cmake -DCLI=<statsched_cli> -DWORK_DIR=<scratch>
#              -P check_thread_identity.cmake

if(NOT CLI OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DCLI=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CAMPAIGN_estimate estimate --benchmark stateful --instances 2
    --samples 5000 --seed 3)
set(CAMPAIGN_iterate iterate --benchmark stateful --instances 3
    --loss 0.01 --ninit 1000 --ndelta 1000 --max 20000)
set(CAMPAIGN_quarantine iterate --benchmark stateful --instances 2
    --fault-rate 30 --loss 0.000001 --ninit 1000 --ndelta 100
    --max 5000 --seed 3)

foreach(campaign estimate iterate quarantine)
    foreach(threads 1 4)
        set(run "${campaign}_${threads}")
        execute_process(
            COMMAND ${CLI} ${CAMPAIGN_${campaign}} --threads ${threads}
            OUTPUT_VARIABLE out_${run}
            ERROR_VARIABLE err_${run}
            RESULT_VARIABLE code_${run})
        foreach(stream out err)
            string(REGEX REPLACE "engine: [0-9]+ thread\\(s\\)" ""
                   ${stream}_${run} "${${stream}_${run}}")
            file(WRITE "${WORK_DIR}/${run}.${stream}"
                 "${${stream}_${run}}")
        endforeach()
    endforeach()

    if(NOT code_${campaign}_1 STREQUAL code_${campaign}_4)
        message(FATAL_ERROR "${campaign}: --threads 4 exited "
            "${code_${campaign}_4}, --threads 1 exited "
            "${code_${campaign}_1}")
    endif()
    foreach(stream out err)
        if(NOT ${stream}_${campaign}_1 STREQUAL ${stream}_${campaign}_4)
            message(FATAL_ERROR "${campaign}: std${stream} at "
                "--threads 4 differs from --threads 1 "
                "(${WORK_DIR}/${campaign}_4.${stream} vs "
                "${WORK_DIR}/${campaign}_1.${stream})")
        endif()
    endforeach()
endforeach()
