# Sharding and thread-count determinism gate, run by ctest
# (cli_shard_identity).
#
# Runs the same iterate campaign in-process (--shards 0) and sharded
# (--shards 1 and 2, real statsched_worker subprocesses) at --threads 2,
# and in-process at --threads 1 and 4, and asserts that stdout is
# byte-identical and the exit codes agree — the ShardedEngine
# bit-identity contract, checked end to end through the real pipe
# transport, and the pool's: the 24-task sampler draws its 300-sample
# first round on the pool at 2 and 4 threads and serially at 1. Fault
# injection is on so the outcome channel (failed measurements, retries
# above the shard layer) is exercised across the wire too.
#
# Usage: cmake -DCLI=<statsched_cli> -DWORK_DIR=<scratch>
#              -P check_shard_identity.cmake

if(NOT CLI OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DCLI=... and -DWORK_DIR=...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(CAMPAIGN iterate --benchmark aho --loss 10 --ninit 300
    --ndelta 100 --max 2000 --fault-rate 5)

# Each run is named <shards>_<threads>; 0_2 is the reference.
set(RUNS 0_2 1_2 2_2 0_1 0_4)
foreach(run ${RUNS})
    string(REPLACE "_" ";" knobs ${run})
    list(GET knobs 0 shards)
    list(GET knobs 1 threads)
    execute_process(
        COMMAND ${CLI} ${CAMPAIGN} --shards ${shards}
                --threads ${threads}
        OUTPUT_FILE "${WORK_DIR}/out_${run}.txt"
        ERROR_FILE "${WORK_DIR}/err_${run}.txt"
        RESULT_VARIABLE code)
    if(run STREQUAL "0_2")
        set(reference_code ${code})
    elseif(NOT code EQUAL reference_code)
        message(FATAL_ERROR "--shards ${shards} --threads ${threads} "
            "exited ${code}, the in-process --threads 2 run exited "
            "${reference_code}")
    endif()
endforeach()

foreach(run ${RUNS})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK_DIR}/out_0_2.txt" "${WORK_DIR}/out_${run}.txt"
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "run ${run} (<shards>_<threads>) stdout "
            "differs from the in-process --threads 2 run "
            "(${WORK_DIR}/out_${run}.txt vs ${WORK_DIR}/out_0_2.txt)")
    endif()
endforeach()
