# Exit-code gate for one command, run by ctest (the *_rejects_* tests).
#
# Runs the command given after `--` with stdin from /dev/null and
# requires its exit code to be EXPECT_CODE exactly and its stderr to
# contain EXPECT_STDERR. ctest's WILL_FAIL cannot tell a usage error
# (2) from an abort (134) or any other failure; this script can.
#
# Usage: cmake -DEXPECT_CODE=2 -DEXPECT_STDERR=<text>
#              -P check_exit_code.cmake -- <command> [args...]

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(NOT DEFINED EXPECT_CODE OR NOT DEFINED EXPECT_STDERR OR
   NOT command)
    message(FATAL_ERROR "need -DEXPECT_CODE=..., -DEXPECT_STDERR=... "
        "and a command after --")
endif()

execute_process(
    COMMAND ${command}
    INPUT_FILE /dev/null
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 120)

if(NOT code STREQUAL EXPECT_CODE)
    message(FATAL_ERROR "exit '${code}', expected ${EXPECT_CODE}: "
        "${command}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name '${EXPECT_STDERR}': "
        "${command}\nstderr:\n${err}")
endif()
