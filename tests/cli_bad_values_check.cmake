# Malformed numeric flag values must end a tool with its usage-error
# exit code and a message, never with an uncaught exception (exit 134).
# Run as a ctest script:
#
#   cmake -DTRACE_TOOL=... -DSIM_TOOL=... -DSWEEP_TOOL=...
#         -DHOSTPROF_TOOL=... -P cli_bad_values_check.cmake

foreach(var TRACE_TOOL SIM_TOOL SWEEP_TOOL HOSTPROF_TOOL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_bad_values_check: ${var} not set")
    endif()
endforeach()

# expect_usage_error(<exit code> <command...>)
function(expect_usage_error want)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc ERROR_VARIABLE err
                    OUTPUT_QUIET)
    if(NOT rc STREQUAL "${want}")
        message(FATAL_ERROR "${ARGN}: exited ${rc}, want ${want}:\n${err}")
    endif()
    if(NOT err MATCHES "wants a non-negative integer")
        message(FATAL_ERROR "${ARGN}: no diagnostic on stderr:\n${err}")
    endif()
endfunction()

expect_usage_error(1 "${TRACE_TOOL}" --top abc dump.bin)
expect_usage_error(1 "${SIM_TOOL}" --warps abc)
# cachecraft_sweep reserves exit 1 for failed points; 2 is usage.
expect_usage_error(2 "${SWEEP_TOOL}" --jobs two spec.json)

# --shards 0 parses but names no thread: exit 1 with a message.
foreach(tool SIM_TOOL HOSTPROF_TOOL)
    execute_process(COMMAND "${${tool}}" --shards 0
                    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
    if(NOT rc STREQUAL "1" OR NOT err MATCHES "--shards must be positive")
        message(FATAL_ERROR
                "${${tool}} --shards 0: exited ${rc}, want 1:\n${err}")
    endif()
endforeach()
