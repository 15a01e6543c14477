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

# A machine that cannot be built (no SMs, or a cache geometry that
# cannot exist) is rejected before the run prints anything: exit 1, the
# reason on stderr, no configuration block.
function(expect_geometry_error want_msg)
    execute_process(COMMAND ${ARGN}
                    RESULT_VARIABLE rc ERROR_VARIABLE err
                    OUTPUT_VARIABLE out)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR "${ARGN}: exited ${rc}, want 1:\n${err}")
    endif()
    if(NOT err MATCHES "${want_msg}")
        message(FATAL_ERROR "${ARGN}: no \"${want_msg}\" on stderr:\n${err}")
    endif()
    if(out MATCHES "--- configuration ---")
        message(FATAL_ERROR "${ARGN}: printed the configuration first")
    endif()
endfunction()

expect_geometry_error("L2 geometry:" "${SIM_TOOL}" --l2-kib 3)
expect_geometry_error("L2 geometry:" "${SIM_TOOL}" --l2-kib 0)
expect_geometry_error("MRC geometry:"
                      "${HOSTPROF_TOOL}" --mrc-kib 3 --scheme cachecraft)
expect_geometry_error("numSms must be positive" "${SIM_TOOL}" --sms 0)
expect_geometry_error("numSms must be positive" "${HOSTPROF_TOOL}" --sms 0)
