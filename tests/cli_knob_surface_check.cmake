# Every knob cachecraft_sweep --list-knobs prints must be a flag in the
# --help of every simulating tool (`l2_kib` is `--l2-kib`), so a spec
# knob is never missing from a command line. Run as a ctest script:
#
#   cmake -DSWEEP_TOOL=... -DSIM_TOOL=... -DHOSTPROF_TOOL=...
#         -DCURVES_TOOL=... -P cli_knob_surface_check.cmake

foreach(var SWEEP_TOOL SIM_TOOL HOSTPROF_TOOL CURVES_TOOL)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_knob_surface_check: ${var} not set")
    endif()
endforeach()

execute_process(COMMAND "${SWEEP_TOOL}" --list-knobs
                RESULT_VARIABLE rc OUTPUT_VARIABLE listed)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${SWEEP_TOOL} --list-knobs exited ${rc}")
endif()
string(REGEX MATCHALL "[a-z0-9_]+" knobs "${listed}")
list(LENGTH knobs count)
if(count EQUAL 0)
    message(FATAL_ERROR "--list-knobs printed no knob names")
endif()

foreach(tool SIM_TOOL HOSTPROF_TOOL CURVES_TOOL)
    execute_process(COMMAND "${${tool}}" --help
                    RESULT_VARIABLE rc OUTPUT_VARIABLE help)
    if(NOT rc STREQUAL "0")
        message(FATAL_ERROR "${${tool}} --help exited ${rc}")
    endif()
    foreach(knob IN LISTS knobs)
        string(REPLACE "_" "-" flag "${knob}")
        # The flag followed by a space, comma or line end, so that
        # --profile is not found inside --profile-interval.
        if(NOT help MATCHES "--${flag}([ ,\n]|$)")
            message(FATAL_ERROR
                    "${${tool}} --help lacks --${flag} (knob ${knob})")
        endif()
    endforeach()
endforeach()
