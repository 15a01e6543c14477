# Malformed numeric flag values must end a tool with its usage-error
# exit code and a message, never with an uncaught exception (exit 134).
# Run as a ctest script:
#
#   cmake -DTRACE_TOOL=... -DSIM_TOOL=... -DSWEEP_TOOL=...
#         -DHOSTPROF_TOOL=... [-DASAN=ON] -P cli_bad_values_check.cmake

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

# A machine or kernel that cannot be built (no SMs, a cache geometry
# that cannot exist, an empty kernel, an unknown name) is rejected
# before the run prints anything: exit 1, the reason on stderr, no
# configuration block.
function(expect_rejected want_msg)
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

expect_rejected("L2 geometry:" "${SIM_TOOL}" --l2-kib 3)
expect_rejected("MRC geometry:"
                "${HOSTPROF_TOOL}" --mrc-kib 3 --scheme cachecraft)
# Zero sizes fail the knob table's check, the one campaign specs use.
expect_rejected("wants a positive KiB size" "${SIM_TOOL}" --l2-kib 0)
expect_rejected("wants a positive SM count" "${SIM_TOOL}" --sms 0)
expect_rejected("wants a positive SM count" "${HOSTPROF_TOOL}" --sms 0)
expect_rejected("wants a positive MiB footprint"
                "${SIM_TOOL}" --footprint-mib 0)
expect_rejected("wants a positive MiB footprint"
                "${HOSTPROF_TOOL}" --footprint-mib 0)
expect_rejected("wants a positive warp count" "${SIM_TOOL}" --warps 0)
expect_rejected("unknown scheme" "${HOSTPROF_TOOL}" --scheme bogus)

# A flag the chosen mode would ignore is rejected before any output,
# naming the flag: every knob next to hostprof --campaign (the spec
# sets each point's knobs), and the kernel knobs (workload, sizing,
# seed) next to sim --trace (the trace file is the kernel).
expect_rejected("--scheme cannot be combined with --campaign"
                "${HOSTPROF_TOOL}" --campaign tiny.json --out d
                --scheme cachecraft --warps 4096 --gto)
expect_rejected("--no-gto cannot be combined with --campaign"
                "${HOSTPROF_TOOL}" --no-gto --campaign tiny.json --out d)
expect_rejected("--warps cannot be combined with --trace"
                "${SIM_TOOL}" --trace k.trace --scheme cachecraft --warps 4)
foreach(kernel_flag --workload=gemm --footprint-mib=2 --mem-insts=4
                    --seed=3)
    string(REPLACE "=" ";" kernel_args "${kernel_flag}")
    list(GET kernel_args 0 flag_name)
    expect_rejected("${flag_name} cannot be combined with --trace"
                    "${SIM_TOOL}" ${kernel_args} --trace k.trace)
endforeach()

# Machine knobs stay valid next to --trace.
set(trace_file "${CMAKE_CURRENT_BINARY_DIR}/cli_check_gemm.trace")
execute_process(COMMAND "${SIM_TOOL}" --workload gemm --warps 4
                        --dump-trace "${trace_file}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "dumping a trace exited ${rc}:\n${err}")
endif()
execute_process(COMMAND "${SIM_TOOL}" --trace "${trace_file}"
                        --scheme cachecraft --l2-kib 256 --quiet
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
file(REMOVE "${trace_file}")
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "--trace with machine knobs exited ${rc}:\n${err}")
endif()

# A kernel larger than the device's usable memory is rejected before
# generation, not by std::bad_alloc while the trace is built (exit
# 134) nor by initialize() after it. A memory cap makes a regression
# fail fast instead of growing the trace in host memory: an address-
# space limit, or under ASan (whose shadow reservation that limit
# breaks) ASan's own RSS limit.
if(ASAN)
    set(asan_options "hard_rss_limit_mb=2000")
    if(DEFINED ENV{ASAN_OPTIONS})
        set(asan_options "$ENV{ASAN_OPTIONS}:${asan_options}")
    endif()
    set(capped "${CMAKE_COMMAND}" -E env "ASAN_OPTIONS=${asan_options}")
else()
    set(capped sh -c "ulimit -v 2000000 && exec \"$@\"" sh)
endif()
function(expect_too_big)
    execute_process(COMMAND ${capped} ${ARGN}
                    RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
    if(NOT rc STREQUAL "1")
        message(FATAL_ERROR "${ARGN}: exited ${rc}, want 1:\n${err}")
    endif()
    if(NOT err MATCHES "bytes of usable device memory")
        message(FATAL_ERROR "${ARGN}: no footprint diagnostic:\n${err}")
    endif()
endfunction()
expect_too_big("${SIM_TOOL}" --workload streaming --footprint-mib 16384)
expect_too_big("${HOSTPROF_TOOL}" --workload histogram
               --footprint-mib 16384 --quiet)

# In a campaign the oversized point fails alone: the sweep exits 1
# (failed points) and the point beside it still writes its report.
set(big_dir "${CMAKE_CURRENT_BINARY_DIR}/cli_check_oversized")
set(big_spec "${big_dir}.json")
file(REMOVE_RECURSE "${big_dir}")
file(WRITE "${big_spec}" [=[
{
  "schema": "cachecraft.campaign_spec/1",
  "name": "oversized",
  "base": {"workload": "streaming", "warps": 8, "scheme": "no-ecc"},
  "grid": {"footprint_mib": [1, 16384]}
}
]=])
execute_process(COMMAND ${capped}
                        "${SWEEP_TOOL}" "${big_spec}" --out "${big_dir}"
                        --jobs 1 --quiet
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(EXISTS "${big_dir}/campaign_manifest.json")
    file(READ "${big_dir}/campaign_manifest.json" manifest)
else()
    set(manifest "")
endif()
file(GLOB big_reports "${big_dir}/reports/*.json")
file(REMOVE_RECURSE "${big_dir}")
file(REMOVE "${big_spec}")
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "oversized campaign exited ${rc}, want 1:\n${err}")
endif()
if(NOT manifest MATCHES "bytes of usable device memory")
    message(FATAL_ERROR "oversized point's error not in the manifest:\n"
                        "${manifest}")
endif()
list(LENGTH big_reports n_reports)
if(NOT n_reports EQUAL 1)
    message(FATAL_ERROR "oversized campaign wrote ${n_reports} reports, "
                        "want 1 (the valid point)")
endif()
