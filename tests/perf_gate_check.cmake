# End-to-end check of the CI perf gate, run as a ctest script:
#
#   cmake -DSMOKE_TOOL=... -DDIFF_TOOL=... -DWORK_DIR=...
#         -P perf_gate_check.cmake
#
# Verifies the contract the CI job relies on:
#   1. perf_smoke is byte-deterministic run to run,
#   2. cachecraft_diff exits 0 on identical artifacts,
#   3. exits 1 when a metric moves beyond tolerance,
#   4. exits 2 with a descriptive message on schema-version mismatch,
#   5. reads perfbench result lines (no schema_version) and judges a
#      30% move by --tol.

foreach(var SMOKE_TOOL DIFF_TOOL WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perf_gate_check: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(a "${WORK_DIR}/a.json")
set(b "${WORK_DIR}/b.json")

# --no-manifest drops the host-varying throughput rates: the byte
# determinism check below needs output that depends only on the build.
execute_process(COMMAND "${SMOKE_TOOL}" --out "${a}" --no-manifest
                RESULT_VARIABLE rc ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}):\n${log}")
endif()
execute_process(COMMAND "${SMOKE_TOOL}" --out "${b}" --no-manifest
                RESULT_VARIABLE rc ERROR_VARIABLE log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}):\n${log}")
endif()

# 1. Determinism: two same-build runs must be byte-identical.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke output is not deterministic")
endif()

# 2. Identical artifacts pass the gate.
execute_process(COMMAND "${DIFF_TOOL}" "${a}" "${b}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "cachecraft_diff on identical files exited ${rc}:\n${out}")
endif()

# 3. A perturbed metric fails the gate with exit 1.
file(READ "${b}" doc)
string(REGEX MATCH "\"cycles\":([0-9]+)" _ "${doc}")
if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "no cycles metric found in ${b}")
endif()
math(EXPR bumped "${CMAKE_MATCH_1} * 2 + 1000")
string(REPLACE "\"cycles\":${CMAKE_MATCH_1}" "\"cycles\":${bumped}"
       doc "${doc}")
set(perturbed "${WORK_DIR}/perturbed.json")
file(WRITE "${perturbed}" "${doc}")
execute_process(COMMAND "${DIFF_TOOL}" "${a}" "${perturbed}"
                --tol 0.05
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
            "cachecraft_diff on perturbed metrics exited ${rc}, "
            "expected 1:\n${out}")
endif()
if(NOT out MATCHES "REGRESSION")
    message(FATAL_ERROR "regression verdict missing from:\n${out}")
endif()

# 4. A schema-version mismatch is refused with exit 2.
file(READ "${b}" doc)
string(REGEX REPLACE "\"schema_version\":[0-9]+"
       "\"schema_version\":999999" doc "${doc}")
set(mismatched "${WORK_DIR}/mismatched.json")
file(WRITE "${mismatched}" "${doc}")
execute_process(COMMAND "${DIFF_TOOL}" "${a}" "${mismatched}"
                RESULT_VARIABLE rc ERROR_VARIABLE log)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "cachecraft_diff on schema mismatch exited ${rc}, "
            "expected 2:\n${log}")
endif()
if(NOT log MATCHES "schema_version")
    message(FATAL_ERROR "schema error is not descriptive:\n${log}")
endif()

# 5. perfbench result lines: host_s moved 30%.
foreach(side before after)
    if(side STREQUAL "before")
        set(host_s 10)
    else()
        set(host_s 13)
    endif()
    file(WRITE "${WORK_DIR}/bench_${side}.json"
         "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
         "\"metrics\": {\"host_s\": {\"value\": ${host_s}, "
         "\"unit\": \"s\"}}}\n")
endforeach()
foreach(case "0.5;0" "0.1;1")
    list(GET case 0 tol)
    list(GET case 1 want)
    execute_process(COMMAND "${DIFF_TOOL}" "${WORK_DIR}/bench_before.json"
                            "${WORK_DIR}/bench_after.json" --tol ${tol}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE log)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR "cachecraft_diff on perfbench lines at --tol "
                            "${tol} exited ${rc}, expected ${want}:\n"
                            "${out}${log}")
    endif()
endforeach()

message(STATUS "perf gate contract holds")
