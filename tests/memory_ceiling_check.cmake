# Host-memory ceiling: a protected 64 MiB streaming point must peak
# below a fixed RSS, so the compact traces and the dense metadata
# shadow cannot regress silently (the point peaked at 445 MiB before
# them, 157 MiB after; the ceiling is about 1.25x the latter). Run as
# a ctest script:
#
#   cmake -DHOSTPROF_TOOL=... -P memory_ceiling_check.cmake

if(NOT DEFINED HOSTPROF_TOOL)
    message(FATAL_ERROR "memory_ceiling_check: HOSTPROF_TOOL not set")
endif()

set(ceiling_kib 204800) # 200 MiB

execute_process(COMMAND "${HOSTPROF_TOOL}" --workload streaming
                        --scheme cachecraft --footprint-mib 64
                        --no-counters
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "cachecraft_hostprof exited ${rc}:\n${err}")
endif()
if(NOT out MATCHES "memory: rss [0-9]+ KiB, peak ([0-9]+) KiB")
    message(FATAL_ERROR "no peak RSS line in the profile:\n${out}")
endif()
set(peak_kib "${CMAKE_MATCH_1}")
message(STATUS "streaming 64 MiB cachecraft peak: ${peak_kib} KiB "
               "(ceiling ${ceiling_kib} KiB)")
if(peak_kib GREATER ceiling_kib)
    message(FATAL_ERROR "peak RSS ${peak_kib} KiB exceeds the "
                        "${ceiling_kib} KiB ceiling")
endif()
