/**
 * @file
 * Structured JSON run reports.
 *
 * Every run of cachecraft_sim (and, via bench_common, every fig_* /
 * table_* harness) can emit one machine-readable artifact combining:
 *
 *  - a run manifest: tool, workload, seed, wall time, and the build's
 *    `git describe` string baked in at configure time;
 *  - the configuration that produced the numbers;
 *  - headline results (cycles, IPC, traffic breakdown);
 *  - truncation warnings (empty for a clean run);
 *  - the full StatRegistry, histograms included (renderJson);
 *  - the profiler's occupancy and hot-key section, when profiling was
 *    on;
 *  - the critical-path cycle attribution, when the flight recorder was
 *    on;
 *  - the epoch-sampled time series, when sampling was enabled.
 *
 * Schema id: "cachecraft.run_report/1"; the cross-artifact
 * "schema_version" field (kJsonSchemaVersion) is what cachecraft_diff
 * checks for compatibility.
 */

#ifndef CACHECRAFT_TELEMETRY_REPORT_HPP
#define CACHECRAFT_TELEMETRY_REPORT_HPP

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/gpu_system.hpp"
#include "telemetry/sampler.hpp"

namespace cachecraft::telemetry {

/** Provenance fields of one run, supplied by the driving tool. */
struct RunManifest
{
    std::string tool;     //!< e.g. "cachecraft_sim"
    std::string workload; //!< trace/kernel name
    std::uint64_t workloadSeed = 0;
    double wallSeconds = 0.0;
    /** Machine the artifact was produced on; empty = osHostname(). */
    std::string hostname;
    /** Worker threads the producing tool used for this artifact. */
    unsigned jobs = 1;
    /** Free-form extra (key, value) pairs, e.g. the command line. */
    std::vector<std::pair<std::string, std::string>> extra;
};

/** The `git describe` string this binary was configured from. */
std::string buildVersion();

/** This machine's hostname ("unknown" when unavailable). All manifest
 *  fields are host-varying and dropped by cachecraft_diff by default
 *  (telemetry::defaultIgnorePrefixes), so they can never trip CI. */
std::string osHostname();

class FlightRecorder;
class ReuseProfiler;

/** Write the full run report as one JSON object to @p os.
 *  @param sampler  may be null (no "epochs" section).
 *  @param profiler may be null (no "profile" section).
 *  @param recorder may be null (no "critical_path" section): when the
 *  flight recorder ran, its critical-path attribution is summarized
 *  inline so campaign reports carry the breakdown per point.
 *  @param reuse    may be null (no "curves" section): when reuse
 *  profiling ran, the one-pass miss-ratio curves, residency heatmaps,
 *  and locality histograms are embedded per cache. A disabled profiler
 *  leaves the report byte-identical to one written before the section
 *  existed. */
void writeRunReport(std::ostream &os, const RunManifest &manifest,
                    const SystemConfig &config, const RunStats &rs,
                    const StatRegistry &stats, const StatSampler *sampler,
                    const Profiler *profiler = nullptr,
                    const FlightRecorder *recorder = nullptr,
                    const ReuseProfiler *reuse = nullptr);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_REPORT_HPP
