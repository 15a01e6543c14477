/**
 * @file
 * Campaign execution: a std::thread worker pool that runs every point
 * of an expanded CampaignSpec in-process (one fresh GpuSystem per
 * point), writes one run report per point into a report tree, and
 * emits a schema-versioned campaign manifest.
 *
 * Determinism contract (pinned by tests and the CI campaign-smoke
 * job): the simulator is a single-threaded deterministic model and
 * every point owns its GpuSystem, StatRegistry, and seeded RNGs, so
 * the *contents* of each per-point report are byte-identical for any
 * --jobs value and any completion order. The only wall-clock-varying
 * data (per-point and total wall seconds, hostname, jobs) lives under
 * the campaign manifest's "manifest" key, which cachecraft_diff drops
 * by default — two same-spec report trees therefore diff clean.
 *
 * Failure containment: a point that failed expansion, threw, or
 * exceeded --point-timeout is recorded in the manifest with its error
 * string and the campaign continues; nothing a single point does can
 * abort the run.
 */

#ifndef CACHECRAFT_CAMPAIGN_RUNNER_HPP
#define CACHECRAFT_CAMPAIGN_RUNNER_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "common/types.hpp"

namespace cachecraft::campaign {

/** Terminal state of one campaign point. */
enum class PointStatus : std::uint8_t
{
    kOk,
    kFailed,  //!< expansion error or exception while running
    kTimeout, //!< ran beyond RunnerOptions::pointTimeoutSeconds
};

/** Stable manifest name of a point status. */
const char *toString(PointStatus status);

/** Outcome of one point, in expansion order. */
struct PointOutcome
{
    PointStatus status = PointStatus::kFailed;
    std::string error;      //!< empty for kOk
    double wallSeconds = 0.0;
    Cycle cycles = 0;       //!< simulated cycles (0 when not run)
    std::uint64_t eventsExecuted = 0;  //!< engine events of the run
    double hostEventsPerSec = 0.0;     //!< host-varying throughput
    /** Slab-arena high-water mark of the run (slots, deterministic). */
    std::uint64_t arenaPeakSlots = 0;
    std::string reportFile; //!< tree-relative path; empty when not run
    std::vector<std::string> warnings; //!< RunStats.warnings of the run
};

/** Knobs of one campaign execution. */
struct RunnerOptions
{
    /** Output tree root; reports land under <outDir>/reports/. */
    std::string outDir;
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /**
     * Per-point wall-clock budget in seconds; a point whose run
     * exceeds it is recorded as kTimeout (the report is still
     * written — the model cannot be preempted mid-run, so the budget
     * is judged when the point completes). 0 disables.
     */
    double pointTimeoutSeconds = 0.0;
    /** Stream for live progress lines; null silences progress. */
    std::FILE *progress = stderr;
    /**
     * Periodic heartbeat interval in seconds; 0 (the default)
     * disables. When set, a monitor emits one status line to
     * @ref progress every interval — points done, elapsed, ETA —
     * even while every worker is deep inside a long point, so an
     * unattended sweep is distinguishable from a hung one.
     */
    double heartbeatSeconds = 0.0;
};

/** Result of runCampaign. */
struct CampaignResult
{
    std::vector<PointOutcome> outcomes; //!< one per spec point
    double wallSeconds = 0.0;           //!< whole-campaign wall time
    unsigned jobs = 0;                  //!< workers actually used

    std::size_t countWithStatus(PointStatus status) const;
};

/**
 * Execute every point of @p spec under @p options and write the
 * report tree:
 *
 *   <outDir>/campaign_manifest.json
 *   <outDir>/reports/<point label>.json
 *
 * Points are claimed from an atomic cursor, so completion order is
 * nondeterministic — but report contents and the manifest's
 * deterministic fields are not (see file comment).
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           const RunnerOptions &options);

/** Render the campaign manifest document (one JSON object + '\n'). */
std::string renderCampaignManifest(const CampaignSpec &spec,
                                   const CampaignResult &result);

} // namespace cachecraft::campaign

#endif // CACHECRAFT_CAMPAIGN_RUNNER_HPP
