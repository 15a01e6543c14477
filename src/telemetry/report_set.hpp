/**
 * @file
 * Report-tree reading and aggregation: the shared layer under
 * cachecraft_dashboard and cachecraft_diff's directory mode.
 *
 * A "report tree" is any directory of this project's JSON artifacts —
 * a CACHECRAFT_REPORT_DIR drop, or a cachecraft_sweep output tree
 * (campaign_manifest.json + reports/<point>.json). Trees may nest, so
 * listing is recursive and keyed by sorted *relative* paths ("/"-
 * separated on every platform), which is what makes two trees
 * comparable file by file.
 *
 * RunSummary extracts the fields the dashboard renders from one
 * cachecraft.run_report/1 document; non-run-report artifacts (bench
 * tables, perf-smoke dumps) are retained as `others` so a mixed tree
 * still loads.
 */

#ifndef CACHECRAFT_TELEMETRY_REPORT_SET_HPP
#define CACHECRAFT_TELEMETRY_REPORT_SET_HPP

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cachecraft::telemetry {

/**
 * Sorted tree-relative paths ("a.json", "reports/p000.json") of every
 * regular *.json file under @p dir, any depth. Separators are
 * normalized to '/' so orderings agree across platforms.
 */
std::vector<std::string> listJsonFilesRecursive(const std::string &dir);

/** One loaded artifact of a report tree. */
struct LoadedReport
{
    std::string path; //!< tree-relative path
    JsonValue doc;
};

/** Every artifact found under one report tree. */
struct ReportSet
{
    /** cachecraft.run_report/1 documents, sorted by relative path. */
    std::vector<LoadedReport> runs;
    /** Other parseable schema-bearing artifacts (tables, smoke dumps). */
    std::vector<LoadedReport> others;
    /** The campaign manifest, when the tree was written by
     *  cachecraft_sweep. */
    std::optional<JsonValue> campaignManifest;
    /** Per-file load problems (I/O, syntax, schema mismatch). */
    std::vector<std::string> errors;
};

/** Load every *.json under @p dir (recursive; see ReportSet). */
ReportSet loadReportTree(const std::string &dir);

/** One epoch-series point the dashboard can sparkline. */
struct EpochSample
{
    double cycleEnd = 0.0;
    double value = 0.0;
};

/** One (capacity, miss ratio) sample of a parsed miss-ratio curve. */
struct CurveSample
{
    double capacityBytes = 0.0;
    double missRatio = 0.0;
};

/** A per-kind aggregate curve from a report's "curves" section. */
struct KindCurveSummary
{
    std::string kind; //!< "mrc" or "l2"
    double caches = 0.0;
    double accesses = 0.0;
    std::vector<CurveSample> points;
};

/**
 * One cache's set-residency heatmap from the "curves" section:
 * occupancy[epoch][group] = lines resident in that set group at the
 * epoch boundary. Full when every set holds `ways` lines, so the
 * displayable fill fraction is value / (setsPerGroup * ways).
 */
struct HeatmapSummary
{
    std::string cache; //!< source slice name ("protect.slice0.mrc")
    double setsPerGroup = 0.0;
    double ways = 0.0;
    std::vector<std::vector<double>> occupancy;
};

/** The fields the dashboard renders from one run report. */
struct RunSummary
{
    std::string path; //!< tree-relative source file
    std::string scheme;
    std::string workload;
    std::string configSummary;

    double cycles = 0.0;
    double ipc = 0.0;
    double dramDataReads = 0.0;
    double dramDataWrites = 0.0;
    double dramEccReads = 0.0;
    double dramEccWrites = 0.0;
    double dramTotalTxns = 0.0;
    double rowHitRate = 0.0;
    double l2SectorHits = 0.0;
    double l2SectorMisses = 0.0;
    double mrcHitRate = 0.0;
    double mrcCoverage = 0.0;

    std::vector<std::string> warnings;
    /** (path segment, cycles) from the critical_path section, report
     *  order; empty when the run's flight recorder was off. */
    std::vector<std::pair<std::string, double>> criticalPathCycles;
    /** critical_path.metadata_fraction (0 when absent). */
    double metadataFraction = 0.0;
    /** Per-epoch "instructions" deltas (empty without sampling). */
    std::vector<EpochSample> instructionEpochs;
    /** Per-epoch "dram.total_txns"-style deltas (best effort). */
    std::vector<EpochSample> dramEpochs;
    /** Per-kind miss-ratio curves from the "curves" section, report
     *  order; empty when the run's reuse profiler was off. */
    std::vector<KindCurveSummary> kindCurves;
    /** Residency heatmap of the first profiled MRC slice (occupancy
     *  empty when the run carried no curves section). */
    HeatmapSummary mrcHeatmap;
};

/**
 * Extract a RunSummary from one cachecraft.run_report/1 document.
 * Returns std::nullopt (diagnostic in @p error) when @p doc is not a
 * run report.
 */
std::optional<RunSummary> summarizeRunReport(const JsonValue &doc,
                                             const std::string &path,
                                             std::string *error);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_REPORT_SET_HPP
