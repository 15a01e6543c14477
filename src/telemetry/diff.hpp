/**
 * @file
 * Cross-run report comparison: the library behind cachecraft_diff and
 * the CI perf-regression gate.
 *
 * Works on any of this project's JSON artifacts (run reports, bench
 * tables, perf-smoke metric dumps): every numeric leaf is flattened to
 * a dotted path ("results.cycles", "stats.counters.dram.ch0.reads",
 * "rows[3][1]"), the two flat maps are joined by path, and each delta
 * is judged against a relative tolerance (a global default plus
 * longest-prefix per-metric overrides). A metric present on only one
 * side is a structural difference and fails the gate — refreshing the
 * committed baseline is the documented way to accept it (see
 * EXPERIMENTS.md).
 *
 * Both inputs must carry a "schema_version" equal to this build's
 * kJsonSchemaVersion; mismatches are refused rather than diffed. The
 * one exception is perfbench's result shape (see checkDiffable), which
 * has no schema_version: it is what the committed host-speed
 * trajectory (BENCH_<n>.json) holds.
 */

#ifndef CACHECRAFT_TELEMETRY_DIFF_HPP
#define CACHECRAFT_TELEMETRY_DIFF_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace cachecraft::telemetry {

/** Relative-tolerance policy for metric deltas. */
struct DiffTolerances
{
    /** Relative tolerance applied when no override matches. */
    double defaultRel = 0.0;
    /** (path prefix, tolerance) overrides; longest matching prefix
     *  wins. */
    std::vector<std::pair<std::string, double>> perPrefix;

    /** Tolerance for @p metric under longest-prefix matching. */
    double forMetric(const std::string &metric) const;
};

/** One compared metric. */
struct DiffEntry
{
    std::string metric;
    double before = 0.0;
    double after = 0.0;
    double delta = 0.0;    //!< after - before
    double relDelta = 0.0; //!< delta / |before| (0 when both are 0)
    double tol = 0.0;      //!< tolerance this metric was judged against
    bool beyondTol = false;
};

/** Outcome of comparing two artifacts. */
struct DiffResult
{
    std::vector<DiffEntry> entries; //!< joined metrics, sorted by path
    std::vector<std::string> onlyBefore; //!< paths missing after
    std::vector<std::string> onlyAfter;  //!< paths missing before

    /** True when any metric exceeded tolerance or the metric sets
     *  differ — the perf gate's failure condition. */
    bool regression() const;
};

/**
 * The ignore prefixes every consumer applies unless it overrides
 * them: "manifest." — wall time, hostname, jobs, and build id are
 * host-varying provenance, never metrics, so dropping them by default
 * means they cannot trip the CI perf gate. Pass an explicit list
 * (possibly empty) to compare manifests too.
 */
const std::vector<std::string> &defaultIgnorePrefixes();

/**
 * Flatten every numeric leaf of @p doc into sorted (dotted path,
 * value) pairs. Paths starting with any of @p ignore_prefixes are
 * dropped (default: defaultIgnorePrefixes()).
 */
std::vector<std::pair<std::string, double>>
flattenNumeric(const JsonValue &doc,
               const std::vector<std::string> &ignore_prefixes =
                   defaultIgnorePrefixes());

/**
 * Verify @p doc carries schema_version == kJsonSchemaVersion.
 * @param what label used in the error message (e.g. a file name).
 */
bool checkSchemaVersion(const JsonValue &doc, const std::string &what,
                        std::string *error);

/**
 * Accept @p doc for diffing: a perfbench result line ({"correct": bool,
 * "attempted", "failed", "metrics": {name: {"value": number, "unit"}}})
 * or a non-empty object whose members all are perfbench results (a
 * trajectory file keyed by side and workload); otherwise whatever
 * checkSchemaVersion accepts. @p what labels the error.
 */
bool checkDiffable(const JsonValue &doc, const std::string &what,
                   std::string *error);

/** Compare two artifacts. Inputs are assumed checkDiffable. */
DiffResult diffReports(const JsonValue &before, const JsonValue &after,
                       const DiffTolerances &tol,
                       const std::vector<std::string> &ignore_prefixes =
                           defaultIgnorePrefixes());

/**
 * Render the delta table as GitHub-flavored markdown. @p changed_only
 * elides rows whose delta is exactly zero (the common case for a
 * same-seed comparison).
 */
std::string renderMarkdown(const DiffResult &result,
                           bool changed_only = true);

/** Render the full result as one JSON object (schema_version'd). */
std::string renderDiffJson(const DiffResult &result);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_DIFF_HPP
