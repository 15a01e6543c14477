/**
 * @file
 * Self-contained HTML dashboard rendering for report trees.
 *
 * renderDashboard() turns one loaded report tree (see
 * telemetry/report_set.hpp) into a single static HTML document with
 * every asset inline — CSS, inline SVG charts, tables — so the file
 * can be opened from disk or attached to CI with zero network access.
 *
 * Sections, in order: headline stat tiles and per-workload speedup
 * bars (normalized to the same workload's "no-ecc" run when present),
 * stacked critical-path bars from each report's critical_path section,
 * a run table with epoch-series sparklines, MRC hit-rate and DRAM
 * traffic tables, a warnings panel (run warnings, campaign-manifest
 * failures, tree load errors), and — when a baseline tree is given —
 * a metric delta table built with telemetry::diffReports.
 *
 * Rendering is deterministic: inputs are consumed in sorted
 * relative-path order and all numbers are formatted with fixed
 * snprintf patterns, so the same tree always produces byte-identical
 * HTML (pinned by the CI campaign-smoke job).
 */

#ifndef CACHECRAFT_CAMPAIGN_DASHBOARD_HPP
#define CACHECRAFT_CAMPAIGN_DASHBOARD_HPP

#include <string>
#include <string_view>

#include "telemetry/report_set.hpp"

namespace cachecraft::campaign {

/**
 * Escape @p text for HTML text and double-quoted attribute contexts
 * (also valid inside SVG): & < > " ' become character references.
 */
std::string htmlEscape(std::string_view text);

/** Inputs of one dashboard rendering. */
struct DashboardOptions
{
    /** Page title / <h1>. */
    std::string title = "CacheCraft dashboard";
    /** Optional baseline tree; enables the metric-delta section. */
    const telemetry::ReportSet *baseline = nullptr;
    /** Label for the baseline (e.g. its directory path). */
    std::string baselineLabel;
};

/** Render the whole dashboard as one HTML document. */
std::string renderDashboard(const telemetry::ReportSet &reports,
                            const DashboardOptions &options);

} // namespace cachecraft::campaign

#endif // CACHECRAFT_CAMPAIGN_DASHBOARD_HPP
