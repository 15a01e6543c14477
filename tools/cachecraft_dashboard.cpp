/**
 * @file
 * cachecraft_dashboard — render a report tree (a cachecraft_sweep
 * output or any CACHECRAFT_REPORT_DIR drop) as one self-contained
 * static HTML file: headline speedup bars, critical-path stacks,
 * epoch sparklines, MRC/traffic tables, and a warnings panel — all
 * inline SVG/CSS, no scripts, no network assets.
 *
 *   cachecraft_dashboard runs/e1 --out e1.html
 *   cachecraft_dashboard runs/e1 --out e1.html --baseline runs/e1_old
 *
 * With --baseline, a per-metric delta table (telemetry::diffReports,
 * manifest provenance excluded) is embedded too.
 *
 * Exit codes: 0 = rendered (warnings land in the HTML, not the exit
 * code), 2 = usage or I/O error.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "campaign/dashboard.hpp"
#include "telemetry/report_set.hpp"

#include "tool_args.hpp"

using namespace cachecraft;
namespace fs = std::filesystem;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_dashboard — static HTML dashboard for a report "
        "tree\n"
        "\n"
        "  cachecraft_dashboard REPORT_DIR --out FILE.html [options]\n"
        "\n"
        "options:\n"
        "  --out FILE          output HTML file (required)\n"
        "  --baseline DIR      second report tree; embeds a metric\n"
        "                      delta table vs it\n"
        "  --title STR         page title (default: \"CacheCraft\n"
        "                      dashboard\")\n"
        "\n"
        "exit codes: 0 rendered, 2 usage or I/O error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string report_dir;
    std::string out_path;
    std::string baseline_dir;
    campaign::DashboardOptions options;

    const ToolArgs args("cachecraft_dashboard", argc, argv, 2);

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--out") {
            out_path = args.value(i);
        } else if (flag == "--baseline") {
            baseline_dir = args.value(i);
        } else if (flag == "--title") {
            options.title = args.value(i);
        } else if (!flag.empty() && flag[0] == '-') {
            std::fprintf(stderr,
                         "cachecraft_dashboard: unknown flag %s\n",
                         flag.c_str());
            return 2;
        } else if (report_dir.empty()) {
            report_dir = flag;
        } else {
            std::fprintf(stderr,
                         "cachecraft_dashboard: unexpected argument "
                         "%s\n",
                         flag.c_str());
            return 2;
        }
    }

    if (report_dir.empty() || out_path.empty()) {
        usage();
        return 2;
    }
    if (!fs::is_directory(report_dir)) {
        std::fprintf(stderr,
                     "cachecraft_dashboard: %s is not a directory\n",
                     report_dir.c_str());
        return 2;
    }

    const telemetry::ReportSet reports =
        telemetry::loadReportTree(report_dir);
    telemetry::ReportSet baseline;
    if (!baseline_dir.empty()) {
        if (!fs::is_directory(baseline_dir)) {
            std::fprintf(stderr,
                         "cachecraft_dashboard: baseline %s is not a "
                         "directory\n",
                         baseline_dir.c_str());
            return 2;
        }
        baseline = telemetry::loadReportTree(baseline_dir);
        options.baseline = &baseline;
        options.baselineLabel = baseline_dir;
    }

    const std::string html =
        campaign::renderDashboard(reports, options);
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr,
                     "cachecraft_dashboard: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << html;
    std::printf("cachecraft_dashboard: %zu run reports -> %s "
                "(%zu bytes)\n",
                reports.runs.size(), out_path.c_str(), html.size());
    return 0;
}
