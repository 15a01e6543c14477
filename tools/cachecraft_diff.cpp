/**
 * @file
 * cachecraft_diff — compare two JSON artifacts (run reports, bench
 * tables, perf-smoke dumps) or two CACHECRAFT_REPORT_DIR trees, print
 * a per-metric delta table, and exit non-zero on regression. This is
 * the tool behind the CI perf gate.
 *
 *   cachecraft_diff BENCH_baseline.json new.json --tol 0.02
 *   cachecraft_diff old_reports/ new_reports/ --json delta.json
 *   cachecraft_diff a.json b.json --tol-metric results.cycles=0.005
 *
 * Exit codes: 0 = within tolerance, 1 = regression (metric beyond
 * tolerance or metric sets differ), 2 = usage/parse/schema error.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/report_set.hpp"

#include "tool_args.hpp"

using namespace cachecraft;
namespace fs = std::filesystem;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_diff — per-metric comparison of two JSON artifacts\n"
        "\n"
        "  cachecraft_diff BEFORE AFTER [options]\n"
        "\n"
        "BEFORE and AFTER are either two JSON files or two directories\n"
        "(e.g. CACHECRAFT_REPORT_DIR trees or cachecraft_sweep output\n"
        "trees); directories are walked recursively and compared\n"
        "pairwise by sorted tree-relative path.\n"
        "\n"
        "options:\n"
        "  --tol R             default relative tolerance (default 0:\n"
        "                      any change fails)\n"
        "  --tol-metric P=R    tolerance R for metrics with path\n"
        "                      prefix P (repeatable; longest prefix\n"
        "                      wins), e.g. results.cycles=0.01\n"
        "  --ignore PREFIX     drop metrics with this path prefix\n"
        "                      (repeatable; \"manifest.\" is always\n"
        "                      ignored — wall time and build id are\n"
        "                      expected to differ)\n"
        "  --all               show unchanged metrics in the table too\n"
        "  --json FILE         also write the delta as JSON\n"
        "\n"
        "exit codes: 0 ok, 1 regression, 2 usage/parse/schema error\n");
}

/** Parse one artifact file; exits 2 on I/O, syntax, or schema error. */
JsonValue
loadArtifact(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cachecraft_diff: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    auto doc = jsonParse(buf.str(), &error);
    if (!doc) {
        std::fprintf(stderr, "cachecraft_diff: %s: %s\n", path.c_str(),
                     error.c_str());
        std::exit(2);
    }
    if (!telemetry::checkSchemaVersion(*doc, path, &error)) {
        std::fprintf(stderr, "cachecraft_diff: %s\n", error.c_str());
        std::exit(2);
    }
    return std::move(*doc);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    telemetry::DiffTolerances tol;
    std::vector<std::string> ignore = {"manifest."};
    std::string json_out;
    bool changed_only = true;

    const ToolArgs args("cachecraft_diff", argc, argv, 2);

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--tol") {
            tol.defaultRel = args.real(i);
        } else if (flag == "--tol-metric") {
            const int flag_at = i;
            const std::string spec = args.value(i);
            const std::size_t eq = spec.rfind('=');
            std::optional<double> rel;
            if (eq != std::string::npos && eq > 0)
                rel = parseNonNegativeReal(
                    std::string_view(spec).substr(eq + 1));
            if (!rel)
                args.fail(flag_at, "wants PREFIX=TOL, got " + spec);
            tol.perPrefix.emplace_back(spec.substr(0, eq), *rel);
        } else if (flag == "--ignore") {
            ignore.push_back(args.value(i));
        } else if (flag == "--all") {
            changed_only = false;
        } else if (flag == "--json") {
            json_out = args.value(i);
        } else if (!flag.empty() && flag[0] == '-') {
            std::fprintf(stderr, "cachecraft_diff: unknown flag %s\n",
                         flag.c_str());
            return 2;
        } else {
            positional.push_back(flag);
        }
    }

    if (positional.size() != 2) {
        usage();
        return 2;
    }
    const std::string &before_path = positional[0];
    const std::string &after_path = positional[1];

    const bool dir_mode = fs::is_directory(before_path);
    if (dir_mode != fs::is_directory(after_path)) {
        std::fprintf(stderr,
                     "cachecraft_diff: %s and %s must both be files or "
                     "both be directories\n",
                     before_path.c_str(), after_path.c_str());
        return 2;
    }

    // Directory mode folds each per-file comparison into one combined
    // result by prefixing metric paths with the tree-relative file
    // path. Listing is recursive and '/'-separated on every platform,
    // so nested trees (e.g. a cachecraft_sweep output with its
    // reports/ subdirectory) compare file by file in a stable order.
    telemetry::DiffResult result;
    if (dir_mode) {
        const auto before_files =
            telemetry::listJsonFilesRecursive(before_path);
        const auto after_files =
            telemetry::listJsonFilesRecursive(after_path);
        for (const std::string &name : before_files) {
            const bool matched =
                std::find(after_files.begin(), after_files.end(), name) !=
                after_files.end();
            if (!matched) {
                result.onlyBefore.push_back(name);
                continue;
            }
            const JsonValue before =
                loadArtifact((fs::path(before_path) / name).string());
            const JsonValue after =
                loadArtifact((fs::path(after_path) / name).string());
            telemetry::DiffResult one =
                telemetry::diffReports(before, after, tol, ignore);
            for (telemetry::DiffEntry &e : one.entries) {
                e.metric = name + ":" + e.metric;
                result.entries.push_back(std::move(e));
            }
            for (const std::string &m : one.onlyBefore)
                result.onlyBefore.push_back(name + ":" + m);
            for (const std::string &m : one.onlyAfter)
                result.onlyAfter.push_back(name + ":" + m);
        }
        for (const std::string &name : after_files) {
            if (std::find(before_files.begin(), before_files.end(),
                          name) == before_files.end())
                result.onlyAfter.push_back(name);
        }
    } else {
        const JsonValue before = loadArtifact(before_path);
        const JsonValue after = loadArtifact(after_path);
        result = telemetry::diffReports(before, after, tol, ignore);
    }

    std::printf("%s", telemetry::renderMarkdown(result, changed_only)
                          .c_str());

    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out) {
            std::fprintf(stderr, "cachecraft_diff: cannot write %s\n",
                         json_out.c_str());
            return 2;
        }
        out << telemetry::renderDiffJson(result);
    }

    return result.regression() ? 1 : 0;
}
