/**
 * @file
 * Tests for the dashboard renderer (src/campaign/dashboard) and the
 * report-tree layer under it (src/telemetry/report_set): HTML/SVG
 * attribute escaping, recursive tree listing with sorted relative
 * paths, run-report summarization, deterministic rendering, and the
 * warnings / baseline-delta sections.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/dashboard.hpp"
#include "common/json.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/report_set.hpp"

namespace cachecraft {
namespace {

namespace fs = std::filesystem;

using campaign::DashboardOptions;
using campaign::htmlEscape;
using campaign::renderDashboard;
using telemetry::ReportSet;

/**
 * A minimal but section-complete run report document. Its "profile"
 * object is the legacy stall-taxonomy shape older reports carry: it
 * must still load (and is ignored), with no schema bump.
 */
std::string
runReportText(const std::string &workload, const std::string &scheme,
              double cycles, const std::string &warning = "")
{
    std::ostringstream os;
    os << R"({"schema": "cachecraft.run_report/1", "schema_version": )"
       << kJsonSchemaVersion << ","
       << R"("manifest": {"workload": ")" << workload
       << R"(", "wall_seconds": 0, "jobs": 1, "hostname": "h"},)"
       << R"("config": {"scheme": ")" << scheme
       << R"(", "summary": ")" << scheme << R"( test config"},)"
       << R"("results": {"cycles": )" << cycles
       << R"(, "ipc": 1.5, "dram_data_reads": 100,
             "dram_data_writes": 50, "dram_ecc_reads": 10,
             "dram_ecc_writes": 5, "dram_total_txns": 165,
             "row_hit_rate": 0.75, "l2_sector_hits": 800,
             "l2_sector_misses": 200, "mrc_hit_rate": 0.9,
             "mrc_coverage": 0.6},)"
       << R"("warnings": [)"
       << (warning.empty() ? "" : "\"" + warning + "\"") << "],"
       << R"("profile": {"stalls": {
             "row_miss": {"cycles": 300, "events": 30},
             "mshr_full": {"cycles": 120, "events": 12}}},)"
       << R"("critical_path": {"requests": 40, "incomplete_requests": 0,
             "total_latency_cycles": 1000, "metadata_fraction": 0.25,
             "segments": {"data_fetch": 500, "meta_fetch": 150,
                          "mrc_wait": 100, "xbar_transit": 250}},)"
       << R"("epochs": [
             {"epoch": 0, "cycle_start": 0, "cycle_end": 1000,
              "deltas": {"sm0.insts": 40, "dram.ch0.reads": 9}},
             {"epoch": 1, "cycle_start": 1000, "cycle_end": 2000,
              "deltas": {"sm0.insts": 60, "dram.ch0.reads": 4}}]})";
    return os.str();
}

/** Write @p text to @p path, creating parent directories. */
void
writeFile(const fs::path &path, const std::string &text)
{
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

// --------------------------------------------------------------------
// htmlEscape
// --------------------------------------------------------------------

TEST(HtmlEscapeTest, EscapesMarkupAndAttributeMetacharacters)
{
    EXPECT_EQ(htmlEscape("a<b&\"c'>d"),
              "a&lt;b&amp;&quot;c&#39;&gt;d");
    EXPECT_EQ(htmlEscape(""), "");
    EXPECT_EQ(htmlEscape("plain-text_123"), "plain-text_123");
}

TEST(HtmlEscapeTest, EscapedTextIsInertInAttributeContext)
{
    // A hostile workload name must not escape a double-quoted
    // attribute or open a tag.
    const std::string hostile =
        R"raw("onload="alert(1)" x="<svg onload=evil>)raw";
    const std::string escaped = htmlEscape(hostile);
    EXPECT_EQ(escaped.find('"'), std::string::npos);
    EXPECT_EQ(escaped.find('<'), std::string::npos);
    EXPECT_EQ(escaped.find('>'), std::string::npos);
}

// --------------------------------------------------------------------
// Recursive tree listing (also the cachecraft_diff tree-mode pin)
// --------------------------------------------------------------------

TEST(ReportSetTest, ListsJsonFilesRecursivelyWithSortedRelativePaths)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "report_set_recursive";
    fs::remove_all(root);
    writeFile(root / "zz.json", "{}");
    writeFile(root / "reports" / "b.json", "{}");
    writeFile(root / "reports" / "a.json", "{}");
    writeFile(root / "reports" / "deep" / "c.json", "{}");
    writeFile(root / "not_json.txt", "x");

    const std::vector<std::string> files =
        telemetry::listJsonFilesRecursive(root.string());
    const std::vector<std::string> expected = {
        "reports/a.json", "reports/b.json", "reports/deep/c.json",
        "zz.json"};
    EXPECT_EQ(files, expected);
}

TEST(ReportSetTest, MissingDirectoryListsNothing)
{
    EXPECT_TRUE(telemetry::listJsonFilesRecursive(
                    (fs::path(::testing::TempDir()) / "no_such_dir")
                        .string())
                    .empty());
}

TEST(ReportSetTest, LoadRoutesSchemasAndCollectsErrors)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "report_set_load";
    fs::remove_all(root);
    writeFile(root / "reports" / "run.json",
              runReportText("streaming", "cachecraft", 1000));
    writeFile(root / "broken.json", "{not json");
    writeFile(root / "old.json", R"({"schema_version": 1})");

    const ReportSet set = telemetry::loadReportTree(root.string());
    ASSERT_EQ(set.runs.size(), 1u);
    EXPECT_EQ(set.runs[0].path, "reports/run.json");
    EXPECT_EQ(set.errors.size(), 2u);
}

TEST(ReportSetTest, SummarizeExtractsTheDashboardFields)
{
    auto doc = jsonParse(runReportText("gemm", "ecc-cache", 5000,
                                       "mrc overflow"));
    ASSERT_TRUE(doc.has_value());
    std::string error;
    auto s = telemetry::summarizeRunReport(*doc, "x.json", &error);
    ASSERT_TRUE(s.has_value()) << error;
    EXPECT_EQ(s->workload, "gemm");
    EXPECT_EQ(s->scheme, "ecc-cache");
    EXPECT_DOUBLE_EQ(s->cycles, 5000.0);
    EXPECT_DOUBLE_EQ(s->mrcHitRate, 0.9);
    ASSERT_EQ(s->warnings.size(), 1u);
    ASSERT_EQ(s->criticalPathCycles.size(), 4u);
    EXPECT_EQ(s->criticalPathCycles[0].first, "data_fetch");
    EXPECT_DOUBLE_EQ(s->criticalPathCycles[0].second, 500.0);
    EXPECT_EQ(s->criticalPathCycles[2].first, "mrc_wait");
    EXPECT_DOUBLE_EQ(s->criticalPathCycles[2].second, 100.0);
    EXPECT_DOUBLE_EQ(s->metadataFraction, 0.25);
    ASSERT_EQ(s->instructionEpochs.size(), 2u);
    EXPECT_DOUBLE_EQ(s->instructionEpochs[1].value, 60.0);
    ASSERT_EQ(s->dramEpochs.size(), 2u);
    EXPECT_DOUBLE_EQ(s->dramEpochs[0].value, 9.0);
}

/** A "curves" section as the reuse profiler writes it (one MRC). */
std::string
curvesSectionText()
{
    return R"("curves": {
      "options": {"max_assoc": 4, "set_groups": 2,
                  "epoch_accesses": 4096, "retain_stream": false},
      "caches": [
        {"name": "protect.slice0.mrc", "kind": "mrc", "num_sets": 4,
         "ways": 2, "line_bytes": 32, "sectors_per_line": 8,
         "accesses": 100, "cold_misses": 10,
         "curve": [
           {"ways": 1, "capacity_bytes": 128, "misses": 60,
            "miss_ratio": 0.6},
           {"ways": 2, "capacity_bytes": 256, "misses": 30,
            "miss_ratio": 0.3}],
         "heatmap": {"sets_per_group": 2, "groups": 2,
                     "epoch_accesses": 4096,
                     "accesses": [[50, 30], [10, 10]],
                     "occupancy": [[4, 3], [4, 4]]},
         "sector_locality": [0, 5, 9]}],
      "kinds": [
        {"kind": "mrc", "caches": 1, "num_sets": 4, "line_bytes": 32,
         "accesses": 100, "cold_misses": 10,
         "curve": [
           {"ways": 1, "capacity_bytes": 128, "misses": 60,
            "miss_ratio": 0.6},
           {"ways": 2, "capacity_bytes": 256, "misses": 30,
            "miss_ratio": 0.3}]}]})";
}

/** runReportText with a trailing "curves" section spliced in. */
std::string
curvedRunReportText(const std::string &workload,
                    const std::string &scheme, double cycles)
{
    std::string text = runReportText(workload, scheme, cycles);
    text.insert(text.size() - 1, "," + curvesSectionText());
    return text;
}

// --------------------------------------------------------------------
// Loader edge cases
// --------------------------------------------------------------------

TEST(ReportSetTest, EmptyDirectoryLoadsAnEmptySet)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "report_set_empty";
    fs::remove_all(root);
    fs::create_directories(root);
    const ReportSet set = telemetry::loadReportTree(root.string());
    EXPECT_TRUE(set.runs.empty());
    EXPECT_TRUE(set.others.empty());
    EXPECT_TRUE(set.errors.empty());
    EXPECT_FALSE(set.campaignManifest.has_value());
}

TEST(ReportSetTest, NonReportJsonIsRetainedAsOtherNotAnError)
{
    const fs::path root =
        fs::path(::testing::TempDir()) / "report_set_other";
    fs::remove_all(root);
    std::ostringstream table;
    table << R"({"schema": "cachecraft.result_table/1",)"
          << R"("schema_version": )" << kJsonSchemaVersion
          << R"(, "rows": [["a", "1"]]})";
    writeFile(root / "table.json", table.str());

    const ReportSet set = telemetry::loadReportTree(root.string());
    EXPECT_TRUE(set.runs.empty());
    ASSERT_EQ(set.others.size(), 1u);
    EXPECT_EQ(set.others[0].path, "table.json");
    EXPECT_TRUE(set.errors.empty());

    // summarizeRunReport must refuse it with a diagnostic, not parse
    // garbage fields out of it.
    std::string error;
    const auto s = telemetry::summarizeRunReport(set.others[0].doc,
                                                 "table.json", &error);
    EXPECT_FALSE(s.has_value());
    EXPECT_NE(error.find("table.json"), std::string::npos);
}

TEST(ReportSetTest, DuplicateRelativePathsDiffDeterministically)
{
    // A hand-built (or symlink-aliased) set can carry the same
    // relative path twice. The baseline join consumes each baseline
    // doc once, so the duplicate surfaces as a structural difference
    // instead of being double-compared — and rendering stays
    // deterministic.
    ReportSet current;
    auto add = [&current](const std::string &text) {
        auto doc = jsonParse(text);
        ASSERT_TRUE(doc.has_value());
        current.runs.push_back(
            {"reports/dup.json", std::move(*doc)});
    };
    add(runReportText("streaming", "no-ecc", 1000));
    add(runReportText("streaming", "no-ecc", 2000));

    ReportSet baseline;
    auto doc = jsonParse(runReportText("streaming", "no-ecc", 1000));
    ASSERT_TRUE(doc.has_value());
    baseline.runs.push_back({"reports/dup.json", std::move(*doc)});

    DashboardOptions options;
    options.baseline = &baseline;
    options.baselineLabel = "base/";
    const std::string a = renderDashboard(current, options);
    const std::string b = renderDashboard(current, options);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("1 files compared"), std::string::npos);
    EXPECT_NE(a.find("only in this tree"), std::string::npos);
}

TEST(ReportSetTest, SummarizeParsesTheCurvesSection)
{
    auto doc =
        jsonParse(curvedRunReportText("gemm", "cachecraft", 4000));
    ASSERT_TRUE(doc.has_value());
    std::string error;
    const auto s =
        telemetry::summarizeRunReport(*doc, "c.json", &error);
    ASSERT_TRUE(s.has_value()) << error;

    ASSERT_EQ(s->kindCurves.size(), 1u);
    EXPECT_EQ(s->kindCurves[0].kind, "mrc");
    EXPECT_DOUBLE_EQ(s->kindCurves[0].accesses, 100.0);
    ASSERT_EQ(s->kindCurves[0].points.size(), 2u);
    EXPECT_DOUBLE_EQ(s->kindCurves[0].points[1].capacityBytes, 256.0);
    EXPECT_DOUBLE_EQ(s->kindCurves[0].points[1].missRatio, 0.3);

    EXPECT_EQ(s->mrcHeatmap.cache, "protect.slice0.mrc");
    EXPECT_DOUBLE_EQ(s->mrcHeatmap.setsPerGroup, 2.0);
    EXPECT_DOUBLE_EQ(s->mrcHeatmap.ways, 2.0);
    ASSERT_EQ(s->mrcHeatmap.occupancy.size(), 2u);
    EXPECT_EQ(s->mrcHeatmap.occupancy[1],
              (std::vector<double>{4.0, 4.0}));
}

TEST(ReportSetTest, RunsWithoutCurvesLeaveTheNewFieldsEmpty)
{
    auto doc = jsonParse(runReportText("gemm", "cachecraft", 4000));
    ASSERT_TRUE(doc.has_value());
    std::string error;
    const auto s =
        telemetry::summarizeRunReport(*doc, "c.json", &error);
    ASSERT_TRUE(s.has_value()) << error;
    EXPECT_TRUE(s->kindCurves.empty());
    EXPECT_TRUE(s->mrcHeatmap.occupancy.empty());
}

TEST(DiffIgnoreTest, CurvesSectionDropsUnderAnExplicitIgnorePrefix)
{
    // Trees profiled with different reuse settings should still be
    // comparable on their real metrics: "curves." as an ignore prefix
    // must drop the whole section, the same mechanism that drops
    // "manifest." provenance by default.
    auto before = jsonParse(runReportText("gemm", "cachecraft", 4000));
    auto after =
        jsonParse(curvedRunReportText("gemm", "cachecraft", 4000));
    ASSERT_TRUE(before.has_value());
    ASSERT_TRUE(after.has_value());

    const telemetry::DiffResult noisy = telemetry::diffReports(
        *before, *after, telemetry::DiffTolerances{});
    EXPECT_FALSE(noisy.onlyAfter.empty()); // curves.* is new

    std::vector<std::string> ignore =
        telemetry::defaultIgnorePrefixes();
    ignore.push_back("curves.");
    const telemetry::DiffResult clean = telemetry::diffReports(
        *before, *after, telemetry::DiffTolerances{}, ignore);
    EXPECT_TRUE(clean.onlyAfter.empty());
    EXPECT_FALSE(clean.regression());
}

// --------------------------------------------------------------------
// Dashboard rendering
// --------------------------------------------------------------------

ReportSet
twoRunSet()
{
    ReportSet set;
    auto add = [&set](const std::string &path,
                      const std::string &text) {
        auto doc = jsonParse(text);
        EXPECT_TRUE(doc.has_value());
        set.runs.push_back({path, std::move(*doc)});
    };
    add("reports/p000_streaming_no-ecc.json",
        runReportText("streaming", "no-ecc", 1000));
    add("reports/p001_streaming_cachecraft.json",
        runReportText("streaming", "cachecraft", 1250,
                      "mrc<overflow> & retried"));
    return set;
}

TEST(DashboardTest, RendersAllSectionsSelfContained)
{
    const std::string html =
        renderDashboard(twoRunSet(), DashboardOptions{});
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("Headline speedup"), std::string::npos);
    EXPECT_NE(html.find("Critical path"), std::string::npos);
    EXPECT_NE(html.find("DRAM traffic"), std::string::npos);
    EXPECT_NE(html.find("<polyline"), std::string::npos); // sparkline
    // The warning is present — escaped, never as raw markup.
    EXPECT_NE(html.find("mrc&lt;overflow&gt; &amp; retried"),
              std::string::npos);
    EXPECT_EQ(html.find("mrc<overflow>"), std::string::npos);
    // Self-contained: no scripts, no external fetches.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
}

TEST(DashboardTest, RenderingIsDeterministic)
{
    const std::string a =
        renderDashboard(twoRunSet(), DashboardOptions{});
    const std::string b =
        renderDashboard(twoRunSet(), DashboardOptions{});
    EXPECT_EQ(a, b);
}

TEST(DashboardTest, EmptyTreeStillRenders)
{
    const std::string html =
        renderDashboard(ReportSet{}, DashboardOptions{});
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("0 run reports"), std::string::npos);
    EXPECT_NE(html.find("No warnings"), std::string::npos);
}

TEST(DashboardTest, CurvePanelsAppearOnlyWhenARunCarriesCurves)
{
    // Without curves: neither panel.
    const std::string plain =
        renderDashboard(twoRunSet(), DashboardOptions{});
    EXPECT_EQ(plain.find("MRC miss-ratio curves"), std::string::npos);
    EXPECT_EQ(plain.find("MRC set residency"), std::string::npos);

    // With a curves section: both panels, with the run's data in them.
    ReportSet set = twoRunSet();
    auto doc = jsonParse(
        curvedRunReportText("streaming", "cachecraft", 1250));
    ASSERT_TRUE(doc.has_value());
    set.runs[1].doc = std::move(*doc);
    const std::string html = renderDashboard(set, DashboardOptions{});
    EXPECT_NE(html.find("MRC miss-ratio curves"), std::string::npos);
    EXPECT_NE(html.find("MRC set residency"), std::string::npos);
    EXPECT_NE(html.find("svg class=\"heatmap\""), std::string::npos);
    EXPECT_NE(html.find("protect.slice0.mrc"), std::string::npos);
}

TEST(DashboardTest, HostileNamesStayEscapedInCellsAndSvgTitles)
{
    // Regression guard for every interpolation path: a workload or
    // scheme name full of markup must reach table cells, SVG <title>
    // tooltips, and the new curve/heatmap captions escaped, never as
    // raw tags. The raw sequences below must not appear anywhere.
    const std::string hostile_workload = "str<eam>&\"ing'";
    const std::string hostile_warning = "<svg onload=evil> & \"q\"";
    ReportSet set;
    auto add = [&set](const std::string &path,
                      const std::string &text) {
        auto doc = jsonParse(text);
        ASSERT_TRUE(doc.has_value());
        set.runs.push_back({path, std::move(*doc)});
    };
    // JSON-escape the quotes when splicing into the document.
    std::string workload_json = "str<eam>&\\\"ing'";
    std::string warning_json = "<svg onload=evil> & \\\"q\\\"";
    add("reports/a<b>.json",
        runReportText(workload_json, "no-ecc", 1000));
    add("reports/p1.json",
        runReportText(workload_json, "cachecraft", 1250,
                      warning_json));
    {
        // And hostile content in a curves section's cache name, which
        // flows into the heatmap caption.
        std::string text =
            curvedRunReportText(workload_json, "ecc-cache", 1100);
        const std::string from = "protect.slice0.mrc";
        for (std::size_t at = text.find(from);
             at != std::string::npos; at = text.find(from))
            text.replace(at, from.size(), "mrc<slice>&0");
        add("reports/p2.json", text);
    }

    DashboardOptions options;
    options.title = "t<i>tle & \"quotes\"";
    const std::string html = renderDashboard(set, options);

    EXPECT_EQ(html.find(hostile_workload), std::string::npos);
    EXPECT_EQ(html.find(hostile_warning), std::string::npos);
    EXPECT_EQ(html.find("mrc<slice>"), std::string::npos);
    EXPECT_EQ(html.find("t<i>tle"), std::string::npos);
    EXPECT_EQ(html.find("<svg onload"), std::string::npos);
    // The escaped forms are present (content survives, inert).
    EXPECT_NE(html.find("str&lt;eam&gt;&amp;&quot;ing&#39;"),
              std::string::npos);
    EXPECT_NE(html.find("mrc&lt;slice&gt;&amp;0"), std::string::npos);
    // Still well-formed enough to be self-contained.
    EXPECT_EQ(html.find("<script"), std::string::npos);
}

TEST(DashboardTest, CampaignFailuresSurfaceInTheWarningsPanel)
{
    ReportSet set = twoRunSet();
    auto manifest = jsonParse(R"({
      "schema": "cachecraft.campaign_manifest/1", "schema_version": 3,
      "name": "m", "spec_hash": "crc32c:00000000",
      "failed_points": 1, "timeout_points": 0,
      "points": [
        {"label": "p002_streaming_bogus", "status": "failed",
         "error": "unknown scheme \"bogus\""}
      ]})");
    ASSERT_TRUE(manifest.has_value());
    set.campaignManifest = std::move(*manifest);

    const std::string html =
        renderDashboard(set, DashboardOptions{});
    EXPECT_NE(html.find("p002_streaming_bogus"), std::string::npos);
    EXPECT_NE(html.find("[failed]"), std::string::npos);
    EXPECT_NE(html.find("unknown scheme &quot;bogus&quot;"),
              std::string::npos);
}

TEST(DashboardTest, BaselineSectionDiffsAndDropsManifestPaths)
{
    const ReportSet current = twoRunSet();
    ReportSet baseline = twoRunSet();
    // Perturb one metric and one manifest field in the baseline.
    {
        auto doc = jsonParse(
            runReportText("streaming", "no-ecc", 900));
        ASSERT_TRUE(doc.has_value());
        baseline.runs[0].doc = std::move(*doc);
    }

    DashboardOptions options;
    options.baseline = &baseline;
    options.baselineLabel = "old/";
    const std::string html = renderDashboard(current, options);
    EXPECT_NE(html.find("Delta vs baseline"), std::string::npos);
    EXPECT_NE(html.find("results.cycles"), std::string::npos);

    // A tree differing only under "manifest." diffs clean: the
    // default ignore prefixes drop provenance before comparison.
    ReportSet same = twoRunSet();
    {
        std::string text = runReportText("streaming", "no-ecc", 1000);
        const std::string from = R"("wall_seconds": 0)";
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos);
        text.replace(at, from.size(), R"("wall_seconds": 99.5)");
        auto doc = jsonParse(text);
        ASSERT_TRUE(doc.has_value());
        same.runs[0].doc = std::move(*doc);
    }
    DashboardOptions clean_options;
    clean_options.baseline = &same;
    clean_options.baselineLabel = "same/";
    const std::string clean = renderDashboard(current, clean_options);
    EXPECT_NE(clean.find("No metric differs"), std::string::npos);
}

} // namespace
} // namespace cachecraft
