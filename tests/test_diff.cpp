/**
 * @file
 * Tests for the cross-run diff library behind cachecraft_diff and the
 * CI perf gate: the JSON parser, numeric-leaf flattening, tolerance
 * policy, schema-version checking, and the regression verdict that
 * the CLI maps to its exit code (0 ok / 1 regression). The CLI
 * binary's actual exit codes are exercised end to end by the
 * perf_gate_check ctest script.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/json.hpp"
#include "common/log.hpp"
#include "telemetry/diff.hpp"

namespace cachecraft {
namespace {

using telemetry::DiffResult;
using telemetry::DiffTolerances;

// --------------------------------------------------------------------
// JSON parser (DOM side of common/json)
// --------------------------------------------------------------------

TEST(JsonParse, ParsesScalarsAndContainers)
{
    const auto doc = jsonParse(
        R"({"a": 1.5, "b": [true, false, null, "x\n\"y\""], "c": {}})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->asNumber(), 1.5);

    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->asArray().size(), 4u);
    EXPECT_TRUE(b->asArray()[0].asBool());
    EXPECT_TRUE(b->asArray()[2].isNull());
    EXPECT_EQ(b->asArray()[3].asString(), "x\n\"y\"");

    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("neg").value(std::int64_t{-42});
    w.key("pi").value(3.25);
    w.key("esc").value("tab\there");
    w.endObject();

    const auto doc = jsonParse(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->find("neg")->asNumber(), -42.0);
    EXPECT_DOUBLE_EQ(doc->find("pi")->asNumber(), 3.25);
    EXPECT_EQ(doc->find("esc")->asString(), "tab\there");
}

TEST(JsonParse, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(jsonParse("{", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(jsonParse("[1 2]").has_value());
    EXPECT_FALSE(jsonParse("{\"a\": 1,}").has_value());
    EXPECT_FALSE(jsonParse("{} extra").has_value());
    EXPECT_FALSE(jsonParse("").has_value());
}

// --------------------------------------------------------------------
// Flattening and tolerance policy
// --------------------------------------------------------------------

TEST(FlattenNumeric, DottedPathsArraysAndIgnores)
{
    const auto doc = jsonParse(
        R"({"m": {"x": 1, "skip": "str"}, "arr": [2, {"y": 3}],)"
        R"( "manifest": {"wall": 9}, "flag": true})");
    ASSERT_TRUE(doc.has_value());

    const auto flat = telemetry::flattenNumeric(*doc, {"manifest."});
    ASSERT_EQ(flat.size(), 4u); // sorted: arr[0], arr[1].y, flag, m.x
    EXPECT_EQ(flat[0].first, "arr[0]");
    EXPECT_DOUBLE_EQ(flat[0].second, 2.0);
    EXPECT_EQ(flat[1].first, "arr[1].y");
    EXPECT_EQ(flat[2].first, "flag");
    EXPECT_DOUBLE_EQ(flat[2].second, 1.0);
    EXPECT_EQ(flat[3].first, "m.x");
}

TEST(FlattenNumeric, DefaultIgnoreDropsManifestProvenance)
{
    // The shipped default: "manifest." (wall time, hostname, jobs,
    // build id) never reaches the perf gate or a tree diff unless a
    // caller passes an explicit ignore list.
    ASSERT_EQ(telemetry::defaultIgnorePrefixes().size(), 1u);
    EXPECT_EQ(telemetry::defaultIgnorePrefixes()[0], "manifest.");

    const auto doc = jsonParse(
        R"({"results": {"cycles": 7},)"
        R"( "manifest": {"wall_seconds": 3.2, "jobs": 8}})");
    ASSERT_TRUE(doc.has_value());
    const auto flat = telemetry::flattenNumeric(*doc);
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].first, "results.cycles");

    // An explicit empty list compares manifests too.
    EXPECT_EQ(telemetry::flattenNumeric(*doc, {}).size(), 3u);
}

TEST(DiffTolerances, LongestPrefixWins)
{
    DiffTolerances tol;
    tol.defaultRel = 0.5;
    tol.perPrefix.emplace_back("stats.", 0.1);
    tol.perPrefix.emplace_back("stats.dram.", 0.01);

    EXPECT_DOUBLE_EQ(tol.forMetric("results.cycles"), 0.5);
    EXPECT_DOUBLE_EQ(tol.forMetric("stats.l2.hits"), 0.1);
    EXPECT_DOUBLE_EQ(tol.forMetric("stats.dram.reads"), 0.01);
}

// --------------------------------------------------------------------
// Diff verdicts (the CLI exit code is regression() ? 1 : 0)
// --------------------------------------------------------------------

JsonValue
parseOrDie(const std::string &text)
{
    std::string err;
    auto doc = jsonParse(text, &err);
    EXPECT_TRUE(doc.has_value()) << err;
    return std::move(*doc);
}

TEST(Diff, IdenticalReportsAreCleanAndZeroDelta)
{
    const std::string text =
        R"({"results": {"cycles": 1000, "ipc": 0.5}})";
    const DiffResult r = telemetry::diffReports(
        parseOrDie(text), parseOrDie(text), DiffTolerances{});
    EXPECT_FALSE(r.regression());
    ASSERT_EQ(r.entries.size(), 2u);
    for (const auto &e : r.entries) {
        EXPECT_DOUBLE_EQ(e.delta, 0.0);
        EXPECT_FALSE(e.beyondTol);
    }
    EXPECT_TRUE(r.onlyBefore.empty());
    EXPECT_TRUE(r.onlyAfter.empty());
}

TEST(Diff, PerturbationBeyondToleranceRegresses)
{
    const auto before = parseOrDie(R"({"cycles": 1000})");
    const auto after = parseOrDie(R"({"cycles": 1100})");

    DiffTolerances strict; // default 0: any change fails
    const DiffResult fail =
        telemetry::diffReports(before, after, strict);
    EXPECT_TRUE(fail.regression());
    ASSERT_EQ(fail.entries.size(), 1u);
    EXPECT_DOUBLE_EQ(fail.entries[0].relDelta, 0.1);
    EXPECT_TRUE(fail.entries[0].beyondTol);

    DiffTolerances loose;
    loose.defaultRel = 0.2; // 10% move is within a 20% tolerance
    EXPECT_FALSE(
        telemetry::diffReports(before, after, loose).regression());
}

TEST(Diff, MissingMetricIsAStructuralRegression)
{
    const auto before = parseOrDie(R"({"a": 1, "b": 2})");
    const auto after = parseOrDie(R"({"a": 1, "c": 3})");
    DiffTolerances loose;
    loose.defaultRel = 100.0;
    const DiffResult r = telemetry::diffReports(before, after, loose);
    EXPECT_TRUE(r.regression());
    ASSERT_EQ(r.onlyBefore.size(), 1u);
    EXPECT_EQ(r.onlyBefore[0], "b");
    ASSERT_EQ(r.onlyAfter.size(), 1u);
    EXPECT_EQ(r.onlyAfter[0], "c");
}

TEST(Diff, ZeroBaselineUsesInfiniteRelDelta)
{
    const auto before = parseOrDie(R"({"faults": 0})");
    const auto after = parseOrDie(R"({"faults": 1})");
    DiffTolerances loose;
    loose.defaultRel = 1e6; // even huge tolerances reject 0 -> nonzero
    const DiffResult r = telemetry::diffReports(before, after, loose);
    EXPECT_TRUE(r.regression());
}

// --------------------------------------------------------------------
// Schema versioning
// --------------------------------------------------------------------

TEST(Diff, SchemaVersionAcceptsCurrentBuild)
{
    const auto doc = parseOrDie(
        strCat("{\"schema_version\": ", kJsonSchemaVersion, "}"));
    std::string err;
    EXPECT_TRUE(telemetry::checkSchemaVersion(doc, "x.json", &err))
        << err;
}

TEST(Diff, SchemaVersionMismatchIsDescriptive)
{
    const auto doc = parseOrDie(
        strCat("{\"schema_version\": ", kJsonSchemaVersion + 1, "}"));
    std::string err;
    EXPECT_FALSE(telemetry::checkSchemaVersion(doc, "new.json", &err));
    EXPECT_NE(err.find("new.json"), std::string::npos);
    EXPECT_NE(err.find("schema_version"), std::string::npos);
}

TEST(Diff, MissingSchemaVersionIsRejected)
{
    const auto doc = parseOrDie(R"({"results": {}})");
    std::string err;
    EXPECT_FALSE(telemetry::checkSchemaVersion(doc, "old.json", &err));
    EXPECT_NE(err.find("missing schema_version"), std::string::npos);
}

// --------------------------------------------------------------------
// perfbench result lines (the host-speed trajectory)
// --------------------------------------------------------------------

/** A perfbench result line with the given host_s. */
JsonValue
benchLine(double host_s)
{
    return parseOrDie(strCat(
        R"({"correct": true, "attempted": 4, "failed": 0, "metrics": {)",
        R"("host_s": {"value": )", host_s, R"(, "unit": "s"},)",
        R"("sim_cycles": {"value": 6505208, "unit": "cycles"}}})"));
}

TEST(Diff, PerfbenchLinesNeedNoSchemaVersion)
{
    std::string err;
    EXPECT_TRUE(telemetry::checkDiffable(benchLine(7.0), "p.json", &err))
        << err;
    // A trajectory file: sides, then workloads, then result lines.
    const auto trajectory = parseOrDie(strCat(
        R"({"parent": {"gather": {"correct": true, "metrics": {}}},)",
        R"( "change": {"gather": {"correct": false, "metrics": {)",
        R"("host_s": {"value": 1, "unit": "s"}}}}})"));
    EXPECT_TRUE(telemetry::checkDiffable(trajectory, "t.json", &err))
        << err;

    // Near misses still need a schema_version.
    for (const char *text :
         {R"({"metrics": {"host_s": {"value": 1}}})",
          R"({"correct": true, "metrics": {"host_s": {"unit": "s"}}})",
          R"({"correct": true, "metrics": {"host_s": 1}})",
          R"({"parent": {"gather": {"correct": true, "metrics": {}}},)"
          R"( "host": "x"})",
          R"({})"}) {
        const auto doc = parseOrDie(text);
        err.clear();
        EXPECT_FALSE(telemetry::checkDiffable(doc, "n.json", &err)) << text;
        EXPECT_NE(err.find("missing schema_version"), std::string::npos);
    }
}

TEST(Diff, PerfbenchMetricMovedThirtyPercentIsJudgedByTolerance)
{
    const auto before = benchLine(10.0);
    const auto after = benchLine(13.0);
    DiffTolerances tol;
    tol.defaultRel = 0.5;
    DiffResult r = telemetry::diffReports(before, after, tol);
    EXPECT_FALSE(r.regression()); // cachecraft_diff exits 0
    ASSERT_EQ(r.entries.size(), 5u); // correct, attempted, failed, 2 values
    tol.defaultRel = 0.1;
    r = telemetry::diffReports(before, after, tol);
    EXPECT_TRUE(r.regression()); // cachecraft_diff exits 1
    for (const auto &e : r.entries) {
        EXPECT_EQ(e.beyondTol, e.metric == "metrics.host_s.value")
            << e.metric;
    }
}

// --------------------------------------------------------------------
// Renderings
// --------------------------------------------------------------------

TEST(Diff, MarkdownStatesTheVerdict)
{
    const auto before = parseOrDie(R"({"a": 1})");
    const auto same = telemetry::diffReports(before, before,
                                             DiffTolerances{});
    EXPECT_NE(telemetry::renderMarkdown(same).find("**OK**"),
              std::string::npos);

    const auto after = parseOrDie(R"({"a": 2})");
    const auto bad =
        telemetry::diffReports(before, after, DiffTolerances{});
    const std::string md = telemetry::renderMarkdown(bad);
    EXPECT_NE(md.find("**REGRESSION**"), std::string::npos);
    EXPECT_NE(md.find("| a |"), std::string::npos);
    EXPECT_NE(md.find("FAIL"), std::string::npos);
}

TEST(Diff, JsonRenderingIsValidAndVersioned)
{
    const auto before = parseOrDie(R"({"a": 1})");
    const auto after = parseOrDie(R"({"a": 2, "b": 1})");
    const auto r =
        telemetry::diffReports(before, after, DiffTolerances{});
    const std::string json = telemetry::renderDiffJson(r);

    std::string err;
    ASSERT_TRUE(jsonValidate(json, &err)) << err;
    const auto doc = parseOrDie(json);
    EXPECT_TRUE(telemetry::checkSchemaVersion(doc, "diff", &err));
    EXPECT_TRUE(doc.find("regression")->asBool());
    EXPECT_EQ(doc.find("only_after")->asArray().size(), 1u);
}

} // namespace
} // namespace cachecraft
