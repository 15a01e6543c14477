/**
 * @file
 * Tests for the campaign layer (src/campaign): spec parsing and
 * cartesian expansion, the structural-vs-value error model, the
 * worker-pool runner's byte-determinism across --jobs values, and
 * failure containment in the campaign manifest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "telemetry/report_set.hpp"

namespace cachecraft {
namespace {

namespace fs = std::filesystem;

using campaign::CampaignPoint;
using campaign::CampaignSpec;
using campaign::parseCampaignSpec;
using campaign::PointStatus;

constexpr const char *kTinySpec = R"({
  "schema": "cachecraft.campaign_spec/1",
  "name": "tiny",
  "base": { "footprint_mib": 1, "warps": 8, "mem_insts": 4, "seed": 7 },
  "grid": {
    "workload": ["streaming", "random"],
    "scheme": ["no-ecc", "cachecraft"]
  }
})";

CampaignSpec
parseOrDie(const std::string &text)
{
    std::string error;
    auto spec = parseCampaignSpec(text, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return spec ? std::move(*spec) : CampaignSpec();
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// --------------------------------------------------------------------
// Spec parsing and expansion
// --------------------------------------------------------------------

TEST(CampaignSpecTest, ExpandsCartesianGridInSpecOrder)
{
    const CampaignSpec spec = parseOrDie(kTinySpec);
    EXPECT_EQ(spec.name, "tiny");
    ASSERT_EQ(spec.points.size(), 4u);

    // First axis outermost, last axis fastest.
    EXPECT_EQ(spec.points[0].label, "p000_streaming_no-ecc");
    EXPECT_EQ(spec.points[1].label, "p001_streaming_cachecraft");
    EXPECT_EQ(spec.points[2].label, "p002_random_no-ecc");
    EXPECT_EQ(spec.points[3].label, "p003_random_cachecraft");

    const CampaignPoint &p1 = spec.points[1];
    EXPECT_TRUE(p1.expandError.empty());
    EXPECT_EQ(p1.workload, WorkloadKind::kStreaming);
    EXPECT_EQ(p1.config.scheme, SchemeKind::kCacheCraft);
    EXPECT_EQ(p1.params.footprintBytes, 1u * 1024 * 1024);
    EXPECT_EQ(p1.params.numWarps, 8u);
    EXPECT_EQ(p1.params.memInstsPerWarp, 4u);
    EXPECT_EQ(p1.params.seed, 7u);

    ASSERT_EQ(p1.axes.size(), 2u);
    EXPECT_EQ(p1.axes[0].first, "workload");
    EXPECT_EQ(p1.axes[0].second, "streaming");
    EXPECT_EQ(p1.axes[1].first, "scheme");
    EXPECT_EQ(p1.axes[1].second, "cachecraft");
}

TEST(CampaignSpecTest, SameSpecExpandsIdentically)
{
    const CampaignSpec a = parseOrDie(kTinySpec);
    const CampaignSpec b = parseOrDie(kTinySpec);
    EXPECT_EQ(a.specHash, b.specHash);
    EXPECT_NE(a.specHash.find("crc32c:"), std::string::npos);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i)
        EXPECT_EQ(a.points[i].label, b.points[i].label);
}

TEST(CampaignSpecTest, StructuralErrorsRejectTheWholeSpec)
{
    const char *cases[] = {
        // missing grid
        R"({"name": "x"})",
        // missing name
        R"({"grid": {"workload": ["streaming"]}})",
        // axis is not an array
        R"({"name": "x", "grid": {"workload": "streaming"}})",
        // unknown knob name
        R"({"name": "x", "grid": {"wrkload": ["streaming"]}})",
        // unknown knob in base
        R"({"name": "x", "base": {"bogus_knob": 1},
            "grid": {"workload": ["streaming"]}})",
        // the retired span tracer's knob, in base and as an axis
        R"({"name": "x", "base": {"trace_capacity": 64},
            "grid": {"workload": ["streaming"]}})",
        R"({"name": "x", "grid": {"trace_capacity": [64]}})",
        // wrong schema string
        R"({"schema": "cachecraft.run_report/1", "name": "x",
            "grid": {"workload": ["streaming"]}})",
        // not an object
        R"([1, 2, 3])",
    };
    for (const char *text : cases) {
        std::string error;
        EXPECT_FALSE(parseCampaignSpec(text, &error).has_value())
            << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(CampaignSpecTest, BadKnobValueFailsOnlyItsPoints)
{
    const CampaignSpec spec = parseOrDie(R"({
      "name": "mixed",
      "base": { "warps": 8, "mem_insts": 4, "footprint_mib": 1 },
      "grid": {
        "workload": ["streaming"],
        "scheme": ["no-ecc", "bogus", "cachecraft"]
      }
    })");
    ASSERT_EQ(spec.points.size(), 3u);
    EXPECT_TRUE(spec.points[0].expandError.empty());
    EXPECT_FALSE(spec.points[1].expandError.empty());
    EXPECT_NE(spec.points[1].expandError.find("bogus"),
              std::string::npos);
    EXPECT_TRUE(spec.points[2].expandError.empty());
}

TEST(CampaignSpecTest, BadCacheGeometryFailsOnlyItsPoints)
{
    // 3 KiB is not a whole number of 16-way 128 B sets and 384 KiB
    // gives 192 sets; a 3 KiB MRC (8-way, 32 B lines) gives 12 sets,
    // which fails only the schemes that build an MRC.
    const CampaignSpec spec = parseOrDie(R"({
      "name": "geometry",
      "base": { "warps": 8, "mem_insts": 4, "footprint_mib": 1 },
      "grid": {
        "scheme": ["no-ecc", "cachecraft"],
        "l2_kib": [512, 3, 384],
        "mrc_kib": [16, 3]
      }
    })");
    ASSERT_EQ(spec.points.size(), 12u);
    const std::string l2_size =
        "L2 geometry: cache size must be divisible by line size * assoc";
    const std::string l2_sets =
        "L2 geometry: cache must have a power-of-two number of sets";
    const std::string mrc_sets =
        "MRC geometry: cache must have a power-of-two number of sets";
    const std::vector<std::string> expected = {
        // no-ecc: the MRC size is never used
        "", "", l2_size, l2_size, l2_sets, l2_sets,
        // cachecraft: the L2 is checked first
        "", mrc_sets, l2_size, l2_size, l2_sets, l2_sets};
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        EXPECT_EQ(spec.points[i].expandError, expected[i])
            << spec.points[i].label;
}

TEST(CampaignSpecTest, KnownKnobsIncludesTheGridEssentials)
{
    const std::vector<std::string> knobs = campaign::knownKnobs();
    for (const char *need : {"workload", "scheme", "codec", "warps",
                             "footprint_mib", "seed"}) {
        EXPECT_NE(std::find(knobs.begin(), knobs.end(), need),
                  knobs.end())
            << need;
    }
}

// --------------------------------------------------------------------
// Runner: determinism and failure containment
// --------------------------------------------------------------------

class CampaignRunnerTest : public ::testing::Test
{
  protected:
    /** Run @p text with @p jobs into a fresh tree; returns its root. */
    fs::path
    runInto(const std::string &text, unsigned jobs,
            const std::string &tag)
    {
        const fs::path out =
            fs::path(::testing::TempDir()) / ("campaign_" + tag);
        fs::remove_all(out);
        campaign::RunnerOptions options;
        options.outDir = out.string();
        options.jobs = jobs;
        options.progress = nullptr;
        const CampaignSpec spec = parseOrDie(text);
        results_ = campaign::runCampaign(spec, options);
        return out;
    }

    campaign::CampaignResult results_;
};

TEST_F(CampaignRunnerTest, ReportsAreByteIdenticalAcrossJobCounts)
{
    const fs::path serial = runInto(kTinySpec, 1, "jobs1");
    EXPECT_EQ(results_.countWithStatus(PointStatus::kOk), 4u);
    const fs::path parallel = runInto(kTinySpec, 2, "jobs2");
    EXPECT_EQ(results_.countWithStatus(PointStatus::kOk), 4u);

    const auto files =
        telemetry::listJsonFilesRecursive(serial.string());
    ASSERT_EQ(files.size(), 5u); // manifest + 4 reports
    for (const std::string &relative : files) {
        if (relative == "campaign_manifest.json")
            continue; // wall times legitimately differ
        EXPECT_EQ(slurp(serial / relative), slurp(parallel / relative))
            << relative;
    }
}

TEST_F(CampaignRunnerTest, FailedPointIsRecordedAndDoesNotAbort)
{
    const fs::path out = runInto(R"({
      "name": "contained",
      "base": { "warps": 8, "mem_insts": 4, "footprint_mib": 1 },
      "grid": {
        "workload": ["streaming"],
        "scheme": ["no-ecc", "bogus"]
      }
    })",
                                 1, "contained");
    EXPECT_EQ(results_.countWithStatus(PointStatus::kOk), 1u);
    EXPECT_EQ(results_.countWithStatus(PointStatus::kFailed), 1u);

    std::string error;
    auto manifest =
        jsonParse(slurp(out / "campaign_manifest.json"), &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_EQ(manifest->find("schema")->asString(),
              "cachecraft.campaign_manifest/1");
    EXPECT_DOUBLE_EQ(manifest->find("failed_points")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(manifest->find("ok_points")->asNumber(), 1.0);

    const auto &points = manifest->find("points")->asArray();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].find("status")->asString(), "ok");
    EXPECT_EQ(points[1].find("status")->asString(), "failed");
    ASSERT_NE(points[1].find("error"), nullptr);
    EXPECT_NE(points[1].find("error")->asString().find("bogus"),
              std::string::npos);

    // The failed point never produced a report file.
    EXPECT_TRUE(fs::exists(out / "reports" /
                           "p000_streaming_no-ecc.json"));
    EXPECT_FALSE(fs::exists(out / "reports" /
                            "p001_streaming_bogus.json"));
}

TEST_F(CampaignRunnerTest, BadCacheGeometryIsContainedToItsPoint)
{
    // Before expansion checked geometry, the 3 KiB L2 ended the whole
    // process inside the cache constructor: no manifest, lost points.
    const fs::path out = runInto(R"({
      "name": "geometry",
      "base": { "workload": "streaming", "scheme": "no-ecc",
                "warps": 8, "mem_insts": 4, "footprint_mib": 1 },
      "grid": { "l2_kib": [512, 3] }
    })",
                                 1, "geometry");
    EXPECT_EQ(results_.countWithStatus(PointStatus::kOk), 1u);
    EXPECT_EQ(results_.countWithStatus(PointStatus::kFailed), 1u);

    std::string error;
    auto manifest =
        jsonParse(slurp(out / "campaign_manifest.json"), &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_DOUBLE_EQ(manifest->find("failed_points")->asNumber(), 1.0);
    const auto &points = manifest->find("points")->asArray();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].find("status")->asString(), "ok");
    EXPECT_EQ(points[1].find("status")->asString(), "failed");
    ASSERT_NE(points[1].find("error"), nullptr);
    EXPECT_NE(points[1].find("error")->asString().find("L2 geometry"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(out / "reports" / "p000_512.json"));
    EXPECT_FALSE(fs::exists(out / "reports" / "p001_3.json"));
}

TEST_F(CampaignRunnerTest, OversizedCountIsContainedToItsPoint)
{
    // 2^44 MiB used to wrap to a 0-byte footprint, on which the
    // random kernel panicked and ended the whole sweep after p000.
    const fs::path out = runInto(R"({
      "name": "oversized",
      "base": { "workload": "random", "scheme": "cachecraft",
                "warps": 8, "mem_insts": 4 },
      "grid": { "footprint_mib": [1, 17592186044416] }
    })",
                                 1, "oversized");
    EXPECT_EQ(results_.countWithStatus(PointStatus::kOk), 1u);
    EXPECT_EQ(results_.countWithStatus(PointStatus::kFailed), 1u);

    std::string error;
    auto manifest =
        jsonParse(slurp(out / "campaign_manifest.json"), &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    const auto &points = manifest->find("points")->asArray();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].find("status")->asString(), "ok");
    EXPECT_EQ(points[1].find("status")->asString(), "failed");
    ASSERT_NE(points[1].find("error"), nullptr);
    EXPECT_EQ(points[1].find("error")->asString(),
              "grid axis \"footprint_mib\" is out of range "
              "(max 17592186044415)");
}

TEST_F(CampaignRunnerTest, RunReportsCarryNoWallClockVariance)
{
    const fs::path out = runInto(kTinySpec, 2, "novariance");
    std::string error;
    auto report = jsonParse(
        slurp(out / "reports" / "p000_streaming_no-ecc.json"), &error);
    ASSERT_TRUE(report.has_value()) << error;
    const JsonValue *manifest = report->find("manifest");
    ASSERT_NE(manifest, nullptr);
    // Byte-determinism across --jobs hinges on these two pins.
    EXPECT_DOUBLE_EQ(manifest->find("wall_seconds")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(manifest->find("jobs")->asNumber(), 1.0);
    ASSERT_NE(manifest->find("hostname"), nullptr);
    EXPECT_FALSE(manifest->find("hostname")->asString().empty());
}

} // namespace
} // namespace cachecraft
