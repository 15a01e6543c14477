/**
 * @file
 * Golden end-to-end regression: the committed ci_smoke campaign spec,
 * run through the real campaign runner, must produce a report tree
 * whose canonical hash matches the pinned digest below. Any behavioral
 * drift anywhere in the simulator — one extra DRAM transaction, one
 * changed stat — moves the digest.
 *
 * When a deliberate behavior change moves it, refresh the pin:
 * rebuild, run this test, and copy the "actual" hash from the failure
 * message into kCiSmokeGoldenHash (the diff review then carries the
 * behavior change and its new digest together).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/golden.hpp"

namespace cachecraft {
namespace {

namespace fs = std::filesystem;

/** Pinned digest of the ci_smoke report tree (see file comment).
 *  Last deliberate refresh: the stall taxonomy's removal dropped the
 *  profile.stall.<reason>.cycles/.events counters and the report's
 *  profile.stalls object. cachecraft_diff of the 4 report pairs:
 *  0 of 109331 compared values changed, onlyAfter empty, onlyBefore
 *  1434 entries, all stall ones (48 stat counters, 1338 epoch deltas,
 *  48 profile.stalls keys). */
constexpr const char *kCiSmokeGoldenHash =
    "97abfdc4006b6ffb3c519abd3ee84df7095424081905a25add7bc42541825985";

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
runCiSmoke(const fs::path &out_dir, unsigned jobs)
{
    const fs::path spec_path = fs::path(CACHECRAFT_REPO_ROOT) / "bench" /
                               "campaigns" / "ci_smoke.json";
    std::string error;
    const auto spec = campaign::parseCampaignSpec(slurp(spec_path),
                                                  &error);
    EXPECT_TRUE(spec.has_value()) << error;
    if (!spec)
        return {};

    fs::remove_all(out_dir);
    campaign::RunnerOptions options;
    options.outDir = out_dir.string();
    options.jobs = jobs;
    options.progress = nullptr;
    campaign::runCampaign(*spec, options);
    return verify::canonicalReportTreeHash(
        (out_dir / "reports").string());
}

TEST(GoldenRegression, CiSmokeReportTreeMatchesPinnedDigest)
{
    // The pinned tree comes from the default build: ci_smoke enables
    // the profiler, whose report section (and its epoch stats) vanish
    // when tracing is compiled out, so the digest can only be pinned
    // for one build flavor.
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";
    const fs::path base = fs::path(::testing::TempDir()) / "golden_e2e";
    const std::string hash = runCiSmoke(base / "j2", /* jobs= */ 2);
    ASSERT_FALSE(hash.empty());
    EXPECT_EQ(hash, kCiSmokeGoldenHash)
        << "ci_smoke report tree drifted.\n"
        << "  pinned: " << kCiSmokeGoldenHash << "\n"
        << "  actual: " << hash << "\n"
        << "If the behavior change is intentional, update "
        << "kCiSmokeGoldenHash in tests/test_golden_regression.cpp.";
    fs::remove_all(base);
}

TEST(GoldenRegression, DigestIsIndependentOfJobCount)
{
    const fs::path base = fs::path(::testing::TempDir()) / "golden_jobs";
    const std::string serial = runCiSmoke(base / "j1", /* jobs= */ 1);
    const std::string parallel = runCiSmoke(base / "j4", /* jobs= */ 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    fs::remove_all(base);
}

} // namespace
} // namespace cachecraft
