/**
 * @file
 * Tests for the occupancy profiler: stat registration, occupancy
 * gauges, hot-key ranking, and profiled end-to-end runs (determinism,
 * timing neutrality).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/cachecraft.hpp"

namespace cachecraft {
namespace {

using telemetry::Profiler;

// --------------------------------------------------------------------
// Stat registration (unit level; the Profiler class is compiled in even
// when the CACHECRAFT_DISABLE_TRACING hooks are not)
// --------------------------------------------------------------------

TEST(Profiler, RegistersCountersWithTheStatRegistry)
{
    StatRegistry reg;
    Profiler prof(&reg);
    prof.sampleOccupancy();

    std::map<std::string, double> flat;
    for (const auto &[name, value] : reg.flatten())
        flat[name] = value;
    EXPECT_DOUBLE_EQ(flat.at("profile.occ.samples"), 1.0);
    // Only occupancy stats: the profiler attributes no cycles.
    for (const auto &[name, value] : flat)
        EXPECT_EQ(name.rfind("profile.occ.", 0), 0u) << name;
}

// --------------------------------------------------------------------
// Occupancy gauges and hot-key ranking
// --------------------------------------------------------------------

TEST(Profiler, GaugesSampleOnDemand)
{
    StatRegistry reg;
    Profiler prof(&reg);
    std::uint64_t depth = 3;
    prof.addGauge("q", [&depth] { return depth; });

    prof.sampleOccupancy();
    depth = 5;
    prof.sampleOccupancy();

    EXPECT_EQ(prof.samples(), 2u);
    const HistogramStat *h = reg.histogram("profile.occ.q");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_DOUBLE_EQ(h->mean(), 4.0);
    EXPECT_DOUBLE_EQ(h->maxValue(), 5.0);
}

TEST(Profiler, HotRankingSortsByCountThenKeyAndTruncates)
{
    Profiler prof(nullptr);
    // 12 distinct rows; rows 0/1 hottest, the rest tie at one access.
    for (std::uint64_t k = 0; k < 12; ++k)
        prof.recordRowAccess(k);
    prof.recordRowAccess(1);
    prof.recordRowAccess(1);
    prof.recordRowAccess(0);

    const auto rows = prof.hottestRows();
    ASSERT_EQ(rows.size(), Profiler::kTopN);
    EXPECT_EQ(rows[0].key, 1u);
    EXPECT_EQ(rows[0].count, 3u);
    EXPECT_EQ(rows[1].key, 0u);
    EXPECT_EQ(rows[1].count, 2u);
    // The one-access tail is ordered by key for determinism.
    for (std::size_t i = 3; i < rows.size(); ++i)
        EXPECT_LT(rows[i - 1].key, rows[i].key);
}

TEST(Profiler, WriteJsonIsValid)
{
    Profiler prof(nullptr);
    prof.addGauge("q", [] { return std::uint64_t{3}; });
    prof.sampleOccupancy();
    prof.recordRowAccess(42);
    prof.recordSectorAccess(0x1000);

    std::ostringstream os;
    JsonWriter w(os);
    prof.writeJson(w);
    std::string err;
    ASSERT_TRUE(jsonValidate(os.str(), &err)) << err;
    const auto doc = jsonParse(os.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    ASSERT_TRUE(doc->isObject());
    EXPECT_EQ(doc->find("stalls"), nullptr);
    const JsonValue *occ = doc->find("occupancy");
    ASSERT_NE(occ, nullptr);
    ASSERT_NE(occ->find("gauges"), nullptr);
    EXPECT_NE(occ->find("gauges")->find("q"), nullptr);
    EXPECT_NE(doc->find("hot_rows"), nullptr);
    EXPECT_NE(doc->find("hot_sectors"), nullptr);
    EXPECT_NE(os.str().find("\"0x2a\""), std::string::npos);
    EXPECT_NE(os.str().find("\"0x1000\""), std::string::npos);
}

// --------------------------------------------------------------------
// Profiled end-to-end runs
// --------------------------------------------------------------------

SystemConfig
profiledConfig()
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kCacheCraft;
    cfg.numSms = 4;
    cfg.dram.numChannels = 4;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    cfg.l2.cache.sizeBytes = 64 * 1024;
    cfg.telemetry.profileEnabled = true;
    cfg.telemetry.profileInterval = 512;
    cfg.telemetry.sampleInterval = 2000;
    return cfg;
}

WorkloadParams
smallWorkload()
{
    WorkloadParams p;
    p.footprintBytes = 256 * 1024;
    p.numWarps = 8;
    p.memInstsPerWarp = 8;
    return p;
}

class ProfiledRun : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!telemetry::kTraceCompiledIn)
            GTEST_SKIP() << "tracing compiled out";
        gpu_ = std::make_unique<GpuSystem>(profiledConfig());
        rs_ = gpu_->run(
            makeWorkload(WorkloadKind::kStreaming, smallWorkload()));
        prof_ = gpu_->telemetry().profiler();
        ASSERT_NE(prof_, nullptr);
    }

    std::unique_ptr<GpuSystem> gpu_;
    RunStats rs_;
    telemetry::Profiler *prof_ = nullptr;
};

TEST_F(ProfiledRun, OccupancySampledAndGaugesRegistered)
{
    EXPECT_GT(prof_->samples(), 0u);
    std::map<std::string, double> flat;
    for (const auto &[name, value] : gpu_->statsRegistry().flatten())
        flat[name] = value;
    EXPECT_EQ(flat.count("profile.occ.dram.ch0.queue_depth.count"), 1u);
    EXPECT_EQ(flat.count("profile.occ.l2.slice0.mshr_occupancy.count"),
              1u);
    EXPECT_EQ(flat.count("profile.occ.xbar.req.max_port_backlog.count"),
              1u);
}

TEST_F(ProfiledRun, HotRowsPopulated)
{
    const auto rows = prof_->hottestRows();
    ASSERT_FALSE(rows.empty());
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_GE(rows[i - 1].count, rows[i].count);
}

TEST_F(ProfiledRun, EpochDeltasSumToFinalProfileCounters)
{
    // The profiler's counters ride the same epoch sampler as every
    // other stat: summed deltas must telescope to the live registry,
    // profile.* included.
    ASSERT_NE(gpu_->sampler(), nullptr);
    const auto summed = gpu_->sampler()->summedDeltas();
    for (const auto &[name, value] : gpu_->statsRegistry().flatten()) {
        if (name.rfind("profile.", 0) != 0)
            continue;
        const auto it = summed.find(name);
        const double total = it == summed.end() ? 0.0 : it->second;
        EXPECT_NEAR(total, value, 1e-9) << name;
    }
}

TEST_F(ProfiledRun, ProfileJsonIsDeterministicForSameSeed)
{
    GpuSystem again(profiledConfig());
    again.run(makeWorkload(WorkloadKind::kStreaming, smallWorkload()));
    ASSERT_NE(again.telemetry().profiler(), nullptr);

    std::ostringstream a, b;
    {
        JsonWriter w(a);
        prof_->writeJson(w);
    }
    {
        JsonWriter w(b);
        again.telemetry().profiler()->writeJson(w);
    }
    std::string err;
    ASSERT_TRUE(jsonValidate(a.str(), &err)) << err;
    EXPECT_EQ(a.str(), b.str());
}

TEST(ProfiledOverhead, ProfilingIsTimingNeutral)
{
    if (!telemetry::kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    // The profiler only observes: enabling it (at any sampling
    // interval) must reproduce the unprofiled run cycle for cycle.
    SystemConfig off = profiledConfig();
    off.telemetry.profileEnabled = false;
    SystemConfig fine = profiledConfig();
    fine.telemetry.profileInterval = 64;

    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, smallWorkload());
    GpuSystem a(off);
    GpuSystem b(profiledConfig());
    GpuSystem c(fine);
    const Cycle base = a.run(trace).cycles;
    EXPECT_EQ(b.run(trace).cycles, base);
    EXPECT_EQ(c.run(trace).cycles, base);
}

} // namespace
} // namespace cachecraft
