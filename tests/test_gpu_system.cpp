/**
 * @file
 * Integration tests for the assembled GPU system: every scheme runs
 * every small workload to completion, memory always audits clean
 * afterwards (the end-to-end reconstruction-is-lossless invariant),
 * and the scheme cost model shows up in the aggregate statistics.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/cachecraft.hpp"
#include "gpu/coalescer.hpp"

namespace cachecraft {
namespace {

SystemConfig
smallConfig(SchemeKind scheme)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.numSms = 4;
    cfg.dram.numChannels = 4;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    cfg.l2.cache.sizeBytes = 64 * 1024;
    return cfg;
}

WorkloadParams
smallWorkload()
{
    WorkloadParams p;
    p.footprintBytes = 512 * 1024;
    p.numWarps = 16;
    p.memInstsPerWarp = 16;
    return p;
}

struct Case
{
    SchemeKind scheme;
    WorkloadKind workload;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    std::string s = std::string(toString(info.param.scheme)) + "_" +
                    toString(info.param.workload);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

class SystemMatrix : public ::testing::TestWithParam<Case>
{
};

TEST_P(SystemMatrix, RunsToCompletionAndAuditsClean)
{
    const Case &c = GetParam();
    GpuSystem gpu(smallConfig(c.scheme));
    const auto trace = makeWorkload(c.workload, smallWorkload());
    const RunStats rs = gpu.run(trace);

    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.instructions, trace.totalInsts());
    EXPECT_GT(rs.ipc, 0.0);
    EXPECT_GT(rs.dramTotalTxns, 0u);
    // No faults injected: every decode is clean.
    EXPECT_EQ(rs.decodeCorrected, 0u);
    EXPECT_EQ(rs.decodeUncorrectable, 0u);
    EXPECT_EQ(rs.decodeTagMismatch, 0u);

    // After run + flush, DRAM contents decode to the golden data.
    const AuditResult audit = gpu.auditMemory();
    EXPECT_GT(audit.sectors, 0u);
    EXPECT_EQ(audit.corrected, 0u);
    EXPECT_EQ(audit.uncorrectable, 0u);
    EXPECT_EQ(audit.silentCorruptions, 0u)
        << "scheme " << toString(c.scheme) << " corrupted memory on "
        << toString(c.workload);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (auto scheme :
         {SchemeKind::kNone, SchemeKind::kInlineNaive,
          SchemeKind::kEccCache, SchemeKind::kCacheCraft}) {
        for (auto workload :
             {WorkloadKind::kStreaming, WorkloadKind::kTranspose,
              WorkloadKind::kRandomAccess, WorkloadKind::kHistogram})
            cases.push_back({scheme, workload});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SchemesTimesWorkloads, SystemMatrix,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(GpuSystem, NoEccHasZeroMetadataTraffic)
{
    GpuSystem gpu(smallConfig(SchemeKind::kNone));
    const auto rs =
        gpu.run(makeWorkload(WorkloadKind::kStreaming, smallWorkload()));
    EXPECT_EQ(rs.dramEccReads, 0u);
    EXPECT_EQ(rs.dramEccWrites, 0u);
}

TEST(GpuSystem, NaivePaysOneEccReadPerDataRead)
{
    GpuSystem gpu(smallConfig(SchemeKind::kInlineNaive));
    const auto rs =
        gpu.run(makeWorkload(WorkloadKind::kStreaming, smallWorkload()));
    // Non-RMW ECC reads == data reads (one per miss fetch).
    EXPECT_EQ(rs.dramEccReads - rs.dramEccRmwReads, rs.dramDataReads);
    // Every data writeback triggered exactly one ECC RMW pair.
    EXPECT_EQ(rs.dramEccRmwReads, rs.dramDataWrites);
    EXPECT_EQ(rs.dramEccWrites, rs.dramDataWrites);
}

TEST(GpuSystem, CacheCraftAmortizesMetadataReads)
{
    GpuSystem gpu(smallConfig(SchemeKind::kCacheCraft));
    const auto rs =
        gpu.run(makeWorkload(WorkloadKind::kStreaming, smallWorkload()));
    // Streaming touches each chunk's 8 sectors: ~1 metadata read per
    // 8 data reads (allow slack for boundary effects).
    EXPECT_LT(rs.dramEccReads, rs.dramDataReads / 6);
    EXPECT_GT(rs.mrcCoverage(), 0.5);
}

TEST(GpuSystem, SchemeOrderingOnStreaming)
{
    std::map<SchemeKind, Cycle> cycles;
    for (auto scheme :
         {SchemeKind::kNone, SchemeKind::kInlineNaive,
          SchemeKind::kEccCache, SchemeKind::kCacheCraft}) {
        GpuSystem gpu(smallConfig(scheme));
        cycles[scheme] = gpu.run(makeWorkload(WorkloadKind::kStreaming,
                                              smallWorkload()))
                             .cycles;
    }
    EXPECT_LE(cycles[SchemeKind::kNone],
              cycles[SchemeKind::kCacheCraft]);
    EXPECT_LT(cycles[SchemeKind::kCacheCraft],
              cycles[SchemeKind::kInlineNaive]);
    EXPECT_LT(cycles[SchemeKind::kEccCache],
              cycles[SchemeKind::kInlineNaive]);
}

TEST(GpuSystem, DeterministicAcrossRuns)
{
    const auto trace =
        makeWorkload(WorkloadKind::kSpmv, smallWorkload());
    GpuSystem a(smallConfig(SchemeKind::kCacheCraft));
    GpuSystem b(smallConfig(SchemeKind::kCacheCraft));
    const auto ra = a.run(trace);
    const auto rb = b.run(trace);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dramTotalTxns, rb.dramTotalTxns);
    EXPECT_EQ(ra.all, rb.all);
}

TEST(GpuSystem, StatsSnapshotExcludesFlush)
{
    GpuSystem gpu(smallConfig(SchemeKind::kInlineNaive));
    const auto rs =
        gpu.run(makeWorkload(WorkloadKind::kHistogram, smallWorkload()));
    // The flush happens after the snapshot: the DRAM system has now
    // seen at least as many transactions as reported.
    EXPECT_GE(gpu.dram().totalTransactions(), rs.dramTotalTxns);
}

TEST(GpuSystem, ConfigDescribeMentionsKeyFields)
{
    const SystemConfig cfg = smallConfig(SchemeKind::kCacheCraft);
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("cachecraft"), std::string::npos);
    EXPECT_NE(desc.find("co-located"), std::string::npos);
    EXPECT_NE(desc.find("MRC"), std::string::npos);
    EXPECT_FALSE(cfg.summary().empty());
}

TEST(GpuSystem, EffectiveLayoutFollowsScheme)
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kNone;
    EXPECT_EQ(cfg.effectiveLayout(), EccLayout::kNone);
    cfg.scheme = SchemeKind::kInlineNaive;
    EXPECT_EQ(cfg.effectiveLayout(), EccLayout::kSegregated);
    cfg.scheme = SchemeKind::kEccCache;
    EXPECT_EQ(cfg.effectiveLayout(), EccLayout::kSegregated);
    cfg.scheme = SchemeKind::kCacheCraft;
    cfg.coLocatedLayout = true;
    EXPECT_EQ(cfg.effectiveLayout(), EccLayout::kCoLocated);
    cfg.coLocatedLayout = false;
    EXPECT_EQ(cfg.effectiveLayout(), EccLayout::kSegregated);
}

TEST(GpuSystem, GoldenStateIsPatternOfStoreCount)
{
    // Golden state is (pattern, write generation): after a store-heavy
    // kernel every region sector reads pattern(s, stores to s), and
    // DRAM decodes to exactly that.
    const auto trace =
        makeWorkload(WorkloadKind::kHistogram, smallWorkload());
    std::map<Addr, std::uint64_t> stores;
    for (const auto &warp : trace.warps) {
        for (const WarpInst &inst : warp) {
            if (!inst.isMem || !inst.isWrite)
                continue;
            for (const SectorRequest &req : coalesce(inst))
                ++stores[req.sectorAddr];
        }
    }

    GpuSystem gpu(smallConfig(SchemeKind::kCacheCraft));
    gpu.run(trace);
    std::uint64_t touched = 0;
    std::uint64_t untouched = 0;
    std::uint64_t rewritten = 0;
    for (const TaggedRegion &region : gpu.regions()) {
        for (Addr s = region.base; s < region.base + region.size;
             s += kSectorBytes) {
            const auto it = stores.find(s);
            const std::uint64_t gen = it == stores.end() ? 0 : it->second;
            ASSERT_EQ(gpu.archRead(s), GpuSystem::pattern(s, gen))
                << std::hex << "sector 0x" << s << std::dec << ", " << gen
                << " stores";
            (gen == 0 ? untouched : touched)++;
            rewritten += gen > 1;
        }
    }
    EXPECT_GT(touched, 0u);
    EXPECT_GT(untouched, 0u);
    EXPECT_GT(rewritten, 0u); // some sector went past generation 1

    const AuditResult audit = gpu.auditMemory();
    EXPECT_EQ(audit.sectors, touched + untouched);
    EXPECT_EQ(audit.silentCorruptions, 0u);
    EXPECT_EQ(audit.uncorrectable, 0u);
}

TEST(GpuSystem, MetadataShadowIsDense)
{
    // The co-located layout interleaves ECC chunks with data rows; the
    // host-side shadow must not: an 8 MiB point's check bytes (1 MiB)
    // fit in 256 pages, plus at most one partial page per slice.
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kCacheCraft;
    ASSERT_EQ(cfg.effectiveLayout(), EccLayout::kCoLocated);
    WorkloadParams params;
    params.footprintBytes = 8 * 1024 * 1024;
    GpuSystem gpu(cfg);
    gpu.initialize(makeWorkload(WorkloadKind::kStreaming, params));
    constexpr std::size_t kCheckPages =
        8 * 1024 * 1024 / 8 / SparseMemory::kPageBytes;
    EXPECT_GE(gpu.metaShadowPages(), kCheckPages);
    EXPECT_LE(gpu.metaShadowPages(), kCheckPages + gpu.numSlices());
}

TEST(GpuSystemDeathTest, DoubleRunPanics)
{
    GpuSystem gpu(smallConfig(SchemeKind::kNone));
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, smallWorkload());
    gpu.run(trace);
    EXPECT_DEATH(gpu.run(trace), "twice");
}

} // namespace
} // namespace cachecraft
