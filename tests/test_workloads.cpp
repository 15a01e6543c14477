/**
 * @file
 * Property tests over the synthetic workload suite: every kernel must
 * produce a well-formed, deterministic trace whose accesses stay
 * inside its declared regions, and each kernel must exhibit the
 * locality signature it claims (coalescing degree, write mix).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/coalescer.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft {
namespace {

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.footprintBytes = 1 * 1024 * 1024;
    p.numWarps = 16;
    p.memInstsPerWarp = 32;
    p.seed = 123;
    return p;
}

class WorkloadContract : public ::testing::TestWithParam<WorkloadKind>
{
  protected:
    KernelTrace trace_ = makeWorkload(GetParam(), smallParams());
};

TEST_P(WorkloadContract, HasWorkAndName)
{
    EXPECT_FALSE(trace_.name.empty());
    EXPECT_EQ(trace_.warps.size(), smallParams().numWarps);
    EXPECT_GT(trace_.totalMemInsts(), 0u);
    EXPECT_FALSE(trace_.regions.empty());
}

TEST_P(WorkloadContract, AllAccessesInsideRegions)
{
    auto inside = [&](Addr addr) {
        for (const auto &region : trace_.regions) {
            if (addr >= region.base && addr < region.base + region.size)
                return true;
        }
        return false;
    };
    for (const auto &warp : trace_.warps) {
        for (const auto &inst : warp) {
            if (!inst.isMem)
                continue;
            for (Addr lane : inst.lanes())
                ASSERT_TRUE(inside(lane))
                    << trace_.name << " lane 0x" << std::hex << lane;
        }
    }
}

TEST_P(WorkloadContract, RegionsAlignedAndDisjoint)
{
    for (const auto &region : trace_.regions) {
        EXPECT_EQ(region.base % kSectorBytes, 0u);
        EXPECT_EQ(region.size % kSectorBytes, 0u);
        EXPECT_GT(region.size, 0u);
    }
    for (std::size_t i = 0; i < trace_.regions.size(); ++i) {
        for (std::size_t j = i + 1; j < trace_.regions.size(); ++j) {
            const auto &a = trace_.regions[i];
            const auto &b = trace_.regions[j];
            const bool disjoint = a.base + a.size <= b.base ||
                                  b.base + b.size <= a.base;
            EXPECT_TRUE(disjoint) << trace_.name;
        }
    }
}

TEST_P(WorkloadContract, Deterministic)
{
    const KernelTrace again = makeWorkload(GetParam(), smallParams());
    ASSERT_EQ(again.warps.size(), trace_.warps.size());
    for (std::size_t w = 0; w < trace_.warps.size(); ++w) {
        ASSERT_EQ(again.warps[w].size(), trace_.warps[w].size());
        for (std::size_t i = 0; i < trace_.warps[w].size(); ++i) {
            EXPECT_TRUE(std::ranges::equal(again.warps[w][i].lanes(),
                                           trace_.warps[w][i].lanes()));
            EXPECT_EQ(again.warps[w][i].isWrite,
                      trace_.warps[w][i].isWrite);
        }
    }
}

TEST_P(WorkloadContract, LanesBoundedByWarpWidth)
{
    for (const auto &warp : trace_.warps)
        for (const auto &inst : warp)
            EXPECT_LE(inst.laneCount(), kWarpLanes);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, WorkloadContract,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &param_info) {
        return std::string(toString(param_info.param));
    });

/** Average sectors per memory instruction. */
double
coalescingDegree(const KernelTrace &trace)
{
    std::uint64_t sectors = 0;
    std::uint64_t insts = 0;
    for (const auto &warp : trace.warps) {
        for (const auto &inst : warp) {
            if (!inst.isMem)
                continue;
            sectors += coalesce(inst).size();
            ++insts;
        }
    }
    return insts ? double(sectors) / double(insts) : 0.0;
}

double
writeFraction(const KernelTrace &trace)
{
    std::uint64_t writes = 0;
    std::uint64_t mems = 0;
    for (const auto &warp : trace.warps) {
        for (const auto &inst : warp) {
            if (!inst.isMem)
                continue;
            ++mems;
            writes += inst.isWrite ? 1 : 0;
        }
    }
    return mems ? double(writes) / double(mems) : 0.0;
}

TEST(WorkloadSignatures, StreamingFullyCoalesced)
{
    const auto t = makeWorkload(WorkloadKind::kStreaming, smallParams());
    EXPECT_DOUBLE_EQ(coalescingDegree(t), 4.0);
    EXPECT_NEAR(writeFraction(t), 1.0 / 3.0, 0.01);
}

TEST(WorkloadSignatures, StridedDefeatsCoalescing)
{
    const auto t = makeWorkload(WorkloadKind::kStrided, smallParams());
    EXPECT_GE(coalescingDegree(t), 16.0);
}

TEST(WorkloadSignatures, RandomFullyDivergent)
{
    const auto t =
        makeWorkload(WorkloadKind::kRandomAccess, smallParams());
    // Uniform random lanes over a 1 MiB array: ~32 distinct sectors.
    EXPECT_GT(coalescingDegree(t), 30.0);
    EXPECT_DOUBLE_EQ(writeFraction(t), 0.0);
}

TEST(WorkloadSignatures, TransposeWritesDivergent)
{
    const auto t = makeWorkload(WorkloadKind::kTranspose, smallParams());
    double write_sectors = 0;
    double read_sectors = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    for (const auto &warp : t.warps) {
        for (const auto &inst : warp) {
            if (!inst.isMem)
                continue;
            const double s = double(coalesce(inst).size());
            if (inst.isWrite) {
                write_sectors += s;
                ++writes;
            } else {
                read_sectors += s;
                ++reads;
            }
        }
    }
    EXPECT_DOUBLE_EQ(read_sectors / double(reads), 4.0);
    EXPECT_GE(write_sectors / double(writes), 16.0);
}

TEST(WorkloadSignatures, GemmComputeHeavy)
{
    const auto t = makeWorkload(WorkloadKind::kGemmTiled, smallParams());
    std::uint64_t compute = 0;
    std::uint64_t mem = 0;
    for (const auto &warp : t.warps) {
        for (const auto &inst : warp) {
            if (inst.isMem)
                ++mem;
            else
                ++compute;
        }
    }
    EXPECT_GT(compute, 0u);
    EXPECT_GT(mem, 0u);
}

TEST(WorkloadSignatures, HistogramHasTwoRegions)
{
    const auto t = makeWorkload(WorkloadKind::kHistogram, smallParams());
    ASSERT_EQ(t.regions.size(), 2u);
    // The bin region is small and write-hot.
    EXPECT_LT(t.regions[1].size, t.regions[0].size / 8);
    EXPECT_GT(writeFraction(t), 0.2);
}

TEST(WorkloadSignatures, DifferentSeedsChangeRandomKernels)
{
    WorkloadParams a = smallParams();
    WorkloadParams b = smallParams();
    b.seed = a.seed + 1;
    const auto ta = makeWorkload(WorkloadKind::kRandomAccess, a);
    const auto tb = makeWorkload(WorkloadKind::kRandomAccess, b);
    EXPECT_FALSE(std::ranges::equal(ta.warps[0][0].lanes(),
                                    tb.warps[0][0].lanes()));
}

TEST(WorkloadNames, AllDistinct)
{
    std::set<std::string> names;
    for (auto kind : allWorkloads())
        EXPECT_TRUE(names.insert(toString(kind)).second);
    EXPECT_EQ(names.size(), 9u);
}

} // namespace
} // namespace cachecraft
