/**
 * @file
 * Tests for the compact kernel trace: instruction size, affine lanes
 * that take no pool bytes, explicit lanes of any count, and deep
 * copies whose lanes outlive the original trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include "gpu/kernel_trace.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft {
namespace {

std::vector<Addr>
laneVector(const WarpInst &inst)
{
    const auto lanes = inst.lanes();
    return {lanes.begin(), lanes.end()};
}

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.footprintBytes = 256 * 1024;
    p.numWarps = 8;
    p.memInstsPerWarp = 16;
    return p;
}

TEST(KernelTrace, WarpInstIsCompactAndOwnsNothing)
{
    static_assert(sizeof(WarpInst) <= 24);
    static_assert(std::is_trivially_copyable_v<WarpInst>);
    EXPECT_LE(sizeof(WarpInst), 24u);
}

TEST(KernelTrace, CoalescedInstructionsTakeNoPoolBytes)
{
    // Every streaming access is fully coalesced.
    const KernelTrace streaming =
        makeWorkload(WorkloadKind::kStreaming, smallParams());
    ASSERT_GT(streaming.totalMemInsts(), 0u);
    EXPECT_EQ(streaming.laneBytes(), 0u);
    for (const auto &warp : streaming.warps)
        for (const WarpInst &inst : warp)
            EXPECT_TRUE(inst.isAffine());

    // spmv pools exactly its gathers' lanes; its coalesced row reads
    // take nothing.
    const KernelTrace spmv =
        makeWorkload(WorkloadKind::kSpmv, smallParams());
    std::size_t explicit_lanes = 0;
    for (const auto &warp : spmv.warps)
        for (const WarpInst &inst : warp)
            if (inst.isMem && !inst.isAffine())
                explicit_lanes += inst.laneCount();
    EXPECT_EQ(explicit_lanes, spmv.totalMemInsts() / 2 * kWarpLanes);
    EXPECT_EQ(spmv.laneBytes(), explicit_lanes * sizeof(Addr));
}

TEST(KernelTrace, MemInstChoosesTheCompactForm)
{
    KernelTrace trace;
    const std::vector<Addr> run{0x100, 0x104, 0x108};
    const WarpInst affine = trace.memInst(run, true, 3);
    EXPECT_TRUE(affine.isAffine());
    EXPECT_TRUE(affine.isMem);
    EXPECT_TRUE(affine.isWrite);
    EXPECT_EQ(affine.computeCycles, 3u);
    EXPECT_EQ(laneVector(affine), run);
    EXPECT_EQ(trace.laneBytes(), 0u);

    const std::vector<Addr> gather{0x100, 0x104, 0x10C};
    const WarpInst spread = trace.memInst(gather, false);
    EXPECT_FALSE(spread.isAffine());
    EXPECT_EQ(laneVector(spread), gather);
    EXPECT_EQ(trace.laneBytes(), gather.size() * sizeof(Addr));
}

TEST(KernelTrace, LaneCountsBeyondAWarpAndAcrossPoolBlocks)
{
    // Fuzz reproducers do not bound lane counts; many wide gathers
    // also span several pool blocks, none of which may move, and one
    // gather is wider than a block.
    KernelTrace trace;
    trace.warps.emplace_back();
    std::vector<std::vector<Addr>> want;
    for (std::size_t i = 0; i < 1200; ++i) {
        const std::size_t count = i == 600 ? 70000 : 40 + i % 90;
        std::vector<Addr> lanes;
        for (std::size_t l = 0; l < count; ++l)
            lanes.push_back((i * 131 + l * 977) * 64);
        trace.warps[0].push_back(trace.memInst(lanes, false));
        want.push_back(std::move(lanes));
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(trace.warps[0][i].laneCount(), want[i].size());
        EXPECT_EQ(laneVector(trace.warps[0][i]), want[i]) << i;
    }
}

TEST(KernelTrace, CopiedLanesSurviveTheOriginal)
{
    auto original = std::make_unique<KernelTrace>(
        makeWorkload(WorkloadKind::kRandomAccess, smallParams()));
    std::vector<std::vector<std::vector<Addr>>> want;
    for (const auto &warp : original->warps) {
        want.emplace_back();
        for (const WarpInst &inst : warp)
            want.back().push_back(laneVector(inst));
    }
    KernelTrace copy(*original);
    KernelTrace assigned;
    assigned = *original;
    original.reset();

    for (const KernelTrace *trace : {&copy, &assigned}) {
        ASSERT_EQ(trace->warps.size(), want.size());
        EXPECT_EQ(trace->laneBytes(),
                  trace->totalMemInsts() * kWarpLanes * sizeof(Addr));
        for (std::size_t w = 0; w < want.size(); ++w) {
            ASSERT_EQ(trace->warps[w].size(), want[w].size());
            for (std::size_t i = 0; i < want[w].size(); ++i)
                EXPECT_EQ(laneVector(trace->warps[w][i]), want[w][i]);
        }
    }
}

TEST(KernelTrace, MovedTraceKeepsItsLanes)
{
    KernelTrace source = makeWorkload(WorkloadKind::kSpmv, smallParams());
    const WarpInst gather = source.warps[0][1];
    ASSERT_FALSE(gather.isAffine());
    const std::vector<Addr> want = laneVector(gather);
    const KernelTrace moved = std::move(source);
    // The pool's blocks moved with it: the same storage, still live.
    EXPECT_EQ(moved.warps[0][1].laneData(), gather.laneData());
    EXPECT_EQ(laneVector(moved.warps[0][1]), want);
}

} // namespace
} // namespace cachecraft
