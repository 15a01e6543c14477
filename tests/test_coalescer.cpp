/**
 * @file
 * Tests for the SIMT coalescer.
 */

#include <gtest/gtest.h>

#include "gpu/coalescer.hpp"

namespace cachecraft {
namespace {

/** An explicit-lane instruction over @p lanes (which every caller
 *  keeps alive until coalescing returns). */
WarpInst
memInst(const std::vector<Addr> &lanes, bool write = false)
{
    return WarpInst::explicitLanes(lanes, write);
}

TEST(Coalescer, FullyCoalescedWarp)
{
    // 32 consecutive 4 B lanes = 128 B = exactly 4 sectors.
    std::vector<Addr> lanes;
    for (std::size_t i = 0; i < kWarpLanes; ++i)
        lanes.push_back(0x1000 + i * 4);
    const auto sectors = coalesce(memInst(lanes));
    ASSERT_EQ(sectors.size(), 4u);
    EXPECT_EQ(sectors[0].sectorAddr, 0x1000u);
    EXPECT_EQ(sectors[3].sectorAddr, 0x1060u);
}

TEST(Coalescer, SingleSectorWhenAllLanesShare)
{
    std::vector<Addr> lanes(kWarpLanes, 0x2004);
    const auto sectors = coalesce(memInst(lanes));
    ASSERT_EQ(sectors.size(), 1u);
    EXPECT_EQ(sectors[0].sectorAddr, 0x2000u);
}

TEST(Coalescer, FullyDivergent)
{
    std::vector<Addr> lanes;
    for (std::size_t i = 0; i < kWarpLanes; ++i)
        lanes.push_back(0x10000 + i * 4096);
    const auto sectors = coalesce(memInst(lanes));
    EXPECT_EQ(sectors.size(), kWarpLanes);
}

TEST(Coalescer, StridedTwoLanesPerSector)
{
    std::vector<Addr> lanes;
    for (std::size_t i = 0; i < kWarpLanes; ++i)
        lanes.push_back(i * 16); // two lanes per 32 B sector
    const auto sectors = coalesce(memInst(lanes));
    EXPECT_EQ(sectors.size(), kWarpLanes / 2);
}

TEST(Coalescer, PreservesFirstAppearanceOrder)
{
    const auto sectors =
        coalesce(memInst({0x100, 0x40, 0x100, 0x200, 0x40}));
    ASSERT_EQ(sectors.size(), 3u);
    EXPECT_EQ(sectors[0].sectorAddr, 0x100u);
    EXPECT_EQ(sectors[1].sectorAddr, 0x40u);
    EXPECT_EQ(sectors[2].sectorAddr, 0x200u);
}

TEST(Coalescer, PropagatesWriteFlag)
{
    const auto reads = coalesce(memInst({0x0}, false));
    const auto writes = coalesce(memInst({0x0}, true));
    EXPECT_FALSE(reads[0].isWrite);
    EXPECT_TRUE(writes[0].isWrite);
}

TEST(Coalescer, EmptyLaneListYieldsNothing)
{
    EXPECT_TRUE(coalesce(memInst({})).empty());
}

TEST(Coalescer, PartialWarp)
{
    const auto sectors = coalesce(memInst({0x0, 0x4, 0x8}));
    ASSERT_EQ(sectors.size(), 1u);
}

TEST(Coalescer, MoreLanesThanAWarpStillDedupeInOrder)
{
    // Hand-written and fuzzed traces do not bound the lane count. 48
    // lanes: 40 distinct sectors in descending order, then repeats of
    // the first eight.
    std::vector<Addr> lanes;
    for (Addr i = 0; i < 40; ++i)
        lanes.push_back((40 - i) * 0x1000 + 4);
    for (Addr i = 0; i < 8; ++i)
        lanes.push_back((40 - i) * 0x1000 + 8);
    std::vector<SectorRequest> sectors = {SectorRequest{0x42, true}};
    coalesceInto(memInst(lanes, true), sectors); // replaces, not appends
    ASSERT_EQ(sectors.size(), 40u);
    for (std::size_t i = 0; i < sectors.size(); ++i) {
        EXPECT_EQ(sectors[i].sectorAddr, (40 - i) * 0x1000);
        EXPECT_TRUE(sectors[i].isWrite);
    }
}

} // namespace
} // namespace cachecraft
