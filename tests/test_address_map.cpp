/**
 * @file
 * Tests for the address-mapping pipeline, especially the two
 * inline-ECC layouts (mechanism R3): channel-locality of metadata,
 * non-overlap of data and ECC regions, and the co-located layout's
 * same-row guarantee.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "dram/address_map.hpp"

namespace cachecraft {
namespace {

DramGeometry
testGeometry()
{
    DramGeometry g;
    g.numChannels = 8;
    g.numBanks = 16;
    g.rowBytes = 2048;
    g.channelCapacity = 64 * 1024 * 1024;
    return g;
}

TEST(AddressMap, ChannelRoundTrip)
{
    const AddressMap map(testGeometry(), EccLayout::kNone);
    Xoshiro256 rng(1);
    for (int i = 0; i < 5000; ++i) {
        const Addr logical = rng.below(1ull << 32);
        const ChannelId ch = map.channelOf(logical);
        const Addr local = map.channelLocalOf(logical);
        EXPECT_LT(ch, 8u);
        EXPECT_EQ(map.globalOf(ch, local), logical);
    }
}

TEST(AddressMap, ChunkStaysInOneChannel)
{
    const AddressMap map(testGeometry(), EccLayout::kSegregated);
    Xoshiro256 rng(2);
    for (int i = 0; i < 2000; ++i) {
        const Addr chunk = chunkBase(rng.below(1ull << 30));
        const ChannelId ch = map.channelOf(chunk);
        for (std::size_t off = 0; off < kChunkBytes; off += kSectorBytes)
            ASSERT_EQ(map.channelOf(chunk + off), ch);
    }
}

TEST(AddressMap, ConsecutiveChunksInterleaveChannels)
{
    const AddressMap map(testGeometry(), EccLayout::kNone);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(map.channelOf(static_cast<Addr>(i) * kChunkBytes),
                  i % 8);
    }
}

TEST(AddressMap, CoordDecomposition)
{
    const AddressMap map(testGeometry(), EccLayout::kNone);
    const auto coord = map.coordOf(3, 2048 * 16 + 100);
    EXPECT_EQ(coord.channel, 3u);
    EXPECT_EQ(coord.column, 100u);
    EXPECT_EQ(coord.bank, 0u); // global row 16 % 16 banks
    EXPECT_EQ(coord.row, 1u);  // global row 16 / 16 banks
}

class LayoutSweep : public ::testing::TestWithParam<EccLayout>
{
  protected:
    AddressMap map_{testGeometry(), GetParam()};
};

TEST_P(LayoutSweep, DataPhysIsInjective)
{
    Xoshiro256 rng(3);
    std::set<Addr> seen;
    for (int i = 0; i < 3000; ++i) {
        const Addr local = sectorBase(rng.below(1ull << 24));
        const Addr phys = map_.dataPhys(local);
        EXPECT_EQ(offsetIn(phys, kSectorBytes), 0u);
        // Injectivity on distinct sector addresses.
        if (!seen.insert(phys).second) {
            // Allow duplicates only if the same local was drawn twice.
            SUCCEED();
        }
    }
}

TEST_P(LayoutSweep, EccNeverOverlapsData)
{
    if (GetParam() == EccLayout::kNone)
        GTEST_SKIP();
    Xoshiro256 rng(4);
    // Collect data-physical ranges and ECC-chunk ranges; verify
    // disjointness over a large random sample.
    for (int i = 0; i < 3000; ++i) {
        const Addr a = sectorBase(rng.below(1ull << 24));
        const Addr b = sectorBase(rng.below(1ull << 24));
        const Addr data_phys = map_.dataPhys(a);
        const Addr ecc_phys = map_.eccChunkPhys(b);
        // An ECC chunk [ecc, ecc+32) must not intersect the data
        // sector [data, data+32).
        const bool disjoint = ecc_phys + kEccChunkBytes <= data_phys ||
                              data_phys + kSectorBytes <= ecc_phys;
        ASSERT_TRUE(disjoint)
            << "data " << data_phys << " vs ecc " << ecc_phys;
    }
}

TEST_P(LayoutSweep, EccChunkSharedByWholeDataChunk)
{
    if (GetParam() == EccLayout::kNone)
        GTEST_SKIP();
    Xoshiro256 rng(5);
    for (int i = 0; i < 1000; ++i) {
        const Addr chunk = chunkBase(rng.below(1ull << 24));
        const Addr ecc = map_.eccChunkPhys(chunk);
        for (std::size_t off = 0; off < kChunkBytes; off += kSectorBytes)
            ASSERT_EQ(map_.eccChunkPhys(chunk + off), ecc);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LayoutSweep,
    ::testing::Values(EccLayout::kNone, EccLayout::kSegregated,
                      EccLayout::kCoLocated),
    [](const auto &param_info) {
        switch (param_info.param) {
          case EccLayout::kNone:
            return "none";
          case EccLayout::kSegregated:
            return "segregated";
          case EccLayout::kCoLocated:
            return "colocated";
        }
        return "unknown";
    });

TEST(CoLocatedLayout, EccInSameRowAsData)
{
    // The R3 guarantee: a chunk's metadata lives in the same DRAM row
    // as its data.
    const AddressMap map(testGeometry(), EccLayout::kCoLocated);
    Xoshiro256 rng(6);
    for (int i = 0; i < 3000; ++i) {
        const Addr local = sectorBase(rng.below(1ull << 24));
        const Addr data_phys = map.dataPhys(local);
        const Addr ecc_phys = map.eccChunkPhys(local);
        ASSERT_EQ(data_phys / map.geometry().rowBytes,
                  ecc_phys / map.geometry().rowBytes)
            << "local " << local;
    }
}

TEST(SegregatedLayout, EccInCarveOutRegion)
{
    const AddressMap map(testGeometry(), EccLayout::kSegregated);
    const Addr data_top = map.usableBytesPerChannel();
    Xoshiro256 rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Addr local = sectorBase(rng.below(data_top));
        EXPECT_EQ(map.dataPhys(local), local); // identity data mapping
        EXPECT_GE(map.eccChunkPhys(local), data_top);
        EXPECT_LT(map.eccChunkPhys(local) + kEccChunkBytes,
                  map.geometry().channelCapacity);
    }
}

TEST(CoLocatedLayout, SevenChunksPerTwoKiBRow)
{
    const AddressMap map(testGeometry(), EccLayout::kCoLocated);
    EXPECT_EQ(map.chunksPerRow(), 7u);
}

TEST(UsableCapacity, OrderedByLayoutOverhead)
{
    const DramGeometry g = testGeometry();
    const AddressMap none(g, EccLayout::kNone);
    const AddressMap seg(g, EccLayout::kSegregated);
    const AddressMap co(g, EccLayout::kCoLocated);
    EXPECT_GT(none.usableBytesPerChannel(), seg.usableBytesPerChannel());
    // Co-located wastes slightly more than segregated (row slack).
    EXPECT_GE(seg.usableBytesPerChannel(), co.usableBytesPerChannel());
    // But both ECC layouts keep >= 85 % of raw capacity.
    EXPECT_GT(co.usableBytesPerChannel(),
              g.channelCapacity * 85 / 100);
    EXPECT_EQ(none.usableBytesTotal(),
              none.usableBytesPerChannel() * g.numChannels);
}

TEST(CoLocatedLayout, DataPhysRoundTripDense)
{
    // The repacked mapping must be a bijection from logical chunks to
    // (row, slot) pairs: walk a dense range and check no collisions.
    const AddressMap map(testGeometry(), EccLayout::kCoLocated);
    std::set<Addr> phys_seen;
    for (Addr local = 0; local < 64 * kChunkBytes; local += kSectorBytes) {
        const Addr phys = map.dataPhys(local);
        ASSERT_TRUE(phys_seen.insert(phys).second) << "local " << local;
    }
}

TEST(LayoutNames, Strings)
{
    EXPECT_STREQ(toString(EccLayout::kNone), "none");
    EXPECT_STREQ(toString(EccLayout::kSegregated), "segregated");
    EXPECT_STREQ(toString(EccLayout::kCoLocated), "co-located");
}

} // namespace
} // namespace cachecraft
