/**
 * @file
 * Tests for the sectored set-associative tag array — the structure
 * reused for L1s, L2 slices, and the metadata reconstruction cache.
 */

#include <gtest/gtest.h>

#include "cache/sectored_cache.hpp"

namespace cachecraft {
namespace {

CacheParams
smallParams()
{
    CacheParams p;
    p.sizeBytes = 4096; // 32 lines
    p.assoc = 4;        // 8 sets
    p.lineBytes = 128;
    p.sectorBytes = 32;
    return p;
}

TEST(SectoredCache, GeometryErrorNamesEachInvalidShape)
{
    EXPECT_EQ(cacheGeometryError(smallParams()), "");

    auto with = [](auto mutate) {
        CacheParams p = smallParams();
        mutate(p);
        return cacheGeometryError(p);
    };
    EXPECT_EQ(with([](CacheParams &p) { p.sectorBytes = 24; }),
              "cache line/sector sizes must be powers of two");
    EXPECT_EQ(with([](CacheParams &p) { p.sectorBytes = 256; }),
              "cache line size must be a multiple of the sector size");
    EXPECT_EQ(with([](CacheParams &p) { p.assoc = 0; }),
              "cache associativity must be positive");
    EXPECT_EQ(with([](CacheParams &p) { p.sizeBytes = 1000; }),
              "cache size must be divisible by line size * assoc");
    EXPECT_EQ(with([](CacheParams &p) { p.sizeBytes = 1536; }), // 3 sets
              "cache must have a power-of-two number of sets");
    EXPECT_EQ(with([](CacheParams &p) { p.sectorBytes = 8; }),
              "at most 8 sectors per line supported (SectorMask width)");
}

TEST(SectoredCache, MissThenSectorFillThenHit)
{
    SectoredCache cache("c", smallParams(), nullptr);
    const Addr addr = 0x1000;
    auto r = cache.access(addr, false);
    EXPECT_FALSE(r.lineHit);
    EXPECT_FALSE(r.sectorHit);

    cache.fill(addr, 0x1, 0); // sector 0 only
    r = cache.access(addr, false);
    EXPECT_TRUE(r.lineHit);
    EXPECT_TRUE(r.sectorHit);

    // Same line, different sector: line hit, sector miss.
    r = cache.access(addr + 32, false);
    EXPECT_TRUE(r.lineHit);
    EXPECT_FALSE(r.sectorHit);
}

TEST(SectoredCache, SectorMaskAccumulates)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x2000, 0b0001, 0);
    cache.fill(0x2000 + 32, 0b0010, 0);
    EXPECT_EQ(cache.presentSectors(0x2000), 0b0011);
}

TEST(SectoredCache, WriteSetsDirtyBit)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x3000, 0x3, 0);
    cache.access(0x3000, true);
    EXPECT_EQ(cache.dirtySectors(0x3000), 0x1);
    cache.access(0x3000 + 32, true);
    EXPECT_EQ(cache.dirtySectors(0x3000), 0x3);
}

TEST(SectoredCache, FillWithDirtyMask)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x3000, 0b0101, 0b0100);
    EXPECT_EQ(cache.presentSectors(0x3000), 0b0101);
    EXPECT_EQ(cache.dirtySectors(0x3000), 0b0100);
}

TEST(SectoredCache, DirtyMaskLimitedToFilledSectors)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x3000, 0b0001, 0b1111);
    EXPECT_EQ(cache.dirtySectors(0x3000), 0b0001);
}

TEST(SectoredCache, EvictionReturnsVictimState)
{
    CacheParams p = smallParams();
    p.assoc = 2;
    p.sizeBytes = 2 * 128; // one set, two ways
    SectoredCache cache("c", p, nullptr);

    cache.fill(0x0000, 0xF, 0x3); // dirty sectors 0,1
    cache.fill(0x1000, 0xF, 0);
    // Third distinct line forces an eviction (LRU: 0x0000).
    const auto ev = cache.fill(0x2000, 0x1, 0);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x0000u);
    EXPECT_EQ(ev->validMask, 0xF);
    EXPECT_EQ(ev->dirtyMask, 0x3);
    EXPECT_EQ(cache.presentSectors(0x0000), 0);
}

TEST(SectoredCache, LruOrderRespectedOnEviction)
{
    CacheParams p = smallParams();
    p.assoc = 2;
    p.sizeBytes = 2 * 128;
    SectoredCache cache("c", p, nullptr);
    cache.fill(0x0000, 0x1, 0);
    cache.fill(0x1000, 0x1, 0);
    cache.access(0x0000, false); // make 0x1000 the LRU line
    const auto ev = cache.fill(0x2000, 0x1, 0);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x1000u);
}

TEST(SectoredCache, InvalidateReturnsStateAndClears)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x4000, 0x3, 0x1);
    const auto ev = cache.invalidate(0x4000);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->validMask, 0x3);
    EXPECT_EQ(ev->dirtyMask, 0x1);
    EXPECT_FALSE(cache.probe(0x4000).lineHit);
    EXPECT_FALSE(cache.invalidate(0x4000).has_value());
}

TEST(SectoredCache, CleanSectors)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x5000, 0xF, 0xF);
    cache.cleanSectors(0x5000, 0x5);
    EXPECT_EQ(cache.dirtySectors(0x5000), 0xA);
}

TEST(SectoredCache, ProbeDoesNotDisturbState)
{
    CacheParams p = smallParams();
    p.assoc = 2;
    p.sizeBytes = 2 * 128;
    SectoredCache cache("c", p, nullptr);
    cache.fill(0x0000, 0x1, 0);
    cache.fill(0x1000, 0x1, 0);
    // Probing 0x0000 must NOT refresh its LRU position.
    cache.probe(0x0000);
    const auto ev = cache.fill(0x2000, 0x1, 0);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, 0x0000u);
}

TEST(SectoredCache, StatsCounted)
{
    StatRegistry reg;
    SectoredCache cache("l2", smallParams(), &reg);
    cache.access(0x100, false); // line miss
    cache.fill(0x100, 0x1, 0);
    cache.access(0x100, false);      // sector hit
    cache.access(0x100 + 32, false); // sector miss (line present)
    EXPECT_EQ(cache.statAccesses.value(), 3u);
    EXPECT_EQ(cache.statLineMisses.value(), 1u);
    EXPECT_EQ(cache.statSectorHits.value(), 1u);
    EXPECT_EQ(cache.statSectorMisses.value(), 1u);
    EXPECT_EQ(reg.counter("l2.accesses")->value(), 3u);
}

TEST(SectoredCache, ResidentLineWalk)
{
    SectoredCache cache("c", smallParams(), nullptr);
    cache.fill(0x0000, 0x1, 0x1);
    cache.fill(0x1000, 0x2, 0);
    std::size_t count = 0;
    SectorMask dirty_total = 0;
    cache.forEachLine([&](Addr, SectorMask, SectorMask dirty) {
        ++count;
        dirty_total |= dirty;
    });
    EXPECT_EQ(count, 2u);
    EXPECT_EQ(dirty_total, 0x1);
    EXPECT_EQ(cache.numResidentLines(), 2u);
}

TEST(SectoredCache, MrcGeometryWorks)
{
    // The MRC instantiates this class with 32 B lines and 4 B sectors.
    CacheParams p;
    p.sizeBytes = 1024;
    p.assoc = 4;
    p.lineBytes = 32;
    p.sectorBytes = 4;
    SectoredCache mrc("mrc", p, nullptr);
    mrc.fill(0x40, 0xFF, 0);
    EXPECT_TRUE(mrc.access(0x40 + 4, false).sectorHit);
    EXPECT_TRUE(mrc.access(0x40 + 28, false).sectorHit);
    EXPECT_FALSE(mrc.access(0x60, false).lineHit);
    EXPECT_EQ(mrc.sectorsPerLine(), 8u);
}

} // namespace
} // namespace cachecraft
