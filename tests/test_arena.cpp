/**
 * @file
 * Tests for SlabArena / EngineArenas: handle stability, free-list
 * reuse, chunk growth, dead-access panics, and the reset() contract —
 * a reused arena must hand out handles in the same order as a fresh
 * one, which is what lets the campaign runner share one arena bundle
 * per worker without changing any report byte.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/arena.hpp"

namespace cachecraft {
namespace {

TEST(SlabArena, AcquireReleaseRoundTrip)
{
    SlabArena<int> arena;
    const auto h = arena.acquire(41);
    EXPECT_EQ(arena[h], 41);
    arena[h] += 1;
    EXPECT_EQ(arena[h], 42);
    EXPECT_EQ(arena.liveCount(), 1u);
    arena.release(h);
    EXPECT_EQ(arena.liveCount(), 0u);
}

TEST(SlabArena, HandlesAreStableAcrossGrowth)
{
    // Push well past one 256-slot chunk; earlier elements must not
    // move (the campaign workload holds handles across fills).
    SlabArena<std::string> arena;
    std::vector<SlabArena<std::string>::Handle> handles;
    for (int i = 0; i < 1000; ++i)
        handles.push_back(arena.acquire(std::to_string(i)));
    EXPECT_GE(arena.capacity(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(arena[handles[static_cast<std::size_t>(i)]],
                  std::to_string(i));
}

TEST(SlabArena, ReleasedSlotsAreReused)
{
    SlabArena<int> arena;
    const auto a = arena.acquire(1);
    const auto b = arena.acquire(2);
    arena.release(a);
    const auto c = arena.acquire(3); // LIFO: takes a's slot
    EXPECT_EQ(c, a);
    EXPECT_EQ(arena[b], 2);
    EXPECT_EQ(arena[c], 3);
    EXPECT_EQ(arena.capacity(), 256u); // no second chunk needed
}

/** Counts live instances to verify destruction. */
struct Tracked
{
    static int live;
    int value = 0;
    explicit Tracked(int v) : value(v) { ++live; }
    Tracked(Tracked &&other) noexcept : value(other.value) { ++live; }
    ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(SlabArena, ResetDestroysLiveObjects)
{
    ASSERT_EQ(Tracked::live, 0);
    {
        SlabArena<Tracked> arena;
        arena.acquire(Tracked{1});
        arena.acquire(Tracked{2});
        const auto dead = arena.acquire(Tracked{3});
        arena.release(dead);
        EXPECT_EQ(Tracked::live, 2);
        arena.reset();
        EXPECT_EQ(Tracked::live, 0);
        EXPECT_EQ(arena.liveCount(), 0u);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SlabArena, ResetRestoresFreshAllocationOrder)
{
    // The determinism contract behind cross-point arena reuse: after
    // reset(), handle assignment replays exactly as on a fresh arena,
    // whatever interleaving of acquires/releases came before.
    SlabArena<int> scratch;
    std::vector<SlabArena<int>::Handle> fresh;
    for (int i = 0; i < 10; ++i)
        fresh.push_back(scratch.acquire(int{i}));

    SlabArena<int> reused;
    // A messy first life: out-of-order releases, partial reuse.
    std::vector<SlabArena<int>::Handle> first;
    for (int i = 0; i < 300; ++i) // spills into a second chunk
        first.push_back(reused.acquire(int{i}));
    reused.release(first[7]);
    reused.release(first[299]);
    reused.release(first[0]);
    reused.acquire(-1);
    reused.reset();

    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(reused.acquire(int{i}), fresh[static_cast<std::size_t>(i)])
            << "allocation " << i << " diverged after reset";
}

TEST(SlabArenaDeathTest, DeadAccessAndDoubleReleasePanic)
{
    SlabArena<int> arena;
    const auto h = arena.acquire(1);
    arena.release(h);
    EXPECT_DEATH(arena[h], "dead");
    EXPECT_DEATH(arena.release(h), "release");
    SlabArena<int> empty;
    EXPECT_DEATH(empty[12345], "out-of-range");
}

TEST(SlabArena, PeakLiveTracksHighWaterMark)
{
    SlabArena<int> arena;
    EXPECT_EQ(arena.peakLive(), 0u);
    const auto a = arena.acquire(1);
    const auto b = arena.acquire(2);
    const auto c = arena.acquire(3);
    arena.release(b);
    arena.release(c);
    // Peak stays at the high-water mark, not the current live count.
    EXPECT_EQ(arena.liveCount(), 1u);
    EXPECT_EQ(arena.peakLive(), 3u);
    // Re-acquiring below the peak does not move it.
    arena.acquire(4);
    EXPECT_EQ(arena.peakLive(), 3u);
    arena.release(a);
    // reset() zeroes the peak: per-campaign-point peaks come from the
    // worker resetting its arenas before each point.
    arena.reset();
    EXPECT_EQ(arena.peakLive(), 0u);
    arena.acquire(5);
    EXPECT_EQ(arena.peakLive(), 1u);
}

TEST(EngineArenas, PeakLiveTotalSumsAllArenas)
{
    EngineArenas arenas;
    arenas.parked.acquire(SmallFn([] {}));
    arenas.reads.acquire(PendingRead{});
    const auto r = arenas.responses.acquire(PendingResponse{});
    arenas.responses.release(r);
    EXPECT_EQ(arenas.peakLiveTotal(), 3u);
    arenas.reset();
    EXPECT_EQ(arenas.peakLiveTotal(), 0u);
}

TEST(EngineArenas, ResetClearsEveryArena)
{
    EngineArenas arenas;
    arenas.parked.acquire(SmallFn([] {}));
    arenas.reads.acquire(PendingRead{});
    arenas.responses.acquire(PendingResponse{});
    EXPECT_EQ(arenas.parked.liveCount(), 1u);
    arenas.reset();
    EXPECT_EQ(arenas.parked.liveCount(), 0u);
    EXPECT_EQ(arenas.reads.liveCount(), 0u);
    EXPECT_EQ(arenas.responses.liveCount(), 0u);
}

} // namespace
} // namespace cachecraft
