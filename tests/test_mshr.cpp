/**
 * @file
 * Tests for the MSHR file: allocation, merging, capacity stalls, and
 * release semantics (entry-owned waiters woken in arrival order).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/mshr.hpp"

namespace cachecraft {
namespace {

using Outcome = MshrFile::AllocOutcome;

TEST(Mshr, NewEntryThenMerge)
{
    MshrFile mshr("m", 4, nullptr);
    EXPECT_EQ(mshr.allocate(0x100, 0x1, nullptr), Outcome::kNewEntry);
    EXPECT_EQ(mshr.allocate(0x100, 0x1, nullptr),
              Outcome::kMergedExisting);
    EXPECT_EQ(mshr.allocate(0x100, 0x2, nullptr),
              Outcome::kMergedNewSector);
    EXPECT_EQ(mshr.size(), 1u);
    EXPECT_EQ(mshr.requestedSectors(0x100), 0x3);
}

TEST(Mshr, CapacityStall)
{
    MshrFile mshr("m", 2, nullptr);
    EXPECT_EQ(mshr.allocate(0x100, 1, nullptr), Outcome::kNewEntry);
    EXPECT_EQ(mshr.allocate(0x200, 1, nullptr), Outcome::kNewEntry);
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.allocate(0x300, 1, nullptr), Outcome::kFull);
    // Merging into an existing entry still works when full.
    EXPECT_EQ(mshr.allocate(0x100, 1, nullptr), Outcome::kMergedExisting);
    EXPECT_EQ(mshr.statStalls.value(), 1u);
}

TEST(Mshr, FullKeepsTheWaiterForTheCaller)
{
    MshrFile mshr("m", 1, nullptr);
    mshr.allocate(0x100, 1, nullptr);
    int ran = 0;
    SmallFn parked = [&ran] { ++ran; };
    EXPECT_EQ(mshr.allocate(0x200, 1, std::move(parked)), Outcome::kFull);
    ASSERT_TRUE(static_cast<bool>(parked));
    parked();
    EXPECT_EQ(ran, 1);
}

TEST(Mshr, ReleaseWakesWaitersInArrivalOrder)
{
    MshrFile mshr("m", 4, nullptr);
    std::vector<int> order;
    mshr.allocate(0x100, 1, [&order] { order.push_back(11); });
    mshr.allocate(0x200, 1, [&order] { order.push_back(99); });
    mshr.allocate(0x100, 1, [&order] { order.push_back(22); });
    mshr.allocate(0x100, 2, nullptr); // a waiter-less merge (prefetch)
    mshr.allocate(0x100, 1, [&order] { order.push_back(33); });

    const MshrFile::Waiters waiters = mshr.release(0x100);
    // The entry is gone before any waiter runs.
    EXPECT_FALSE(mshr.contains(0x100));
    EXPECT_EQ(mshr.size(), 1u);
    EXPECT_TRUE(order.empty());
    mshr.wake(waiters);
    EXPECT_EQ(order, (std::vector<int>{11, 22, 33}));
}

TEST(Mshr, AllocateDuringWakeOpensFreshEntry)
{
    // The L1 re-admission shape: a woken waiter misses the same line
    // again before the drain finishes. It must get a new entry (and a
    // new fetch), never join the list being drained.
    MshrFile mshr("m", 2, nullptr);
    std::vector<int> order;
    std::vector<Outcome> reallocs;
    mshr.allocate(0x100, 1, [&] {
        order.push_back(1);
        reallocs.push_back(
            mshr.allocate(0x100, 1, [&order] { order.push_back(3); }));
    });
    mshr.allocate(0x100, 1, [&] {
        order.push_back(2);
        reallocs.push_back(
            mshr.allocate(0x100, 1, [&order] { order.push_back(4); }));
    });
    mshr.wake(mshr.release(0x100));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(reallocs,
              (std::vector<Outcome>{Outcome::kNewEntry,
                                    Outcome::kMergedExisting}));
    ASSERT_TRUE(mshr.contains(0x100));
    mshr.wake(mshr.release(0x100));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(mshr.size(), 0u);
}

TEST(Mshr, ReleaseUnknownIsEmpty)
{
    MshrFile mshr("m", 4, nullptr);
    EXPECT_TRUE(mshr.release(0xDEAD).empty());
}

TEST(Mshr, ReuseAfterRelease)
{
    MshrFile mshr("m", 1, nullptr);
    EXPECT_EQ(mshr.allocate(0x100, 1, nullptr), Outcome::kNewEntry);
    EXPECT_EQ(mshr.allocate(0x200, 1, nullptr), Outcome::kFull);
    mshr.release(0x100);
    EXPECT_EQ(mshr.allocate(0x200, 1, nullptr), Outcome::kNewEntry);
}

TEST(Mshr, StatsCounted)
{
    StatRegistry reg;
    MshrFile mshr("l1mshr", 2, &reg);
    mshr.allocate(0x100, 1, nullptr);
    mshr.allocate(0x100, 1, nullptr);
    EXPECT_EQ(reg.counter("l1mshr.allocations")->value(), 1u);
    EXPECT_EQ(reg.counter("l1mshr.merges")->value(), 1u);
}

} // namespace
} // namespace cachecraft
