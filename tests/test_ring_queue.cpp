/**
 * @file
 * Tests for RingQueue: FIFO order across wrap-around and growth,
 * push_front, erase at an index, and move-only elements — each
 * checked against std::deque over random operation sequences.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "common/ring_queue.hpp"
#include "common/rng.hpp"

namespace cachecraft {
namespace {

template <typename Ring>
void
expectSameContents(const Ring &ring, const std::deque<int> &want)
{
    ASSERT_EQ(ring.size(), want.size());
    ASSERT_EQ(ring.empty(), want.empty());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(ring[i], want[i]) << "index " << i;
}

TEST(RingQueue, FifoAcrossWrapAndGrowth)
{
    RingQueue<int> ring;
    std::deque<int> want;
    // Keep the queue about half full while its head laps the buffer
    // several times, then grow it past the initial capacity.
    for (int i = 0; i < 100; ++i) {
        ring.push_back(i);
        want.push_back(i);
        if (i % 2 == 1) {
            ASSERT_EQ(ring.front(), want.front());
            ring.pop_front();
            want.pop_front();
        }
    }
    expectSameContents(ring, want);
    for (int i = 0; i < 100; ++i) {
        ring.push_back(1000 + i);
        want.push_back(1000 + i);
    }
    expectSameContents(ring, want);
}

TEST(RingQueue, MatchesDequeOnRandomOperations)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Xoshiro256 rng(seed);
        RingQueue<int> ring;
        std::deque<int> want;
        for (int step = 0; step < 2000; ++step) {
            const std::uint64_t op = rng.below(6);
            if (op <= 1 || want.empty()) {
                ring.push_back(step);
                want.push_back(step);
            } else if (op == 2) {
                ring.push_front(step);
                want.push_front(step);
            } else if (op == 3) {
                ring.pop_front();
                want.pop_front();
            } else {
                // Erase inside a small window, as FR-FCFS does.
                const std::size_t i = rng.below(std::min<std::size_t>(
                    want.size(), op == 4 ? 8 : want.size()));
                ring.erase(i);
                want.erase(want.begin() + static_cast<std::ptrdiff_t>(i));
            }
            expectSameContents(ring, want);
        }
    }
}

TEST(RingQueue, HoldsMoveOnlyElements)
{
    RingQueue<std::unique_ptr<int>> ring;
    for (int i = 0; i < 40; ++i)
        ring.push_back(std::make_unique<int>(i));
    ring.push_front(std::make_unique<int>(-1));
    ring.erase(3); // drops 2
    std::unique_ptr<int> first = std::move(ring.front());
    ring.pop_front();
    EXPECT_EQ(*first, -1);
    ASSERT_EQ(ring.size(), 39u);
    EXPECT_EQ(*ring[0], 0);
    EXPECT_EQ(*ring[2], 3);
    EXPECT_EQ(*ring[38], 39);
}

} // namespace
} // namespace cachecraft
