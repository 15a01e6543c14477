/**
 * @file
 * Tests for the discrete-event engine: ordering, deterministic
 * tie-breaking, re-entrant scheduling, the livelock valve, the
 * wheel/overflow-heap horizon, per-event domain stamps, the sorted
 * per-slot message lists, and
 * equivalence with a brute-force reference model under randomized
 * schedules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "common/domain.hpp"
#include "common/rng.hpp"
#include "gpu/event_queue.hpp"

namespace cachecraft {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReentrantScheduling)
{
    EventQueue q;
    std::vector<Cycle> times;
    q.schedule(1, [&] {
        times.push_back(q.now());
        q.schedule(5, [&] {
            times.push_back(q.now());
            q.scheduleAfter(2, [&] { times.push_back(q.now()); });
        });
    });
    q.run();
    EXPECT_EQ(times, (std::vector<Cycle>{1, 5, 7}));
}

TEST(EventQueue, ScheduleAtNowRunsSameCycle)
{
    EventQueue q;
    bool inner = false;
    q.schedule(4, [&] { q.schedule(4, [&] { inner = true; }); });
    q.run();
    EXPECT_TRUE(inner);
    EXPECT_EQ(q.now(), 4u);
}

TEST(EventQueue, LivelockValveTrips)
{
    EventQueue q;
    std::function<void()> loop = [&] { q.scheduleAfter(1, loop); };
    q.schedule(0, loop);
    EXPECT_FALSE(q.run(1000));
}

TEST(EventQueue, ValveTripsAreCounted)
{
    EventQueue q;
    EXPECT_EQ(q.valveTrips(), 0u);

    std::function<void()> loop = [&] { q.scheduleAfter(1, loop); };
    q.schedule(0, loop);
    EXPECT_FALSE(q.run(100));
    EXPECT_EQ(q.valveTrips(), 1u);
    EXPECT_FALSE(q.run(100));
    EXPECT_EQ(q.valveTrips(), 2u);

    // A clean drain leaves the counter alone.
    EventQueue ok;
    ok.schedule(1, [] {});
    EXPECT_TRUE(ok.run(100));
    EXPECT_EQ(ok.valveTrips(), 0u);
}

TEST(EventQueue, EmptyAndSize)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    q.schedule(1, [] {});
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, PastSchedulingPanics)
{
    EventQueue q;
    q.schedule(10, [&q] {
        // now() == 10; scheduling at 5 is a bug.
        q.schedule(5, [] {});
    });
    EXPECT_DEATH(q.run(), "past");
}

TEST(EventQueue, ExecutedCountsExecutionsNotSchedules)
{
    // Regression pin: executedEvents() used to return the schedule
    // sequence counter, over-reporting whenever events were pending.
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    q.schedule(10, [] {});
    EXPECT_EQ(q.scheduledEvents(), 3u);
    EXPECT_EQ(q.executedEvents(), 0u);
    EXPECT_TRUE(q.runUntil(5));
    EXPECT_EQ(q.executedEvents(), 2u);
    EXPECT_EQ(q.scheduledEvents(), 3u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(q.executedEvents(), 3u);
}

TEST(EventQueue, PeakDepthTracksMaxPending)
{
    EventQueue q;
    EXPECT_EQ(q.peakDepth(), 0u);
    for (int i = 0; i < 5; ++i)
        q.schedule(static_cast<Cycle>(i + 1), [] {});
    EXPECT_EQ(q.peakDepth(), 5u);
    q.run();
    // Draining never lowers the recorded peak.
    EXPECT_EQ(q.peakDepth(), 5u);
    q.schedule(q.now() + 1, [] {});
    q.run();
    EXPECT_EQ(q.peakDepth(), 5u);
}

TEST(EventQueue, FarEventsBeyondWheelHorizonExecuteInOrder)
{
    // Deltas straddling the 4096-slot wheel horizon: exactly at the
    // last wheel slot (now + 4095), exactly at the first far cycle
    // (now + 4096), well past it, and a short one — all must still
    // come back in (cycle, insertion) order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(4096, [&] { order.push_back(3); }); // far at schedule
    q.schedule(4095, [&] { order.push_back(2); }); // last wheel slot
    q.schedule(100000, [&] { order.push_back(5); });
    q.schedule(3, [&] { order.push_back(1); });
    q.schedule(8192, [&] { order.push_back(4); }); // two horizons out
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(q.now(), 100000u);
}

TEST(EventQueue, FarEventTiesKeepInsertionOrder)
{
    // Ties in the overflow heap break by sequence, and a far event
    // migrated into the wheel keeps its slot relative to an event
    // scheduled directly into that cycle later.
    EventQueue q;
    std::vector<int> order;
    q.schedule(50000, [&] { order.push_back(0); });
    q.schedule(50000, [&] { order.push_back(1); });
    q.schedule(50000, [&] { order.push_back(2); });
    q.schedule(1, [&q, &order] {
        // From cycle 1, 50000 is still beyond the horizon.
        q.schedule(50000, [&order] { order.push_back(3); });
    });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, MigratedFarEventPrecedesLaterDirectSchedule)
{
    // An event that entered through the overflow heap must execute
    // before one scheduled into the same cycle *after* migration —
    // global seq order, regardless of the path taken into the wheel.
    EventQueue q;
    std::vector<int> order;
    q.schedule(6000, [&] { order.push_back(0); }); // far; seq 0
    q.schedule(5000, [&q, &order] {
        // 6000 is now inside the horizon (and already migrated).
        q.schedule(6000, [&order] { order.push_back(1); });
    });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RunUntilLimitJumpMigratesFarEvents)
{
    // runUntil advancing the clock to an event-free limit must still
    // pull far events whose cycle entered the horizon, so a
    // subsequent same-cycle schedule cannot jump ahead of them.
    EventQueue q;
    std::vector<int> order;
    q.schedule(5000, [&] { order.push_back(0); }); // far from cycle 0
    EXPECT_TRUE(q.runUntil(4000));                 // clock jumps, no events
    EXPECT_EQ(q.now(), 4000u);
    q.schedule(5000, [&] { order.push_back(1); }); // now near: wheel
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, NextAtSeesFarHeapAndInboxWithEmptyWheel)
{
    // A domain waiting on responses holds work only in the far heap
    // or in messages posted to it; here the wheel holds only one
    // message.
    EventQueue q;
    EXPECT_EQ(q.nextAt(), EventQueue::kNoEventCycle);
    std::vector<int> order;
    q.schedule(10000, [&] { order.push_back(2); }); // far
    EXPECT_EQ(q.nextAt(), 10000u);
    q.postMessage(9000, 0, 3, 0, 0, [&] { order.push_back(1); });
    EXPECT_EQ(q.nextAt(), 9000u);
    q.postMessage(50, 0, 1, 0, 0, [&] { order.push_back(0); });
    EXPECT_EQ(q.nextAt(), 50u);
    EXPECT_TRUE(q.runUntil(50));
    EXPECT_EQ(q.nextAt(), 9000u);
    EXPECT_TRUE(q.runUntil(9500));
    EXPECT_EQ(q.now(), 9500u);
    EXPECT_EQ(q.nextAt(), 10000u); // migrated into the wheel by now
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.nextAt(), EventQueue::kNoEventCycle);
}

TEST(EventQueue, NextAtWrapsFromLastSlotToFirst)
{
    // From slot 4000 (bitmap word 62) every occupied slot but 4095
    // lies past the wrap; the lookup must walk 4000 -> 4095 -> 0 in
    // cycle order.
    EventQueue q;
    q.schedule(5000, [] {}); // far from cycle 0: keeps the clock moving
    EXPECT_TRUE(q.runUntil(4000));
    EXPECT_EQ(q.now(), 4000u);
    std::vector<Cycle> ran;
    q.schedule(4100, [&] { ran.push_back(q.now()); });  // slot 4
    EXPECT_EQ(q.nextAt(), 4100u);
    q.schedule(4095, [&] { ran.push_back(q.now()); });  // slot 4095
    EXPECT_EQ(q.nextAt(), 4095u);
    EXPECT_TRUE(q.runUntil(4095));
    EXPECT_EQ(q.nextAt(), 4100u);
    q.schedule(4096, [&] { ran.push_back(q.now()); });  // slot 0
    EXPECT_EQ(q.nextAt(), 4096u);
    EXPECT_TRUE(q.runUntil(4096));
    EXPECT_EQ(q.nextAt(), 4100u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(ran, (std::vector<Cycle>{4095, 4096, 4100}));
}

TEST(EventQueue, NextAtFindsWrappedSlotBeforeNowInSameWord)
{
    // now() sits at slot 10; an event 4090 cycles out lands in slot 4
    // of the same bitmap word, behind now() in slot order but a full
    // turn ahead in time. Any event in a later word comes first.
    EventQueue q;
    q.schedule(20000, [] {});
    EXPECT_TRUE(q.runUntil(4096 + 10));
    const Cycle now = q.now();
    ASSERT_EQ(now & 4095, 10u);
    std::vector<Cycle> ran;
    q.schedule(now + 4090, [&] { ran.push_back(q.now()); }); // slot 4
    EXPECT_EQ(q.nextAt(), now + 4090);
    q.schedule(now + 100, [&] { ran.push_back(q.now()); }); // word 1
    EXPECT_EQ(q.nextAt(), now + 100);
    q.schedule(now + 3, [&] { ran.push_back(q.now()); });   // slot 13
    EXPECT_EQ(q.nextAt(), now + 3);
    EXPECT_TRUE(q.runUntil(now + 3));
    EXPECT_EQ(q.nextAt(), now + 100);
    EXPECT_TRUE(q.runUntil(now + 100));
    EXPECT_EQ(q.nextAt(), now + 4090);
    EXPECT_TRUE(q.runUntil(now + 4090));
    EXPECT_EQ(ran, (std::vector<Cycle>{now + 3, now + 100, now + 4090}));
}

TEST(EventQueue, ReentrantBurstGrowsSlabMidBucket)
{
    // One callback schedules 3000 events at now(), more than a slab
    // chunk holds, while its own bucket is being drained; they run in
    // the same cycle, in order, after the bucket's earlier events.
    EventQueue q;
    constexpr int kBurst = 3000;
    std::vector<int> order;
    q.schedule(5, [&] {
        order.push_back(-1);
        for (int i = 0; i < kBurst; ++i)
            q.schedule(q.now(), [&order, &q, i] {
                EXPECT_EQ(q.now(), 5u);
                order.push_back(i);
            });
    });
    q.schedule(5, [&] { order.push_back(-2); });
    q.schedule(6, [&] { order.push_back(kBurst); });
    EXPECT_EQ(q.peakDepth(), 3u);
    EXPECT_TRUE(q.run());
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst + 3));
    EXPECT_EQ(order[0], -1);
    EXPECT_EQ(order[1], -2);
    for (int i = 0; i <= kBurst; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i + 2)], i);
    EXPECT_EQ(q.executedEvents(), static_cast<std::uint64_t>(kBurst + 3));
    EXPECT_EQ(q.peakDepth(), static_cast<std::uint64_t>(kBurst + 2));
    EXPECT_EQ(q.now(), 6u);
}

TEST(EventQueue, ValveTripMidBucketResumesInOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.schedule(5, [&] {
        // Re-entrant append after the trip: still behind the rest.
        q.schedule(q.now(), [&] { order.push_back(11); });
        order.push_back(10);
    });
    q.schedule(7, [&] { order.push_back(12); });
    EXPECT_FALSE(q.run(4));
    EXPECT_EQ(q.valveTrips(), 1u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(q.now(), 5u);
    EXPECT_EQ(q.size(), 8u);
    EXPECT_EQ(q.nextAt(), 5u);
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       11, 12}));
    EXPECT_EQ(q.valveTrips(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventRunsInItsSchedulingDomainAndChildrenInherit)
{
    EventQueue q;
    std::vector<std::int32_t> seen;
    {
        const ScopedSimDomain scope(3);
        q.schedule(10, [&] {
            seen.push_back(tlsSimDomain);
            q.schedule(12, [&] { seen.push_back(tlsSimDomain); });
            q.scheduleAfter(5000, [&] { seen.push_back(tlsSimDomain); });
        });
    }
    EXPECT_EQ(tlsSimDomain, kDomainNone);
    EXPECT_TRUE(q.run());
    // The far child went through the overflow heap and kept its stamp.
    EXPECT_EQ(seen, (std::vector<std::int32_t>{3, 3, 3}));
    EXPECT_EQ(tlsSimDomain, kDomainNone); // restored after the drain
}

TEST(EventQueue, MessageRunsInItsDestinationDomainBeforeTheBucket)
{
    EventQueue q;
    std::vector<std::pair<int, std::int32_t>> seen;
    {
        const ScopedSimDomain scope(2);
        q.schedule(7, [&] { seen.emplace_back(1, tlsSimDomain); });
    }
    q.postMessage(7, 0, 2, 0, 5, [&] {
        seen.emplace_back(0, tlsSimDomain);
        // A follow-up of a delivered message stays in its domain.
        q.schedule(7, [&] { seen.emplace_back(2, tlsSimDomain); });
    });
    EXPECT_TRUE(q.run());
    const std::vector<std::pair<int, std::int32_t>> expected = {
        {0, 5}, {1, 2}, {2, 5}};
    EXPECT_EQ(seen, expected);
}

TEST(EventQueue, SameCycleMessagesPostedOutOfKeyOrderRunInKeyOrder)
{
    // The wheel slot's message list keeps (sent, src, seq) order even
    // when the poster does not: a tail append for the largest key, a
    // walk from the head otherwise.
    EventQueue q;
    std::vector<int> order;
    q.postMessage(40, 5, 2, 0, 0, [&] { order.push_back(3); });
    q.postMessage(40, 5, 1, 7, 0, [&] { order.push_back(2); });
    q.postMessage(40, 3, 9, 0, 0, [&] { order.push_back(0); });
    q.postMessage(40, 5, 1, 6, 0, [&] { order.push_back(1); });
    q.postMessage(40, 6, 0, 0, 0, [&] { order.push_back(4); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FarMessageFromAnEarlierBarrierPrecedesALaterNearOne)
{
    // Posted 5000 cycles ahead, the first message waits in the far
    // heap; the second, for the same cycle, is posted after the clock
    // moved in range and goes straight to the wheel. Key order, not
    // the structure a message waited in, decides.
    EventQueue q;
    std::vector<int> order;
    q.postMessage(5000, 0, 7, 0, 1, [&] { order.push_back(0); });
    EXPECT_TRUE(q.runUntil(2000)); // migrates the far message
    q.postMessage(5000, 2000, 0, 0, 1, [&] { order.push_back(1); });
    // A smaller key posted later still walks in ahead of both.
    q.postMessage(5000, 0, 3, 0, 1, [&] { order.push_back(-1); });
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(EventQueue, MigratedMessagesRunBeforeTheirCyclesEvents)
{
    // Both a far event and a far message for cycle 6000 migrate when
    // the clock passes 1904; events scheduled directly for 6000 after
    // that join the bucket behind the migrated event. Every message
    // of the cycle runs first.
    EventQueue q;
    std::vector<int> order;
    q.schedule(6000, [&] { order.push_back(1); }); // far event
    q.postMessage(6000, 0, 0, 0, 2, [&] { order.push_back(0); });
    EXPECT_TRUE(q.runUntil(3000));
    EXPECT_EQ(q.nextAt(), 6000u);
    q.schedule(6000, [&] { order.push_back(2); }); // near event
    EXPECT_TRUE(q.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EventsScheduledOutsideAnyDomainRunUnderNone)
{
    EventQueue q;
    std::vector<std::int32_t> seen;
    q.schedule(1, [&] { seen.push_back(tlsSimDomain); });
    {
        const ScopedSimDomain scope(4);
        q.schedule(2, [&] { seen.push_back(tlsSimDomain); });
    }
    q.schedule(3, [&] { seen.push_back(tlsSimDomain); });
    {
        // The caller's own domain is restored when runUntil returns.
        const ScopedSimDomain caller(9);
        EXPECT_TRUE(q.runUntil(3));
        EXPECT_EQ(tlsSimDomain, 9);
    }
    EXPECT_EQ(seen, (std::vector<std::int32_t>{kDomainNone, 4,
                                               kDomainNone}));
}

/**
 * Brute-force reference queue: a vector scanned for the minimum
 * (when, message-first, key) on every pop — messages for a cycle run
 * before its scheduled events, ordered by (sent, src, seq); scheduled
 * events order by insertion. Each event runs in its domain: the
 * scheduler's for scheduled events, the destination for messages.
 * Obviously correct, O(n) per event.
 */
class ReferenceQueue
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        ASSERT_GE(when, now_);
        events_.push_back(Event{when, {1, 0, 0, seq_++}, tlsSimDomain,
                                std::move(fn)});
    }

    void
    scheduleAfter(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    void
    postMessage(Cycle when, Cycle sent, std::uint32_t src,
                std::uint32_t seq, std::int32_t dest,
                std::function<void()> fn)
    {
        ASSERT_GT(when, now_);
        events_.push_back(
            Event{when, {0, sent, src, seq}, dest, std::move(fn)});
    }

    bool empty() const { return events_.empty(); }

    Cycle
    nextAt() const
    {
        Cycle next = EventQueue::kNoEventCycle;
        for (const Event &ev : events_)
            next = std::min(next, ev.when);
        return next;
    }

    void
    runUntil(Cycle limit)
    {
        while (true) {
            std::size_t best = events_.size();
            for (std::size_t i = 0; i < events_.size(); ++i) {
                if (events_[i].when > limit)
                    continue;
                if (best == events_.size() ||
                    std::tie(events_[i].when, events_[i].key) <
                        std::tie(events_[best].when, events_[best].key))
                    best = i;
            }
            if (best == events_.size())
                break;
            Event ev = std::move(events_[best]);
            events_.erase(events_.begin() +
                          static_cast<std::ptrdiff_t>(best));
            now_ = ev.when;
            const ScopedSimDomain scope(ev.domain);
            ev.fn();
        }
        if (!events_.empty() && now_ < limit)
            now_ = limit;
    }

  private:
    struct Event
    {
        Cycle when;
        /** (0 = message / 1 = scheduled, sent, src, seq) */
        std::tuple<int, Cycle, std::uint32_t, std::uint64_t> key;
        std::int32_t domain;
        std::function<void()> fn;
    };

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::vector<Event> events_;
};

/**
 * Property test: a randomized self-rescheduling workload (deltas
 * spanning both sides of the wheel horizon, bursts of ties, random
 * runUntil interleavings, cross-domain messages posted between
 * slices into cycles crowded with other messages and events) must
 * execute in the identical order, each event in the same domain, on
 * the real engine and on the reference model, and nextAt()
 * must equal the brute-force minimum of the pending cycles after every
 * schedule, post and runUntil.
 */
TEST(EventQueue, MatchesReferenceModelOnRandomSchedules)
{
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        // Both runs replay the same deterministic script.
        auto run_script = [trial](auto &q, std::vector<int> &executed) {
            SplitMix64 rng(trial * 7919 + 1);
            int next_id = 0;
            std::uint32_t next_msg = 0;
            // Cycles of the pending events: the brute-force nextAt().
            std::multiset<Cycle> pending;
            auto check_next = [&] {
                const Cycle expect = pending.empty()
                                         ? EventQueue::kNoEventCycle
                                         : *pending.begin();
                ASSERT_EQ(q.nextAt(), expect) << "at cycle " << q.now();
            };
            // Each event may reschedule up to two children while the
            // budget lasts; the same rng draws happen in the same
            // execution order on both engines.
            int budget = 400;
            std::function<void(int, Cycle)> fire = [&](int id,
                                                       Cycle when) {
                pending.erase(pending.find(when));
                executed.push_back(id);
                executed.push_back(tlsSimDomain);
                for (int child = 0; child < 2; ++child) {
                    if (budget-- <= 0)
                        return;
                    const std::uint64_t r = rng.next();
                    Cycle delta;
                    switch (r % 4) {
                      case 0:
                        delta = r % 3; // ties and same-cycle
                        break;
                      case 1:
                        delta = 1 + (r >> 8) % 100;
                        break;
                      case 2:
                        delta = 4000 + (r >> 8) % 200; // horizon edge
                        break;
                      default:
                        delta = 5000 + (r >> 8) % 20000; // far
                        break;
                    }
                    const int id_child = next_id++;
                    const Cycle at = q.now() + delta;
                    pending.insert(at);
                    q.scheduleAfter(delta, [&fire, id_child, at] {
                        fire(id_child, at);
                    });
                    check_next();
                }
            };
            for (int i = 0; i < 8; ++i) {
                const int id_root = next_id++;
                const Cycle at = rng.next() % 6000;
                pending.insert(at);
                // Roots in domains none, 0, 1, 2; children inherit.
                const ScopedSimDomain scope(i % 4 - 1);
                q.schedule(at, [&fire, id_root, at] { fire(id_root, at); });
                check_next();
            }
            // Drain through randomized runUntil slices to exercise
            // clock jumps and mid-bucket stops; between slices, post
            // a few messages as the epoch barrier would, some tying
            // with scheduled events and with each other on cycle.
            Cycle limit = 0;
            while (!q.empty()) {
                const int posts = static_cast<int>(rng.next() % 6);
                for (int m = 0; m < posts && budget > 0; ++m, --budget) {
                    const std::uint64_t r = rng.next();
                    // Narrow delivery windows, so messages share cycles
                    // with each other (out of key order) and with
                    // events: half join a pending cycle (a far one
                    // migrates into a slot that already holds events),
                    // the rest land within 8 cycles of now or of the
                    // wheel horizon.
                    Cycle at = q.now() + 1 + (r >> 8) % 8 +
                               (r % 3 == 1 ? 4096 : 0);
                    const auto later = pending.upper_bound(q.now());
                    const auto choices = static_cast<std::uint64_t>(
                        std::distance(later, pending.end()));
                    if (r % 2 == 0 && choices > 0)
                        at = *std::next(later, static_cast<std::ptrdiff_t>(
                                                   (r >> 16) % choices));
                    const Cycle sent =
                        q.now() - std::min<Cycle>(q.now(), (r >> 40) % 2);
                    const auto src = static_cast<std::uint32_t>(r % 3);
                    const int id_msg = next_id++;
                    pending.insert(at);
                    q.postMessage(at, sent, src, next_msg++,
                                  static_cast<std::int32_t>((src + 1) % 3),
                                  [&fire, id_msg, at] {
                                      fire(id_msg, at);
                                  });
                    check_next();
                }
                limit += 1 + rng.next() % 9000;
                q.runUntil(limit);
                check_next();
            }
        };

        std::vector<int> real, ref;
        {
            EventQueue q;
            run_script(q, real);
        }
        {
            ReferenceQueue q;
            run_script(q, ref);
        }
        ASSERT_FALSE(real.empty());
        EXPECT_EQ(real, ref) << "trial " << trial;
    }
}

} // namespace
} // namespace cachecraft
