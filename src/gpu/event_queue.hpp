/**
 * @file
 * The discrete-event engine driving the whole simulator.
 *
 * Components schedule closures at absolute cycles; the queue executes
 * them in (cycle, insertion-order) order. Determinism matters: ties
 * are broken by insertion order, never by heap internals.
 *
 * Implementation: a bucketed timing wheel. Cycles within the near
 * horizon (now .. now + kWheelSlots) land in per-cycle FIFO buckets —
 * appending to a bucket is both O(1) and exactly insertion order, so
 * near events need no explicit sequence number. A bucket is a FIFO
 * list in the queue's FnListSlab (common/fn_list.hpp; not a
 * SlabArena: this path wants no per-access liveness check and no side
 * arrays). Slab nodes never move, so an event runs in place in its
 * node, which is then freed — re-entrant scheduling at now() appends
 * behind it in the same drain, even when that grows the slab. Events
 * beyond the horizon wait, already in their slab node, in one
 * overflow heap of (cycle, seq, node) keys and migrate into their
 * bucket as the clock approaches; migration runs on every clock
 * advance, i.e. before any event at the new horizon edge could be
 * scheduled directly, so bucket order always equals global schedule
 * order. Callbacks are fixed-capacity SmallFn values, so steady-state
 * scheduling performs no heap allocation at all.
 *
 * The next pending cycle is found in O(1): an occupancy bitmap has one
 * bit per slot, and a 64-bit summary word one bit per non-zero bitmap
 * word, so the lookup is a countr_zero on the summary (masked to the
 * words after now's, else wrapped to the start of the wheel) and one
 * on the chosen word.
 *
 * Every event carries the engine domain that owns it (in its slab
 * node's tag; see common/domain.hpp). schedule() stamps the domain
 * currently executing (tlsSimDomain), so an event's follow-ups
 * inherit its domain, and runUntil() sets tlsSimDomain to each
 * event's stamp while it runs. Events scheduled outside any domain
 * run under kDomainNone.
 *
 * The domain/epoch engine adds a second ingress: postMessage()
 * delivers a cross-domain message (a crossbar hop) to a named domain
 * at a delivery cycle D. Messages for cycle D execute *before* D's
 * event bucket, in canonical (send cycle, source domain, source seq)
 * key order — a total order independent of the order in which the
 * barrier posted them. Each wheel slot therefore holds a second list,
 * of messages, kept sorted by that key (stored in the node's tag) and
 * sharing the slot's occupancy bit. The barrier posts in key order,
 * so an insert compares only against the tail and appends in O(1); a
 * post out of key order walks from the head to its place. Messages
 * beyond the horizon wait in the same overflow heap as far events and
 * are inserted by key when they migrate. Only the epoch barrier
 * posts, between runUntil() calls; deliveries must be strictly in the
 * future.
 */

#ifndef CACHECRAFT_GPU_EVENT_QUEUE_HPP
#define CACHECRAFT_GPU_EVENT_QUEUE_HPP

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/domain.hpp"
#include "common/fn_list.hpp"
#include "common/inplace_function.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "telemetry/host_profiler.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

/** Discrete-event queue with deterministic tie-breaking. */
class EventQueue
{
  public:
    using EventFn = SmallFn;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /** Schedule @p fn to run at absolute cycle @p when (>= now). */
    void
    schedule(Cycle when, EventFn &&fn)
    {
        if (when < now_)
            panic("event scheduled in the past");
        const std::uint32_t node = slab_.acquire(std::move(fn));
        slab_.tagOf(node).domain =
            static_cast<std::uint16_t>(tlsSimDomain);
        if (when - now_ < kWheelSlots)
            linkEvent(when & kWheelMask, node);
        else
            pushFar(when, node, /* message= */ false);
        countPending();
    }

    /** Schedule @p fn @p delta cycles from now. */
    void
    scheduleAfter(Cycle delta, EventFn &&fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Deliver a cross-domain message: run @p fn in domain @p dest at
     * cycle @p when (strictly after now()), ordered against other
     * messages by the canonical (when, sent, src, seq) key and before
     * any wheel-bucket event of cycle @p when. Barrier-only; posting
     * in key order costs O(1) (see file comment).
     */
    void
    postMessage(Cycle when, Cycle sent, std::uint32_t src,
                std::uint32_t seq, std::int32_t dest, EventFn &&fn)
    {
        if (when <= now_)
            panic("cross-domain message posted at or before the "
                  "queue's clock");
        const std::uint32_t node = slab_.acquire(std::move(fn));
        slab_.tagOf(node) =
            NodeTag{sent, src, seq, static_cast<std::uint16_t>(dest)};
        if (when - now_ < kWheelSlots)
            linkMessage(when & kWheelMask, node);
        else
            pushFar(when, node, /* message= */ true);
        countPending();
    }

    /** True if no events are pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return pending_; }

    /**
     * Run events until the queue drains.
     * @param max_events safety valve against livelock bugs.
     * @return true if drained; false if the valve tripped.
     */
    bool
    run(std::uint64_t max_events = 2'000'000'000ull)
    {
        return runUntil(~Cycle{0}, max_events);
    }

    /**
     * Run every event scheduled at or before cycle @p limit, then
     * stop. If events remain beyond @p limit the clock advances to
     * @p limit exactly (so a caller sampling at epoch boundaries sees
     * aligned cycles); a drained queue leaves the clock at the last
     * executed event.
     * Each event runs with tlsSimDomain set to its stamp; the caller's
     * domain is restored on return.
     * @return true if the bound was reached (or the queue drained);
     *         false if the @p max_events valve tripped.
     */
    bool
    runUntil(Cycle limit, std::uint64_t max_events = 2'000'000'000ull)
    {
        // One drain chunk per call (epoch-sized), so the zone cost is
        // per chunk, never per event.
        CC_HOST_ZONE("events.run_until");
        if (now_ > limit)
            return true;
        const ScopedSimDomain caller(tlsSimDomain);
        std::uint64_t budget = max_events;
        while (true) {
            // The slot's messages run before its events, in canonical
            // key order (the list is kept sorted).
            const std::size_t slot = now_ & kWheelMask;
            if (!drainList(wheel_[slot].messages, slot, budget) ||
                !drainList(wheel_[slot].events, slot, budget))
                return false;
            const Cycle next = nextEventCycle();
            if (next == kNoEvent)
                return true; // drained; clock stays on the last event
            if (next > limit) {
                if (now_ < limit) {
                    CACHECRAFT_VERIFY_HOOK(onClockAdvance(now_, limit));
                    now_ = limit;
                    migrateFar();
                }
                return true;
            }
            if (budget == 0) {
                ++valveTrips_;
                return false;
            }
            CACHECRAFT_VERIFY_HOOK(onClockAdvance(now_, next));
            now_ = next;
            migrateFar();
        }
    }

    /** Total events executed so far (for perf accounting). */
    std::uint64_t executedEvents() const { return executed_; }

    /** Total events ever scheduled (executed + still pending). */
    std::uint64_t scheduledEvents() const { return seq_; }

    /** High-water mark of pending events. */
    std::uint64_t peakDepth() const { return peakDepth_; }

    /**
     * Times the max_events safety valve fired. A non-zero value means
     * some run()/runUntil() returned early and results are truncated.
     */
    std::uint64_t valveTrips() const { return valveTrips_; }

    /** nextAt() when nothing is pending. */
    static constexpr Cycle kNoEventCycle = ~Cycle{0};

    /**
     * Earliest pending cycle (wheel or far heap), or
     * kNoEventCycle when drained. The epoch loop polls this once per
     * epoch to skip idle epochs wholesale.
     */
    Cycle
    nextAt() const
    {
        if (pending_ == 0)
            return kNoEventCycle;
        return nextEventCycle();
    }

  private:
    static constexpr std::size_t kWheelSlots = 4096;
    static constexpr Cycle kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kBitmapWords = kWheelSlots / 64;
    static constexpr Cycle kNoEvent = ~Cycle{0};
    static_assert((kWheelSlots & (kWheelSlots - 1)) == 0,
                  "wheel size must be a power of two");
    static_assert(kBitmapWords == 64,
                  "one summary word covers the whole bitmap");

    /** Per-node tag: the owning domain and, for a message, its
     *  canonical (sent, src, seq) key. */
    struct NodeTag
    {
        Cycle sent = 0;
        std::uint32_t src = 0;
        std::uint32_t seq = 0;
        std::uint16_t domain = 0;
    };

    using Slab = FnListSlab<EventFn, NodeTag>;
    using List = Slab::List;

    /** One wheel slot: its cycle's messages (sorted by key), then its
     *  events (FIFO). */
    struct Slot
    {
        List messages;
        List events;
    };

    /** True if message tag @p a runs before message tag @p b. */
    static bool
    keyBefore(const NodeTag &a, const NodeTag &b)
    {
        if (a.sent != b.sent)
            return a.sent < b.sent;
        if (a.src != b.src)
            return a.src < b.src;
        return a.seq < b.seq;
    }

    /** An event or message beyond the wheel horizon, waiting in slab
     *  node @p node; seq (the global schedule/post count) orders
     *  same-cycle ties, so far events migrate in schedule order. */
    struct FarKey
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t node;
        bool message;
    };

    /** Heap comparator: true when @p a migrates after @p b, so the
     *  heap front is the earliest (cycle, seq) pair. */
    struct FarAfter
    {
        bool
        operator()(const FarKey &a, const FarKey &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Earliest pending cycle (>= now_), or kNoEvent when drained. */
    Cycle
    nextEventCycle() const
    {
        Cycle next = summary_ != 0 ? now_ + wheelDistance() : kNoEvent;
        if (!far_.empty() && far_.front().when < next)
            next = far_.front().when;
        return next;
    }

    /** Cycles from now_ to the earliest occupied wheel slot; requires
     *  summary_ != 0. Every wheel event lies in [now_, now_ +
     *  kWheelSlots), so slots before now_'s are a wrap past slot
     *  kWheelSlots - 1. */
    std::size_t
    wheelDistance() const
    {
        const std::size_t start = now_ & kWheelMask;
        const std::size_t word = start >> 6;
        const std::uint64_t here = occupied_[word] >> (start & 63);
        if (here != 0)
            return static_cast<std::size_t>(std::countr_zero(here));
        // Words after now_'s; failing that, wrap to the lowest word,
        // which may be now_'s own (its bits at or after now_ are zero).
        const std::uint64_t later = summary_ & (~std::uint64_t{1} << word);
        const auto w = static_cast<std::size_t>(
            std::countr_zero(later != 0 ? later : summary_));
        const std::size_t slot =
            (w << 6) +
            static_cast<std::size_t>(std::countr_zero(occupied_[w]));
        return (slot - start) & kWheelMask;
    }

    /** Count one newly pending event or message. */
    void
    countPending()
    {
        ++seq_;
        ++pending_;
        if (pending_ > peakDepth_)
            peakDepth_ = pending_;
    }

    /** Park slab node @p node, due at @p when, in the overflow heap. */
    void
    pushFar(Cycle when, std::uint32_t node, bool message)
    {
        far_.push_back(FarKey{when, seq_, node, message});
        std::push_heap(far_.begin(), far_.end(), FarAfter{});
    }

    /** Pull far events and messages that entered the wheel horizon
     *  into their slots, in (cycle, seq) order. */
    void
    migrateFar()
    {
        while (!far_.empty() && far_.front().when - now_ < kWheelSlots) {
            std::pop_heap(far_.begin(), far_.end(), FarAfter{});
            const FarKey far = far_.back();
            far_.pop_back();
            if (far.message)
                linkMessage(far.when & kWheelMask, far.node);
            else
                linkEvent(far.when & kWheelMask, far.node);
        }
    }

    /**
     * Run @p list (one of @p slot's) to empty, each node in place
     * under its domain (kDomainNone round-trips through the stamp as
     * 0xFFFF) and then freed. Each node is unlinked before it runs, so
     * re-entrant scheduling at now() appends behind it in this same
     * drain and a valve trip leaves the rest linked.
     * @return false if the valve tripped.
     */
    bool
    drainList(List &list, std::size_t slot, std::uint64_t &budget)
    {
        while (!list.empty()) {
            if (budget == 0) {
                ++valveTrips_;
                return false;
            }
            --budget;
            const std::uint32_t node = slab_.popFront(list);
            if (list.empty())
                markEmptyIfIdle(slot);
            ++executed_;
            --pending_;
            tlsSimDomain =
                static_cast<std::int16_t>(slab_.tagOf(node).domain);
            slab_.fnOf(node)();
            slab_.release(node);
        }
        return true;
    }

    /** Link event @p node at the tail of @p slot's event bucket. */
    void
    linkEvent(std::size_t slot, std::uint32_t node)
    {
        List &events = wheel_[slot].events;
        slab_.insertAfter(events, events.tail, node);
        markOccupied(slot);
    }

    /** Link message @p node into @p slot's message list at its key's
     *  place: after the tail when the key is the largest (the
     *  barrier's canonical posting order), else after the last
     *  smaller key, found by walking from the head. */
    void
    linkMessage(std::size_t slot, std::uint32_t node)
    {
        List &messages = wheel_[slot].messages;
        const NodeTag &key = slab_.tagOf(node);
        std::uint32_t prev = messages.tail;
        if (prev != Slab::kNil && keyBefore(key, slab_.tagOf(prev))) {
            prev = Slab::kNil;
            for (std::uint32_t at = messages.head;
                 !keyBefore(key, slab_.tagOf(at)); at = slab_.nextNode(at))
                prev = at;
        }
        slab_.insertAfter(messages, prev, node);
        markOccupied(slot);
    }

    /** Set @p slot's occupancy bit. */
    void
    markOccupied(std::size_t slot)
    {
        const std::size_t word = slot >> 6;
        occupied_[word] |= std::uint64_t{1} << (slot & 63);
        summary_ |= std::uint64_t{1} << word;
    }

    /** Clear @p slot's occupancy bit if both of its lists are empty
     *  (one of them just emptied). */
    void
    markEmptyIfIdle(std::size_t slot)
    {
        if (!wheel_[slot].messages.empty() || !wheel_[slot].events.empty())
            return;
        const std::size_t word = slot >> 6;
        occupied_[word] &= ~(std::uint64_t{1} << (slot & 63));
        if (occupied_[word] == 0)
            summary_ &= ~(std::uint64_t{1} << word);
    }

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t peakDepth_ = 0;
    std::uint64_t valveTrips_ = 0;
    std::array<Slot, kWheelSlots> wheel_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    std::uint64_t summary_ = 0; //!< bit w: occupied_[w] != 0
    Slab slab_; //!< every pending event's and message's callback
    std::vector<FarKey> far_; //!< min-heap, see FarAfter
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_EVENT_QUEUE_HPP
