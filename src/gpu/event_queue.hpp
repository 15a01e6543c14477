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
 * beyond the horizon go to a small overflow heap keyed on (cycle, seq)
 * and migrate into their bucket as the clock approaches; migration
 * runs on every clock advance, i.e. before any event at the new
 * horizon edge could be scheduled directly, so bucket order always
 * equals global schedule order. Callbacks are fixed-capacity SmallFn values, so steady-state
 * scheduling performs no heap allocation at all.
 *
 * The next pending cycle is found in O(1): an occupancy bitmap has one
 * bit per slot, and a 64-bit summary word one bit per non-zero bitmap
 * word, so the lookup is a countr_zero on the summary (masked to the
 * words after now's, else wrapped to the start of the wheel) and one
 * on the chosen word.
 *
 * Every event carries the engine domain that owns it (a 16-bit stamp
 * beside its slab node's next link; see common/domain.hpp).
 * schedule() stamps the domain currently executing (tlsSimDomain), so
 * an event's follow-ups inherit its domain, and runUntil() sets
 * tlsSimDomain to each event's stamp while it runs. Events scheduled
 * outside any domain run under kDomainNone.
 *
 * The domain/epoch engine adds a second ingress: postMessage()
 * delivers a cross-domain message (a crossbar hop) to a named domain
 * through a small inbox heap of canonical
 * (delivery cycle, send cycle, source domain, source seq) keys; each
 * key names a slab node holding the message's callback, so heap moves
 * shuffle 32-byte keys, never callbacks.
 * Messages for cycle D execute *before* D's wheel bucket, in key
 * order — a total order independent of the order in which the
 * barrier posted them. Only the epoch barrier posts, between
 * runUntil() calls; deliveries must be strictly in the future.
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
    schedule(Cycle when, EventFn fn)
    {
        if (when < now_)
            panic("event scheduled in the past");
        const auto domain = static_cast<std::uint16_t>(tlsSimDomain);
        if (when - now_ < kWheelSlots) {
            append(when & kWheelMask, domain, std::move(fn));
        } else {
            far_.push_back(FarEvent{when, seq_, domain, std::move(fn)});
            std::push_heap(far_.begin(), far_.end(), FarAfter{});
        }
        ++seq_;
        ++pending_;
        if (pending_ > peakDepth_)
            peakDepth_ = pending_;
    }

    /** Schedule @p fn @p delta cycles from now. */
    void
    scheduleAfter(Cycle delta, EventFn fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /**
     * Deliver a cross-domain message: run @p fn in domain @p dest at
     * cycle @p when (strictly after now()), ordered against other
     * messages by the canonical (when, sent, src, seq) key and before
     * any wheel-bucket event of cycle @p when. Barrier-only; see file
     * comment.
     */
    void
    postMessage(Cycle when, Cycle sent, std::uint32_t src,
                std::uint32_t seq, std::int32_t dest, EventFn fn)
    {
        if (when <= now_)
            panic("cross-domain message posted at or before the "
                  "queue's clock");
        const std::uint32_t node = slab_.acquire(std::move(fn));
        slab_.tagOf(node) = static_cast<std::uint16_t>(dest);
        inbox_.push_back(InboxKey{when, sent, src, seq, node});
        std::push_heap(inbox_.begin(), inbox_.end(), InboxAfter{});
        ++seq_;
        ++pending_;
        if (pending_ > peakDepth_)
            peakDepth_ = pending_;
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
            // Inbox messages for this cycle run before its bucket, in
            // canonical key order (the heap pops them sorted).
            while (!inbox_.empty() && inbox_.front().when == now_) {
                if (budget == 0) {
                    ++valveTrips_;
                    return false;
                }
                --budget;
                std::pop_heap(inbox_.begin(), inbox_.end(), InboxAfter{});
                const std::uint32_t node = inbox_.back().node;
                inbox_.pop_back();
                runNode(node);
            }
            // Unlink each event before running it in place, so
            // re-entrant scheduling at now() appends behind it in this
            // same drain and a valve trip leaves the rest linked.
            const std::size_t slot = now_ & kWheelMask;
            Bucket &bucket = wheel_[slot];
            while (!bucket.empty()) {
                if (budget == 0) {
                    ++valveTrips_;
                    return false;
                }
                --budget;
                const std::uint32_t node = slab_.popFront(bucket);
                if (bucket.empty())
                    markEmpty(slot);
                runNode(node);
            }
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
     * Earliest pending cycle (wheel, far heap, or inbox), or
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

    /** An event beyond the wheel horizon; seq orders same-cycle ties
     *  against other far events (near events order by bucket FIFO). */
    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        std::uint16_t domain;
        EventFn fn;
    };

    /** Heap comparator: true when @p a fires after @p b, so the heap
     *  front is the earliest (cycle, seq) pair. */
    struct FarAfter
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** A cross-domain message awaiting delivery (see postMessage);
     *  its callback waits in slab node @p node. */
    struct InboxKey
    {
        Cycle when;
        Cycle sent;
        std::uint32_t src;
        std::uint32_t seq;
        std::uint32_t node;
    };

    /** Heap comparator: front is the least (when, sent, src, seq). */
    struct InboxAfter
    {
        bool
        operator()(const InboxKey &a, const InboxKey &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.sent != b.sent)
                return a.sent > b.sent;
            if (a.src != b.src)
                return a.src > b.src;
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
        if (!inbox_.empty() && inbox_.front().when < next)
            next = inbox_.front().when;
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

    /** Pull far events that entered the wheel horizon into their
     *  buckets, in (cycle, seq) order. */
    void
    migrateFar()
    {
        while (!far_.empty() && far_.front().when - now_ < kWheelSlots) {
            std::pop_heap(far_.begin(), far_.end(), FarAfter{});
            append(far_.back().when & kWheelMask, far_.back().domain,
                   std::move(far_.back().fn));
            far_.pop_back();
        }
    }

    /** Run unlinked @p node in place under its domain, then free it
     *  (kDomainNone round-trips through the stamp as 0xFFFF). */
    void
    runNode(std::uint32_t node)
    {
        ++executed_;
        --pending_;
        tlsSimDomain = static_cast<std::int16_t>(slab_.tagOf(node));
        slab_.fnOf(node)();
        slab_.release(node);
    }

    /** Link @p fn, owned by @p domain, at the tail of @p slot's
     *  bucket. */
    void
    append(std::size_t slot, std::uint16_t domain, EventFn &&fn)
    {
        slab_.tagOf(slab_.pushBack(wheel_[slot], std::move(fn))) = domain;
        const std::size_t word = slot >> 6;
        occupied_[word] |= std::uint64_t{1} << (slot & 63);
        summary_ |= std::uint64_t{1} << word;
    }

    /** Clear @p slot's occupancy bit (its bucket just emptied). */
    void
    markEmpty(std::size_t slot)
    {
        const std::size_t word = slot >> 6;
        occupied_[word] &= ~(std::uint64_t{1} << (slot & 63));
        if (occupied_[word] == 0)
            summary_ &= ~(std::uint64_t{1} << word);
    }

    /** One wheel slot: a FIFO list of slab nodes. */
    using Bucket = FnListSlab<EventFn>::List;

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t peakDepth_ = 0;
    std::uint64_t valveTrips_ = 0;
    std::array<Bucket, kWheelSlots> wheel_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    std::uint64_t summary_ = 0; //!< bit w: occupied_[w] != 0
    FnListSlab<EventFn> slab_; //!< wheel buckets + inbox callbacks
    std::vector<FarEvent> far_;
    std::vector<InboxKey> inbox_; //!< min-heap, see InboxAfter
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_EVENT_QUEUE_HPP
