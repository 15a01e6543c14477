/**
 * @file
 * Engine micro-costs (google-benchmark): host events/sec of the
 * timing-wheel EventQueue against the priority_queue + std::function
 * engine it replaced (kept here verbatim as LegacyEventQueue, so the
 * comparison survives the old code's deletion).
 *
 * The churn workload is shaped like the simulator's own event mix:
 * mostly short deltas (pipeline/service-slot hops), a band of medium
 * deltas (cache latencies), a band of long deltas (DRAM service), and
 * a thin far tail that lands beyond the wheel horizon to exercise the
 * overflow heap. Both engines execute the identical deterministic
 * schedule, so items/sec is directly comparable.
 *
 * BM_EngineCrossbarMessages times the queue's cross-domain message
 * path alone, with crossbar-shaped traffic. The memory-path cases time
 * the per-sector miss path's bookkeeping on its own: MSHR
 * allocate/merge/release with entry-owned waiters, the DRAM FR-FCFS
 * queue under a deep backlog, and sparse stored-byte reads.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "cache/mshr.hpp"
#include "common/domain.hpp"
#include "common/rng.hpp"
#include "core/cachecraft.hpp"
#include "dram/dram_model.hpp"
#include "gpu/event_queue.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/reuse_dist.hpp"

using namespace cachecraft;

namespace {

/** The engine this PR replaced, verbatim (see file comment). */
class LegacyEventQueue
{
  public:
    Cycle now() const { return now_; }

    void
    schedule(Cycle when, std::function<void()> fn)
    {
        if (when < now_)
            panic("event scheduled in the past");
        heap_.push(Event{when, seq_++, std::move(fn)});
    }

    void
    scheduleAfter(Cycle delta, std::function<void()> fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    bool empty() const { return heap_.empty(); }

    bool
    run(std::uint64_t max_events = 2'000'000'000ull)
    {
        std::uint64_t executed = 0;
        while (!heap_.empty()) {
            if (executed++ >= max_events)
                return false;
            Event ev = std::move(const_cast<Event &>(heap_.top()));
            heap_.pop();
            now_ = ev.when;
            ev.fn();
        }
        return true;
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        std::function<void()> fn;

        bool
        operator>(const Event &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
};

/** Delta mix approximating the simulator's schedule distances. */
Cycle
nextDelta(SplitMix64 &rng)
{
    const std::uint64_t r = rng.next();
    const std::uint64_t pick = r % 100;
    if (pick < 40)
        return 1 + (r >> 8) % 4; // service slots, pipeline hops
    if (pick < 70)
        return 20 + (r >> 8) % 41; // cache hit latencies
    if (pick < 98)
        return 80 + (r >> 8) % 221; // DRAM service times
    return 5000 + (r >> 8) % 5001; // beyond the wheel horizon
}

/** One self-rescheduling actor; fires `left` times, then stops. */
template <class Engine> struct Actor
{
    Engine *q = nullptr;
    SplitMix64 rng{0};
    std::uint32_t left = 0;
    std::uint64_t *checksum = nullptr;

    void
    step()
    {
        *checksum += q->now();
        if (--left == 0)
            return;
        q->scheduleAfter(nextDelta(rng), [this] { step(); });
    }
};

constexpr std::size_t kActors = 256;
constexpr std::uint32_t kFiresPerActor = 2000;

template <class Engine>
void
BM_EngineChurn(benchmark::State &state)
{
    std::uint64_t checksum = 0;
    for (auto _ : state) {
        Engine q;
        std::vector<Actor<Engine>> actors(kActors);
        for (std::size_t a = 0; a < kActors; ++a) {
            actors[a].q = &q;
            actors[a].rng = SplitMix64(a + 1);
            actors[a].left = kFiresPerActor;
            actors[a].checksum = &checksum;
            Actor<Engine> *actor = &actors[a];
            q.scheduleAfter(nextDelta(actor->rng),
                            [actor] { actor->step(); });
        }
        if (!q.run())
            state.SkipWithError("valve tripped");
    }
    benchmark::DoNotOptimize(checksum);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kActors * kFiresPerActor);
    state.SetLabel("events/sec is items_per_second");
}

BENCHMARK_TEMPLATE(BM_EngineChurn, LegacyEventQueue)
    ->Name("BM_EngineChurn/legacy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EngineChurn, EventQueue)
    ->Name("BM_EngineChurn/wheel")
    ->Unit(benchmark::kMillisecond);

/**
 * Pure scheduling pressure: every event reschedules two children
 * until a depth budget runs out, keeping thousands of events pending
 * — the regime where heap reordering cost dominates the legacy
 * engine.
 */
template <class Engine>
void
BM_EngineFanout(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        Engine q;
        SplitMix64 rng(42);
        std::uint64_t budget = 200'000;
        std::function<void()> spawn = [&] {
            ++events;
            if (budget < 2)
                return;
            budget -= 2;
            q.scheduleAfter(nextDelta(rng), spawn);
            q.scheduleAfter(nextDelta(rng), spawn);
        };
        budget -= 1;
        q.scheduleAfter(1, spawn);
        if (!q.run())
            state.SkipWithError("valve tripped");
    }
    benchmark::DoNotOptimize(events);
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

BENCHMARK_TEMPLATE(BM_EngineFanout, LegacyEventQueue)
    ->Name("BM_EngineFanout/legacy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_EngineFanout, EventQueue)
    ->Name("BM_EngineFanout/wheel")
    ->Unit(benchmark::kMillisecond);

/**
 * GpuSystem's epoch loop over sparse domains: 24 domains on one
 * domain-stamped queue, of which 4 run busy self-rescheduling actors
 * and 20 hold only a far-heap timer plus messages the busy ones send
 * them — the shape of an SM waiting on responses. Every 16-cycle
 * epoch polls nextAt() once and makes one runUntil() call, as the
 * drain loop does, then posts the epoch's staged messages to their
 * destination domains.
 */
class SparseDomains
{
  public:
    static constexpr std::uint32_t kDomains = 24;
    static constexpr std::uint32_t kBusy = 4;
    static constexpr std::uint32_t kActors = 128; // spread over kBusy
    static constexpr std::uint32_t kFiresPerActor = 500;
    static constexpr Cycle kEpoch = 16;

    SparseDomains()
    {
        firesLeft_.assign(kActors, kFiresPerActor);
        for (std::uint32_t a = 0; a < kActors; ++a) {
            const ScopedSimDomain scope(static_cast<std::int32_t>(a % kBusy));
            queue_.scheduleAfter(nextDelta(rng_), [this, a] { actorStep(a); });
        }
        for (std::uint32_t d = kBusy; d < kDomains; ++d) {
            const ScopedSimDomain scope(static_cast<std::int32_t>(d));
            timer(d);
        }
    }

    /** Drain like GpuSystem::run's epoch loop; returns events. */
    std::uint64_t
    run()
    {
        std::uint32_t seq = 0;
        while (true) {
            const Cycle earliest = queue_.nextAt();
            if (earliest == EventQueue::kNoEventCycle)
                break;
            queue_.runUntil((earliest / kEpoch) * kEpoch + kEpoch - 1);
            // Barrier: deliver one epoch after the send, strictly in
            // the queue's future.
            for (const Message &m : staged_)
                queue_.postMessage(m.sent + kEpoch, m.sent, m.src, seq++,
                                   static_cast<std::int32_t>(m.dest),
                                   [this, d = m.dest] { onMessage(d); });
            staged_.clear();
        }
        return queue_.executedEvents();
    }

  private:
    struct Message
    {
        Cycle sent;
        std::uint32_t src;
        std::uint32_t dest;
    };

    /** Runs in domain a % kBusy; its reschedule inherits the stamp. */
    void
    actorStep(std::uint32_t a)
    {
        const std::uint32_t d = a % kBusy;
        if (rng_.next() % 8 == 0)
            staged_.push_back(
                Message{queue_.now(), d,
                        kBusy + static_cast<std::uint32_t>(
                                    rng_.next() % (kDomains - kBusy))});
        if (--firesLeft_[a] == 0) {
            --actorsLeft_;
            return;
        }
        queue_.scheduleAfter(nextDelta(rng_), [this, a] { actorStep(a); });
    }

    /** A sparse domain's reply to a message: half go back to a busy
     *  domain. */
    void
    onMessage(std::uint32_t d)
    {
        if (rng_.next() % 2 == 0)
            staged_.push_back(Message{
                queue_.now(), d,
                static_cast<std::uint32_t>(rng_.next() % kBusy)});
    }

    /** Far beyond the wheel horizon, so the timer sits in the far heap
     *  for most of its period; stops when the actors are done. */
    void
    timer(std::uint32_t d)
    {
        if (actorsLeft_ == 0)
            return;
        queue_.scheduleAfter(20000 + rng_.next() % 10000,
                             [this, d] { timer(d); });
    }

    EventQueue queue_;
    std::vector<std::uint32_t> firesLeft_;
    std::uint32_t actorsLeft_ = kActors;
    std::vector<Message> staged_;
    SplitMix64 rng_{7};
};

void
BM_EngineSparseDomains(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state) {
        SparseDomains world;
        events += world.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
    state.SetLabel("events/sec is items_per_second");
}

BENCHMARK(BM_EngineSparseDomains)->Unit(benchmark::kMillisecond);

/**
 * Crossbar-shaped message traffic on its own: 16 SM domains keep 8
 * requests each in flight to 8 slice domains, and every delivered
 * request sends its response straight back — a closed loop of
 * cross-domain messages with no other events. As in GpuSystem::run,
 * handlers only stage their sends; each 16-cycle epoch ends in a
 * barrier that sorts the staged sends into canonical (send cycle,
 * source domain) order, arbitrates one flit per cycle per
 * destination port, and posts each delivery through postMessage()
 * 16 cycles later; one runUntil() then drains the next epoch. Items
 * are delivered messages, so the time per item is the queue's cost
 * per crossbar message.
 */
class CrossbarTraffic
{
  public:
    static constexpr std::uint32_t kSms = 16;
    static constexpr std::uint32_t kSlices = 8;
    static constexpr std::uint32_t kInFlightPerSm = 8;
    static constexpr Cycle kEpoch = 16;
    static constexpr std::uint64_t kRequests = 100'000;

    CrossbarTraffic() : portFreeAt_(kSms + kSlices, 0)
    {
        for (std::uint32_t sm = 0; sm < kSms; ++sm) {
            for (std::uint32_t k = 0; k < kInFlightPerSm; ++k)
                request(sm);
        }
    }

    /** Drain epoch by epoch; returns delivered messages. */
    std::uint64_t
    run()
    {
        while (true) {
            // Barrier: canonical order, port arbitration, delivery.
            std::sort(staged_.begin(), staged_.end(),
                      [](const Send &a, const Send &b) {
                          return std::tie(a.sent, a.src, a.seq) <
                                 std::tie(b.sent, b.src, b.seq);
                      });
            for (const Send &m : staged_) {
                const Cycle accept = std::max(m.sent, portFreeAt_[m.dest]);
                portFreeAt_[m.dest] = accept + 1;
                queue_.postMessage(
                    accept + kEpoch, m.sent, m.src, m.seq,
                    static_cast<std::int32_t>(m.dest),
                    [this, dest = m.dest, origin = m.origin] {
                        deliver(dest, origin);
                    });
            }
            staged_.clear();
            const Cycle earliest = queue_.nextAt();
            if (earliest == EventQueue::kNoEventCycle)
                break;
            queue_.runUntil((earliest / kEpoch) * kEpoch + kEpoch - 1);
        }
        return delivered_;
    }

  private:
    struct Send
    {
        Cycle sent;
        std::uint32_t src;
        std::uint32_t seq;
        std::uint32_t dest;
        std::uint32_t origin; //!< the requesting SM
    };

    /** SM @p sm stages a request to a pseudo-random slice. */
    void
    request(std::uint32_t sm)
    {
        if (requests_ == kRequests)
            return;
        ++requests_;
        const auto slice =
            kSms + static_cast<std::uint32_t>(rng_.next() % kSlices);
        staged_.push_back(Send{queue_.now(), sm, seq_++, slice, sm});
    }

    /** A message arrives at @p dest: a slice answers its SM, an SM
     *  issues its next request. */
    void
    deliver(std::uint32_t dest, std::uint32_t origin)
    {
        ++delivered_;
        if (dest < kSms) {
            request(dest);
        } else {
            staged_.push_back(
                Send{queue_.now(), dest, seq_++, origin, origin});
        }
    }

    EventQueue queue_;
    std::vector<Cycle> portFreeAt_;
    std::vector<Send> staged_;
    SplitMix64 rng_{23};
    std::uint64_t requests_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint32_t seq_ = 0;
};

void
BM_EngineCrossbarMessages(benchmark::State &state)
{
    std::uint64_t messages = 0;
    for (auto _ : state) {
        CrossbarTraffic world;
        messages += world.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(messages));
    state.SetLabel("items are delivered crossbar messages");
}

BENCHMARK(BM_EngineCrossbarMessages)->Unit(benchmark::kMillisecond);

/**
 * The per-sector miss path's bookkeeping: 64 lines miss (new MSHR
 * entries), each is hit again by a second request that merges, then
 * every entry is released and its two waiters run — half of all
 * allocations merge. Line addresses are drawn at run time so the
 * table probes cannot be folded.
 */
void
BM_MshrMissMergeRelease(benchmark::State &state)
{
    constexpr std::size_t kLines = 64;
    MshrFile mshr("bm", kLines, nullptr);
    SplitMix64 rng(11);
    std::vector<Addr> lines(kLines);
    for (Addr &line : lines)
        line = (rng.next() % (1u << 20)) * kSectorBytes;
    std::uint64_t woken = 0;
    for (auto _ : state) {
        for (const Addr line : lines)
            mshr.allocate(line, 1, [&woken] { ++woken; });
        for (const Addr line : lines)
            mshr.allocate(line, 1, [&woken] { ++woken; });
        for (const Addr line : lines)
            mshr.wake(mshr.release(line));
    }
    benchmark::DoNotOptimize(woken);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * 2 * kLines));
    state.SetLabel("items are allocations (half merge)");
}

BENCHMARK(BM_MshrMissMergeRelease);

/**
 * FR-FCFS under a deep queue: 2048 requests on mixed banks and rows
 * (a few rows per bank, so the 32-entry window finds some row hits)
 * arrive together, and the channel drains them.
 */
void
BM_DramChannelDeepQueue(benchmark::State &state)
{
    constexpr std::size_t kRequests = 2048;
    DramGeometry geom;
    geom.numChannels = 1;
    const AddressMap map(geom, EccLayout::kNone);
    EventQueue events;
    DramChannel channel("bm", 0, map, DramTiming{}, events, nullptr);
    SplitMix64 rng(13);
    std::vector<Addr> phys(kRequests);
    for (Addr &p : phys) {
        const std::uint64_t row = rng.next() % 4;
        const std::uint64_t bank = rng.next() % geom.numBanks;
        p = (row * geom.numBanks + bank) * geom.rowBytes +
            (rng.next() % (geom.rowBytes / kSectorBytes)) * kSectorBytes;
    }
    std::uint64_t completed = 0;
    for (auto _ : state) {
        for (const Addr p : phys) {
            DramRequest req;
            req.phys = p;
            req.onComplete = [&completed] { ++completed; };
            channel.enqueue(std::move(req));
        }
        events.run();
    }
    benchmark::DoNotOptimize(completed);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kRequests));
    state.SetLabel("items are DRAM transactions");
}

BENCHMARK(BM_DramChannelDeepQueue)->Unit(benchmark::kMicrosecond);

/** Stored-byte read-back: random 32 B reads over 8 MiB of written
 *  sparse memory (the decode path's source of real bytes). */
void
BM_SparseMemoryRandomRead(benchmark::State &state)
{
    constexpr std::size_t kBytes = 8u << 20;
    SparseMemory mem;
    std::vector<std::uint8_t> page(SparseMemory::kPageBytes, 0x5A);
    for (Addr a = 0; a < kBytes; a += page.size())
        mem.write(a, page);
    SplitMix64 rng(17);
    std::vector<Addr> addrs(4096);
    for (Addr &a : addrs)
        a = (rng.next() % (kBytes / kSectorBytes)) * kSectorBytes;
    std::array<std::uint8_t, kSectorBytes> out{};
    std::size_t i = 0;
    for (auto _ : state) {
        mem.read(addrs[i++ & (addrs.size() - 1)], out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_SparseMemoryRandomRead);

/**
 * Hot cost of one flight-recorder append: a 32-byte store into the
 * ring plus the drop accounting. This is the per-edge price every
 * instrumentation point pays when the recorder is on, so it has to
 * stay in the tens-of-nanoseconds range for the <3% end-to-end
 * overhead budget to hold.
 */
void
BM_FlightRecord(benchmark::State &state)
{
    telemetry::FlightRecorder fr(1u << 16);
    std::uint64_t id = 0;
    for (auto _ : state) {
        ++id;
        fr.record(telemetry::RecordKind::kDramXfer, id, id,
                  0x40u * id, 7, 3, 0);
    }
    benchmark::DoNotOptimize(fr);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_FlightRecord);

/**
 * End-to-end recorder overhead: an identical small full-system run
 * with the flight recorder off vs on. The two report the same
 * simulated cycle count (recording is observational); the host-time
 * ratio between them is the real overhead the <3% acceptance budget
 * refers to.
 */
void
BM_SimFlightRecorder(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 32;
    params.memInstsPerWarp = 16;
    params.seed = 7;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.scheme = SchemeKind::kCacheCraft;
        cfg.telemetry.flightRecorderEnabled = enabled;
        GpuSystem gpu(cfg);
        cycles +=
            gpu.run(makeWorkload(WorkloadKind::kStreaming, params))
                .cycles;
    }
    benchmark::DoNotOptimize(cycles);
}

BENCHMARK(BM_SimFlightRecorder)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"recorder"});

/**
 * Hot cost of one reuse-monitor access: a Fenwick-tree stack-distance
 * query plus histogram and epoch bookkeeping. This is the per-access
 * price every monitored cache pays when reuse profiling is on; it is
 * O(log live-lines), so the steady-state working set below keeps the
 * measurement honest.
 */
void
BM_ReuseAccess(benchmark::State &state)
{
    telemetry::ReuseGeometry geom;
    geom.numSets = 64;
    geom.numWays = 8;
    geom.lineBytes = 32;
    geom.sectorsPerLine = 8;
    telemetry::CacheReuseMonitor monitor("bench", "mrc", geom,
                                         telemetry::ReuseOptions{});
    SplitMix64 rng(7);
    cachecraft::CacheAccessResult res;
    res.lineHit = true;
    res.sectorHit = true;
    for (auto _ : state) {
        const std::uint64_t r = rng.next();
        // ~1K distinct lines over 64 sets: constant compaction churn.
        const Addr line = (r % 1024) * geom.lineBytes;
        monitor.onAccess(line, (line / geom.lineBytes) % geom.numSets,
                         static_cast<unsigned>(r >> 32) % 8, res,
                         false);
    }
    benchmark::DoNotOptimize(monitor);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_ReuseAccess);

/**
 * End-to-end reuse-profiling overhead: an identical small full-system
 * run with the profiler off vs on, mirroring BM_SimFlightRecorder.
 * Simulated cycles are identical by contract (observation only); the
 * host-time ratio is the overhead the acceptance gate budgets.
 */
void
BM_SimReuseProfile(benchmark::State &state)
{
    const bool enabled = state.range(0) != 0;
    WorkloadParams params;
    params.footprintBytes = 256 * 1024;
    params.numWarps = 32;
    params.memInstsPerWarp = 16;
    params.seed = 7;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.scheme = SchemeKind::kCacheCraft;
        cfg.telemetry.reuseProfileEnabled = enabled;
        GpuSystem gpu(cfg);
        cycles +=
            gpu.run(makeWorkload(WorkloadKind::kStreaming, params))
                .cycles;
    }
    benchmark::DoNotOptimize(cycles);
}

BENCHMARK(BM_SimReuseProfile)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgNames({"reuse"});

} // namespace

BENCHMARK_MAIN();
