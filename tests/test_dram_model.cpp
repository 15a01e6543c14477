/**
 * @file
 * Tests for the DRAM timing model: row-buffer state machine, FR-FCFS
 * preference, bank parallelism, and bus serialization.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "dram/dram_model.hpp"

namespace cachecraft {
namespace {

struct DramHarness
{
    DramGeometry geom;
    DramTiming timing;
    EventQueue events;
    StatRegistry stats;
    AddressMap map;
    DramSystem dram;

    DramHarness()
        : geom(makeGeom()), map(geom, EccLayout::kNone),
          dram(map, timing, events, &stats)
    {
    }

    static DramGeometry
    makeGeom()
    {
        DramGeometry g;
        g.numChannels = 2;
        g.numBanks = 4;
        g.rowBytes = 2048;
        g.channelCapacity = 16 * 1024 * 1024;
        return g;
    }

    /** Issue a read and return its completion cycle. */
    Cycle
    readAt(ChannelId ch, Addr phys)
    {
        Cycle done = 0;
        DramRequest req;
        req.phys = phys;
        req.isWrite = false;
        req.onComplete = [this, &done] { done = events.now(); };
        dram.enqueue(ch, std::move(req));
        events.run();
        return done;
    }
};

TEST(DramModel, RowHitFasterThanRowMiss)
{
    DramHarness h;
    // First access to a closed bank: activate + CAS.
    const Cycle t0 = h.readAt(0, 0);
    // Same row: pure CAS (row hit) — must be strictly faster.
    const Cycle t1 = h.readAt(0, 32) - t0;
    EXPECT_LT(t1, t0);
    EXPECT_EQ(h.dram.channel(0).statRowHits.value(), 1u);
    EXPECT_EQ(h.dram.channel(0).statRowMissesClosed.value(), 1u);
}

TEST(DramModel, RowConflictSlowerThanRowHit)
{
    DramHarness h;
    h.readAt(0, 0);
    const Cycle hit_start = h.events.now();
    const Cycle hit_done = h.readAt(0, 64);
    const Cycle hit_latency = hit_done - hit_start;

    // Same bank (banks interleave by row): rows are numBanks apart.
    const Addr conflict_addr =
        static_cast<Addr>(h.geom.rowBytes) * h.geom.numBanks;
    const Cycle conf_start = h.events.now();
    const Cycle conf_done = h.readAt(0, conflict_addr);
    const Cycle conf_latency = conf_done - conf_start;
    EXPECT_GT(conf_latency, hit_latency);
    EXPECT_EQ(h.dram.channel(0).statRowConflicts.value(), 1u);
}

TEST(DramModel, LatencyComponentsMatchTiming)
{
    DramHarness h;
    const DramTiming &t = h.timing;
    // Closed bank: tRCD + tCAS + tBURST + controller overhead.
    const Cycle first = h.readAt(0, 0);
    EXPECT_EQ(first, t.tRcd + t.tCas + t.tBurst + t.tController);
}

TEST(DramModel, BankParallelismOverlaps)
{
    DramHarness h;
    // Two requests to different banks vs two to the same bank (and
    // different rows): different banks must finish sooner overall.
    Cycle done_a = 0;
    Cycle done_b = 0;
    DramRequest ra;
    ra.phys = 0; // bank 0, row 0
    ra.onComplete = [&] { done_a = h.events.now(); };
    DramRequest rb;
    rb.phys = h.geom.rowBytes; // bank 1
    rb.onComplete = [&] { done_b = h.events.now(); };
    h.dram.enqueue(0, std::move(ra));
    h.dram.enqueue(0, std::move(rb));
    h.events.run();
    const Cycle parallel_span = std::max(done_a, done_b);

    DramHarness h2;
    Cycle done_c = 0;
    Cycle done_d = 0;
    DramRequest rc;
    rc.phys = 0; // bank 0, row 0
    rc.onComplete = [&] { done_c = h2.events.now(); };
    DramRequest rd;
    rd.phys = static_cast<Addr>(h2.geom.rowBytes) * h2.geom.numBanks;
    rd.onComplete = [&] { done_d = h2.events.now(); }; // bank 0, row 1
    h2.dram.enqueue(0, std::move(rc));
    h2.dram.enqueue(0, std::move(rd));
    h2.events.run();
    const Cycle serial_span = std::max(done_c, done_d);

    EXPECT_LT(parallel_span, serial_span);
}

TEST(DramModel, FrFcfsPrefersOpenRow)
{
    DramHarness h;
    // Open row 0 of bank 0.
    h.readAt(0, 0);
    // Enqueue: first a conflicting request (row 1, bank 0), then a
    // row-hit request (row 0). FR-FCFS should service the hit first.
    Cycle done_conflict = 0;
    Cycle done_hit = 0;
    DramRequest conflict;
    conflict.phys = static_cast<Addr>(h.geom.rowBytes) * h.geom.numBanks;
    conflict.onComplete = [&] { done_conflict = h.events.now(); };
    DramRequest hit;
    hit.phys = 96;
    hit.onComplete = [&] { done_hit = h.events.now(); };
    h.dram.enqueue(0, std::move(conflict));
    h.dram.enqueue(0, std::move(hit));
    h.events.run();
    EXPECT_LT(done_hit, done_conflict);
}

TEST(DramModel, ChannelsIndependent)
{
    DramHarness h;
    Cycle done_a = 0;
    Cycle done_b = 0;
    DramRequest ra;
    ra.phys = 0;
    ra.onComplete = [&] { done_a = h.events.now(); };
    DramRequest rb;
    rb.phys = 0;
    rb.onComplete = [&] { done_b = h.events.now(); };
    h.dram.enqueue(0, std::move(ra));
    h.dram.enqueue(1, std::move(rb));
    h.events.run();
    // Identical latency on both channels: no cross-channel contention.
    EXPECT_EQ(done_a, done_b);
}

TEST(DramModel, WritesCounted)
{
    DramHarness h;
    DramRequest w;
    w.phys = 0;
    w.isWrite = true;
    h.dram.enqueue(0, std::move(w));
    h.events.run();
    EXPECT_EQ(h.dram.channel(0).statWrites.value(), 1u);
    EXPECT_EQ(h.dram.totalTransactions(), 1u);
}

TEST(DramModel, StorageRoundTripPerChannel)
{
    DramHarness h;
    std::array<std::uint8_t, 4> in{1, 2, 3, 4};
    h.dram.writeBytes(0, 0x100, in);
    std::array<std::uint8_t, 4> out{};
    h.dram.readBytes(0, 0x100, out);
    EXPECT_EQ(in, out);
    // Same local address on the other channel is independent.
    h.dram.readBytes(1, 0x100, out);
    EXPECT_EQ(out[0], 0x00);
}

TEST(DramModel, RowHitRateAggregates)
{
    DramHarness h;
    h.readAt(0, 0);  // miss (closed)
    h.readAt(0, 32); // hit
    h.readAt(0, 64); // hit
    EXPECT_NEAR(h.dram.rowHitRate(), 2.0 / 3.0, 1e-9);
}

TEST(DramModel, BusSerializesBackToBackHits)
{
    DramHarness h;
    h.readAt(0, 0);
    // Two row hits enqueued together: completions must be separated
    // by at least tBURST (single data bus).
    Cycle done_a = 0;
    Cycle done_b = 0;
    DramRequest ra;
    ra.phys = 32;
    ra.onComplete = [&] { done_a = h.events.now(); };
    DramRequest rb;
    rb.phys = 64;
    rb.onComplete = [&] { done_b = h.events.now(); };
    h.dram.enqueue(0, std::move(ra));
    h.dram.enqueue(0, std::move(rb));
    h.events.run();
    EXPECT_GE(done_b > done_a ? done_b - done_a : done_a - done_b,
              h.timing.tBurst);
}

// --------------------------------------------------------------------
// Scheduler differential: DramChannel against a reference copy of the
// original queue (a deque of whole requests, FR-FCFS over its first
// 32 entries). Both see identical arrival streams on their own event
// queues; every request must complete on the same cycle.
// --------------------------------------------------------------------

/** The original channel scheduler and timing, kept as the oracle. */
class RefChannel
{
  public:
    RefChannel(const AddressMap &map, const DramTiming &timing,
               EventQueue &events, std::vector<Cycle> &done)
        : map_(map), timing_(timing), events_(events), done_(done),
          banks_(map.geometry().numBanks)
    {
    }

    void
    enqueue(Addr phys, bool is_write, std::size_t id)
    {
        queue_.push_back(
            Pending{map_.coordOf(0, phys), is_write, id});
        if (!issueScheduled_) {
            issueScheduled_ = true;
            events_.scheduleAfter(0, [this] { tryIssue(); });
        }
    }

  private:
    struct Pending
    {
        DramCoord coord;
        bool isWrite;
        std::size_t id;
    };
    struct Bank
    {
        bool open = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0;
    };

    std::size_t
    pickNext() const
    {
        const std::size_t window =
            std::min<std::size_t>(queue_.size(), 32);
        for (std::size_t i = 0; i < window; ++i) {
            const Bank &bank = banks_[queue_[i].coord.bank];
            if (bank.open && bank.openRow == queue_[i].coord.row)
                return i;
        }
        return 0;
    }

    void
    tryIssue()
    {
        issueScheduled_ = false;
        if (queue_.empty())
            return;
        const Cycle now = events_.now();
        if (busFreeAt_ > now) {
            issueScheduled_ = true;
            events_.schedule(busFreeAt_, [this] { tryIssue(); });
            return;
        }
        const std::size_t idx = pickNext();
        const Pending p = queue_[idx];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
        Bank &bank = banks_[p.coord.bank];
        const Cycle bank_ready = std::max(now, bank.readyAt);
        Cycle cas_at;
        if (bank.open && bank.openRow == p.coord.row)
            cas_at = bank_ready;
        else if (!bank.open)
            cas_at = bank_ready + timing_.tRcd;
        else
            cas_at = bank_ready + timing_.tRp + timing_.tRcd;
        bank.open = true;
        bank.openRow = p.coord.row;
        const Cycle data_at = cas_at + timing_.tCas;
        const Cycle done_at = data_at + timing_.tBurst;
        bank.readyAt = done_at + (p.isWrite ? timing_.tWr : 0);
        busFreeAt_ = data_at + timing_.tBurst;
        done_[p.id] = done_at + timing_.tController;
        if (!queue_.empty()) {
            issueScheduled_ = true;
            events_.schedule(busFreeAt_, [this] { tryIssue(); });
        }
    }

    const AddressMap &map_;
    DramTiming timing_;
    EventQueue &events_;
    std::vector<Cycle> &done_;
    std::deque<Pending> queue_;
    std::vector<Bank> banks_;
    Cycle busFreeAt_ = 0;
    bool issueScheduled_ = false;
};

struct SchedReq
{
    Cycle arrival;
    Addr phys;
    bool isWrite;
};

struct SchedOutcome
{
    std::vector<Cycle> done;
    std::size_t peakDepth = 0;
};

/** Channel-local address of (bank, row, 32 B column) in the harness
 *  geometry. */
Addr
physOf(const DramGeometry &g, std::uint64_t bank, std::uint64_t row,
       std::uint64_t col)
{
    return (row * g.numBanks + bank) * g.rowBytes + col * 32;
}

/** Run @p reqs through one DramChannel, and through the reference when
 *  @p reference is set; returns each request's completion cycle. */
SchedOutcome
runStream(const std::vector<SchedReq> &reqs, bool reference)
{
    const DramGeometry geom = DramHarness::makeGeom();
    const AddressMap map(geom, EccLayout::kNone);
    const DramTiming timing;
    EventQueue events;
    SchedOutcome out;
    out.done.assign(reqs.size(), 0);
    DramChannel channel("ch", 0, map, timing, events, nullptr);
    RefChannel ref(map, timing, events, out.done);
    auto arrive = [&](std::size_t i) {
        if (reference) {
            ref.enqueue(reqs[i].phys, reqs[i].isWrite, i);
            return;
        }
        DramRequest req;
        req.phys = reqs[i].phys;
        req.isWrite = reqs[i].isWrite;
        req.onComplete = [&out, &events, i] {
            out.done[i] = events.now();
        };
        channel.enqueue(std::move(req));
        out.peakDepth = std::max(out.peakDepth, channel.queueDepth());
    };
    for (std::size_t i = 0; i < reqs.size(); ++i)
        events.schedule(reqs[i].arrival, [&arrive, i] { arrive(i); });
    EXPECT_TRUE(events.run());
    return out;
}

TEST(DramScheduler, MatchesReferenceQueueOnRandomStreams)
{
    const DramGeometry geom = DramHarness::makeGeom();
    std::size_t deepest = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Xoshiro256 rng(seed);
        // Bursty seeds pile >1000 requests into the queue; sparse ones
        // let it drain and exercise the idle-channel path.
        const bool burst = seed % 4 != 0;
        const std::size_t n = burst ? 1200 : 400;
        const Cycle spread = burst ? 200 : 20000;
        const std::uint64_t rows = 1 + rng.below(6);
        std::vector<SchedReq> reqs;
        for (std::size_t i = 0; i < n; ++i) {
            reqs.push_back(SchedReq{
                rng.below(spread),
                physOf(geom, rng.below(geom.numBanks), rng.below(rows),
                       rng.below(geom.rowBytes / 32)),
                rng.chance(0.3)});
        }
        const SchedOutcome got = runStream(reqs, false);
        const SchedOutcome want = runStream(reqs, true);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got.done[i], want.done[i])
                << "seed " << seed << " request " << i;
            ASSERT_GT(got.done[i], reqs[i].arrival);
        }
        deepest = std::max(deepest, got.peakDepth);
    }
    EXPECT_GT(deepest, 1000u);
}

/**
 * One request opens row 0 of bank 0; then @p fillers closed-bank
 * requests (bank 1, a distinct row each, so none is ever a row hit)
 * and finally a row-0 hit arrive together. Once the opener issues, the
 * hit sits at window index @p fillers.
 */
std::vector<SchedReq>
windowEdgeStream(std::size_t fillers)
{
    const DramGeometry geom = DramHarness::makeGeom();
    std::vector<SchedReq> reqs;
    reqs.push_back(SchedReq{0, physOf(geom, 0, 0, 0), false});
    for (std::size_t i = 0; i < fillers; ++i)
        reqs.push_back(SchedReq{0, physOf(geom, 1, 1 + i, 0), false});
    reqs.push_back(SchedReq{0, physOf(geom, 0, 0, 1), false});
    return reqs;
}

TEST(DramScheduler, RowHitAtWindowIndex31IsPicked)
{
    const std::vector<SchedReq> reqs = windowEdgeStream(31);
    const SchedOutcome got = runStream(reqs, false);
    EXPECT_EQ(got.done, runStream(reqs, true).done);
    // The hit (last) overtakes every filler.
    const Cycle hit = got.done.back();
    for (std::size_t i = 1; i + 1 < reqs.size(); ++i)
        EXPECT_LT(hit, got.done[i]) << "filler " << i;
}

TEST(DramScheduler, RowHitAtWindowIndex32IsNotPicked)
{
    const std::vector<SchedReq> reqs = windowEdgeStream(32);
    const SchedOutcome got = runStream(reqs, false);
    EXPECT_EQ(got.done, runStream(reqs, true).done);
    // Outside the window the oldest request goes first; the hit only
    // wins once the window has slid over it.
    const Cycle hit = got.done.back();
    EXPECT_LT(got.done[1], hit);
    for (std::size_t i = 2; i + 1 < reqs.size(); ++i)
        EXPECT_LT(hit, got.done[i]) << "filler " << i;
}

} // namespace
} // namespace cachecraft
