/**
 * @file
 * Tests for the SM core model: issue pacing, warp interleaving, L1
 * behaviour, coalescing integration, and completion tracking.
 */

#include <gtest/gtest.h>

#include <map>

#include "gpu/sm_core.hpp"
#include "verify/invariants.hpp"

namespace cachecraft {
namespace {

/** SM rig with a scripted memory side (fixed-latency responder). */
struct SmHarness
{
    EventQueue events;
    StatRegistry stats;
    std::unique_ptr<SmCore> sm;
    std::uint64_t l2Reads = 0;
    std::uint64_t l2Writes = 0;
    Cycle l2Latency = 100;
    /** A sector whose L2 read never answers (planted lost wakeup). */
    Addr dropRead = ~Addr{0};

    explicit SmHarness(std::size_t l1_bytes = 8 * 1024,
                       std::size_t mshrs = 8)
    {
        SmParams params;
        params.l1.sizeBytes = l1_bytes;
        params.l1.assoc = 4;
        params.l1MshrEntries = mshrs;
        params.l1HitLatency = 5;
        sm = std::make_unique<SmCore>(
            "sm0", 0, params, events,
            [this](Addr addr, ecc::MemTag, SmallFn done, std::uint64_t) {
                ++l2Reads;
                if (addr != dropRead)
                    events.scheduleAfter(l2Latency, std::move(done));
            },
            [this](Addr, ecc::MemTag) { ++l2Writes; },
            [](Addr) { return ecc::MemTag{0}; }, &stats);
    }

    void
    run()
    {
        sm->start();
        ASSERT_TRUE(events.run());
        ASSERT_TRUE(sm->done());
    }
};

WarpInst
load(Addr base)
{
    return WarpInst::affine(base, kWarpLanes, false);
}

/** A fully divergent load: lane i reads page i. */
WarpInst
divergentLoad()
{
    static const std::vector<Addr> lanes = [] {
        std::vector<Addr> out;
        for (std::size_t i = 0; i < kWarpLanes; ++i)
            out.push_back(i * 4096);
        return out;
    }();
    return WarpInst::explicitLanes(lanes, false);
}

WarpInst
store(Addr base)
{
    WarpInst inst = load(base);
    inst.isWrite = true;
    return inst;
}

WarpInst
alu(Cycle cycles)
{
    return WarpInst::compute(cycles);
}

TEST(SmCore, ExecutesAllInstructions)
{
    SmHarness h;
    std::vector<WarpInst> program{alu(3), load(0), alu(2), load(256)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.sm->statInsts.value(), 4u);
    EXPECT_EQ(h.sm->statMemInsts.value(), 2u);
}

TEST(SmCore, CoalescedLoadIsFourSectors)
{
    SmHarness h;
    std::vector<WarpInst> program{load(0)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.sm->statSectorsAccessed.value(), 4u);
    EXPECT_EQ(h.l2Reads, 4u);
}

TEST(SmCore, L1HitAvoidsL2Traffic)
{
    SmHarness h;
    std::vector<WarpInst> program{load(0), load(0)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.l2Reads, 4u); // second load fully L1-resident
}

TEST(SmCore, StoresAreWriteThroughNoAllocate)
{
    SmHarness h;
    std::vector<WarpInst> program{store(0), load(0)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.l2Writes, 4u);
    // The store did not allocate: the load still misses to L2.
    EXPECT_EQ(h.l2Reads, 4u);
}

TEST(SmCore, WarpLevelParallelismHidesLatency)
{
    // 1 warp doing N loads vs N warps doing 1 load each: the
    // multi-warp version overlaps the fixed L2 latency.
    constexpr int n = 8;
    SmHarness serial;
    std::vector<WarpInst> long_program;
    for (int i = 0; i < n; ++i)
        long_program.push_back(load(static_cast<Addr>(i) * 4096));
    serial.sm->addWarp(&long_program);
    serial.run();
    const Cycle serial_cycles = serial.events.now();

    SmHarness parallel;
    std::vector<std::vector<WarpInst>> programs(n);
    for (int i = 0; i < n; ++i) {
        programs[i] = {load(static_cast<Addr>(i) * 4096)};
        parallel.sm->addWarp(&programs[i]);
    }
    parallel.run();
    const Cycle parallel_cycles = parallel.events.now();
    EXPECT_LT(parallel_cycles, serial_cycles * 2 / 3);
}

TEST(SmCore, DivergentLoadTakesManySectors)
{
    SmHarness h;
    std::vector<WarpInst> program{divergentLoad()};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.l2Reads, kWarpLanes);
}

TEST(SmCore, MshrLimitParksWithoutLosingRequests)
{
    SmHarness h(8 * 1024, /* mshrs= */ 2);
    std::vector<WarpInst> program{divergentLoad(), alu(1)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.sm->statInsts.value(), 2u);
    EXPECT_GT(h.sm->statL1StallRetries.value(), 0u);
    EXPECT_EQ(h.l2Reads, kWarpLanes);
}

TEST(SmCore, DuplicateSectorMissesMergeInL1Mshr)
{
    // Two warps loading the same line concurrently: 4 sectors only.
    SmHarness h;
    std::vector<WarpInst> a{load(0)};
    std::vector<WarpInst> b{load(0)};
    h.sm->addWarp(&a);
    h.sm->addWarp(&b);
    h.run();
    EXPECT_EQ(h.l2Reads, 4u);
}

TEST(SmCore, ComputeOnlyWarpFinishesWithoutMemory)
{
    SmHarness h;
    std::vector<WarpInst> program{alu(10), alu(10)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.l2Reads, 0u);
    EXPECT_GE(h.events.now(), 20u);
}

TEST(SmCore, GtoSchedulerCompletesAllWork)
{
    SmHarness rr;
    SmHarness gto;
    gto.sm = nullptr; // rebuild with GTO below
    SmParams params;
    params.l1.sizeBytes = 8 * 1024;
    params.l1.assoc = 4;
    params.scheduler = WarpSched::kGto;
    gto.sm = std::make_unique<SmCore>(
        "sm0", 0, params, gto.events,
        [&gto](Addr, ecc::MemTag, SmallFn done, std::uint64_t) {
            ++gto.l2Reads;
            gto.events.scheduleAfter(gto.l2Latency, std::move(done));
        },
        [&gto](Addr, ecc::MemTag) { ++gto.l2Writes; },
        [](Addr) { return ecc::MemTag{0}; }, nullptr);

    std::vector<std::vector<WarpInst>> programs(4);
    for (int wpi = 0; wpi < 4; ++wpi) {
        for (int i = 0; i < 3; ++i) {
            programs[wpi].push_back(alu(2));
            programs[wpi].push_back(
                load(static_cast<Addr>(wpi * 16 + i) * 4096));
        }
        rr.sm->addWarp(&programs[wpi]);
        gto.sm->addWarp(&programs[wpi]);
    }
    rr.run();
    gto.run();
    // Both schedulers retire everything; same work, same traffic.
    EXPECT_EQ(rr.sm->statInsts.value(), gto.sm->statInsts.value());
    EXPECT_EQ(rr.l2Reads, gto.l2Reads);
}

TEST(SmCore, GtoPrefersCurrentWarpOnComputeRetire)
{
    // One warp with back-to-back compute, another waiting: under GTO
    // the computing warp keeps the issue slot.
    SmParams params;
    params.l1.sizeBytes = 8 * 1024;
    params.l1.assoc = 4;
    params.scheduler = WarpSched::kGto;
    EventQueue events;
    std::vector<Cycle> a_times, b_times;
    SmCore sm(
        "sm0", 0, params, events,
        [](Addr, ecc::MemTag, SmallFn, std::uint64_t) {},
        [](Addr, ecc::MemTag) {}, [](Addr) { return ecc::MemTag{0}; },
        nullptr);
    std::vector<WarpInst> a{alu(1), alu(1), alu(1)};
    std::vector<WarpInst> b{alu(1), alu(1), alu(1)};
    sm.addWarp(&a);
    sm.addWarp(&b);
    sm.start();
    ASSERT_TRUE(events.run());
    EXPECT_TRUE(sm.done());
    EXPECT_EQ(sm.statInsts.value(), 6u);
}

TEST(SmCore, SchedulerNames)
{
    EXPECT_STREQ(toString(WarpSched::kRoundRobin), "round-robin");
    EXPECT_STREQ(toString(WarpSched::kGto), "gto");
}

TEST(SmCore, EmptyWarpIsImmediatelyDone)
{
    SmHarness h;
    std::vector<WarpInst> empty;
    h.sm->addWarp(&empty);
    h.sm->start();
    EXPECT_TRUE(h.sm->done());
}

TEST(SmCore, MemLatencyHistogramPopulated)
{
    SmHarness h;
    std::vector<WarpInst> program{load(0)};
    h.sm->addWarp(&program);
    h.run();
    EXPECT_EQ(h.sm->statMemLatency.count(), 1u);
    EXPECT_GE(h.sm->statMemLatency.maxValue(), h.l2Latency);
}

TEST(SmCore, VerifyDrainedReportsL1Residue)
{
#if !defined(CACHECRAFT_VERIFY_ENABLED)
    GTEST_SKIP() << "verification hooks compiled out";
#else
    // One L1 MSHR, a fully divergent load, and a planted leak: the
    // first sector's L2 read never answers, so its MSHR entry stays
    // and the other 31 sectors stay parked behind it.
    std::vector<WarpInst> program{divergentLoad()};

    SmHarness leaky(8 * 1024, /* mshrs= */ 1);
    leaky.dropRead = 0;
    leaky.sm->addWarp(&program);
    leaky.sm->start();
    ASSERT_TRUE(leaky.events.run());
    EXPECT_FALSE(leaky.sm->done());
    verify::InvariantChecker caught;
    {
        verify::ScopedListener scope(&caught);
        leaky.sm->verifyDrained();
    }
    ASSERT_EQ(caught.violationCount(), 2u);
    EXPECT_NE(caught.violations()[0].find("sm0.l1mshr: 1 entries"),
              std::string::npos);
    EXPECT_NE(caught.violations()[1].find("sm0.blocked: 31 entries"),
              std::string::npos);

    // The same program without the leak drains clean.
    SmHarness clean(8 * 1024, /* mshrs= */ 1);
    clean.sm->addWarp(&program);
    clean.run();
    verify::InvariantChecker quiet;
    {
        verify::ScopedListener scope(&quiet);
        clean.sm->verifyDrained();
    }
    EXPECT_TRUE(quiet.ok());
    EXPECT_EQ(quiet.eventsChecked(), 2u);
#endif
}

} // namespace
} // namespace cachecraft
