/**
 * @file
 * Semantics of the domain/epoch engine's cross-domain edges.
 *
 * GpuSystem::run() drains a fixed domain decomposition (one event
 * queue per SM and per L2-slice/DRAM-channel pair) under a fixed
 * epoch-barrier schedule; the crossbar in router mode is the only
 * cross-domain edge. These tests pin its behaviour:
 *   - a crossbar-barrier reference model: staged router-mode traffic
 *     arbitrated at a barrier must match both hand-computed delivery
 *     times and the immediate-mode crossbar fed the same messages in
 *     canonical order;
 *   - barrier batching invariance of that arbitration;
 *   - a pinned fuzz reproducer replayed through the differential
 *     oracle, including a legacy field the reader must ignore.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/domain.hpp"
#include "gpu/crossbar.hpp"
#include "verify/fuzz.hpp"

namespace cachecraft {
namespace {

// Router-mode reference model: messages staged from two source
// domains, arbitrated at one barrier, must deliver at exactly the
// cycles the immediate-mode crossbar produces when fed the same
// messages in canonical (send cycle, source domain, source seq)
// order — and match the hand-computed timeline.
TEST(ShardedEngine, CrossbarBarrierMatchesReferenceModel)
{
    constexpr Cycle kLatency = 10;

    // --- router mode: two source domains, one destination port ---
    EventQueue unused;   // reference queue, unused in router mode
    EventQueue dest;     // port 0's domain queue
    EventQueue other;    // port 1's domain queue (idle)
    StatRegistry reg;
    Crossbar router("xr", 2, kLatency, unused, &reg);
    router.setRouter({&dest, &other}, /* num_domains= */ 4);

    std::vector<Cycle> deliveries;
    EventQueue src2, src3; // domains 2 and 3
    src2.schedule(5, [&] {
        for (int i = 0; i < 3; ++i)
            router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    src3.schedule(3, [&] {
        router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    src3.schedule(5, [&] {
        router.send(0, [&] { deliveries.push_back(dest.now()); });
    });
    {
        ScopedSimDomain scope(2, &src2);
        ASSERT_TRUE(src2.runUntil(9));
    }
    {
        ScopedSimDomain scope(3, &src3);
        ASSERT_TRUE(src3.runUntil(9));
    }
    ASSERT_TRUE(router.hasStaged());
    router.applyStaged();
    EXPECT_FALSE(router.hasStaged());
    ASSERT_TRUE(dest.run());

    // Canonical arbitration order: (3,d3), (5,d2)x3, (5,d3). Port 0
    // accepts one flit per cycle from its free cycle, so acceptances
    // land at 3,5,6,7,8 and deliveries at accept + latency.
    const std::vector<Cycle> expected = {13, 15, 16, 17, 18};
    EXPECT_EQ(deliveries, expected);
    EXPECT_EQ(reg.counter("xr.flits")->value(), 5u);
    // Contention = accept - sent, summed: 0 + 0 + 1 + 2 + 3.
    EXPECT_EQ(reg.counter("xr.contention_cycles")->value(), 6u);

    // --- immediate mode fed the same canonical sequence ---
    EventQueue serial_q;
    StatRegistry serial_reg;
    Crossbar immediate("xi", 2, kLatency, serial_q, &serial_reg);
    std::vector<Cycle> serial_deliveries;
    auto stage = [&](Cycle at, unsigned copies) {
        serial_q.schedule(at, [&, copies] {
            for (unsigned i = 0; i < copies; ++i)
                immediate.send(0, [&] {
                    serial_deliveries.push_back(serial_q.now());
                });
        });
    };
    stage(3, 1); // d3's first message
    stage(5, 4); // d2's three then d3's second, in canonical order
    ASSERT_TRUE(serial_q.run());
    EXPECT_EQ(serial_deliveries, deliveries);
    EXPECT_EQ(serial_reg.counter("xi.contention_cycles")->value(),
              reg.counter("xr.contention_cycles")->value());
}

// Batching across barriers must not change arbitration: applying two
// disjoint epochs' traffic in two applyStaged() calls equals applying
// the union (epochs are cycle-disjoint and the sort key leads with
// the send cycle).
TEST(ShardedEngine, StagedArbitrationIsBarrierBatchingInvariant)
{
    constexpr Cycle kLatency = 4;
    auto run_with_barriers = [&](bool split) {
        EventQueue unused, dest, src;
        StatRegistry reg;
        Crossbar xbar("xb", 1, kLatency, unused, &reg);
        xbar.setRouter({&dest}, /* num_domains= */ 1);
        std::vector<Cycle> deliveries;
        for (Cycle at : {Cycle{0}, Cycle{1}, Cycle{5}, Cycle{6}}) {
            src.schedule(at, [&] {
                xbar.send(0, [&] { deliveries.push_back(dest.now()); });
            });
        }
        {
            ScopedSimDomain scope(0, &src);
            EXPECT_TRUE(src.runUntil(3));
            if (split)
                xbar.applyStaged(); // barrier after epoch [0,3]
            EXPECT_TRUE(src.runUntil(7));
            xbar.applyStaged();
        }
        EXPECT_TRUE(dest.run());
        return deliveries;
    };
    EXPECT_EQ(run_with_barriers(true), run_with_barriers(false));
}

// Pinned reproducer: a small machine with cross-channel
// read/write traffic and one planned fault, replayed through the
// fuzzer's differential oracle. It is fed as a legacy reproducer that
// still carries the "shards" field older builds wrote; the reader
// must ignore it and the case must replay clean.
TEST(ShardedEngine, PinnedShardReproducerReplaysClean)
{
    const verify::FuzzCase c =
        verify::generateCase(7, SchemeKind::kCacheCraft);
    const std::string json = verify::toJson(c);
    const std::string::size_type at = json.find("\"accesses\"");
    ASSERT_NE(at, std::string::npos);
    std::string legacy = json;
    legacy.insert(at, "\"shards\": 3, ");

    verify::FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(verify::fromJson(legacy, &parsed, &error)) << error;
    EXPECT_EQ(verify::toJson(parsed), json);

    const verify::FuzzResult result = verify::runCase(parsed);
    EXPECT_TRUE(result.ok);
    for (const std::string &v : result.violations)
        ADD_FAILURE() << v;
    EXPECT_GT(result.decodesChecked, 0u);
}

} // namespace
} // namespace cachecraft
