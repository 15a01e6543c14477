/**
 * @file
 * Semantics of the domain/epoch engine's cross-domain edges.
 *
 * GpuSystem::run() runs a fixed domain decomposition (one domain per
 * SM and per L2-slice/DRAM-channel pair, every event stamped with its
 * domain on one event queue) under a fixed epoch-barrier schedule;
 * the crossbar in router mode is the only cross-domain edge. These
 * tests pin its behaviour:
 *   - a crossbar-barrier reference model: staged router-mode traffic
 *     arbitrated at a barrier must match both hand-computed delivery
 *     times and the immediate-mode crossbar fed the same messages in
 *     canonical order, whatever order the sources ran in, and each
 *     delivery must run in its port's domain;
 *   - barrier batching invariance of that arbitration;
 *   - a pinned fuzz reproducer replayed through the differential
 *     oracle, including a legacy field the reader must ignore.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
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

    // --- router mode: two source domains, ports in domains 0 and 1 ---
    EventQueue q;
    StatRegistry reg;
    Crossbar router("xr", 2, kLatency, q, &reg);
    router.setRouter({0, 1}, /* num_domains= */ 4);

    // (delivery cycle, domain the delivery ran in)
    std::vector<std::pair<Cycle, std::int32_t>> deliveries;
    auto deliver = [&] { deliveries.emplace_back(q.now(), tlsSimDomain); };
    {
        // Domain 3's cycle-5 send is queued (and runs) before domain
        // 2's; arbitration must still put domain 2 first.
        const ScopedSimDomain d3(3);
        q.schedule(3, [&] { router.send(0, deliver); });
        q.schedule(5, [&] { router.send(0, deliver); });
    }
    {
        const ScopedSimDomain d2(2);
        q.schedule(5, [&] {
            for (int i = 0; i < 3; ++i)
                router.send(0, deliver);
        });
    }
    ASSERT_TRUE(q.runUntil(9)); // one epoch, then the barrier
    ASSERT_TRUE(router.hasStaged());
    router.applyStaged();
    EXPECT_FALSE(router.hasStaged());
    ASSERT_TRUE(q.run());

    // Canonical arbitration order: (3,d3), (5,d2)x3, (5,d3). Port 0
    // accepts one flit per cycle from its free cycle, so acceptances
    // land at 3,5,6,7,8 and deliveries at accept + latency, each in
    // port 0's domain.
    const std::vector<std::pair<Cycle, std::int32_t>> expected = {
        {13, 0}, {15, 0}, {16, 0}, {17, 0}, {18, 0}};
    EXPECT_EQ(deliveries, expected);
    EXPECT_EQ(reg.counter("xr.flits")->value(), 5u);
    // Contention = accept - sent, summed: 0 + 0 + 1 + 2 + 3.
    EXPECT_EQ(reg.counter("xr.contention_cycles")->value(), 6u);

    // --- immediate mode fed the same canonical sequence ---
    EventQueue serial_q;
    StatRegistry serial_reg;
    Crossbar immediate("xi", 2, kLatency, serial_q, &serial_reg);
    std::vector<std::pair<Cycle, std::int32_t>> serial_deliveries;
    auto stage = [&](Cycle at, unsigned copies) {
        serial_q.schedule(at, [&, copies] {
            for (unsigned i = 0; i < copies; ++i)
                immediate.send(0, [&] {
                    serial_deliveries.emplace_back(serial_q.now(), 0);
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
// the send cycle). The latency exceeds both epochs, so every delivery
// stays in the queue's future under either batching.
TEST(ShardedEngine, StagedArbitrationIsBarrierBatchingInvariant)
{
    constexpr Cycle kLatency = 8;
    auto run_with_barriers = [&](bool split) {
        EventQueue q;
        StatRegistry reg;
        Crossbar xbar("xb", 1, kLatency, q, &reg);
        xbar.setRouter({1}, /* num_domains= */ 2);
        std::vector<Cycle> deliveries;
        {
            const ScopedSimDomain src(0);
            for (Cycle at : {Cycle{0}, Cycle{1}, Cycle{1}, Cycle{5},
                             Cycle{6}}) {
                q.schedule(at, [&] {
                    xbar.send(0, [&] { deliveries.push_back(q.now()); });
                });
            }
        }
        EXPECT_TRUE(q.runUntil(3));
        if (split)
            xbar.applyStaged(); // barrier after epoch [0,3]
        EXPECT_TRUE(q.runUntil(7));
        xbar.applyStaged();
        EXPECT_TRUE(q.run());
        EXPECT_EQ(reg.counter("xb.contention_cycles")->value(), 1u);
        return deliveries;
    };
    const std::vector<Cycle> expected = {8, 9, 10, 13, 14};
    EXPECT_EQ(run_with_barriers(true), expected);
    EXPECT_EQ(run_with_barriers(false), expected);
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
