/**
 * @file
 * Tests for the flat per-sector-path tables: AddrTable (open
 * addressing, linear probing, backward-shift erase) against
 * std::unordered_map, and FnListSlab FIFO lists including re-entrant
 * appends while a list drains.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/addr_table.hpp"
#include "common/fn_list.hpp"
#include "common/inplace_function.hpp"
#include "common/rng.hpp"

namespace cachecraft {
namespace {

using Table = AddrTable<std::uint64_t>;

/** Keys whose home slot in a @p slots-slot table is @p slot. */
std::vector<Addr>
keysWithHome(std::size_t slot, std::size_t slots, std::size_t count)
{
    std::vector<Addr> keys;
    for (Addr k = 32; keys.size() < count; k += 32) {
        if (Table::home(k, slots) == slot)
            keys.push_back(k);
    }
    return keys;
}

/** Every key of @p ref is found with its value, and @p absent is not. */
void
expectMatches(const Table &table,
              const std::unordered_map<Addr, std::uint64_t> &ref,
              const std::vector<Addr> &absent)
{
    ASSERT_EQ(table.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const std::uint64_t *found = table.find(key);
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, value) << "key " << key;
    }
    for (const Addr key : absent) {
        if (!ref.count(key)) {
            EXPECT_EQ(table.find(key), nullptr) << "key " << key;
        }
    }
}

TEST(AddrTable, MatchesUnorderedMapOnRandomSequences)
{
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        Xoshiro256 rng(seed);
        Table table;
        std::unordered_map<Addr, std::uint64_t> ref;
        // A small key universe forces revisits (merge, re-insert after
        // erase); a few seeds use a wide one so growth dominates.
        const std::uint64_t universe = seed % 10 == 0 ? 4096 : 48;
        const int ops = 200 + static_cast<int>(rng.below(300));
        for (int op = 0; op < ops; ++op) {
            const Addr key = rng.below(universe) * 32;
            const std::uint64_t pick = rng.below(10);
            if (pick < 5) {
                auto [value, inserted] = table.tryEmplace(key);
                const bool ref_inserted = ref.emplace(key, 0).second;
                ASSERT_EQ(inserted, ref_inserted) << "seed " << seed;
                if (inserted) {
                    EXPECT_EQ(value, 0u);
                }
                value = op;
                ref[key] = static_cast<std::uint64_t>(op);
            } else if (pick < 8) {
                const auto got = table.extract(key);
                const auto it = ref.find(key);
                ASSERT_EQ(got.has_value(), it != ref.end())
                    << "seed " << seed;
                if (got) {
                    EXPECT_EQ(*got, it->second);
                    ref.erase(it);
                }
            } else {
                const std::uint64_t *found = table.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(found != nullptr, it != ref.end())
                    << "seed " << seed;
                if (found) {
                    EXPECT_EQ(*found, it->second);
                }
            }
            ASSERT_EQ(table.size(), ref.size()) << "seed " << seed;
        }
        std::vector<Addr> probes;
        for (std::uint64_t k = 0; k < std::min<std::uint64_t>(universe, 64);
             ++k)
            probes.push_back(k * 32);
        expectMatches(table, ref, probes);
    }
}

TEST(AddrTable, CollidingKeysShareAClusterAndEraseFromItsMiddle)
{
    Table table;
    table.reserve(6);
    const std::size_t slots = table.slotCount();
    const std::vector<Addr> keys = keysWithHome(3, slots, 6);
    std::unordered_map<Addr, std::uint64_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        table.tryEmplace(keys[i]).first = i;
        ref[keys[i]] = i;
    }
    ASSERT_EQ(table.slotCount(), slots); // no growth: one long cluster
    // Erase from the middle, then the head, then the tail: every
    // remaining key must stay reachable from its home slot.
    for (const std::size_t victim : {2u, 0u, 5u}) {
        ASSERT_TRUE(table.extract(keys[victim]).has_value());
        ref.erase(keys[victim]);
        expectMatches(table, ref, keys);
    }
    // Re-inserting after the shifts reuses the cluster correctly.
    table.tryEmplace(keys[2]).first = 77;
    ref[keys[2]] = 77;
    expectMatches(table, ref, keys);
}

TEST(AddrTable, ClusterWrapsPastTheLastSlot)
{
    Table table;
    table.reserve(6);
    const std::size_t slots = table.slotCount();
    const std::size_t last = slots - 1;
    // Three keys homed at the last slot spill into slots 0 and 1; a key
    // homed at slot 0 then lands behind them, displaced from home.
    std::vector<Addr> keys = keysWithHome(last, slots, 3);
    const std::vector<Addr> at_zero = keysWithHome(0, slots, 2);
    keys.insert(keys.end(), at_zero.begin(), at_zero.end());
    std::unordered_map<Addr, std::uint64_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        table.tryEmplace(keys[i]).first = 100 + i;
        ref[keys[i]] = 100 + i;
    }
    ASSERT_EQ(table.slotCount(), slots);
    expectMatches(table, ref, keys);
    // Erasing the wrapped entries must pull the slot-0 keys back across
    // the wrap without moving any key before its home slot.
    for (const std::size_t victim : {1u, 0u, 3u, 2u}) {
        ASSERT_TRUE(table.extract(keys[victim]).has_value());
        ref.erase(keys[victim]);
        expectMatches(table, ref, keys);
    }
}

TEST(AddrTable, GrowsAndKeepsEveryEntry)
{
    Table table;
    std::unordered_map<Addr, std::uint64_t> ref;
    std::vector<Addr> keys;
    const std::size_t initial = 16;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const Addr key = i * 4096;
        keys.push_back(key);
        table.tryEmplace(key).first = i;
        ref[key] = i;
    }
    EXPECT_GT(table.slotCount(), initial);
    // The load factor stays at or below one half.
    EXPECT_LE(table.size() * 2, table.slotCount());
    expectMatches(table, ref, keys);
    EXPECT_EQ(table.find(5000 * 4096), nullptr);
}

TEST(AddrTable, ReservedEmptyKeyIsNeverFound)
{
    Table table;
    table.tryEmplace(0).first = 1;
    EXPECT_EQ(table.find(Table::kEmptyKey), nullptr);
    EXPECT_FALSE(table.extract(Table::kEmptyKey).has_value());
    ASSERT_NE(table.find(0), nullptr); // address 0 is an ordinary key
    EXPECT_EQ(*table.find(0), 1u);
}

TEST(FnListSlab, ListsDrainInArrivalOrder)
{
    FnListSlab<SmallFn> slab;
    FnListSlab<SmallFn>::List a, b;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        slab.pushBack(a, [&order, i] { order.push_back(i); });
        slab.pushBack(b, [&order, i] { order.push_back(100 + i); });
    }
    slab.drain(b);
    slab.drain(a);
    EXPECT_EQ(order,
              (std::vector<int>{100, 101, 102, 103, 104, 0, 1, 2, 3, 4}));
}

constexpr int kFanout = 700;

TEST(FnListSlab, ReentrantAppendDuringDrainGrowsTheSlab)
{
    // The L1 re-admission shape (FuzzRun.RegressionL1MshrAdmission-
    // LostWakeup): a waiter running from a detached list appends new
    // waiters — to a fresh list for the same key — enough of them to
    // add slab chunks while the drained callbacks run in place.
    FnListSlab<SmallFn> slab;
    FnListSlab<SmallFn>::List detached, fresh;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        slab.pushBack(detached, [&, i] {
            order.push_back(i);
            for (int j = 0; j < kFanout; ++j)
                slab.pushBack(fresh, [&order, i, j] {
                    order.push_back(1000 + i * kFanout + j);
                });
        });
    }
    slab.drain(detached);
    ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
    slab.drain(fresh);
    ASSERT_EQ(order.size(), 3u + 3u * kFanout);
    for (int k = 0; k < 3 * kFanout; ++k)
        ASSERT_EQ(order[3 + k], 1000 + k);
}

TEST(FnListSlab, DrainPassesArguments)
{
    FnListSlab<WakeFn> slab;
    FnListSlab<WakeFn>::List list;
    int resident = 0, fetched = 0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 300; ++i)
            slab.pushBack(list, [&](bool r) { ++(r ? resident : fetched); });
        slab.drain(list, round == 1);
        list = {};
    }
    EXPECT_EQ(resident, 300);
    EXPECT_EQ(fetched, 600);
}

} // namespace
} // namespace cachecraft
