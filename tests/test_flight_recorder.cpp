/**
 * @file
 * Tests for the binary flight recorder: ring mechanics (oldest-drop
 * overflow with exact accounting), snapshot ordering, the binary
 * dump format's round-trip and rejection behavior, and byte-identical
 * dumps from repeated simulator runs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "core/gpu_system.hpp"
#include "telemetry/flight_recorder.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft::telemetry {
namespace {

TEST(FlightRecorder, StartsEmpty)
{
    FlightRecorder fr(16);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.capacity(), 16u);
    EXPECT_EQ(fr.dropped(), 0u);
    EXPECT_EQ(fr.lastCycle(), 0u);
    EXPECT_TRUE(fr.snapshot().empty());
}

TEST(FlightRecorder, RecordsFieldsVerbatim)
{
    FlightRecorder fr(4);
    fr.record(RecordKind::kDramXfer, 42, 1000, 0xdeadbeef, 7, 3,
              kFlagEcc | kFlagWrite);
    ASSERT_EQ(fr.size(), 1u);
    const FlightRecord r = fr.snapshot()[0];
    EXPECT_EQ(static_cast<RecordKind>(r.kind), RecordKind::kDramXfer);
    EXPECT_EQ(r.id, 42u);
    EXPECT_EQ(r.at, 1000u);
    EXPECT_EQ(r.addr, 0xdeadbeefu);
    EXPECT_EQ(r.a, 7u);
    EXPECT_EQ(r.b, 3u);
    EXPECT_EQ(r.flags, kFlagEcc | kFlagWrite);
}

TEST(FlightRecorder, OverflowDropsOldestAndCounts)
{
    FlightRecorder fr(4);
    for (std::uint64_t i = 1; i <= 10; ++i)
        fr.record(RecordKind::kRequestStart, i, i * 10);

    // Exact accounting: 10 pushed, 4 retained, 6 dropped.
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.dropped(), 6u);

    // The survivors are the newest four, oldest first.
    const auto records = fr.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(records[i].id, 7u + i);
        EXPECT_EQ(records[i].at, (7u + i) * 10);
    }
}

TEST(FlightRecorder, LastCycleTracksMaximum)
{
    FlightRecorder fr(2);
    fr.record(RecordKind::kRequestStart, 1, 500);
    fr.record(RecordKind::kComplete, 1, 700);
    // Out-of-order timestamps (two SMs interleave) never regress it,
    // and overflow does not forget the maximum.
    fr.record(RecordKind::kRequestStart, 2, 600);
    EXPECT_EQ(fr.lastCycle(), 700u);
}

TEST(FlightRecorder, KindNamesAreStableAndUnique)
{
    std::set<std::string> names;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(RecordKind::kCount); ++k) {
        const char *name = toString(static_cast<RecordKind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate kind name: " << name;
    }
}

TEST(FlightDump, BinaryRoundTrip)
{
    FlightRecorder fr(8);
    fr.record(RecordKind::kRequestStart, 1, 100, 0x40);
    fr.record(RecordKind::kDramXfer, 1, 150, 0x40, 20, 4, kFlagEcc);
    fr.record(RecordKind::kComplete, 1, 400, 0x40);

    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    fr.writeBinary(buf);

    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    EXPECT_EQ(dump.dropped, 0u);
    EXPECT_EQ(dump.lastCycle, 400u);
    ASSERT_EQ(dump.records.size(), 3u);
    EXPECT_EQ(dump.records[0].id, 1u);
    EXPECT_EQ(dump.records[1].a, 20u);
    EXPECT_EQ(dump.records[1].b, 4u);
    EXPECT_EQ(dump.records[1].flags, kFlagEcc);
    EXPECT_EQ(static_cast<RecordKind>(dump.records[2].kind),
              RecordKind::kComplete);
}

TEST(FlightDump, OverflowSurvivesRoundTrip)
{
    FlightRecorder fr(4);
    for (std::uint64_t i = 1; i <= 9; ++i)
        fr.record(RecordKind::kRequestStart, i, i);

    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    fr.writeBinary(buf);

    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    EXPECT_EQ(dump.dropped, 5u);
    ASSERT_EQ(dump.records.size(), 4u);
    EXPECT_EQ(dump.records.front().id, 6u);
    EXPECT_EQ(dump.records.back().id, 9u);
}

TEST(FlightDump, RejectsBadMagic)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    buf << "NOTADUMPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FlightDump, RejectsTruncatedHeader)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    buf << "CCFL"; // four bytes of a 40-byte header
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(buf, &dump, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FlightDump, RejectsTruncatedRecords)
{
    FlightRecorder fr(8);
    fr.record(RecordKind::kRequestStart, 1, 100);
    fr.record(RecordKind::kComplete, 1, 200);

    std::ostringstream full(std::ios::binary);
    fr.writeBinary(full);
    const std::string bytes = full.str();

    // Chop mid-record: the reader must fail, not return short data.
    std::stringstream cut(bytes.substr(0, bytes.size() - 7),
                          std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(readFlightDump(cut, &dump, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FlightDump, RoundTripsAcrossReadChunks)
{
    // More records than one read chunk (65536): the chunked reader
    // must stitch them back in order.
    constexpr std::uint64_t kRecords = 70000;
    FlightRecorder fr(kRecords);
    for (std::uint64_t i = 1; i <= kRecords; ++i)
        fr.record(RecordKind::kComplete, i, i);
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    fr.writeBinary(buf);

    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    ASSERT_EQ(dump.records.size(), kRecords);
    EXPECT_EQ(dump.records[65535].id, 65536u);
    EXPECT_EQ(dump.records.back().id, kRecords);
}

/** A valid 40-byte dump header, no records, claiming @p count. */
std::string
headerClaiming(std::uint64_t count)
{
    FlightRecorder fr(1);
    std::ostringstream os(std::ios::binary);
    fr.writeBinary(os);
    std::string bytes = os.str();
    // The count field follows the 8-byte magic and two 32-bit fields.
    std::memcpy(bytes.data() + 16, &count, sizeof count);
    return bytes;
}

TEST(FlightDump, RejectsHostileRecordCounts)
{
    struct Case
    {
        std::uint64_t count;
        const char *diagnostic;
    };
    const Case cases[] = {
        // 32 TiB of records that are not there: fails as truncated
        // instead of allocating them up front.
        {std::uint64_t{1} << 40, "truncated flight dump records"},
        // count * 32 wraps 64 bits.
        {(std::uint64_t{1} << 59) + 1,
         "flight dump record count overflows"},
    };
    for (const Case &c : cases) {
        std::stringstream buf(headerClaiming(c.count),
                              std::ios::in | std::ios::binary);
        FlightDump dump;
        std::string error;
        EXPECT_FALSE(readFlightDump(buf, &dump, &error)) << c.count;
        EXPECT_EQ(error, c.diagnostic) << c.count;
    }
}

/** The flight dump of one small random/cachecraft run. */
std::string
randomCachecraftDump()
{
    SystemConfig cfg;
    cfg.scheme = SchemeKind::kCacheCraft;
    cfg.dram.channelCapacity = 64 * 1024 * 1024;
    cfg.l2.cache.sizeBytes = 64 * 1024;
    cfg.telemetry.flightRecorderEnabled = true;
    WorkloadParams wp;
    wp.footprintBytes = 512 * 1024;
    wp.numWarps = 32;
    wp.memInstsPerWarp = 16;
    GpuSystem gpu(cfg);
    gpu.run(makeWorkload(WorkloadKind::kRandomAccess, wp));
    const FlightRecorder *fr = gpu.telemetry().recorder();
    if (!fr)
        return {};
    std::ostringstream out(std::ios::binary);
    fr->writeBinary(out);
    return out.str();
}

// One engine thread drives each run, so the recorded order — and with
// it every byte of the dump — repeats exactly from run to run.
TEST(FlightDump, RepeatedRunsWriteIdenticalBytes)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";
    const std::string first = randomCachecraftDump();
    const std::string second = randomCachecraftDump();
    std::stringstream buf(first, std::ios::in | std::ios::binary);
    FlightDump dump;
    std::string error;
    ASSERT_TRUE(readFlightDump(buf, &dump, &error)) << error;
    EXPECT_GT(dump.records.size(), 1000u);
    EXPECT_TRUE(first == second) << "flight dumps differ";
}

} // namespace
} // namespace cachecraft::telemetry
