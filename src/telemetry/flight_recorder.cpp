#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "common/log.hpp"

namespace cachecraft::telemetry {

const char *
toString(RecordKind kind)
{
    switch (kind) {
      case RecordKind::kCoalesce:
        return "coalesce";
      case RecordKind::kRequestStart:
        return "request_start";
      case RecordKind::kL1Hit:
        return "l1.hit";
      case RecordKind::kL1MshrMerge:
        return "l1.mshr_merge";
      case RecordKind::kL1MshrBlocked:
        return "l1.mshr_blocked";
      case RecordKind::kL1MshrAdmit:
        return "l1.mshr_admit";
      case RecordKind::kXbarHop:
        return "xbar.hop";
      case RecordKind::kL2Queue:
        return "l2.queue";
      case RecordKind::kL2Probe:
        return "l2.probe";
      case RecordKind::kL2MshrMerge:
        return "l2.mshr_merge";
      case RecordKind::kL2MshrBlocked:
        return "l2.mshr_blocked";
      case RecordKind::kL2MshrAdmit:
        return "l2.mshr_admit";
      case RecordKind::kMrcProbe:
        return "mrc.probe";
      case RecordKind::kMrcFill:
        return "mrc.fill";
      case RecordKind::kDramXfer:
        return "dram.xfer";
      case RecordKind::kDramDone:
        return "dram.done";
      case RecordKind::kDecode:
        return "decode";
      case RecordKind::kComplete:
        return "complete";
      case RecordKind::kCount:
        break;
    }
    return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity ? capacity : 1)
{
}

std::vector<FlightRecord>
FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    out.reserve(count_);
    const std::size_t oldest =
        (head_ + ring_.size() - count_) % ring_.size();
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(oldest + i) % ring_.size()]);
    return out;
}

namespace {

/** Dump format v1 header. All fields little-endian native (the dump
 *  is a same-machine artifact, read back by cachecraft_trace). */
struct DumpHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t recordBytes;
    std::uint64_t count;
    std::uint64_t dropped;
    std::uint64_t lastCycle;
};

constexpr char kMagic[8] = {'C', 'C', 'F', 'L', 'T', 'R', 'E', 'C'};
constexpr std::uint32_t kDumpVersion = 1;

static_assert(sizeof(DumpHeader) == 40, "dump header layout");

bool
readFail(std::string *error, const char *message)
{
    if (error)
        *error = message;
    return false;
}

} // namespace

void
FlightRecorder::writeBinary(std::ostream &os) const
{
    DumpHeader h{};
    std::memcpy(h.magic, kMagic, sizeof kMagic);
    h.version = kDumpVersion;
    h.recordBytes = sizeof(FlightRecord);
    h.count = count_;
    h.dropped = dropped_;
    h.lastCycle = lastCycle_;
    os.write(reinterpret_cast<const char *>(&h), sizeof h);
    // The ring is written oldest-first in at most two contiguous runs,
    // so a full dump is two writes, not count_ small ones.
    const std::size_t oldest =
        (head_ + ring_.size() - count_) % ring_.size();
    const std::size_t tail = std::min(count_, ring_.size() - oldest);
    os.write(reinterpret_cast<const char *>(ring_.data() + oldest),
             static_cast<std::streamsize>(tail * sizeof(FlightRecord)));
    if (tail < count_)
        os.write(reinterpret_cast<const char *>(ring_.data()),
                 static_cast<std::streamsize>((count_ - tail) *
                                              sizeof(FlightRecord)));
}

bool
readFlightDump(std::istream &is, FlightDump *out, std::string *error)
{
    DumpHeader h{};
    is.read(reinterpret_cast<char *>(&h), sizeof h);
    if (!is)
        return readFail(error, "truncated flight dump header");
    if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0)
        return readFail(error, "not a flight dump (bad magic)");
    if (h.version != kDumpVersion)
        return readFail(error, "unsupported flight dump version");
    if (h.recordBytes != sizeof(FlightRecord))
        return readFail(error, "flight dump record size mismatch");

    // The header's count is untrusted: it must neither overflow the
    // byte size nor size an allocation by itself. Records are read in
    // bounded chunks, so a count beyond the bytes actually present
    // fails as truncated after at most one chunk of allocation.
    if (h.count > static_cast<std::uint64_t>(
                      std::numeric_limits<std::streamsize>::max()) /
                      sizeof(FlightRecord))
        return readFail(error, "flight dump record count overflows");
    constexpr std::uint64_t kChunkRecords = 1u << 16;
    FlightDump dump;
    dump.dropped = h.dropped;
    dump.lastCycle = h.lastCycle;
    for (std::uint64_t done = 0; done < h.count;) {
        const std::uint64_t n = std::min(h.count - done, kChunkRecords);
        dump.records.resize(done + n);
        is.read(reinterpret_cast<char *>(dump.records.data() + done),
                static_cast<std::streamsize>(n * sizeof(FlightRecord)));
        if (!is)
            return readFail(error, "truncated flight dump records");
        done += n;
    }
    for (const FlightRecord &r : dump.records) {
        if (r.kind >= static_cast<std::uint8_t>(RecordKind::kCount))
            return readFail(error, "flight dump has unknown record kind");
    }
    *out = std::move(dump);
    return true;
}

} // namespace cachecraft::telemetry
