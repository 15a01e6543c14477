/**
 * @file
 * Binary flight recorder: fixed-size structured records of the causal
 * edges of every memory request, captured in a ring with no JSON (or
 * any allocation) on the hot path.
 *
 * Each instrumented component pushes one 32-byte FlightRecord per
 * causal edge — coalesce, L1 probe/MSHR, crossbar hop, L2 probe/MSHR,
 * MRC metadata probe/fill, DRAM transfer, decode, completion — keyed
 * by the per-sector request id the telemetry hub allocates. The
 * records of one run form a DAG that the critical-path analyzer
 * (critical_path.hpp) replays offline; cachecraft_trace reads the
 * binary dump and emits human- and diff-friendly artifacts.
 *
 * This is the only per-request capture. Chrome/Perfetto JSON comes
 * from the dump (`cachecraft_trace --chrome`; writeChromePathJson in
 * critical_path.hpp).
 *
 * Gating: the whole record path compiles to nothing under
 * CACHECRAFT_TRACE_DISABLED, and at runtime hooks go
 * through `telemetry->recorder()` which returns nullptr unless
 * TelemetryOptions::flightRecorderEnabled is set, so a disabled
 * recorder costs one predicted branch per hook (same contract as
 * Telemetry::profiler()).
 */

#ifndef CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP
#define CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cachecraft::telemetry {

/** Causal edge kinds a FlightRecord can describe. */
enum class RecordKind : std::uint8_t
{
    kCoalesce,      //!< warp lanes -> sectors; a = sector count
    kRequestStart,  //!< per-sector request issued; a = coalesce id low bits
    kL1Hit,         //!< L1 sector hit; a = hit latency
    kL1MshrMerge,   //!< merged into an in-flight L1 miss
    kL1MshrBlocked, //!< L1 MSHRs full, request parked
    kL1MshrAdmit,   //!< parked request re-admitted
    kXbarHop,       //!< crossbar hop; a = backpressure wait, b = latency
    kL2Queue,       //!< L2 service-slot wait; a = slot - arrival
    kL2Probe,       //!< L2 tag probe; flag kFlagHit, a = hit latency
    kL2MshrMerge,   //!< merged into an in-flight L2 miss
    kL2MshrBlocked, //!< L2 MSHRs full, request parked
    kL2MshrAdmit,   //!< parked L2 request re-admitted
    kMrcProbe,      //!< MRC metadata probe; flag kFlagHit
    kMrcFill,       //!< MRC chunk became resident (addr = chunk line)
    kDramXfer,      //!< DRAM txn issued; a = queue wait, b = bank/row wait
    kDramDone,      //!< DRAM txn data available at the controller
    kDecode,        //!< codec decode fired; flags = DecodeStatus
    kComplete,      //!< request completed back at the SM
    kCount,
};

/** Stable name of a record kind (dump printing, JSON keys). */
const char *toString(RecordKind kind);

/** FlightRecord::flags bits (kind-dependent, see RecordKind docs). */
inline constexpr std::uint8_t kFlagHit = 1u << 0;
inline constexpr std::uint8_t kFlagResponse = 1u << 0; //!< kXbarHop
inline constexpr std::uint8_t kFlagWrite = 1u << 1;
inline constexpr std::uint8_t kFlagEcc = 1u << 2;
/** kDramXfer/kDramDone: RowOutcome in bits 3..4 (hit/closed/conflict). */
inline constexpr std::uint8_t kFlagRowShift = 3;
inline constexpr std::uint8_t kFlagRowMask = 3u << kFlagRowShift;

/**
 * One causal edge, exactly 32 bytes so a ring of a million records is
 * 32 MiB and a dump is a flat memcpy-able array.
 */
struct FlightRecord
{
    std::uint64_t id = 0;   //!< request id (0 = not request-scoped)
    std::uint64_t at = 0;   //!< cycle the edge occurred
    std::uint64_t addr = 0; //!< sector / physical / MRC-line address
    std::uint32_t a = 0;    //!< kind-specific: waits, counts, latency
    std::uint16_t b = 0;    //!< kind-specific: secondary wait (clamped)
    std::uint8_t kind = static_cast<std::uint8_t>(RecordKind::kCount);
    std::uint8_t flags = 0;
};

static_assert(sizeof(FlightRecord) == 32,
              "FlightRecord must stay 32 bytes (dump format v1)");

/**
 * Fixed-capacity ring of FlightRecords; oldest-drop overflow, counted,
 * so overflow surfaces as a RunStats warning.
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t capacity);

    /** Push one causal edge. Hot path: no allocation, no branches
     *  beyond the ring wrap. One engine thread drives each run, so
     *  record order — hence the binary dump — is deterministic. */
    void
    record(RecordKind kind, std::uint64_t id, Cycle at,
           std::uint64_t addr = 0, std::uint32_t a = 0,
           std::uint16_t b = 0, std::uint8_t flags = 0)
    {
        if (count_ == ring_.size())
            ++dropped_;
        else
            ++count_;
        FlightRecord &r = ring_[head_];
        r.id = id;
        r.at = at;
        r.addr = addr;
        r.a = a;
        r.b = b;
        r.kind = static_cast<std::uint8_t>(kind);
        r.flags = flags;
        head_ = (head_ + 1) % ring_.size();
        if (at > lastCycle_)
            lastCycle_ = at;
    }

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    /** Records discarded because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }
    Cycle lastCycle() const { return lastCycle_; }

    /** Retained records, oldest first. */
    std::vector<FlightRecord> snapshot() const;

    /**
     * Write the retained records as a binary dump: a fixed header
     * (magic, version, record size, count, dropped, last cycle)
     * followed by the raw records, oldest first.
     */
    void writeBinary(std::ostream &os) const;

  private:
    std::vector<FlightRecord> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t dropped_ = 0;
    Cycle lastCycle_ = 0;
};

/** A parsed binary dump (see FlightRecorder::writeBinary). */
struct FlightDump
{
    std::uint64_t dropped = 0;
    Cycle lastCycle = 0;
    std::vector<FlightRecord> records;
};

/**
 * Parse a dump produced by writeBinary(). Returns false (diagnostic
 * in @p error, may be null) on truncated or mismatched input.
 */
bool readFlightDump(std::istream &is, FlightDump *out,
                    std::string *error = nullptr);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_FLIGHT_RECORDER_HPP
