/**
 * @file
 * Cycle-attribution profiler: stall-reason accounting, epoch-sampled
 * structural-resource occupancy, and hot-row/hot-sector tracking.
 *
 * The profiler rides the Telemetry hub and is purely observational —
 * instrumented components *report* blocking intervals and queue depths
 * to it, and enabling it must never change simulated timing (verified
 * by an exact cycle-equality test).
 *
 * Stall taxonomy. A request is charged to the reason it first blocked
 * on, at the point in the model where that block is detected:
 *
 *   mshr_full              L2 read miss parked because the slice MSHR
 *                          file had no free entry.
 *   bank_conflict          DRAM transaction waited for a busy bank
 *                          (row already open, different row).
 *   row_miss               DRAM transaction paid a precharge and/or
 *                          activate before its column access.
 *   ecc_read_serialization data burst delayed behind a metadata
 *                          (redundancy) read on the shared bus.
 *   mrc_probe_block        access waited for an in-flight metadata
 *                          chunk fetch to fill the reconstruction
 *                          cache.
 *   crossbar_backpressure  packet waited for a busy crossbar output
 *                          port.
 *
 * Accounting. Per reason, charged intervals are union-clipped against
 * a high-water mark: overlapping reports of the same contended
 * resource window collapse into one span of wall-clock time. This
 * guarantees each reason's cycle total is bounded by total simulated
 * cycles (the run-report self-consistency invariant), at the cost of
 * slightly undercounting when a later report starts before an earlier
 * charged interval began. `events` counts raw blocking occurrences
 * (un-clipped), so events * mean-duration intuition still works.
 *
 * Gating matches lifecycle tracing: a runtime gate
 * (TelemetryOptions::profileEnabled) and the CACHECRAFT_TRACE_DISABLED
 * compile-out (Telemetry::profiler() is then constant nullptr and
 * every hook folds away).
 */

#ifndef CACHECRAFT_TELEMETRY_PROFILER_HPP
#define CACHECRAFT_TELEMETRY_PROFILER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/domain.hpp"
#include "common/types.hpp"
#include "stats/stats.hpp"

namespace cachecraft {
class JsonWriter;
}

namespace cachecraft::telemetry {

/** Why a memory request stalled (see file comment for definitions). */
enum class StallReason : std::uint8_t
{
    kMshrFull,
    kBankConflict,
    kRowMiss,
    kEccReadSerialization,
    kMrcProbeBlock,
    kCrossbarBackpressure,
    kCount,
};

/** Stable name of a stall reason (stat suffix and JSON key). */
const char *toString(StallReason reason);

/** One entry of a hottest-rows/hottest-sectors ranking. */
struct HotEntry
{
    std::uint64_t key = 0; //!< row id or sector address
    std::uint64_t count = 0;
};

/** Cycle-attribution profiler. See file comment. */
class Profiler
{
  public:
    /** Ranking depth for hottestRows()/hottestSectors(). */
    static constexpr std::size_t kTopN = 10;

    /**
     * @param stats registry the stall counters ("profile.stall.
     *              <reason>.cycles"/".events") register with; may be
     *              null (then stats are kept but not exported).
     */
    explicit Profiler(StatRegistry *stats);

    /**
     * Charge [from, to) cycles of blocking to @p reason. Intervals are
     * union-clipped per reason (see file comment); a call entirely
     * behind the reason's high-water mark adds no cycles but still
     * counts one event when to > from.
     *
     * Sharded runs: a charge reported from inside a shard domain's
     * event execution (tlsSimDomain set, after configureDomains()) is
     * *staged* in a per-domain lane instead of applied — the union
     * clip is order-sensitive, so the epoch leader merges all lanes in
     * canonical (from, domain, lane index) order at every barrier via
     * applyStagedStalls(). Charges from outside domain execution (the
     * leader's own crossbar arbitration, unit tests, serial engines)
     * apply immediately, which is canonical by construction.
     */
    void chargeStall(StallReason reason, Cycle from, Cycle to);

    /**
     * Arm sharded staging with one lane per shard domain. Call during
     * system construction, before any domain executes.
     */
    void configureDomains(unsigned num_domains);

    /** Leader-only, all domains parked: apply every staged charge in
     *  canonical order and clear the lanes. */
    void applyStagedStalls();

    std::uint64_t stallCycles(StallReason reason) const;
    std::uint64_t stallEvents(StallReason reason) const;

    /**
     * Register an occupancy gauge: @p fn is polled at every profile
     * epoch boundary and its value fed into a histogram registered as
     * "profile.occ.<name>". Must be called before sampling starts
     * (i.e. during system construction).
     */
    void addGauge(const std::string &name,
                  std::function<std::uint64_t()> fn);

    /** Poll every gauge once (one profile epoch boundary). */
    void sampleOccupancy();

    /** Number of occupancy sampling points taken so far. */
    std::uint64_t samples() const { return samples_.value(); }

    /** Count one access to DRAM row @p row_key. */
    void recordRowAccess(std::uint64_t row_key);
    /** Count one L2 access to sector address @p sector_addr. */
    void recordSectorAccess(std::uint64_t sector_addr);

    /**
     * Top-N hottest rows/sectors, ordered by count descending then key
     * ascending (deterministic across runs).
     */
    std::vector<HotEntry> hottestRows() const;
    std::vector<HotEntry> hottestSectors() const;

    /**
     * Emit the run-report "profile" object value on @p w:
     * {"stalls": {...}, "occupancy": {...}, "hot_rows": [...],
     *  "hot_sectors": [...]}. Byte-deterministic for a given run.
     */
    void writeJson(JsonWriter &w) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        std::unique_ptr<HistogramStat> hist;
    };

    /** One staged (not yet union-clipped) stall charge. */
    struct StagedStall
    {
        StallReason reason;
        Cycle from;
        Cycle to;
    };

    /** Apply one charge to the watermark accounting (legacy body). */
    void applyStall(StallReason reason, Cycle from, Cycle to);

    static std::vector<HotEntry>
    rank(const std::unordered_map<std::uint64_t, std::uint64_t> &m);

    StatRegistry *stats_ = nullptr;
    Counter cycles_[static_cast<std::size_t>(StallReason::kCount)];
    Counter events_[static_cast<std::size_t>(StallReason::kCount)];
    Cycle watermark_[static_cast<std::size_t>(StallReason::kCount)] = {};
    std::vector<Gauge> gauges_;
    Counter samples_;
    std::vector<StagedLane<StagedStall>> staged_; //!< per shard domain
    std::mutex hotMutex_; //!< guards the two hot-access maps
    std::unordered_map<std::uint64_t, std::uint64_t> rowCounts_;
    std::unordered_map<std::uint64_t, std::uint64_t> sectorCounts_;
};

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_PROFILER_HPP
