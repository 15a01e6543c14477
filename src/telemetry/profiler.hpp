/**
 * @file
 * Occupancy profiler: epoch-sampled structural-resource occupancy and
 * hot-row/hot-sector tracking.
 *
 * The profiler rides the Telemetry hub and is purely observational —
 * instrumented components *report* queue depths and accesses to it,
 * and enabling it must never change simulated timing (verified by an
 * exact cycle-equality test).
 *
 * It does not attribute cycles: where simulated time went is answered
 * exactly by the flight recorder's critical path (critical_path.hpp).
 *
 * Gating matches the flight recorder: a runtime gate
 * (TelemetryOptions::profileEnabled) and the CACHECRAFT_TRACE_DISABLED
 * compile-out (Telemetry::profiler() is then constant nullptr and
 * every hook folds away).
 */

#ifndef CACHECRAFT_TELEMETRY_PROFILER_HPP
#define CACHECRAFT_TELEMETRY_PROFILER_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/stats.hpp"

namespace cachecraft {
class JsonWriter;
}

namespace cachecraft::telemetry {

/** One entry of a hottest-rows/hottest-sectors ranking. */
struct HotEntry
{
    std::uint64_t key = 0; //!< row id or sector address
    std::uint64_t count = 0;
};

/** Occupancy and hot-key profiler. See file comment. */
class Profiler
{
  public:
    /** Ranking depth for hottestRows()/hottestSectors(). */
    static constexpr std::size_t kTopN = 10;

    /**
     * @param stats registry the occupancy stats ("profile.occ.*")
     *              register with; may be null (then stats are kept but
     *              not exported).
     */
    explicit Profiler(StatRegistry *stats);

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
     * {"occupancy": {...}, "hot_rows": [...], "hot_sectors": [...]}.
     * Byte-deterministic for a given run.
     */
    void writeJson(JsonWriter &w) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        std::unique_ptr<HistogramStat> hist;
    };

    static std::vector<HotEntry>
    rank(const std::unordered_map<std::uint64_t, std::uint64_t> &m);

    StatRegistry *stats_ = nullptr;
    std::vector<Gauge> gauges_;
    Counter samples_;
    std::unordered_map<std::uint64_t, std::uint64_t> rowCounts_;
    std::unordered_map<std::uint64_t, std::uint64_t> sectorCounts_;
};

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_PROFILER_HPP
