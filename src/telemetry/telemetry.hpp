/**
 * @file
 * Run telemetry hub.
 *
 * A Telemetry hub is owned by each GpuSystem and handed (as a nullable
 * pointer) to every instrumented component. It owns the optional
 * observers — the occupancy Profiler, the binary
 * FlightRecorder (the per-request lifecycle capture, see
 * flight_recorder.hpp), the ReuseProfiler and a HostProfiler
 * reference — and mints the request ids that flight records key on.
 *
 * Gating: each observer is off unless its TelemetryOptions switch is
 * set (runtime gate — the hooks reduce to one predicted null check),
 * and all of them compile to nothing when CACHECRAFT_TRACE_DISABLED
 * is defined (compile-time gate).
 */

#ifndef CACHECRAFT_TELEMETRY_TELEMETRY_HPP
#define CACHECRAFT_TELEMETRY_TELEMETRY_HPP

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "stats/stats.hpp"
#include "telemetry/profiler.hpp"

namespace cachecraft::telemetry {

/** Observability knobs, configured via SystemConfig::telemetry. */
struct TelemetryOptions
{
    /**
     * Epoch length in cycles for the StatSampler time series;
     * 0 disables sampling.
     */
    Cycle sampleInterval = 0;
    /** Runtime gate for the occupancy/hot-key profiler. */
    bool profileEnabled = false;
    /**
     * Occupancy-gauge polling interval in cycles for the profiler
     * (independent of sampleInterval, which drives the stat series).
     */
    Cycle profileInterval = 4096;
    /** Runtime gate for the binary flight recorder. */
    bool flightRecorderEnabled = false;
    /** Flight-recorder ring capacity in 32-byte records. */
    std::size_t flightCapacity = 1u << 20;
    /** Runtime gate for one-pass reuse-distance profiling. */
    bool reuseProfileEnabled = false;
    /** Curve bound: miss-ratio points at 1..reuseMaxAssoc ways. */
    unsigned reuseMaxAssoc = 64;
    /** Upper bound on set groups per cache (heatmap rows). */
    unsigned reuseSetGroups = 64;
    /** Initial heatmap epoch length in cache accesses. */
    std::uint64_t reuseEpochAccesses = 4096;
    /** Retain raw access streams for brute-force curve validation. */
    bool reuseRetainStream = false;
    /**
     * Runtime gate for the host wall-clock zone profiler: the hub
     * retains the process-wide HostProfiler for its lifetime (see
     * host_profiler.hpp). Refcounted, so concurrent campaign points
     * that all enable it compose.
     */
    bool hostProfileEnabled = false;
};

#ifdef CACHECRAFT_TRACE_DISABLED
inline constexpr bool kTraceCompiledIn = false;
#else
inline constexpr bool kTraceCompiledIn = true;
#endif

class FlightRecorder;
class ReuseProfiler;

/** Per-system telemetry hub. See file comment. */
class Telemetry
{
  public:
    /** @param stats registry the profiler registers with; may be null. */
    Telemetry(StatRegistry *stats, const TelemetryOptions &options);
    ~Telemetry(); // out-of-line: FlightRecorder is incomplete here

    const TelemetryOptions &options() const { return options_; }

    /**
     * True when request-scoped capture (the flight recorder) is live,
     * i.e. when components should allocate and thread per-request ids.
     */
    bool active() const { return recorder() != nullptr; }

    /** Allocate a fresh request id (never 0; thread-safe — sharded
     *  domains mint ids concurrently, and ids only need uniqueness). */
    std::uint64_t
    newId()
    {
        return lastId_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * The occupancy/hot-key profiler, or nullptr when profiling is off
     * (runtime gate) or tracing is compiled out. Hooks are expected to
     * null-check: `if (auto *p = tel->profiler()) p->recordRowAccess(...)`.
     */
    Profiler *
    profiler() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return profiler_.get();
    }

    /**
     * The binary flight recorder, or nullptr when recording is off
     * (runtime gate) or tracing is compiled out. Same hook contract
     * as profiler(): `if (auto *fr = tel->recorder()) fr->record(...)`.
     */
    FlightRecorder *
    recorder() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return recorder_.get();
    }

    /**
     * The reuse-distance profiler, or nullptr when reuse profiling is
     * off (runtime gate) or tracing is compiled out. Cache owners
     * null-check and attach: `if (auto *rp = tel->reuse())
     * cache.setObserver(rp->attach(...))`.
     */
    ReuseProfiler *
    reuse() const
    {
        if constexpr (!kTraceCompiledIn)
            return nullptr;
        return reuse_.get();
    }

  private:
    TelemetryOptions options_;
    std::unique_ptr<Profiler> profiler_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<ReuseProfiler> reuse_;
    std::atomic<std::uint64_t> lastId_{0};
    /** True when this hub holds one HostProfiler reference. */
    bool hostRetained_ = false;
};

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_TELEMETRY_HPP
