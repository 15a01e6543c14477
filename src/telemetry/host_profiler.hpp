/**
 * @file
 * Host-performance observatory: wall-clock zone profiling of the
 * simulator itself, hardware counters, and memory telemetry.
 *
 * Every other profiler in this repo attributes *simulated* cycles;
 * this one attributes the *host* wall-clock the simulator spends per
 * subsystem. Instrumented code drops RAII zones on the (per-thread)
 * call stack:
 *
 *   CC_HOST_ZONE("l2.read");          // timing only, ~tens of ns
 *   CC_HOST_ZONE_COUNTED("engine.drain");  // + HW counter deltas
 *
 * Zones aggregate into a per-thread tree keyed by (parent path, zone
 * name); HostProfiler::snapshot() merges all thread trees and derives
 * exclusive (self) time as inclusive minus child time. Counted zones
 * additionally sample a Linux perf_event group (cycles, instructions,
 * LLC misses, branch misses) at enter/leave — a ~1 us syscall pair,
 * which is why only coarse phases are counted and hot leaf zones use
 * the plain macro. Counters degrade gracefully: when perf_event_open
 * is denied (containers, perf_event_paranoid) or the platform is not
 * Linux, counted zones silently behave like plain ones and the
 * snapshot carries available=false plus the reason.
 *
 * Gating follows the flight-recorder contract exactly:
 *  - off by default: HostZone's constructor is one relaxed atomic
 *    load and a predicted branch; nothing else happens;
 *  - runtime gate: TelemetryOptions::hostProfileEnabled retains the
 *    process-wide profiler for the lifetime of that Telemetry hub
 *    (refcounted, so parallel campaign points compose), and the
 *    hostprof tool retains it directly;
 *  - compile-time gate: under CACHECRAFT_TRACE_DISABLED both macros
 *    expand to ((void)0) and instrumented objects reference no
 *    HostProfiler/HostZone symbol at all (CI pins this with nm).
 *
 * The zone *structure* (paths and hit counts) is deterministic for a
 * given configuration; only durations, counters, and memory vary per
 * host. The hostprof JSON artifact therefore keeps paths/counts at
 * top level and every host-varying field under "manifest", the prefix
 * cachecraft_diff drops by default — two same-config profiles diff
 * clean.
 */

#ifndef CACHECRAFT_TELEMETRY_HOST_PROFILER_HPP
#define CACHECRAFT_TELEMETRY_HOST_PROFILER_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cachecraft {
class JsonWriter;
} // namespace cachecraft

namespace cachecraft::telemetry {

/** Knobs of one profiling session (first retain() wins). */
struct HostProfileOptions
{
    /** Attempt to open hardware counters for counted zones. */
    bool counters = true;
};

/** One merged zone of a snapshot tree. */
struct HostZoneNode
{
    std::string name;
    std::uint64_t count = 0;       //!< times the zone was entered
    std::uint64_t inclusiveNs = 0; //!< wall time incl. children
    std::uint64_t exclusiveNs = 0; //!< inclusive minus child time
    /** Counted enters whose HW counter pair actually sampled. */
    std::uint64_t counterReads = 0;
    std::uint64_t cycles = 0;       //!< HW cycles across counted visits
    std::uint64_t instructions = 0; //!< retired instructions
    std::uint64_t cacheMisses = 0;  //!< LLC misses
    std::uint64_t branchMisses = 0; //!< mispredicted branches
    std::vector<HostZoneNode> children; //!< sorted by name
};

/** One periodic resident-set sample (see HostProfiler::sampleMemory). */
struct HostMemorySample
{
    std::uint64_t tNs = 0;    //!< ns since the profiler was retained
    std::uint64_t rssKib = 0; //!< resident set at that instant
};

/** Everything snapshot() extracts from the live profiler. */
struct HostProfileSnapshot
{
    /** Synthetic "host" root; inclusive = sum of its children. */
    HostZoneNode root;
    std::uint64_t threads = 0; //!< thread trees merged into root
    bool countersAvailable = false;
    /** Why counters are unavailable ("" when available/untried). */
    std::string countersError;
    std::uint64_t rssKib = 0;     //!< RSS at snapshot time
    std::uint64_t peakRssKib = 0; //!< process VmHWM at snapshot time
    std::vector<HostMemorySample> rssSamples;
};

/**
 * The process-wide zone profiler. All state is static: zones live in
 * code (ECC codecs, the event queue) that has no Telemetry pointer to
 * thread through, so the off-path check must be reachable from
 * anywhere at the cost of exactly one atomic load.
 */
class HostProfiler
{
  public:
    /** True while zones record (the HostZone fast-path check). */
    static bool
    recording()
    {
#ifdef CACHECRAFT_TRACE_DISABLED
        return false;
#else
        return recording_.load(std::memory_order_relaxed);
#endif
    }

    /**
     * Start (or keep) recording; refcounted so nested scopes — e.g.
     * the hostprof tool around a campaign whose points also set
     * hostProfileEnabled — compose. @p options applies on the 0 -> 1
     * transition only.
     */
    static void retain(const HostProfileOptions &options = {});

    /**
     * Drop one reference; recording stops at zero but the collected
     * data survives for snapshot() until reset().
     */
    static void release();

    /**
     * Discard all collected data and references. Call only while no
     * instrumented code is running (tools call it once at startup,
     * tests between cases).
     */
    static void reset();

    /** True when any data has been collected since the last reset. */
    static bool started();

    /**
     * Merge every thread's zone tree into one snapshot. Safe while
     * recording is off or all profiled threads have quiesced (the
     * tools snapshot after joining their runs).
     */
    static HostProfileSnapshot snapshot();

    /**
     * Append one RSS sample to the snapshot's series. Cheap no-op
     * when the profiler was never retained; the campaign runner calls
     * it at every point completion, giving campaigns a memory-over-
     * time trace without any background thread.
     */
    static void sampleMemory();

  private:
    friend class HostZone;
    static std::atomic<bool> recording_;
};

/**
 * One RAII scoped zone. Use through CC_HOST_ZONE /
 * CC_HOST_ZONE_COUNTED so the whole site compiles away under
 * CACHECRAFT_TRACE_DISABLED; constructing HostZone directly is for
 * tests. enter()/leave() are deliberately out of line — instrumented
 * objects must reference HostZone symbols exactly when the macros are
 * compiled in, which is what the CI notrace nm check pins.
 */
class HostZone
{
  public:
    explicit HostZone(const char *name, bool counted = false)
    {
        if (HostProfiler::recording())
            enter(name, counted);
    }

    ~HostZone()
    {
        if (state_ != nullptr)
            leave();
    }

    HostZone(const HostZone &) = delete;
    HostZone &operator=(const HostZone &) = delete;

  private:
    void enter(const char *name, bool counted);
    void leave();

    /** The thread's recording state; null when this zone is a no-op. */
    void *state_ = nullptr;
};

#ifdef CACHECRAFT_TRACE_DISABLED
#define CC_HOST_ZONE(name) ((void)0)
#define CC_HOST_ZONE_COUNTED(name) ((void)0)
#else
#define CC_HOST_ZONE_CONCAT2(a, b) a##b
#define CC_HOST_ZONE_CONCAT(a, b) CC_HOST_ZONE_CONCAT2(a, b)
/** Time this scope under @p name (a string literal; must outlive the
 *  profiler — literals always do). */
#define CC_HOST_ZONE(name)                                              \
    ::cachecraft::telemetry::HostZone CC_HOST_ZONE_CONCAT(              \
        cc_host_zone_, __COUNTER__)(name, false)
/** Time this scope and sample the HW counter group at both ends.
 *  Costs ~1 us per visit when counters are live: coarse phases only. */
#define CC_HOST_ZONE_COUNTED(name)                                      \
    ::cachecraft::telemetry::HostZone CC_HOST_ZONE_CONCAT(              \
        cc_host_zone_, __COUNTER__)(name, true)
#endif

/** @{ Memory telemetry primitives (0 when the platform lacks /proc). */
std::uint64_t hostCurrentRssKib();
std::uint64_t hostPeakRssKib();
/** @} */

/** Sum of exclusive ns over the whole tree (== root inclusive up to
 *  clamping; the quantity the >=90%-of-wall acceptance check uses). */
std::uint64_t hostSumExclusiveNs(const HostZoneNode &node);

/** One hostprof artifact: a snapshot plus its provenance. */
struct HostProfileArtifact
{
    HostProfileSnapshot snapshot;
    std::string tool;         //!< manifest.tool
    std::uint64_t wallNs = 0; //!< wall clock of the profiled region
    /** Deterministic context ("workload", "scheme", ...), top level. */
    std::vector<std::pair<std::string, std::string>> config;
};

/**
 * Write the cachecraft.hostprof/1 document: deterministic zone paths
 * and counts at top level, all host-varying timing/counter/memory
 * data under "manifest" (diff-ignored by default).
 */
void writeHostProfileJson(JsonWriter &w, const HostProfileArtifact &a);

/** Console tree: inclusive/exclusive, % of total, counters. */
std::string renderHostTree(const HostProfileSnapshot &s);

/** Brendan-Gregg folded stacks: "host;a;b <exclusive ns>" lines. */
std::string renderHostFolded(const HostProfileSnapshot &s);

/** Self-contained flamegraph SVG (icicle layout, no scripts). */
std::string renderHostFlameSvg(const HostProfileSnapshot &s,
                               const std::string &title);

} // namespace cachecraft::telemetry

#endif // CACHECRAFT_TELEMETRY_HOST_PROFILER_HPP
