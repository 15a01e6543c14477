/**
 * @file
 * GpuSystem — the library's top-level object and primary public API.
 *
 * Builds the whole machine from a SystemConfig, runs one KernelTrace
 * to completion under the configured protection scheme, and reports
 * RunStats. Also exposes the fault-injection and memory-audit hooks
 * the reliability experiments use.
 *
 * A GpuSystem instance runs exactly one kernel (construct a fresh one
 * per data point — construction is cheap; all DRAM state is sparse).
 */

#ifndef CACHECRAFT_CORE_GPU_SYSTEM_HPP
#define CACHECRAFT_CORE_GPU_SYSTEM_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/addr_table.hpp"
#include "common/arena.hpp"
#include "core/config.hpp"
#include "dram/storage.hpp"
#include "faults/fault_index.hpp"
#include "gpu/crossbar.hpp"
#include "gpu/kernel_trace.hpp"
#include "gpu/l2_slice.hpp"
#include "gpu/sm_core.hpp"
#include "telemetry/telemetry.hpp"

namespace cachecraft {

namespace telemetry {
class StatSampler;
} // namespace telemetry

/**
 * Host-side engine throughput of one run. eventsExecuted and
 * peakQueueDepth are deterministic (identical across hosts for the
 * same config); the time-derived fields vary run to run and are
 * reported under report manifests only — never gated.
 */
struct SimThroughput
{
    double hostSeconds = 0.0;
    std::uint64_t eventsExecuted = 0;
    std::uint64_t peakQueueDepth = 0;
    double eventsPerSec = 0.0;
    double simMcyclesPerSec = 0.0;
};

/** Results of one kernel run. */
struct RunStats
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memInstructions = 0;
    double ipc = 0.0;

    /** @{ DRAM transaction breakdown (excludes end-of-run flush). */
    std::uint64_t dramDataReads = 0;
    std::uint64_t dramDataWrites = 0;
    std::uint64_t dramEccReads = 0;
    std::uint64_t dramEccWrites = 0;
    std::uint64_t dramEccRmwReads = 0;
    std::uint64_t dramTotalTxns = 0;
    double rowHitRate = 0.0;
    /** @} */

    /** @{ Metadata reconstruction cache behaviour. */
    std::uint64_t mrcHits = 0;
    std::uint64_t mrcMisses = 0;
    std::uint64_t mrcFetchMerges = 0;
    std::uint64_t mrcDirtyEvictions = 0;
    /** @} */

    /** @{ L2 aggregate behaviour. */
    std::uint64_t l2SectorHits = 0;
    std::uint64_t l2SectorMisses = 0;
    /** @} */

    /** @{ Decode outcomes. */
    std::uint64_t decodeClean = 0;
    std::uint64_t decodeCorrected = 0;
    std::uint64_t decodeUncorrectable = 0;
    std::uint64_t decodeTagMismatch = 0;
    /** @} */

    /** Every registered stat, flattened by name. */
    std::map<std::string, double> all;

    /** Host engine throughput (not a registered stat — provenance). */
    SimThroughput simThroughput;

    /**
     * Truncation warnings raised at end of run (trace-ring overflow,
     * event-queue valve trips). Empty for a clean run; surfaced in the
     * JSON run report and via the logger so silently truncated data
     * can't pass for complete results.
     */
    std::vector<std::string> warnings;

    /** Fraction of metadata lookups that hit a resident MRC entry. */
    double
    mrcHitRate() const
    {
        const auto total = mrcHits + mrcMisses;
        return total ? double(mrcHits) / double(total) : 0.0;
    }

    /**
     * Fraction of metadata lookups served without a dedicated DRAM
     * metadata transaction (resident hits + in-flight merges).
     */
    double
    mrcCoverage() const
    {
        const auto total = mrcHits + mrcMisses;
        return total ? double(mrcHits + mrcFetchMerges) / double(total)
                     : 0.0;
    }
};

/** Outcome of a post-run memory audit. */
struct AuditResult
{
    std::uint64_t sectors = 0;
    std::uint64_t clean = 0;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;
    /** Sectors whose decoded bytes differ from their golden value (SDC). */
    std::uint64_t silentCorruptions = 0;
};

/** The simulated GPU. See file comment. */
class GpuSystem
{
  public:
    /**
     * @param arenas optional externally owned slab-arena pool (the
     * campaign runner reuses one pool per worker thread across
     * points); defaults to an instance owned by this system. The pool
     * holds one EngineArenas bundle per engine domain.
     */
    explicit GpuSystem(const SystemConfig &config,
                       EngineArenaPool *arenas = nullptr);
    ~GpuSystem();

    GpuSystem(const GpuSystem &) = delete;
    GpuSystem &operator=(const GpuSystem &) = delete;

    /** Run @p trace to completion and return its statistics. */
    RunStats run(const KernelTrace &trace);

    /**
     * Install a periodic progress callback fired during run() every
     * @p interval simulated cycles with (cycle, events executed so
     * far). Purely observational: it only splits the event drain at
     * cycle boundaries where runUntil already stops, so enabling it is
     * timing-neutral. Call before run(); @p interval 0 disables.
     */
    void
    setProgress(Cycle interval,
                std::function<void(Cycle, std::uint64_t)> fn)
    {
        progressInterval_ = interval;
        progressFn_ = std::move(fn);
    }

    /**
     * No-op, kept for source compatibility with callers written when
     * run() could spread domains over threads. run() always drains the
     * fixed domains on the calling thread; campaigns get parallelism
     * from running points concurrently (RunnerOptions::jobs).
     */
    void setShards(unsigned) {}

    /**
     * Initialize the trace's regions (encoded DRAM state) without
     * running. run() calls this automatically; tests and fault
     * campaigns call it directly to inject faults between
     * initialization and execution.
     */
    void initialize(const KernelTrace &trace);

    /** Flip one bit of the *stored data* sector at @p logical. */
    void injectDataFault(Addr logical, unsigned bit_index);

    /**
     * Flip one bit of the stored ECC chunk covering @p logical
     * (@p byte_in_chunk in [0,32), @p bit in [0,8)).
     */
    void injectEccFault(Addr logical, unsigned byte_in_chunk,
                        unsigned bit);

    /**
     * Decode every initialized sector straight from DRAM storage and
     * compare against its golden value (archRead). Call after run()
     * (which flushes all dirty state).
     */
    AuditResult auditMemory() const;

    /**
     * Which protection chunks have had faults injected. Shared with
     * the schemes so untouched chunks decode via the syndrome-only
     * fast path (host-side accelerator only — outcomes are identical).
     */
    const FaultIndex &faultIndex() const { return faultIndex_; }

    /** The per-domain arena pool this system allocates from (owned or
     *  injected); exposes the per-run slab high-water marks. */
    const EngineArenaPool &arenas() const { return *arenaPool_; }

    /**
     * Golden (architectural) bytes of the sector at @p addr:
     * pattern(sector, stores committed to it so far). There is no
     * golden byte store; the write generation is the whole state.
     */
    ecc::SectorData archRead(Addr sector_addr) const;

    /** The correct tag of @p addr per the initialized regions. */
    ecc::MemTag tagOf(Addr addr) const;

    /**
     * Decode the sector at @p sector_addr straight from DRAM storage
     * (auditMemory's per-sector primitive): stored data + stored
     * check through the codec with the region's correct tag. Under
     * the unprotected layout the stored bytes come back as kClean.
     */
    ecc::DecodeResult decodeStored(Addr sector_addr) const;

    /** The regions initialize() encoded (empty before initialize). */
    const std::vector<TaggedRegion> &regions() const { return regions_; }

    /**
     * Deterministic architectural data pattern of @p sector_addr
     * after @p generation stores (generation 0 = the init pattern) —
     * public so the differential oracle can recompute expected final
     * state purely from a trace.
     */
    static ecc::SectorData pattern(Addr sector_addr,
                                   std::uint64_t generation);

    const SystemConfig &config() const { return config_; }
    StatRegistry &statsRegistry() { return stats_; }
    const AddressMap &addressMap() const { return *map_; }
    DramSystem &dram() { return *dram_; }
    L2Slice &slice(std::size_t i) { return *slices_[i]; }
    std::size_t numSlices() const { return slices_.size(); }
    /** Host pages materialized by all slices' metadata shadows. */
    std::size_t
    metaShadowPages() const
    {
        std::size_t pages = 0;
        for (const auto &shadow : metaShadows_)
            pages += shadow->numPages();
        return pages;
    }
    /** The lifecycle-trace hub (always present; may be inactive). */
    telemetry::Telemetry &telemetry() { return *telemetry_; }
    const telemetry::Telemetry &telemetry() const { return *telemetry_; }
    /** The epoch sampler; null until run() with sampling enabled. */
    const telemetry::StatSampler *sampler() const {
        return sampler_.get();
    }

  private:
    /** Record a store's new architectural value (bump its write
     *  generation). */
    void onStore(Addr sector_addr);

    /** Slice (== channel) owning @p addr. */
    SliceId sliceOf(Addr addr) const;

    /** Domain topology: domain s = SM s, domain numSms + c = the L2
     *  slice + DRAM channel pair c. */
    std::int32_t
    sliceDomain(unsigned c) const
    {
        return static_cast<std::int32_t>(config_.numSms + c);
    }

    /** Canonical-barrier-only: commit the staged stores. */
    void applyStagedStores();

    SystemConfig config_;
    StatRegistry stats_;
    EventQueue events_; //!< every domain's events, stamped with it
    std::unique_ptr<EngineArenaPool> ownedArenas_;
    EngineArenaPool *arenaPool_;
    std::unique_ptr<telemetry::Telemetry> telemetry_;
    std::unique_ptr<telemetry::StatSampler> sampler_;
    std::unique_ptr<AddressMap> map_;
    std::unique_ptr<DramSystem> dram_;
    std::unique_ptr<ecc::SectorCodec> codec_;
    std::vector<std::unique_ptr<SparseMemory>> metaShadows_; //!< per slice
    std::vector<std::unique_ptr<L2Slice>> slices_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    std::unique_ptr<Crossbar> reqXbar_;
    std::unique_ptr<Crossbar> respXbar_;

    std::vector<TaggedRegion> regions_;
    FaultIndex faultIndex_;
    /** Sector -> stores committed to it; absent = generation 0. */
    AddrTable<std::uint64_t> writeGeneration_;
    /** Sectors stored since the last canonical boundary, whose
     *  commits (generation bumps) wait for it; see run(). */
    std::vector<Addr> storeStage_;
    bool initialized_ = false;
    bool ran_ = false;
    /** Barrier clock for occupancy gauges and observer boundaries. */
    Cycle simNow_ = 0;
    /** @{ Progress heartbeat (see setProgress). */
    Cycle progressInterval_ = 0;
    std::function<void(Cycle, std::uint64_t)> progressFn_;
    /** @} */
};

} // namespace cachecraft

#endif // CACHECRAFT_CORE_GPU_SYSTEM_HPP
