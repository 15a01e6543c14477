/**
 * @file
 * One L2 slice / memory-partition unit.
 *
 * Each slice fronts exactly one DRAM channel (the usual GPU memory
 * partition organization) and owns the protection machinery for that
 * channel: the sectored L2 tag array, the miss-tracking MSHRs, and a
 * ProtectionScheme instance (which, for the MRC schemes, contains the
 * per-slice metadata reconstruction cache).
 *
 * Because data fills are decoded and verified *before* they are
 * written into the L2 (ProtectionScheme::readSector completes at
 * data-verified time), everything resident in this cache is
 * reconstructed data: L2 hits and clean evictions never touch the
 * metadata path again. That is the R1 invariant of the design.
 */

#ifndef CACHECRAFT_GPU_L2_SLICE_HPP
#define CACHECRAFT_GPU_L2_SLICE_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/mshr.hpp"
#include "cache/sectored_cache.hpp"
#include "common/ring_queue.hpp"
#include "gpu/event_queue.hpp"
#include "protect/scheme.hpp"

namespace cachecraft {

/** Timing/geometry parameters of one L2 slice. */
struct L2SliceParams
{
    CacheParams cache;
    std::size_t mshrEntries = 64;
    Cycle hitLatency = 40;
    /**
     * Fetch the whole 128 B line on a sector miss (non-sectored
     * fill), instead of only the demanded 32 B sector. Trades DRAM
     * overfetch for fewer subsequent sector misses — the classic
     * coarse- vs fine-grained access tradeoff; prefetched sectors are
     * best-effort (skipped when MSHRs are scarce).
     */
    bool fetchWholeLine = false;
};

/** One L2 slice with its protection scheme. */
class L2Slice
{
  public:
    /** Fetches the current architectural bytes of a sector (for
     *  dirty writebacks). */
    using ArchReadFn = std::function<ecc::SectorData(Addr)>;
    /** The correct memory tag of an address. */
    using TagFn = std::function<ecc::MemTag(Addr)>;

    L2Slice(std::string name, SliceId id, const L2SliceParams &params,
            EventQueue &events, std::unique_ptr<ProtectionScheme> scheme,
            ArchReadFn arch_read, TagFn tag_of, StatRegistry *stats,
            telemetry::Telemetry *telemetry = nullptr,
            EngineArenas *arenas = nullptr);

    /**
     * Sector load. @p done fires when the sector is available at the
     * slice (the response crossbar adds its own latency on top).
     * @p expected_tag is the tag the accessing pointer carries.
     * @p trace_id is the caller's lifecycle id (0 = allocate a fresh
     * one when telemetry is active); flight records and the "l2.read"
     * span carry it so the whole request chain shares one id.
     */
    void read(Addr sector_addr, ecc::MemTag expected_tag, SmallFn done,
              std::uint64_t trace_id = 0);

    /**
     * Sector store (full-sector, posted). Write-allocates without
     * fetch; dirty evictions flow through the protection scheme.
     */
    void write(Addr sector_addr, ecc::MemTag expected_tag);

    /**
     * End-of-run: write back every dirty sector and drain the
     * scheme's buffered metadata.
     */
    void flushAll();

    /**
     * Fire the verification drain-residue hooks (no-op unless built
     * with CACHECRAFT_VERIFY). Call only once the event queue has
     * drained after flushAll(): by then MSHRs (with their waiters),
     * blocked reads, and scheme metadata fetches must all be empty.
     */
    void verifyDrained() const;

    ProtectionScheme &scheme() { return *scheme_; }
    const SectoredCache &cache() const { return cache_; }

    /** In-use MSHR entries (profiler occupancy gauge). */
    std::size_t mshrOccupancy() const { return mshrs_.size(); }
    /** Reads currently parked on a full MSHR file. */
    std::size_t blockedReads() const { return blocked_.size(); }
    /** How far the 1-req/cycle service pipeline is booked past @p now. */
    Cycle
    serviceBacklog(Cycle now) const
    {
        return nextServiceAt_ > now ? nextServiceAt_ - now : 0;
    }

    Counter statReads;
    Counter statWrites;
    Counter statMshrStallRetries;
    Counter statPrefetchFetches;

  private:
    /** Acquire the next service slot (1 request/cycle). */
    Cycle serviceSlot();

    void handleReadMiss(Addr sector_addr, ecc::MemTag tag, SmallFn done,
                        std::uint64_t trace_id);
    /** Issue the memory-side fetch for one sector (demand or
     *  prefetch); fills the cache and wakes waiters on return. */
    void issueFetch(Addr sector_addr, ecc::MemTag tag,
                    std::uint64_t trace_id);
    /** Best-effort fetch of the line's remaining sectors. */
    void prefetchSiblings(Addr sector_addr, ecc::MemTag tag);
    void handleEviction(const std::optional<Eviction> &ev);

    std::string name_;
    SliceId id_;
    L2SliceParams params_;
    EventQueue &events_;
    std::unique_ptr<ProtectionScheme> scheme_;
    ArchReadFn archRead_;
    TagFn tagOf_;
    telemetry::Telemetry *telemetry_;
    /** Injected or owned slab arenas (service-event callbacks park
     *  oversized continuations here). */
    std::unique_ptr<EngineArenas> ownedArenas_;
    EngineArenas *arenas_;

    struct BlockedRead
    {
        Addr sectorAddr;
        ecc::MemTag tag;
        SmallFn done;
        std::uint64_t traceId = 0;
    };

    SectoredCache cache_;
    /** Outstanding sector fetches and the reads waiting on them. */
    MshrFile mshrs_;
    /** Reads stalled on a full MSHR file; drained on release. */
    RingQueue<BlockedRead> blocked_;
    Cycle nextServiceAt_ = 0;
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_L2_SLICE_HPP
