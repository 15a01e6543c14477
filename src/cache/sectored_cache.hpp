/**
 * @file
 * A sectored, set-associative cache tag array.
 *
 * GPU L1/L2 caches are *sectored*: a tag covers a 128 B line, but each
 * 32 B sector has its own valid and dirty bit, and misses fetch only
 * the missing sector(s). This class models exactly the tag/state
 * machinery (no data payload — data lives in the simulated DRAM
 * storage model) and is reused for the L1s, the L2 slices, and — with
 * a 32 B line, i.e. one sector per line — CacheCraft's metadata
 * reconstruction cache.
 */

#ifndef CACHECRAFT_CACHE_SECTORED_CACHE_HPP
#define CACHECRAFT_CACHE_SECTORED_CACHE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hpp"
#include "common/types.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

/** Static configuration of one cache instance. */
struct CacheParams
{
    /** Total capacity in bytes. */
    std::size_t sizeBytes = 4 * 1024 * 1024;
    /** Associativity (ways per set). */
    unsigned assoc = 16;
    /** Line (tag granularity) size in bytes; power of two. */
    std::size_t lineBytes = kLineBytes;
    /** Sector (fill granularity) size in bytes; divides lineBytes. */
    std::size_t sectorBytes = kSectorBytes;
    /** Replacement policy. */
    ReplPolicyKind repl = ReplPolicyKind::kLru;
    /** Seed for randomized replacement. */
    std::uint64_t seed = 1;
};

/**
 * Why @p params cannot describe a cache (power-of-two line and sector
 * sizes, whole sets, a power-of-two set count, at most 8 sectors per
 * line), or an empty string when the geometry is valid. The
 * SectoredCache constructor ends the process on a non-empty result;
 * callers taking geometry from user input check it first.
 */
std::string cacheGeometryError(const CacheParams &params);

/** Per-sector bit mask within a line (bit i = sector i). */
using SectorMask = std::uint8_t;

/** What fell out of the cache on an eviction. */
struct Eviction
{
    Addr lineAddr = kNoAddr;
    /** Sectors that were valid at eviction. */
    SectorMask validMask = 0;
    /** Sectors that were dirty (must be written back). */
    SectorMask dirtyMask = 0;
};

/** Result of a lookup or access. */
struct CacheAccessResult
{
    /** Tag matched (line present). */
    bool lineHit = false;
    /** Tag matched *and* the requested sector is valid. */
    bool sectorHit = false;
};

/**
 * Observer of one cache's access/fill/eviction stream. The cache layer
 * stays free of telemetry dependencies: observers are attached from
 * above (the reuse-distance profiler implements this interface) and
 * every callback is a null-checked virtual call, paid only when a
 * profiler is actually attached.
 */
class CacheEventObserver
{
  public:
    virtual ~CacheEventObserver() = default;

    /**
     * An access touched sector @p sector of line @p line_addr in set
     * @p set; @p result is what the tag array answered.
     */
    virtual void onAccess(Addr line_addr, std::size_t set,
                          unsigned sector, const CacheAccessResult &result,
                          bool is_write) = 0;

    /**
     * A fill touched @p line_addr; @p allocated is true when a way was
     * (re)claimed for the line, false when it only extended a resident
     * line's sector masks.
     */
    virtual void onFill(Addr line_addr, std::size_t set,
                        bool allocated) = 0;

    /**
     * @p line_addr left the cache — capacity eviction or explicit
     * invalidation — with @p valid_mask sectors valid at departure.
     */
    virtual void onEvict(Addr line_addr, std::size_t set,
                         SectorMask valid_mask) = 0;
};

/**
 * The tag array. All addresses passed in are full byte addresses;
 * the cache aligns internally.
 */
class SectoredCache
{
  public:
    /**
     * @param name  stat prefix, e.g. "l2.slice3"
     * @param params geometry and policy
     * @param stats  registry to expose counters in (may be nullptr)
     */
    SectoredCache(std::string name, const CacheParams &params,
                  StatRegistry *stats);

    /** Non-mutating presence check for (line, sector) of @p addr. */
    CacheAccessResult probe(Addr addr) const;

    /**
     * Perform an access: updates replacement state and hit/miss
     * counters; marks the sector dirty on a sector-hit write.
     * Does NOT allocate on miss — the controller decides that.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /**
     * Insert/extend the line of @p addr with @p fill_mask sectors
     * (marking @p dirty_mask of them dirty). Allocates a way if the
     * line is absent, possibly evicting another line.
     *
     * @return the eviction performed, if any.
     */
    std::optional<Eviction> fill(Addr addr, SectorMask fill_mask,
                                 SectorMask dirty_mask);

    /**
     * Remove the line containing @p addr if present.
     * @return its state at invalidation time.
     */
    std::optional<Eviction> invalidate(Addr addr);

    /** Valid-sector mask of the line of @p addr (0 if absent). */
    SectorMask presentSectors(Addr addr) const;

    /** Dirty-sector mask of the line of @p addr (0 if absent). */
    SectorMask dirtySectors(Addr addr) const;

    /** Clear dirty bits in @p mask for the line of @p addr. */
    void cleanSectors(Addr addr, SectorMask mask);

    /** Walk all valid lines (for flush / audit). */
    void forEachLine(
        const std::function<void(Addr, SectorMask, SectorMask)> &fn) const;

    /** Number of valid lines currently resident. */
    std::size_t numResidentLines() const;

    /**
     * Attach (or detach, with nullptr) the single event observer.
     * Not owned; the caller keeps it alive for the cache's lifetime.
     */
    void setObserver(CacheEventObserver *observer) { observer_ = observer; }

    std::size_t numSets() const { return numSets_; }
    unsigned numWays() const { return params_.assoc; }
    std::size_t sectorsPerLine() const { return sectorsPerLine_; }
    const CacheParams &params() const { return params_; }
    const std::string &name() const { return name_; }

    /** @{ Raw counters (also exported via the registry). */
    Counter statAccesses;
    Counter statLineHits;
    Counter statSectorHits;
    Counter statSectorMisses; //!< line present, sector absent
    Counter statLineMisses;   //!< line absent
    Counter statFills;
    Counter statEvictions;
    Counter statDirtyEvictions;
    Counter statWriteHits;
    Counter statInvalidates;
    /** @} */

  private:
    struct Way
    {
        bool valid = false;
        Addr lineAddr = kNoAddr;
        SectorMask validMask = 0;
        SectorMask dirtyMask = 0;
    };

    std::size_t setIndex(Addr line_addr) const;
    /** Find the way holding @p line_addr in @p set; -1 if absent. */
    int findWay(std::size_t set, Addr line_addr) const;
    SectorMask sectorBit(Addr addr) const;
    /** Sector of @p addr within its line. */
    unsigned
    sectorIndex(Addr addr) const
    {
        return static_cast<unsigned>((addr & (params_.lineBytes - 1)) >>
                                     sectorShift_);
    }

    std::string name_;
    CacheParams params_;
    std::size_t numSets_;
    std::size_t sectorsPerLine_;
    unsigned lineShift_;   //!< log2(lineBytes)
    unsigned sectorShift_; //!< log2(sectorBytes)
    std::vector<Way> ways_; // numSets_ * assoc, row-major by set
    std::unique_ptr<ReplacementPolicy> repl_;
    CacheEventObserver *observer_ = nullptr;
};

} // namespace cachecraft

#endif // CACHECRAFT_CACHE_SECTORED_CACHE_HPP
