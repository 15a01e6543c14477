/**
 * @file
 * Miss Status Holding Registers.
 *
 * Tracks outstanding line misses so that concurrent misses to the
 * same line merge into one memory request instead of duplicating DRAM
 * traffic. Capacity limits model the finite miss-level parallelism of
 * GPU caches: when the file is full the requester must stall.
 */

#ifndef CACHECRAFT_CACHE_MSHR_HPP
#define CACHECRAFT_CACHE_MSHR_HPP

#include <cstdint>
#include <string>

#include "common/addr_table.hpp"
#include "common/fn_list.hpp"
#include "common/inplace_function.hpp"
#include "common/types.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

/**
 * An MSHR file keyed by line address. Each entry remembers which
 * sectors have been requested and owns the FIFO of wake continuations
 * of every miss merged into it.
 *
 * Entries live in a flat AddrTable and their waiters in a per-file
 * FnListSlab, so allocating, merging and releasing is a short probe
 * plus a node push or pop — no hashing into node-based maps and no
 * per-entry heap allocation. release() detaches the waiter list and
 * the owner runs it with wake(), after updating its own state (the
 * cache fill) and before re-admitting blocked requests.
 */
class MshrFile
{
  public:
    /**
     * @param name    stat prefix
     * @param capacity maximum simultaneous outstanding lines
     * @param stats   registry (may be nullptr)
     */
    MshrFile(std::string name, std::size_t capacity, StatRegistry *stats);

    /** What allocate() did. */
    enum class AllocOutcome : std::uint8_t
    {
        /** New entry created — caller must issue the memory request. */
        kNewEntry,
        /** Merged into an existing entry; sector already requested. */
        kMergedExisting,
        /** Merged into an existing entry; this sector is new — caller
         *  must issue a request for the additional sector. */
        kMergedNewSector,
        /** The file is full — caller must stall and retry. */
        kFull,
    };

    /** A detached waiter list (see release()). */
    using Waiters = FnListSlab<SmallFn>::List;

    /**
     * Request (line_addr, sector_mask) and queue @p waiter (skipped
     * when null) to run on release. @p waiter is moved from unless the
     * outcome is kFull, in which case the caller keeps it to park.
     */
    AllocOutcome allocate(Addr line_addr, std::uint8_t sector_mask,
                          SmallFn &&waiter);

    /** True if @p line_addr has an outstanding entry. */
    bool contains(Addr line_addr) const;

    /** Sectors already requested for @p line_addr (0 if absent). */
    std::uint8_t requestedSectors(Addr line_addr) const;

    /**
     * Retire the entry for @p line_addr (fill arrived) and detach its
     * waiters, in arrival order; an unknown line yields an empty list.
     * Pass the result to wake().
     */
    Waiters release(Addr line_addr);

    /** Run released @p waiters in arrival order. A waiter may allocate
     *  again, even for the same line: that opens a fresh entry. */
    void wake(Waiters waiters) { waiters_.drain(waiters); }

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    bool full() const { return entries_.size() >= capacity_; }

    Counter statAllocations;
    Counter statMerges;
    Counter statStalls;

  private:
    struct Entry
    {
        std::uint8_t sectorMask = 0;
        Waiters waiters;
    };

    std::string name_;
    std::size_t capacity_;
    AddrTable<Entry> entries_;
    FnListSlab<SmallFn> waiters_;
};

} // namespace cachecraft

#endif // CACHECRAFT_CACHE_MSHR_HPP
