/**
 * @file
 * The streaming-multiprocessor core model.
 *
 * An in-order-per-warp, memory-limited issue model: each resident
 * warp executes its instruction stream sequentially; the SM issues at
 * most one warp instruction per cycle, picking ready warps
 * round-robin. Compute instructions occupy the warp for their stated
 * latency; memory instructions coalesce into sector requests that
 * probe the per-SM sectored L1 (write-through, no write-allocate —
 * the classic GPU L1 policy) and miss to the L2 slices over the
 * crossbar. A warp's memory instruction retires when every sector of
 * it has been serviced.
 *
 * This is the standard fidelity for studies that only alter the
 * memory system below the L1: warp-level parallelism hides latency
 * exactly insofar as there are ready warps, so changes in L2/DRAM
 * service times surface in IPC the same way they do in Accel-Sim's
 * simpler core models.
 */

#ifndef CACHECRAFT_GPU_SM_CORE_HPP
#define CACHECRAFT_GPU_SM_CORE_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/mshr.hpp"
#include "cache/sectored_cache.hpp"
#include "common/ring_queue.hpp"
#include "ecc/codec.hpp"
#include "gpu/coalescer.hpp"
#include "gpu/event_queue.hpp"
#include "gpu/kernel_trace.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

namespace telemetry {
class Telemetry;
} // namespace telemetry

/** Warp scheduling policy. */
enum class WarpSched : std::uint8_t
{
    /** Loose round-robin: a warp re-queues at the back whenever it
     *  becomes ready again. */
    kRoundRobin,
    /** Greedy-then-oldest (GTO): keep issuing from the same warp
     *  while it stays ready (short compute retires re-queue at the
     *  front); long memory stalls demote it behind older warps. */
    kGto,
};

/** Human-readable scheduler name. */
const char *toString(WarpSched sched);

/** Timing/geometry parameters of one SM. */
struct SmParams
{
    CacheParams l1;
    std::size_t l1MshrEntries = 32;
    Cycle l1HitLatency = 20;
    WarpSched scheduler = WarpSched::kRoundRobin;
};

/** One SM executing a set of resident warps. */
class SmCore
{
  public:
    /** Issue a sector load toward L2; @p done fires on data return.
     *  The outer std::function is constructed once at system build;
     *  only the per-request completion is capacity-bounded. The final
     *  argument is the request's lifecycle id (0 = untraced). */
    using L2ReadFn =
        std::function<void(Addr, ecc::MemTag, SmallFn, std::uint64_t)>;
    /** Issue a (posted) sector store toward L2. */
    using L2WriteFn = std::function<void(Addr, ecc::MemTag)>;
    /** Correct tag of an address (regions set by the workload). */
    using TagFn = std::function<ecc::MemTag(Addr)>;

    SmCore(std::string name, SmId id, const SmParams &params,
           EventQueue &events, L2ReadFn l2_read, L2WriteFn l2_write,
           TagFn tag_of, StatRegistry *stats,
           telemetry::Telemetry *telemetry = nullptr);

    /** Assign a warp's instruction stream (borrowed pointer; the
     *  trace must outlive the run). */
    void addWarp(const std::vector<WarpInst> *insts);

    /** Schedule the initial issue events. Call once. */
    void start();

    /** True when every resident warp has retired its last inst. */
    bool done() const { return warpsDone_ == warps_.size(); }

    /**
     * Fire the verification drain-residue hooks (no-op unless built
     * with CACHECRAFT_VERIFY) for the L1 MSHR file and the sectors
     * parked on it. Call only once the event queue has drained.
     */
    void verifyDrained() const;

    Counter statInsts;
    Counter statMemInsts;
    Counter statStoreInsts;
    Counter statSectorsAccessed;
    Counter statL1StallRetries;
    HistogramStat statMemLatency{32, 64};

  private:
    struct WarpState
    {
        const std::vector<WarpInst> *insts = nullptr;
        std::size_t pc = 0;
        /** Outstanding sectors of the in-flight memory instruction. */
        unsigned pendingSectors = 0;
        Cycle memIssuedAt = 0;
    };

    /** Put warp @p w in the ready queue and kick the issue loop.
     *  @param greedy re-queue at the front (GTO continue-same-warp). */
    void makeReady(std::size_t w, bool greedy = false);
    /** Schedule the issue loop if work is pending. */
    void scheduleIssue();
    /** Issue the next instruction of the warp at the queue head. */
    void issueNext();
    /** Begin the memory stage of warp @p w's current instruction. */
    void startMemory(std::size_t w);
    /** Issue one sector of warp @p w's current instruction.
     *  @param id per-sector lifecycle id (0 = untraced). */
    void issueSector(std::size_t w, SectorRequest req, ecc::MemTag tag,
                     std::uint64_t id);
    /** A sector of warp @p w completed (@p id its lifecycle id). */
    void sectorDone(std::size_t w, std::uint64_t id);
    /** Retire warp @p w's current instruction and advance.
     *  @param was_memory true if a memory instruction just finished
     *  (a long stall: GTO re-queues such warps at the back). */
    void retire(std::size_t w, bool was_memory = false);

    std::string name_;
    SmId id_;
    SmParams params_;
    EventQueue &events_;
    L2ReadFn l2Read_;
    L2WriteFn l2Write_;
    TagFn tagOf_;
    telemetry::Telemetry *telemetry_;

    struct BlockedSector
    {
        std::size_t warp;
        SectorRequest req;
        ecc::MemTag tag;
        std::uint64_t id;
    };

    SectoredCache l1_;
    /** Outstanding L1 sector misses and their waiting sectors. */
    MshrFile l1Mshrs_;
    /** Sector requests stalled on a full L1 MSHR file. */
    RingQueue<BlockedSector> blocked_;

    std::vector<WarpState> warps_;
    /** startMemory's coalescer output, reused across instructions. */
    std::vector<SectorRequest> sectors_;
    /** True while startMemory iterates sectors_. */
    bool sectorsLive_ = false;
    RingQueue<std::size_t> readyQueue_;
    std::size_t warpsDone_ = 0;
    Cycle nextIssueAt_ = 0;
    bool issueScheduled_ = false;
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_SM_CORE_HPP
