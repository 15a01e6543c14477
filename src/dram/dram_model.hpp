/**
 * @file
 * GDDR6-like DRAM timing model.
 *
 * Each channel is an independent event-driven actor: requests queue
 * at the channel, an FR-FCFS scheduler picks row-buffer hits over
 * older row misses, per-bank state machines charge
 * activate/precharge/CAS timing, and the channel data bus serializes
 * bursts. Timing parameters are expressed in memory-controller
 * cycles and default to GDDR6-class ratios (documented in
 * DramTiming); the *relative* costs (hit vs miss vs conflict, burst
 * occupancy) are what the experiments depend on.
 */

#ifndef CACHECRAFT_DRAM_DRAM_MODEL_HPP
#define CACHECRAFT_DRAM_DRAM_MODEL_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "dram/address_map.hpp"
#include "dram/storage.hpp"
#include "gpu/event_queue.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

namespace telemetry {
class Telemetry;
} // namespace telemetry

/** DRAM timing parameters in memory-controller cycles. */
struct DramTiming
{
    Cycle tRcd = 18;   //!< activate -> CAS
    Cycle tRp = 18;    //!< precharge
    Cycle tCas = 18;   //!< CAS -> first data
    Cycle tBurst = 2;  //!< data-bus occupancy of one 32 B access
    Cycle tWr = 8;     //!< write recovery before precharge
    /** Extra controller/PHY latency added to every access. */
    Cycle tController = 12;
};

/** Category of a serviced access, for stats. */
enum class RowOutcome : std::uint8_t
{
    kHit,      //!< row already open
    kMissClosed, //!< bank was precharged: activate only
    kConflict, //!< different row open: precharge + activate
};

/** One DRAM transaction (a 32 B burst). */
struct DramRequest
{
    /** Channel-local physical byte address (32 B aligned). */
    Addr phys = 0;
    bool isWrite = false;
    /**
     * True for metadata (redundancy/ECC) transactions; lets the
     * profiler attribute shared-bus occupancy to ECC serialization.
     * Stamped centrally by ProtectionScheme::issueEccTxn.
     */
    bool isEcc = false;
    /** Completion callback (fired at data-available cycle). */
    SmallFn onComplete;
    /** Lifecycle id for flight records (0 = none). */
    std::uint64_t traceId = 0;
};

/**
 * One DRAM channel: queue + FR-FCFS scheduler + banks + data bus.
 */
class DramChannel
{
  public:
    DramChannel(std::string name, ChannelId id, const AddressMap &map,
                const DramTiming &timing, EventQueue &events,
                StatRegistry *stats,
                telemetry::Telemetry *telemetry = nullptr);

    /** Enqueue a transaction at the current cycle. */
    void enqueue(DramRequest request);

    /** Outstanding queued (not yet issued) requests. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** Banks still serving an access (readyAt in the future) at @p now. */
    std::size_t busyBanks(Cycle now) const;

    /** FR-FCFS reorder-window depth (transaction-queue visibility). */
    static constexpr std::size_t kSchedulerWindow = 32;

    /** @{ Stats. */
    Counter statReads;
    Counter statWrites;
    Counter statRowHits;
    Counter statRowMissesClosed;
    Counter statRowConflicts;
    Counter statBusyCycles;
    HistogramStat statQueueLatency{16, 64};
    /** @} */

  private:
    struct BankState
    {
        bool open = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0;
    };

    /** A queued request, parked in the pending_ arena. */
    struct Pending
    {
        DramRequest req;
        DramCoord coord;
        Cycle arrival = 0;
    };

    /** Arrival-order entry: what the scheduler scans, plus the arena
     *  slot of the full request. */
    struct QueueKey
    {
        std::uint64_t row;
        std::uint32_t bank;
        std::uint32_t slot;
    };
    static_assert(sizeof(QueueKey) == 16);

    /** Try to issue the best request now; reschedule as needed. */
    void tryIssue();

    /** FR-FCFS pick: oldest row-hit, else oldest overall. */
    std::size_t pickNext() const;

    std::string name_;
    ChannelId id_;
    const AddressMap &map_;
    DramTiming timing_;
    EventQueue &events_;
    telemetry::Telemetry *telemetry_;

    SlabArena<Pending> pending_;
    std::deque<QueueKey> queue_; //!< arrival order
    std::vector<BankState> banks_;
    Cycle busFreeAt_ = 0;
    bool issueScheduled_ = false;
};

/**
 * The full DRAM subsystem: one channel model per channel plus the
 * shared sparse backing store addressed by (channel, local phys).
 */
class DramSystem
{
  public:
    DramSystem(const AddressMap &map, const DramTiming &timing,
               EventQueue &events, StatRegistry *stats,
               telemetry::Telemetry *telemetry = nullptr);

    /**
     * Domain wiring: channel @p c runs on @p channel_queues[c] (its
     * domain's private queue). Backing storage is per-channel either
     * way, so a channel's functional reads/writes never touch another
     * domain's state.
     */
    DramSystem(const AddressMap &map, const DramTiming &timing,
               const std::vector<EventQueue *> &channel_queues,
               StatRegistry *stats,
               telemetry::Telemetry *telemetry = nullptr);

    /** Issue a 32 B transaction on @p channel. */
    void
    enqueue(ChannelId channel, DramRequest request)
    {
        channels_[channel]->enqueue(std::move(request));
    }

    DramChannel &channel(ChannelId id) { return *channels_[id]; }
    unsigned numChannels() const {
        return static_cast<unsigned>(channels_.size());
    }

    /** Read raw stored bytes at (channel, phys). */
    void readBytes(ChannelId channel, Addr phys,
                   std::span<std::uint8_t> out) const;

    /** Write raw bytes at (channel, phys). */
    void writeBytes(ChannelId channel, Addr phys,
                    std::span<const std::uint8_t> in);

    /** Flip one stored bit (fault injection). */
    void flipBit(ChannelId channel, Addr phys, unsigned bit);

    /** Aggregate row-hit fraction across channels. */
    double rowHitRate() const;

    /** Aggregate read+write transaction count. */
    std::uint64_t totalTransactions() const;

  private:
    const AddressMap &map_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    std::vector<SparseMemory> storage_; //!< one store per channel
};

} // namespace cachecraft

#endif // CACHECRAFT_DRAM_DRAM_MODEL_HPP
