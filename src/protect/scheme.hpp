/**
 * @file
 * The memory-protection layer: everything between an L2-slice miss
 * and the DRAM channel.
 *
 * A ProtectionScheme turns logical sector reads/writebacks into DRAM
 * transactions (data + metadata), performs the *functional* encode /
 * decode / correct with real bytes through the ECC codecs, and
 * implements each design point's metadata policy:
 *
 *  - NoneScheme:        unprotected baseline — 1 txn per access.
 *  - InlineNaiveScheme: inline ECC with no metadata caching — every
 *                       read pays an extra ECC read, every writeback
 *                       pays an ECC read-modify-write.
 *  - MrcScheme:         metadata-caching schemes, configurable into
 *                       the prior-art ECC cache (read caching,
 *                       write-through) or full CacheCraft
 *                       (chunk-granularity reconstruction R1 +
 *                       write-back coalescing MRC R2; layout R3 is a
 *                       system-level AddressMap choice).
 *
 * Functional-state contract: the scheme owns the *metadata shadow*
 * (the authoritative current ECC bytes). DRAM storage holds the
 * possibly stale data+ECC bytes plus any injected faults; decode
 * always reads its inputs from the physically correct source (DRAM
 * bytes on a metadata miss, the on-chip copy on an MRC hit), so fault
 * injection and correction behave exactly as hardware would.
 */

#ifndef CACHECRAFT_PROTECT_SCHEME_HPP
#define CACHECRAFT_PROTECT_SCHEME_HPP

#include <functional>
#include <memory>
#include <string>

#include "common/arena.hpp"
#include "common/inplace_function.hpp"
#include "common/types.hpp"
#include "dram/address_map.hpp"
#include "dram/dram_model.hpp"
#include "ecc/codec.hpp"
#include "gpu/event_queue.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

class FaultIndex;

namespace telemetry {
class Telemetry;
} // namespace telemetry

/** Which protection scheme a configuration selects. */
enum class SchemeKind : std::uint8_t
{
    kNone,        //!< ECC off (ideal performance bound)
    kInlineNaive, //!< inline ECC, no metadata caching
    kEccCache,    //!< prior art: read-caching, write-through ECC cache
    kCacheCraft,  //!< this paper: reconstructed caching
};

/** Human-readable scheme name. */
const char *toString(SchemeKind kind);

/** Result of a verified sector fetch. */
struct SectorFetchResult
{
    ecc::DecodeStatus status = ecc::DecodeStatus::kClean;
    ecc::SectorData data{};
};

/** Completion callback for sector reads (fixed-capacity: capture a
 *  `this` pointer and an arena handle, not the world). */
using FetchCallback = FetchFn;

/** Shared plumbing handed to every scheme instance. */
struct SchemeContext
{
    ChannelId channel = 0;          //!< the channel this slice fronts
    const AddressMap *map = nullptr;
    DramSystem *dram = nullptr;
    EventQueue *events = nullptr;
    const ecc::SectorCodec *codec = nullptr;
    /** Authoritative current ECC bytes (shared across slices). */
    SparseMemory *metaShadow = nullptr;
    StatRegistry *stats = nullptr;
    /** Lifecycle-trace hub (optional). */
    telemetry::Telemetry *telemetry = nullptr;
    /**
     * Which chunks have injected faults (optional). Chunks the index
     * has never seen take the syndrome-only verify-clean decode fast
     * path; null means every decode runs the full path (identical
     * outcomes either way — this is purely a host-side accelerator).
     */
    const FaultIndex *faultIndex = nullptr;
    /** Slab arenas for in-flight request state; schemes fall back to
     *  an owned instance when null (tests, standalone use). */
    EngineArenas *arenas = nullptr;
    std::string name; //!< stat prefix, e.g. "protect.slice3"
};

/** Per-scheme event counters, registered under the context name. */
struct SchemeStats
{
    Counter dataReads;
    Counter dataWrites;
    Counter eccReads;     //!< metadata read transactions
    Counter eccWrites;    //!< metadata write transactions
    Counter eccRmwReads;  //!< reads issued only to complete an ECC RMW
    Counter mrcHits;
    Counter mrcMisses;
    /** Misses that piggybacked on an in-flight fetch of the same
     *  chunk (no extra DRAM transaction). Subset of mrcMisses. */
    Counter mrcFetchMerges;
    Counter mrcEvictions;
    Counter mrcDirtyEvictions;
    Counter mrcEagerWriteouts;
    Counter decodeClean;
    Counter decodeCorrected;
    Counter decodeUncorrectable;
    Counter decodeTagMismatch;
    Counter correctedUnits;

    void registerAll(const std::string &prefix, StatRegistry *stats);
};

/**
 * Abstract protection scheme for one L2 slice / memory partition.
 */
class ProtectionScheme
{
  public:
    explicit ProtectionScheme(const SchemeContext &ctx);
    virtual ~ProtectionScheme() = default;

    virtual std::string name() const = 0;

    /**
     * Fetch and verify the 32 B data sector at logical address
     * @p logical (sector aligned), expecting memory tag @p tag.
     * @p done fires at data-verified time with the decoded bytes.
     * @p trace_id groups the resulting telemetry spans under the
     * caller's request lifecycle (0 = untraced/standalone).
     */
    virtual void readSector(Addr logical, ecc::MemTag tag,
                            FetchCallback done,
                            std::uint64_t trace_id = 0) = 0;

    /**
     * Write back a dirty 32 B sector: update functional state
     * (DRAM data bytes + metadata shadow) immediately and issue the
     * scheme's write-path DRAM transactions. Writes are posted — no
     * completion callback.
     */
    virtual void writeSector(Addr logical, const ecc::SectorData &data,
                             ecc::MemTag tag) = 0;

    /**
     * Drain buffered metadata state (dirty MRC chunks) to DRAM,
     * issuing the corresponding transactions. Called at end of run.
     */
    virtual void flush() {}

    /**
     * Metadata (MRC probe) fetches currently in flight — the profiler
     * samples this as an occupancy gauge. Schemes without a metadata
     * cache report 0.
     */
    virtual std::size_t outstandingMetaFetches() const { return 0; }

    /**
     * Bulk-initialize: encode @p data at @p logical with @p tag into
     * DRAM storage and the metadata shadow, with no timing activity.
     */
    void initializeSector(Addr logical, const ecc::SectorData &data,
                          ecc::MemTag tag);

    /**
     * Bulk-initialize a whole naturally aligned protection chunk
     * (@p logical chunk-aligned, @p data its 256 bytes). Byte- and
     * hook-equivalent to eight initializeSector calls, but encodes
     * through the batch chunk codec, writes the 256 B of data to DRAM
     * in one span, and the 32 B of metadata to the shadow and to DRAM
     * in one span each.
     */
    void initializeChunk(Addr logical, const ecc::ChunkData &data,
                         ecc::MemTag tag);

    /** Per-sector metadata bytes inside the ECC chunk. */
    static constexpr std::size_t kCheckBytes = ecc::kCheckBytesPerSector;

    SchemeStats stats;

  protected:
    /** Channel-local logical offset of @p logical. */
    Addr local(Addr logical) const;
    /** Channel-local physical address of the data sector. */
    Addr dataPhys(Addr logical) const;
    /** Channel-local physical address of the covering ECC chunk. */
    Addr eccPhys(Addr logical) const;
    /** Byte offset of this sector's check bytes inside its chunk. */
    std::size_t checkOffset(Addr logical) const;
    /** Absolute shadow address of this sector's check bytes. */
    Addr shadowCheckAddr(Addr logical) const;

    /** Enqueue a data-sector DRAM transaction. */
    void issueDataTxn(Addr logical, bool is_write, SmallFn on_complete,
                      std::uint64_t trace_id = 0);
    /** Enqueue a metadata DRAM transaction at the ECC chunk address. */
    void issueEccTxn(Addr logical, bool is_write, SmallFn on_complete,
                     std::uint64_t trace_id = 0);

    /**
     * @{ Fan-in join state for multi-transaction sector reads, slab-
     * allocated instead of std::make_shared'd. acquireRead parks the
     * completion callback and decode inputs; each arriving transaction
     * calls joinRead, and the last one decodes the sector and fires
     * the callback. Schemes with bespoke completion (NoneScheme) use
     * takeRead to claim the state themselves.
     */
    std::uint32_t acquireRead(FetchCallback done, Addr logical,
                              ecc::MemTag tag, std::uint64_t trace_id,
                              std::uint8_t fanin);
    /** Mutable join state (e.g. to set the from-shadow flag). */
    PendingRead &readSlot(std::uint32_t handle);
    /** Move the join state out and release the slot. */
    PendingRead takeRead(std::uint32_t handle);
    /** One fan-in arrived; on the last, decode + complete. */
    void joinRead(std::uint32_t handle);
    /** @} */

    /** Read the stored (possibly faulted) data bytes from DRAM. */
    ecc::SectorData readStoredData(Addr logical) const;
    /** Read this sector's stored check bytes from DRAM. */
    ecc::SectorCheck readStoredCheck(Addr logical) const;
    /** Read this sector's current check bytes from the shadow. */
    ecc::SectorCheck readShadowCheck(Addr logical) const;
    /** Write @p check into the shadow for this sector. */
    void writeShadowCheck(Addr logical, const ecc::SectorCheck &check);
    /** Write @p check into DRAM storage for this sector (publish). */
    void publishCheckToStorage(Addr logical,
                               const ecc::SectorCheck &check);
    /** Copy the shadow check bytes for @p mask sub-sectors of the
     *  chunk containing @p logical into DRAM storage (sync-on-
     *  writeback). @p mask bit i = sector i of the chunk. */
    void syncChunkToStorage(Addr logical, std::uint8_t mask);

    /** Run the codec over stored bytes and classify the outcome. */
    SectorFetchResult decodeSector(Addr logical, ecc::MemTag tag,
                                   bool check_from_shadow,
                                   std::uint64_t trace_id = 0);

    SchemeContext ctx_;

  private:
    /** Fallback arenas when the context does not inject any. */
    std::unique_ptr<EngineArenas> ownedArenas_;
};

/** Options for the MRC-based schemes (EccCache / CacheCraft). */
struct MrcOptions
{
    /** MRC capacity in bytes per slice. */
    std::size_t sizeBytes = 16 * 1024;
    /** MRC associativity. */
    unsigned assoc = 8;
    /**
     * R1 — chunk-granularity reconstruction: a metadata fetch retains
     * the whole 32 B ECC chunk (covering 8 data sectors). When false,
     * only the fetched sector's 4 B of check data are retained.
     */
    bool chunkGranularity = true;
    /**
     * R2 — write-back MRC: dirty metadata coalesces in the MRC and is
     * written to DRAM only on eviction/flush. When false the MRC is
     * write-through (every data writeback emits an ECC write).
     */
    bool writebackMrc = true;
    /**
     * Eager full-chunk writeout (R2 refinement): the moment all eight
     * check fields of a chunk are dirty, write the reconstructed
     * chunk to DRAM and mark it clean. The writeout is issued while
     * the data row its own last writeback opened is still hot, which
     * matters under the co-located layout; the cost is extra metadata
     * writes for chunks that are re-dirtied later (rewrite-heavy
     * working sets). Measured to be roughly neutral on this suite
     * (see EXPERIMENTS.md E6); off by default.
     */
    bool eagerWriteout = false;
    /**
     * Fetch-on-write-miss (R2 refinement): a data writeback whose
     * chunk misses the MRC fetches the whole chunk instead of
     * allocating just its own field. The fetch is issued while the
     * chunk's data row is open (cheap under the co-located layout),
     * and the later eviction becomes a single full-chunk write
     * instead of a read-modify-write to a long-closed row. Helps
     * scatter-write workloads; costs an extra (cheap) read per write
     * miss.
     */
    bool fetchOnWriteMiss = true;
    /**
     * Deliberately skip the shadow-check update on writeSector — a
     * *planted* metadata-invalidation bug used only by the
     * differential-verification tests to prove the golden oracle and
     * cachecraft_fuzz catch (and minimize) real defects. Never set
     * outside those tests.
     */
    bool plantStaleMetaBug = false;
};

/** Factory: build scheme @p kind for one slice. */
std::unique_ptr<ProtectionScheme>
makeScheme(SchemeKind kind, const SchemeContext &ctx,
           const MrcOptions &mrc_options);

} // namespace cachecraft

#endif // CACHECRAFT_PROTECT_SCHEME_HPP
