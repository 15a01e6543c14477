/**
 * @file
 * The Metadata Reconstruction Cache (MRC) schemes — the paper's core
 * contribution and its closest prior-art baseline, sharing one
 * implementation with two policy knobs (MrcOptions):
 *
 *  - R1 chunkGranularity: a metadata *fetch* reconstructs and retains
 *    the full 32 B ECC chunk, so one DRAM metadata read covers all
 *    eight sectors of the protection chunk. Off = only the missing
 *    4 B check field is retained (same SRAM, 8x less coverage).
 *
 *  - R2 writebackMrc: dirty metadata coalesces in the MRC. A data
 *    writeback updates the cached check field with *zero* immediate
 *    DRAM metadata traffic; the reconstructed ECC chunk is written
 *    out once, on eviction or flush — as a single full-chunk write
 *    when the whole chunk is resident (the common case thanks to R1),
 *    or as one deferred RMW otherwise. Off = write-through: every
 *    data writeback emits an ECC chunk write (plus an RMW read on an
 *    MRC miss), which is the prior-art ECC-cache write policy.
 *
 *  R3 (co-located layout) is an AddressMap property, configured at
 *  the system level; see dram/address_map.hpp.
 *
 * The *reconstruction* framing: entries are not raw DRAM echoes but
 * chunks re-crafted on chip — assembled from fetched fields and
 * locally re-encoded fields after writes — which is what allows
 * write-back coalescing and full-chunk writeout without RMW.
 */

#ifndef CACHECRAFT_PROTECT_MRC_SCHEME_HPP
#define CACHECRAFT_PROTECT_MRC_SCHEME_HPP

#include "cache/sectored_cache.hpp"
#include "common/addr_table.hpp"
#include "common/fn_list.hpp"
#include "protect/scheme.hpp"

namespace cachecraft {

/**
 * Tag-array parameters of one slice's MRC: @p options' size and
 * associativity over one 32 B ECC chunk per line, one check field per
 * sector.
 */
CacheParams mrcParams(const MrcOptions &options, std::uint64_t seed = 1);

/** MRC-based protection scheme (EccCache baseline / CacheCraft). */
class MrcScheme : public ProtectionScheme
{
  public:
    /**
     * @param ctx        shared slice plumbing
     * @param options    R1/R2 and geometry knobs
     * @param cachecraft true for the full CacheCraft configuration
     *                   (affects only the reported name)
     */
    MrcScheme(const SchemeContext &ctx, const MrcOptions &options,
              bool cachecraft);

    std::string name() const override {
        return cachecraft_ ? "cachecraft" : "ecc-cache";
    }

    void readSector(Addr logical, ecc::MemTag tag, FetchCallback done,
                    std::uint64_t trace_id) override;
    void writeSector(Addr logical, const ecc::SectorData &data,
                     ecc::MemTag tag) override;
    void flush() override;

    const MrcOptions &options() const { return options_; }
    const SectoredCache &mrc() const { return mrc_; }

    std::size_t
    outstandingMetaFetches() const override
    {
        return pendingFetch_.size();
    }

  private:
    /**
     * MRC index address for the check field of data sector
     * @p logical: the chunk's check fields are packed contiguously,
     * so dividing the chunk base by 8 (data:ECC ratio) yields a
     * 32 B-aligned line key and the in-chunk sector index selects the
     * 4 B sub-sector.
     */
    Addr mrcAddr(Addr logical) const;

    /** Logical chunk base corresponding to an MRC line address. */
    Addr chunkLogicalOf(Addr mrc_line_addr) const;

    /**
     * Ensure this sector's check field is resident, then run @p fn.
     * Deduplicates concurrent fetches of the same chunk. Traced as
     * the request's "mrc.probe" span when @p trace_id is non-zero.
     * @param fn receives true if the field was already resident
     *           (serve from on-chip copy), false if it was fetched
     *           from DRAM.
     */
    void withCheckField(Addr logical, WakeFn fn,
                        std::uint64_t trace_id = 0);

    /**
     * Fetch the ECC chunk covering @p logical into the MRC (deduped
     * against in-flight fetches) and run @p fn when it is resident.
     * No hit/miss accounting — callers count. @p fn receives false
     * when it piggybacked on DRAM fetch, true when already resident.
     */
    void fetchChunk(Addr logical, WakeFn fn,
                    std::uint64_t trace_id = 0);

    /** Issue writeout transactions + functional sync for an evicted
     *  dirty chunk. */
    void writeOutDirtyChunk(const Eviction &ev);

    /** Handle a fill's eviction, if any. */
    void handleEviction(const std::optional<Eviction> &ev);

    MrcOptions options_;
    bool cachecraft_;
    SectoredCache mrc_;
    /** In-flight metadata fetches: MRC line addr -> waiters. */
    AddrTable<FnListSlab<WakeFn>::List> pendingFetch_;
    FnListSlab<WakeFn> fetchWaiters_;
};

} // namespace cachecraft

#endif // CACHECRAFT_PROTECT_MRC_SCHEME_HPP
