/**
 * @file
 * Address mapping: from the flat logical device address space used by
 * workloads down to (channel, bank, row, column) DRAM coordinates,
 * including the inline-ECC layout transformations.
 *
 * Two inline-ECC placements are modeled (the paper's mechanism R3 is
 * the contrast between them):
 *
 *  - kSegregated: the conventional carve-out. Data keeps its identity
 *    mapping inside the channel; all ECC chunks live in a reserved
 *    region at the top of the channel. An ECC access after its data
 *    access almost always opens a *different* row (often in the same
 *    bank -> row conflict).
 *
 *  - kCoLocated: CacheCraft's crafted layout. Each DRAM row is split
 *    7/8 data + 1/8 ECC covering exactly the chunks of that row, so
 *    the ECC access after a data access is a row-buffer hit by
 *    construction. Costs ~1.6 % capacity slack per 2 KiB row
 *    (2048 = 7 x (256 + 32) + 32 unused).
 */

#ifndef CACHECRAFT_DRAM_ADDRESS_MAP_HPP
#define CACHECRAFT_DRAM_ADDRESS_MAP_HPP

#include <cstdint>

#include "common/types.hpp"

namespace cachecraft {

/** DRAM organization parameters (per device/system). */
struct DramGeometry
{
    /** Independent channels (each with its own data bus). */
    unsigned numChannels = 8;
    /** Banks per channel (bank groups flattened). */
    unsigned numBanks = 16;
    /** Row (page) size in bytes. */
    std::size_t rowBytes = 2048;
    /** Per-channel capacity in bytes. */
    std::size_t channelCapacity = 1ull << 30; // 1 GiB/channel
    /**
     * Channel interleave granularity in bytes. One protection chunk
     * (256 B) per channel stride keeps a chunk and its ECC in one
     * channel, matching real inline-ECC controllers.
     */
    std::size_t channelInterleave = kChunkBytes;
};

/** Physical coordinates of one DRAM access. */
struct DramCoord
{
    ChannelId channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;      //!< row id within the bank
    std::uint32_t column = 0;   //!< byte offset within the row
};

/** Inline-ECC placement policy. */
enum class EccLayout : std::uint8_t
{
    kNone,        //!< no ECC storage (unprotected baseline)
    kSegregated,  //!< conventional top-of-channel carve-out
    kCoLocated,   //!< CacheCraft crafted per-row co-location
};

/** Human-readable layout name. */
const char *toString(EccLayout layout);

/**
 * The full mapping pipeline. Thread-compatible: all methods const.
 *
 * Logical address --(channel interleave)--> (channel, channelLocal)
 * channelLocal --(ECC layout)--> dataPhys and eccPhys (channel-local)
 * phys --(bank/row/col slicing)--> DramCoord
 */
class AddressMap
{
  public:
    AddressMap(const DramGeometry &geometry, EccLayout layout);

    const DramGeometry &geometry() const { return geom_; }
    EccLayout layout() const { return layout_; }

    /** Channel that logical address @p logical maps to. */
    ChannelId channelOf(Addr logical) const;

    /** Channel-local logical offset of @p logical. */
    Addr channelLocalOf(Addr logical) const;

    /** Inverse of channelOf/channelLocalOf: the global logical
     *  address of channel-local offset @p local on @p channel. */
    Addr globalOf(ChannelId channel, Addr local) const;

    /**
     * Channel-local *physical* address of logical data address
     * @p local (identity for kNone/kSegregated; re-packed for
     * kCoLocated).
     */
    Addr dataPhys(Addr local) const;

    /**
     * Channel-local physical address of the 4 ECC bytes covering the
     * 32 B data sector at channel-local logical @p local. Must not be
     * called for kNone. The returned address is aligned to the 32 B
     * ECC chunk that covers the whole 256 B protection chunk.
     */
    Addr eccChunkPhys(Addr local) const;

    /** Bank/row/column of channel-local physical address @p phys. */
    DramCoord coordOf(ChannelId channel, Addr phys) const;

    /** Usable data bytes per channel under the configured layout. */
    std::size_t usableBytesPerChannel() const;

    /** Total usable logical bytes across all channels. */
    std::size_t usableBytesTotal() const;

    /** Chunks that fit in one row under kCoLocated (7 for 2 KiB). */
    std::size_t chunksPerRow() const { return chunksPerRow_; }

  private:
    DramGeometry geom_;
    EccLayout layout_;
    std::size_t chunksPerRow_;
    Addr eccBase_; //!< channel-local start of segregated ECC region
    unsigned interleaveShift_; //!< log2(channelInterleave)
    /** log2(numChannels), or -1 when it is not a power of two (the
     *  channel split then divides). */
    int channelShift_;
};

} // namespace cachecraft

#endif // CACHECRAFT_DRAM_ADDRESS_MAP_HPP
