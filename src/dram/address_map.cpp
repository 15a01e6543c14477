#include "dram/address_map.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"

namespace cachecraft {

const char *
toString(EccLayout layout)
{
    switch (layout) {
      case EccLayout::kNone:
        return "none";
      case EccLayout::kSegregated:
        return "segregated";
      case EccLayout::kCoLocated:
        return "co-located";
    }
    return "unknown";
}

AddressMap::AddressMap(const DramGeometry &geometry, EccLayout layout)
    : geom_(geometry), layout_(layout)
{
    if (!isPow2(geom_.rowBytes) || !isPow2(geom_.channelInterleave))
        fatal("row size and channel interleave must be powers of two");
    if (geom_.channelInterleave % kChunkBytes != 0)
        fatal("channel interleave must be a multiple of the chunk size");
    if (geom_.rowBytes % kChunkBytes != 0)
        fatal("row size must be a multiple of the chunk size");

    // The interleave is a power of two, so the stripe split is a
    // shift/mask; so is the channel split when numChannels is a power
    // of two as well (otherwise it divides).
    interleaveShift_ = log2Floor(geom_.channelInterleave);
    channelShift_ = isPow2(geom_.numChannels)
                        ? static_cast<int>(log2Floor(geom_.numChannels))
                        : -1;

    // Co-located layout: each row holds N chunks of (256 data + 32 ecc)
    // bytes; the remainder of the row is unused slack.
    chunksPerRow_ = geom_.rowBytes / (kChunkBytes + kEccChunkBytes);
    if (chunksPerRow_ == 0)
        fatal("row too small for co-located layout");

    // Segregated layout: data occupies the bottom 8/9 of the channel
    // (rounded down to a whole row); ECC starts right above it.
    const std::size_t data_rows =
        (geom_.channelCapacity / geom_.rowBytes) * 8 / 9;
    eccBase_ = static_cast<Addr>(data_rows) * geom_.rowBytes;
}

ChannelId
AddressMap::channelOf(Addr logical) const
{
    const Addr stripe = logical >> interleaveShift_;
    return static_cast<ChannelId>(
        channelShift_ >= 0 ? stripe & (geom_.numChannels - 1)
                           : stripe % geom_.numChannels);
}

Addr
AddressMap::channelLocalOf(Addr logical) const
{
    const Addr stripe = logical >> interleaveShift_;
    const Addr local_stripe = channelShift_ >= 0
                                  ? stripe >> channelShift_
                                  : stripe / geom_.numChannels;
    return (local_stripe << interleaveShift_) |
           (logical & (geom_.channelInterleave - 1));
}

Addr
AddressMap::globalOf(ChannelId channel, Addr local) const
{
    const Addr local_stripe = local >> interleaveShift_;
    const Addr stripe = channelShift_ >= 0
                            ? (local_stripe << channelShift_) + channel
                            : local_stripe * geom_.numChannels + channel;
    return (stripe << interleaveShift_) |
           (local & (geom_.channelInterleave - 1));
}

Addr
AddressMap::dataPhys(Addr local) const
{
    if (layout_ != EccLayout::kCoLocated)
        return local;
    // Re-pack: logical chunk c lives at row (c / chunksPerRow_),
    // slot (c % chunksPerRow_).
    const Addr chunk = local / kChunkBytes;
    const Addr row = chunk / chunksPerRow_;
    const Addr slot = chunk % chunksPerRow_;
    return row * geom_.rowBytes + slot * kChunkBytes +
           offsetIn(local, kChunkBytes);
}

Addr
AddressMap::eccChunkPhys(Addr local) const
{
    const Addr chunk = local / kChunkBytes;
    switch (layout_) {
      case EccLayout::kNone:
        panic("eccChunkPhys called with no ECC layout");
      case EccLayout::kSegregated:
        return eccBase_ + chunk * kEccChunkBytes;
      case EccLayout::kCoLocated: {
        const Addr row = chunk / chunksPerRow_;
        const Addr slot = chunk % chunksPerRow_;
        return row * geom_.rowBytes + chunksPerRow_ * kChunkBytes +
               slot * kEccChunkBytes;
      }
    }
    panic("unreachable");
}

DramCoord
AddressMap::coordOf(ChannelId channel, Addr phys) const
{
    DramCoord coord;
    coord.channel = channel;
    coord.column = static_cast<std::uint32_t>(offsetIn(phys, geom_.rowBytes));
    const std::uint64_t global_row = phys / geom_.rowBytes;
    coord.bank = static_cast<std::uint32_t>(global_row % geom_.numBanks);
    coord.row = global_row / geom_.numBanks;
    return coord;
}

std::size_t
AddressMap::usableBytesPerChannel() const
{
    switch (layout_) {
      case EccLayout::kNone:
        return geom_.channelCapacity;
      case EccLayout::kSegregated:
        return static_cast<std::size_t>(eccBase_);
      case EccLayout::kCoLocated:
        return (geom_.channelCapacity / geom_.rowBytes) * chunksPerRow_ *
               kChunkBytes;
    }
    panic("unreachable");
}

std::size_t
AddressMap::usableBytesTotal() const
{
    return usableBytesPerChannel() * geom_.numChannels;
}

} // namespace cachecraft
