#include "gpu/coalescer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace cachecraft {

void
coalesceInto(const WarpInst &inst, std::vector<SectorRequest> &out)
{
    out.clear();
    auto emit = [&](Addr sector) {
        out.push_back(SectorRequest{sector, inst.isWrite});
    };
    const std::size_t n = inst.laneCount();
    if (n > kWarpLanes) {
        // Wider than any warp (hand-written or fuzzed traces): a
        // linear scan of the sectors emitted so far.
        for (std::size_t i = 0; i < n; ++i) {
            const Addr sector = sectorBase(inst.lane(i));
            if (std::none_of(out.begin(), out.end(),
                             [sector](const SectorRequest &r) {
                                 return r.sectorAddr == sector;
                             }))
                emit(sector);
        }
        return;
    }
    // Open-addressed set of emitted sectors, at most half full: a
    // Fibonacci hash of the sector number, linear probing. ~0 is
    // never a sector base (bases are 32 B aligned), so it marks an
    // empty slot.
    constexpr std::size_t kSlots = 2 * kWarpLanes;
    constexpr unsigned kShift = 64 - std::countr_zero(kSlots);
    constexpr Addr kEmpty = ~Addr{0};
    std::array<Addr, kSlots> seen;
    seen.fill(kEmpty);
    Addr last = kEmpty;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr sector = sectorBase(inst.lane(i));
        // Neighbouring lanes usually share a sector.
        if (sector == last)
            continue;
        last = sector;
        std::size_t slot = static_cast<std::size_t>(
            ((sector / kSectorBytes) * 0x9E3779B97F4A7C15ull) >> kShift);
        while (seen[slot] != kEmpty && seen[slot] != sector)
            slot = (slot + 1) & (kSlots - 1);
        if (seen[slot] == kEmpty) {
            seen[slot] = sector;
            emit(sector);
        }
    }
}

std::vector<SectorRequest>
coalesce(const WarpInst &inst)
{
    std::vector<SectorRequest> out;
    out.reserve(inst.laneCount()); // one allocation, never a regrowth
    coalesceInto(inst, out);
    return out;
}

} // namespace cachecraft
