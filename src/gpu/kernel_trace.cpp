#include "gpu/kernel_trace.hpp"

#include <algorithm>

namespace cachecraft {

namespace {

/** Pool block size in lanes (512 KiB); a wider span gets a block of
 *  its own size. */
constexpr std::size_t kBlockLanes = std::size_t(1) << 16;

} // namespace

const Addr *
LanePool::store(std::span<const Addr> lanes)
{
    if (lanes.empty())
        return nullptr;
    if (lanes.size() > blockFree_) {
        // Start a block; the old block's unused tail is never touched,
        // so it costs address space, not resident memory.
        blockLanes_ = std::max(lanes.size(), kBlockLanes);
        blocks_.push_back(std::make_unique_for_overwrite<Addr[]>(blockLanes_));
        blockFree_ = blockLanes_;
    }
    Addr *out = blocks_.back().get() + (blockLanes_ - blockFree_);
    std::copy(lanes.begin(), lanes.end(), out);
    blockFree_ -= lanes.size();
    lanesHeld_ += lanes.size();
    return out;
}

KernelTrace::KernelTrace(const KernelTrace &other)
    : name(other.name), warps(other.warps), regions(other.regions)
{
    // The copied instructions still point into other's pool: rebase
    // each explicit span onto a copy in this trace's pool.
    for (auto &warp : warps) {
        for (WarpInst &inst : warp) {
            if (const Addr *lanes = inst.laneData())
                inst.word_ = reinterpret_cast<std::uintptr_t>(
                    lanePool_.store(
                        std::span<const Addr>(lanes, inst.laneCount())));
        }
    }
}

KernelTrace &
KernelTrace::operator=(const KernelTrace &other)
{
    if (this != &other)
        *this = KernelTrace(other);
    return *this;
}

WarpInst
KernelTrace::memInst(std::span<const Addr> lanes, bool is_write,
                     Cycle compute)
{
    bool affine = true;
    for (std::size_t i = 1; i < lanes.size() && affine; ++i)
        affine = lanes[i] == lanes[0] + i * WarpInst::kAffineStride;
    if (affine) {
        return WarpInst::affine(lanes.empty() ? 0 : lanes[0],
                                static_cast<std::uint32_t>(lanes.size()),
                                is_write, compute);
    }
    return WarpInst::explicitLanes(
        std::span<const Addr>(lanePool_.store(lanes), lanes.size()),
        is_write, compute);
}

} // namespace cachecraft
