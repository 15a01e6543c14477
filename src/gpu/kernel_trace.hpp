/**
 * @file
 * The workload interface: a kernel is a per-warp stream of
 * instructions (compute delays + SIMT memory operations) plus the
 * tagged memory regions it touches.
 *
 * This is the substitution for SASS traces feeding Accel-Sim: the
 * protection mechanisms under study live entirely below the L1, so
 * what matters is the sector-level access stream each warp emits —
 * its coalescing behaviour, reuse distances, read/write mix, and
 * spatial locality — all of which the synthetic generators in
 * src/workloads control explicitly.
 *
 * Traces are compact: an instruction is 24 bytes and owns no heap
 * memory. A fully coalesced access (32 consecutive 4 B lanes) is
 * stored affinely, as its first address and lane count; any other
 * access points at its lane addresses in the trace's LanePool.
 */

#ifndef CACHECRAFT_GPU_KERNEL_TRACE_HPP
#define CACHECRAFT_GPU_KERNEL_TRACE_HPP

#include <cstdint>
#include <memory>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "ecc/codec.hpp"

namespace cachecraft {

struct KernelTrace;

/**
 * One warp-level instruction. A memory instruction's lanes are either
 * affine (lane i at base + 4 i) or a span of explicit addresses held
 * elsewhere — normally in its KernelTrace's lane pool — that must
 * outlive the instruction.
 */
struct WarpInst
{
    /** Byte distance between consecutive lanes of an affine access. */
    static constexpr Addr kAffineStride = 4;

    /** ALU/issue work preceding this instruction, in cycles. */
    Cycle computeCycles = 0;
    /** True if this instruction accesses memory. */
    bool isMem = false;
    /** For memory instructions: store (true) or load (false). */
    bool isWrite = false;
    /**
     * Expected-tag override for memory-safety experiments: -1 uses
     * the region's correct tag; 0..255 forces that tag (modeling a
     * stale/corrupted pointer whose tag bits disagree with memory).
     */
    std::int16_t tagOverride = -1;

    /** A pure-compute instruction of @p cycles. */
    static WarpInst
    compute(Cycle cycles)
    {
        WarpInst inst;
        inst.computeCycles = cycles;
        return inst;
    }

    /** A memory instruction of @p count lanes at @p base + 4 i. */
    static WarpInst
    affine(Addr base, std::uint32_t count, bool is_write, Cycle compute = 0)
    {
        WarpInst inst = memory(is_write, compute, count);
        inst.affine_ = 1;
        inst.word_ = base;
        return inst;
    }

    /**
     * A memory instruction over the explicit lane addresses @p lanes,
     * which are not copied: they must outlive the instruction. Inactive
     * lanes are simply absent.
     */
    static WarpInst
    explicitLanes(std::span<const Addr> lanes, bool is_write,
                  Cycle compute = 0)
    {
        WarpInst inst = memory(is_write, compute,
                               static_cast<std::uint32_t>(lanes.size()));
        inst.word_ = reinterpret_cast<std::uintptr_t>(lanes.data());
        return inst;
    }

    /** Active lanes of a memory instruction (0 for compute). */
    std::size_t laneCount() const { return laneCount_; }

    /** True if the lanes are stored as base + 4 i. */
    bool isAffine() const { return affine_ != 0; }

    /** Address of lane @p i (i < laneCount()). */
    Addr
    lane(std::size_t i) const
    {
        return affine_ ? word_ + i * kAffineStride : laneData()[i];
    }

    /** The explicit lane addresses (nullptr for an affine access). */
    const Addr *
    laneData() const
    {
        return affine_ ? nullptr : reinterpret_cast<const Addr *>(word_);
    }

    /** The lane addresses in lane order, as a view of this instruction. */
    auto
    lanes() const
    {
        return std::views::iota(std::uint32_t{0},
                                static_cast<std::uint32_t>(laneCount_)) |
               std::views::transform(
                   [this](std::uint32_t i) { return lane(i); });
    }

  private:
    friend struct KernelTrace; // rebases explicit lanes when copying

    static WarpInst
    memory(bool is_write, Cycle compute, std::uint32_t count)
    {
        WarpInst inst;
        inst.isMem = true;
        inst.isWrite = is_write;
        inst.computeCycles = compute;
        inst.laneCount_ = count;
        return inst;
    }

    /** @{ Lane form: count, affine flag, and the affine base address
     *  or the explicit lanes' pointer. */
    std::uint32_t laneCount_ : 31 = 0;
    std::uint32_t affine_ : 1 = 0;
    Addr word_ = 0;
    /** @} */
};

static_assert(sizeof(WarpInst) <= 24, "WarpInst must stay compact");
static_assert(sizeof(const Addr *) <= sizeof(Addr));

/**
 * Append-only storage for explicit lane addresses. Blocks are never
 * moved or freed while the pool lives, so an instruction may point
 * into it; moving the pool keeps every address valid.
 */
class LanePool
{
  public:
    LanePool() = default;
    LanePool(LanePool &&) noexcept = default;
    LanePool &operator=(LanePool &&) noexcept = default;
    /** Copying would leave instructions pointing at the source. */
    LanePool(const LanePool &) = delete;
    LanePool &operator=(const LanePool &) = delete;

    /** Copy @p lanes in. @return their address, stable for the
     *  pool's lifetime (nullptr for no lanes). */
    const Addr *store(std::span<const Addr> lanes);

    /** Bytes of lane addresses held. */
    std::size_t bytes() const { return lanesHeld_ * sizeof(Addr); }

  private:
    std::vector<std::unique_ptr<Addr[]>> blocks_;
    std::size_t blockFree_ = 0; //!< unused lanes at the last block's end
    std::size_t blockLanes_ = 0; //!< size of the last block
    std::size_t lanesHeld_ = 0;
};

/** A memory region the kernel touches, with its memory tag. */
struct TaggedRegion
{
    Addr base = 0;
    std::size_t size = 0;
    ecc::MemTag tag = 0;
};

/** A complete kernel: instruction streams for every warp. */
struct KernelTrace
{
    std::string name;
    /** warps[w] is the in-order instruction stream of warp w. */
    std::vector<std::vector<WarpInst>> warps;
    /** Regions to initialize (must cover every accessed address). */
    std::vector<TaggedRegion> regions;

    KernelTrace() = default;
    /** Deep copy: the copy's explicit lanes live in its own pool. */
    KernelTrace(const KernelTrace &other);
    KernelTrace &operator=(const KernelTrace &other);
    KernelTrace(KernelTrace &&) noexcept = default;
    KernelTrace &operator=(KernelTrace &&) noexcept = default;

    /**
     * A memory instruction over @p lanes. Lanes stepping by 4 B from
     * the first are stored affinely and take no pool bytes; any other
     * lanes are copied into this trace's pool.
     */
    WarpInst memInst(std::span<const Addr> lanes, bool is_write,
                     Cycle compute = 0);

    /** Bytes of explicit lane addresses this trace holds. */
    std::size_t laneBytes() const { return lanePool_.bytes(); }

    /** Total warp instructions across all warps. */
    std::uint64_t
    totalInsts() const
    {
        std::uint64_t n = 0;
        for (const auto &w : warps)
            n += w.size();
        return n;
    }

    /** Total dynamic memory instructions. */
    std::uint64_t
    totalMemInsts() const
    {
        std::uint64_t n = 0;
        for (const auto &w : warps)
            for (const auto &inst : w)
                n += inst.isMem ? 1 : 0;
        return n;
    }

  private:
    LanePool lanePool_;
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_KERNEL_TRACE_HPP
