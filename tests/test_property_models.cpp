/**
 * @file
 * Randomized property tests pitting optimized model components against
 * deliberately naive brute-force references:
 *
 *  - the SIMT coalescer (fresh and reused-scratch forms) vs. a
 *    per-lane first-appearance scan;
 *  - LRU / FIFO / SRRIP replacement vs. linear-scan reference models.
 *
 * Each property runs over >= 1000 seeded random sequences, so any
 * divergence in tie-breaking, promotion, or aging semantics surfaces
 * with a reproducible seed in the failure message.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hpp"
#include "common/rng.hpp"
#include "gpu/coalescer.hpp"

namespace cachecraft {
namespace {

// --------------------------------------------------------------------
// Coalescer vs. naive per-lane scan
// --------------------------------------------------------------------

/** Reference: walk lanes in order, emit each new sector base once. */
std::vector<SectorRequest>
referenceCoalesce(const WarpInst &inst)
{
    std::vector<SectorRequest> out;
    for (Addr lane : inst.lanes()) {
        const Addr sector = alignDown(lane, kSectorBytes);
        bool seen = false;
        for (const SectorRequest &req : out)
            if (req.sectorAddr == sector)
                seen = true;
        if (!seen)
            out.push_back(SectorRequest{sector, inst.isWrite});
    }
    return out;
}

void
expectSameRequests(const std::vector<SectorRequest> &got,
                   const std::vector<SectorRequest> &want,
                   std::uint64_t seed)
{
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].sectorAddr, want[i].sectorAddr)
            << "seed " << seed << " request " << i;
        EXPECT_EQ(got[i].isWrite, want[i].isWrite)
            << "seed " << seed << " request " << i;
    }
}

TEST(CoalescerProperty, MatchesNaiveReferenceOverRandomWarps)
{
    // coalesceInto reuses one scratch across every warp, as SmCore
    // does, so a stale entry or set slot would show up here.
    std::vector<SectorRequest> scratch;
    for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
        Xoshiro256 rng(seed);
        const bool is_write = rng.below(2) == 1;
        const unsigned count = 1 + static_cast<unsigned>(rng.below(32));
        // Mix three regimes: dense (one line), moderate (one page),
        // and scattered (16 MiB) — ties and duplicates come from the
        // dense end, ordering stress from the scattered end.
        const Addr span = seed % 3 == 0  ? kLineBytes
                          : seed % 3 == 1 ? 4096
                                          : (16u << 20);
        std::vector<Addr> lanes;
        for (unsigned i = 0; i < count; ++i)
            lanes.push_back(rng.below(span));
        const WarpInst inst = WarpInst::explicitLanes(lanes, is_write);
        expectSameRequests(coalesce(inst), referenceCoalesce(inst),
                           seed);
        coalesceInto(inst, scratch);
        expectSameRequests(scratch, referenceCoalesce(inst), seed);
    }
}

TEST(CoalescerProperty, ReusedScratchMatchesReferenceBeyondWarpWidth)
{
    // Lane counts straddle kWarpLanes (fuzzed traces are unbounded),
    // alternating through the same scratch.
    std::vector<SectorRequest> scratch;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Xoshiro256 rng(seed);
        const bool is_write = rng.below(2) == 1;
        const unsigned count = 1 + static_cast<unsigned>(rng.below(96));
        const Addr span = seed % 2 == 0 ? 4096 : (16u << 20);
        std::vector<Addr> lanes;
        for (unsigned i = 0; i < count; ++i)
            lanes.push_back(rng.below(span));
        const WarpInst inst = WarpInst::explicitLanes(lanes, is_write);
        coalesceInto(inst, scratch);
        expectSameRequests(scratch, referenceCoalesce(inst), seed);
    }
}

TEST(CoalescerProperty, AffineLanesMatchReferenceAndExplicitCopy)
{
    // Affine instructions must coalesce to what the reference and the
    // same lanes stored explicitly give, for any base alignment and
    // lane count (including beyond a warp).
    std::vector<SectorRequest> scratch;
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        Xoshiro256 rng(seed);
        const bool is_write = rng.below(2) == 1;
        const auto count = static_cast<std::uint32_t>(1 + rng.below(96));
        const Addr base = rng.below(1u << 20) * 4;
        const WarpInst affine = WarpInst::affine(base, count, is_write);
        const auto view = affine.lanes();
        const std::vector<Addr> lanes(view.begin(), view.end());
        ASSERT_EQ(lanes.size(), count);
        EXPECT_EQ(lanes.back(), base + (count - 1) * 4);
        const WarpInst copy = WarpInst::explicitLanes(lanes, is_write);
        coalesceInto(affine, scratch);
        expectSameRequests(scratch, referenceCoalesce(affine), seed);
        expectSameRequests(scratch, coalesce(copy), seed);
    }
}

TEST(CoalescerProperty, FullyConvergedWarpIsOneRequest)
{
    std::vector<Addr> lanes;
    for (unsigned lane = 0; lane < 32; ++lane)
        lanes.push_back(0x1000 + lane % kSectorBytes);
    const WarpInst inst = WarpInst::explicitLanes(lanes, true);
    const auto reqs = coalesce(inst);
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].sectorAddr, 0x1000u);
    EXPECT_TRUE(reqs[0].isWrite);
}

TEST(CoalescerProperty, FullyDivergentWarpPreservesLaneOrder)
{
    // Descending sector addresses: first-appearance order must win
    // over address order.
    std::vector<Addr> lanes;
    for (unsigned lane = 0; lane < 32; ++lane)
        lanes.push_back((32 - lane) * 64);
    const WarpInst inst = WarpInst::explicitLanes(lanes, false);
    const auto reqs = coalesce(inst);
    ASSERT_EQ(reqs.size(), 32u);
    for (std::size_t i = 1; i < reqs.size(); ++i)
        EXPECT_LT(reqs[i].sectorAddr, reqs[i - 1].sectorAddr);
}

// --------------------------------------------------------------------
// Replacement policies vs. linear-scan references
// --------------------------------------------------------------------

/** Reference recency/age tracker: victim = smallest stamp, lowest
 *  way on ties; never-touched ways hold stamp 0 and go first. */
class RefStampPolicy
{
  public:
    RefStampPolicy(std::size_t sets, unsigned ways, bool updateOnHit)
        : ways_(ways), updateOnHit_(updateOnHit), stamp_(sets * ways, 0)
    {
    }

    void
    onInsert(std::size_t set, unsigned way)
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    void
    onHit(std::size_t set, unsigned way)
    {
        if (updateOnHit_)
            stamp_[set * ways_ + way] = ++clock_;
        else
            ++clock_; // keep clocks comparable across models
    }

    unsigned
    victim(std::size_t set) const
    {
        unsigned best = 0;
        for (unsigned w = 1; w < ways_; ++w)
            if (stamp_[set * ways_ + w] < stamp_[set * ways_ + best])
                best = w;
        return best;
    }

  private:
    unsigned ways_;
    bool updateOnHit_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamp_;
};

/** Reference SRRIP: 2-bit RRPVs, insert long (2), hit promotes to 0,
 *  victim ages the whole set until some way saturates at 3. */
class RefSrrip
{
  public:
    RefSrrip(std::size_t sets, unsigned ways)
        : ways_(ways), rrpv_(sets * ways, SrripPolicy::kMaxRrpv)
    {
    }

    void onInsert(std::size_t set, unsigned way)
    {
        rrpv_[set * ways_ + way] = SrripPolicy::kMaxRrpv - 1;
    }

    void onHit(std::size_t set, unsigned way)
    {
        rrpv_[set * ways_ + way] = 0;
    }

    unsigned
    victim(std::size_t set)
    {
        for (;;) {
            for (unsigned w = 0; w < ways_; ++w)
                if (rrpv_[set * ways_ + w] == SrripPolicy::kMaxRrpv)
                    return w;
            for (unsigned w = 0; w < ways_; ++w)
                ++rrpv_[set * ways_ + w];
        }
    }

  private:
    unsigned ways_;
    std::vector<std::uint8_t> rrpv_;
};

/**
 * Drive @p policy and @p ref through the same random cache life:
 * fills into free ways while a set has them, then victim queries
 * (compared on every call) followed by reinsertion at the victim, with
 * hits to random occupied ways mixed in throughout.
 */
template <typename Ref>
void
runLockstep(ReplacementPolicy &policy, Ref &ref, std::uint64_t seed,
            std::size_t sets, unsigned ways, unsigned ops)
{
    Xoshiro256 rng(seed);
    std::vector<unsigned> occupied(sets, 0);
    for (unsigned op = 0; op < ops; ++op) {
        const std::size_t set = rng.below(sets);
        const std::uint64_t kind = rng.below(3);
        if (occupied[set] < ways) {
            const unsigned way = occupied[set]++;
            policy.onInsert(set, way);
            ref.onInsert(set, way);
        } else if (kind == 0) {
            const unsigned way =
                static_cast<unsigned>(rng.below(ways));
            policy.onHit(set, way);
            ref.onHit(set, way);
        } else {
            const unsigned got = policy.victim(set);
            const unsigned want = ref.victim(set);
            ASSERT_EQ(got, want)
                << "seed " << seed << " op " << op << " set " << set;
            policy.onInsert(set, got);
            ref.onInsert(set, got);
        }
    }
}

TEST(ReplacementProperty, LruMatchesLinearScanReference)
{
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const std::size_t sets = 1 + seed % 4;
        const unsigned ways = 2 + seed % 7;
        LruPolicy policy(sets, ways);
        RefStampPolicy ref(sets, ways, /* updateOnHit= */ true);
        runLockstep(policy, ref, seed, sets, ways, 96);
    }
}

TEST(ReplacementProperty, FifoMatchesLinearScanReference)
{
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const std::size_t sets = 1 + seed % 4;
        const unsigned ways = 2 + seed % 7;
        FifoPolicy policy(sets, ways);
        RefStampPolicy ref(sets, ways, /* updateOnHit= */ false);
        runLockstep(policy, ref, seed, sets, ways, 96);
    }
}

TEST(ReplacementProperty, SrripMatchesAgingReference)
{
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        const std::size_t sets = 1 + seed % 4;
        const unsigned ways = 2 + seed % 7;
        SrripPolicy policy(sets, ways);
        RefSrrip ref(sets, ways);
        runLockstep(policy, ref, seed, sets, ways, 96);
    }
}

TEST(ReplacementProperty, FactoryMatchesDirectConstructionUnderLoad)
{
    // The factory path (how SectoredCache builds its policy) must be
    // behaviorally identical to direct construction.
    for (auto kind : {ReplPolicyKind::kLru, ReplPolicyKind::kFifo,
                      ReplPolicyKind::kSrrip, ReplPolicyKind::kRandom}) {
        auto a = makeReplacementPolicy(kind, 2, 4, /* seed= */ 9);
        auto b = makeReplacementPolicy(kind, 2, 4, /* seed= */ 9);
        Xoshiro256 rng(31);
        for (unsigned way = 0; way < 4; ++way) {
            a->onInsert(0, way);
            b->onInsert(0, way);
        }
        for (unsigned op = 0; op < 200; ++op) {
            if (rng.below(2) == 0) {
                const unsigned way =
                    static_cast<unsigned>(rng.below(4));
                a->onHit(0, way);
                b->onHit(0, way);
            } else {
                const unsigned va = a->victim(0);
                ASSERT_EQ(va, b->victim(0))
                    << toString(kind) << " op " << op;
                a->onInsert(0, va);
                b->onInsert(0, va);
            }
        }
    }
}

} // namespace
} // namespace cachecraft
