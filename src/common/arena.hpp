/**
 * @file
 * Slab arenas for in-flight memory-request state.
 *
 * Every read that fans out (data sector + check field) used to park its
 * join state in a std::make_shared control block, and every callback
 * too big for SmallFn's inline buffer forced a std::function heap
 * allocation. A SlabArena keeps that state in chunked, recycled
 * storage addressed by 4-byte handles: acquire() pops a free slot,
 * release() pushes it back, and nothing hits the allocator after the
 * arena warms up.
 *
 * Handle values never influence simulation results — they are host-side
 * bookkeeping — but reset() still re-threads the free list into a
 * canonical order so a reused arena behaves exactly like a fresh one
 * (the campaign runner shares one arena per worker thread across
 * points and byte-compares the resulting reports).
 */

#ifndef CACHECRAFT_COMMON_ARENA_HPP
#define CACHECRAFT_COMMON_ARENA_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/domain.hpp"
#include "common/inplace_function.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace cachecraft {

/** Chunked free-list arena handing out uint32 handles to T slots. */
template <class T>
class SlabArena
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle kNull = 0xFFFFFFFFu;

    SlabArena() = default;
    SlabArena(const SlabArena &) = delete;
    SlabArena &operator=(const SlabArena &) = delete;
    ~SlabArena() { destroyLive(); }

    /**
     * Bind this arena to one engine domain (debug builds): any
     * acquire/release from a *different* domain's event execution
     * panics, so cross-domain allocation — which would silently skew
     * the per-domain arenaPeakSlots metric — is caught
     * deterministically. Calls from outside domain execution (construction,
     * barriers, unit tests: tlsSimDomain == kDomainNone) are always
     * allowed. No-op under NDEBUG.
     */
    void
    setDebugOwner(std::int32_t domain)
    {
#ifndef NDEBUG
        debugOwner_ = domain;
#else
        (void)domain;
#endif
    }

    /** Move @p value into a free slot and return its handle. */
    Handle
    acquire(T &&value)
    {
        checkOwner();
        if (freeList_.empty())
            grow();
        const Handle h = freeList_.back();
        freeList_.pop_back();
        ::new (static_cast<void *>(slotStorage(h)))
            T(std::move(value));
        live_[h] = 1;
        ++liveCount_;
        if (liveCount_ > peakLive_)
            peakLive_ = liveCount_;
        return h;
    }

    T &
    operator[](Handle h)
    {
        if (h >= live_.size() || !live_[h])
            panic("SlabArena access to a dead or out-of-range handle");
        return *slotPtr(h);
    }

    const T &
    operator[](Handle h) const
    {
        if (h >= live_.size() || !live_[h])
            panic("SlabArena access to a dead or out-of-range handle");
        return *slotPtr(h);
    }

    /** Destroy the slot's value and recycle the handle. */
    void
    release(Handle h)
    {
        checkOwner();
        if (h >= live_.size() || !live_[h])
            panic("SlabArena double release or out-of-range handle");
        slotPtr(h)->~T();
        live_[h] = 0;
        --liveCount_;
        freeList_.push_back(h);
    }

    /**
     * Destroy any live values and restore the canonical free-list
     * order, keeping the chunk storage for reuse. After reset() the
     * arena is observationally identical to a freshly constructed one
     * that happens to have capacity() slots pre-grown.
     */
    void
    reset()
    {
        destroyLive();
        freeList_.clear();
        const std::size_t total = live_.size();
        freeList_.reserve(total);
        for (std::size_t i = total; i-- > 0;)
            freeList_.push_back(static_cast<Handle>(i));
        std::fill(live_.begin(), live_.end(), std::uint8_t{0});
        liveCount_ = 0;
        peakLive_ = 0;
    }

    std::size_t liveCount() const { return liveCount_; }
    std::size_t capacity() const { return live_.size(); }
    /** High-water live-slot mark since construction or reset(). */
    std::size_t peakLive() const { return peakLive_; }

  private:
    static constexpr std::size_t kChunkSlots = 256;

    void
    checkOwner() const
    {
#ifndef NDEBUG
        if (debugOwner_ != kDomainNone && tlsSimDomain != kDomainNone &&
            tlsSimDomain != debugOwner_)
            panic("SlabArena touched from a foreign engine domain");
#endif
    }

    struct Slot
    {
        alignas(T) unsigned char storage[sizeof(T)];
    };

    unsigned char *
    slotStorage(Handle h)
    {
        return chunks_[h / kChunkSlots][h % kChunkSlots].storage;
    }

    T *
    slotPtr(Handle h)
    {
        return std::launder(reinterpret_cast<T *>(slotStorage(h)));
    }

    const T *
    slotPtr(Handle h) const
    {
        return std::launder(reinterpret_cast<const T *>(
            chunks_[h / kChunkSlots][h % kChunkSlots].storage));
    }

    void
    grow()
    {
        const std::size_t base = live_.size();
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
        live_.resize(base + kChunkSlots, 0);
        freeList_.reserve(freeList_.size() + kChunkSlots);
        for (std::size_t i = kChunkSlots; i-- > 0;)
            freeList_.push_back(static_cast<Handle>(base + i));
    }

    void
    destroyLive()
    {
        if (liveCount_ == 0)
            return;
        for (std::size_t h = 0; h < live_.size(); ++h) {
            if (live_[h])
                slotPtr(static_cast<Handle>(h))->~T();
        }
    }

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<std::uint8_t> live_;
    std::vector<Handle> freeList_; //!< LIFO; back() is handed out next
    std::size_t liveCount_ = 0;
    std::size_t peakLive_ = 0;
#ifndef NDEBUG
    std::int32_t debugOwner_ = kDomainNone;
#endif
};

/**
 * Join state for a sector read that fans out into multiple DRAM
 * transactions (data + check field). The last transaction to land
 * decodes and fires `done`. MemTag travels as its underlying bits so
 * this header stays free of protect/ dependencies.
 */
struct PendingRead
{
    FetchFn done;
    Addr logical = 0;
    std::uint64_t traceId = 0;
    std::uint16_t tagBits = 0;
    std::uint8_t remaining = 0;
    bool fromShadow = false;
};

/** An L2 response waiting to cross back to its SM port. */
struct PendingResponse
{
    SmallFn done;
    std::uint32_t port = 0;
};

/**
 * One engine domain's arena bundle. Every slab is owned by exactly one
 * domain (an SM or an L2-slice/channel pair) and only that domain's
 * event execution may allocate or release from it, so each slab's
 * high-water mark is a single-domain figure. setDebugOwner() arms the
 * per-slab debug assert.
 */
struct EngineArenas
{
    SlabArena<SmallFn> parked;      //!< oversized void() continuations
    SlabArena<PendingRead> reads;   //!< sector-read join state
    SlabArena<PendingResponse> responses; //!< L2→SM response hops

    void
    reset()
    {
        parked.reset();
        reads.reset();
        responses.reset();
    }

    /** Bind all three slabs to @p domain (debug builds; see SlabArena). */
    void
    setDebugOwner(std::int32_t domain)
    {
        parked.setDebugOwner(domain);
        reads.setDebugOwner(domain);
        responses.setDebugOwner(domain);
    }

    /** Combined high-water mark across the three slabs (slots, not
     *  bytes — a cheap, deterministic footprint proxy per point). */
    std::size_t
    peakLiveTotal() const
    {
        return parked.peakLive() + reads.peakLive() +
               responses.peakLive();
    }
};

/**
 * The per-simulation arena set: one EngineArenas bundle per engine
 * domain, grown on demand. GpuSystem owns one by default; the campaign
 * runner injects a per-worker pool that is reset between points so
 * slab storage survives across the whole campaign. Bundle addresses
 * are stable once created (unique_ptr indirection), so components may
 * hold EngineArenas* across the run.
 */
class EngineArenaPool
{
  public:
    EngineArenaPool() = default;
    EngineArenaPool(const EngineArenaPool &) = delete;
    EngineArenaPool &operator=(const EngineArenaPool &) = delete;

    /** The bundle owned by domain @p d, created on first use. */
    EngineArenas &
    forDomain(std::size_t d)
    {
        while (bundles_.size() <= d)
            bundles_.push_back(std::make_unique<EngineArenas>());
        return *bundles_[d];
    }

    std::size_t numDomains() const { return bundles_.size(); }

    /** Reset every bundle (between campaign points). */
    void
    reset()
    {
        for (auto &b : bundles_)
            b->reset();
    }

    /**
     * Sum of every domain bundle's peakLiveTotal(). Each addend is a
     * single-domain high-water mark, so the metric stays meaningful
     * per domain.
     */
    std::size_t
    peakLiveTotal() const
    {
        std::size_t total = 0;
        for (const auto &b : bundles_)
            total += b->peakLiveTotal();
        return total;
    }

  private:
    std::vector<std::unique_ptr<EngineArenas>> bundles_;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_ARENA_HPP
