/**
 * @file
 * Worker pool and verify-hook serialization for the sharded engine.
 *
 * A sharded run executes its fixed domain decomposition (one domain
 * per SM, one per L2-slice/DRAM-channel pair; see core/gpu_system.cpp)
 * epoch by epoch: the leader publishes one task per runnable domain,
 * each domain is drained up to the epoch boundary by the thread it is
 * pinned to (domain d on thread d % threads), and everyone meets at a
 * barrier where the leader does the (serial, canonical) cross-domain
 * work. Domain-to-thread assignment is by domain *id*, never by
 * arrival order or by the runnable set, so the work a thread performs
 * — though not its interleaving with other threads — is the same
 * every run. Determinism never depends on this pool: all
 * cross-domain communication flows through canonically ordered barrier
 * merges (crossbar router, store staging).
 *
 * ShardPool(1) spawns no threads and runs tasks inline on the caller,
 * which is exactly the --shards 1 execution mode.
 */

#ifndef CACHECRAFT_CORE_SHARD_EXEC_HPP
#define CACHECRAFT_CORE_SHARD_EXEC_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/host_profiler.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

/**
 * Thread-safe shim over a verify::Listener. A sharded run executes
 * domains concurrently, but the checkers behind the hooks (golden
 * oracle, invariant checker) are single-threaded objects — so each
 * worker installs this wrapper, which funnels every hook through one
 * mutex into the listener the caller had active. Hook *content* stays
 * deterministic (each hook fires from exactly one domain's execution);
 * only the cross-domain arrival order varies, which the checkers
 * tolerate by design (they judge per-address / per-component state).
 */
class SerializedListener final : public verify::Listener
{
  public:
    explicit SerializedListener(verify::Listener *inner) : inner_(inner) {}

    void
    onInitSector(Addr sector, const std::uint8_t *data,
                 std::uint8_t tag) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onInitSector(sector, data, tag);
    }
    void
    onWriteSector(Addr sector, const std::uint8_t *data,
                  std::uint8_t tag) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onWriteSector(sector, data, tag);
    }
    void
    onDecodeSector(Addr sector, std::uint8_t tag, std::uint8_t status,
                   const std::uint8_t *data, bool from_shadow) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDecodeSector(sector, tag, status, data, from_shadow);
    }
    void
    onMrcResidentCheck(Addr sector, std::uint8_t tag,
                       const std::uint8_t *check) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMrcResidentCheck(sector, tag, check);
    }
    void
    onDrainResidue(const char *component, std::uint64_t count) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDrainResidue(component, count);
    }
    void
    onCacheLineState(const char *cache, Addr line, std::uint8_t valid_mask,
                     std::uint8_t dirty_mask) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onCacheLineState(cache, line, valid_mask, dirty_mask);
    }
    void
    onMshrAllocated(const char *mshr, std::uint64_t size,
                    std::uint64_t capacity) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMshrAllocated(mshr, size, capacity);
    }
    void
    onMshrRelease(const char *mshr, Addr line, bool present) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onMshrRelease(mshr, line, present);
    }
    void
    onClockAdvance(Cycle from, Cycle to) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onClockAdvance(from, to);
    }
    void
    onDramCompletion(Cycle now, Cycle complete_at) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inner_->onDramCompletion(now, complete_at);
    }

  private:
    verify::Listener *inner_;
    std::mutex mutex_;
};

/**
 * Persistent fork/join pool for epoch execution, with static domain
 * affinity. The owning thread (the leader) calls run() once per epoch
 * with the runnable domain ids; domain d always executes on thread
 * d % threads(), the leader being thread 0, so a domain's queue, arena
 * and staging lanes stay in one core's cache however the runnable set
 * changes. run() returns only after every domain finished (the epoch
 * barrier's entry edge).
 *
 * An epoch is about twenty events, far shorter than a futex sleep and
 * wake, so the handoff spins first: the leader publishes an epoch by
 * bumping an atomic generation word; helpers spin on it for a short
 * bounded budget before blocking in std::atomic::wait, and the leader
 * calls notify only when some helper is blocked, so a busy run makes
 * no system call per epoch. Each helper counts an atomic countdown
 * down when its share is done; the leader spins on it, then yields.
 * The thread count is clamped to the hardware thread count, because a
 * spinning handoff on an oversubscribed machine waits for descheduled
 * threads.
 */
class ShardPool
{
  public:
    /** Drain domain @p d of the current epoch. */
    using TaskFn = std::function<void(std::uint32_t)>;

    explicit ShardPool(unsigned threads)
        : threads_(std::clamp(threads, 1u, hardwareThreads()))
    {
        workers_.reserve(threads_ - 1);
        for (unsigned w = 1; w < threads_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    ~ShardPool()
    {
        stop_ = true;
        generation_.value.fetch_add(1, std::memory_order_seq_cst);
        generation_.value.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    unsigned threads() const { return threads_; }

    /**
     * Verify listener helper threads install while executing tasks
     * (they start with none). Pass the SerializedListener wrapping the
     * caller's active listener, or null. Set before run().
     */
    void setListener(verify::Listener *listener) { listener_ = listener; }

    /**
     * Execute fn(d) for every d in @p domains, domain d on thread
     * d % threads(). Blocks until all tasks completed. @p domains and
     * @p fn must stay unchanged for the whole call. An epoch with a
     * single domain, or with none on a helper thread, runs inline on
     * the leader without waking the helpers.
     */
    void
    run(const std::vector<std::uint32_t> &domains, const TaskFn &fn)
    {
        const bool helpers_busy =
            threads_ > 1 && domains.size() > 1 &&
            std::any_of(domains.begin(), domains.end(),
                        [this](std::uint32_t d) { return d % threads_; });
        if (!helpers_busy) {
            for (const std::uint32_t d : domains)
                fn(d);
            return;
        }
        fn_ = &fn;
        domains_ = &domains;
        pending_.value.store(threads_ - 1, std::memory_order_relaxed);
        // seq_cst pairs with the helper's sleepers_ increment: either
        // the leader sees the sleeper and notifies, or the sleeper's
        // recheck sees the new generation.
        generation_.value.fetch_add(1, std::memory_order_seq_cst);
        if (sleepers_.value.load(std::memory_order_seq_cst) != 0)
            generation_.value.notify_all();
        runShare(0, domains, fn);
        CC_HOST_ZONE("shard.wait");
        for (unsigned spin = 0;
             pending_.value.load(std::memory_order_acquire) != 0; ++spin) {
            if (spin < kSpinBudget)
                cpuRelax();
            else
                std::this_thread::yield();
        }
    }

  private:
    /** Handoff spin iterations before blocking (helpers) or yielding
     *  (leader): ~5 us at ~20 ns per pause, a few epochs' worth of
     *  work. Longer spins keep descheduled threads of an
     *  oversubscribed machine waiting for the spinners' cores (2048
     *  iterations ran two concurrent 4-shard runs on 4 cores ~1.8x
     *  slower than blocking at once). */
    static constexpr unsigned kSpinBudget = 256;

    /** An atomic alone on its cache line. */
    template <class T>
    struct alignas(64) Padded
    {
        std::atomic<T> value{0};
    };

    static unsigned
    hardwareThreads()
    {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    void
    runShare(unsigned worker, const std::vector<std::uint32_t> &domains,
             const TaskFn &fn) const
    {
        for (const std::uint32_t d : domains) {
            if (d % threads_ == worker)
                fn(d);
        }
    }

    /** Wait for the generation to move past @p seen; returns it. */
    std::uint32_t
    awaitGeneration(std::uint32_t seen)
    {
        for (unsigned spin = 0; spin < kSpinBudget; ++spin) {
            const std::uint32_t gen =
                generation_.value.load(std::memory_order_acquire);
            if (gen != seen)
                return gen;
            cpuRelax();
        }
        sleepers_.value.fetch_add(1, std::memory_order_seq_cst);
        std::uint32_t gen;
        while ((gen = generation_.value.load(std::memory_order_seq_cst)) ==
               seen)
            generation_.value.wait(seen, std::memory_order_seq_cst);
        sleepers_.value.fetch_sub(1, std::memory_order_relaxed);
        return gen;
    }

    void
    workerLoop(unsigned worker)
    {
        std::uint32_t seen = 0;
        while (true) {
            seen = awaitGeneration(seen);
            if (stop_)
                return;
            {
                verify::ScopedListener scoped(listener_);
                runShare(worker, *domains_, *fn_);
            }
            pending_.value.fetch_sub(1, std::memory_order_acq_rel);
        }
    }

    unsigned threads_;
    verify::Listener *listener_ = nullptr;
    // Published by the leader before each generation bump, read by the
    // helpers after seeing it; unchanged until the countdown hits zero.
    const TaskFn *fn_ = nullptr;
    const std::vector<std::uint32_t> *domains_ = nullptr;
    bool stop_ = false;
    Padded<std::uint32_t> generation_;
    Padded<unsigned> pending_;   //!< helpers still running this epoch
    Padded<unsigned> sleepers_;  //!< helpers blocked in wait()
    std::vector<std::thread> workers_; //!< last: joined before the rest
};

} // namespace cachecraft

#endif // CACHECRAFT_CORE_SHARD_EXEC_HPP
