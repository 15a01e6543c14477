/**
 * @file
 * Execution-domain context for the domain/epoch engine.
 *
 * The engine partitions the machine into fixed *domains* — one per
 * SM and one per L2-slice/DRAM-channel pair — whose events share one
 * event queue (see GpuSystem::run). Every queued event carries the
 * domain that scheduled it, and the queue sets tlsSimDomain to that
 * domain while the event runs, so cross-cutting facilities can act on
 * the caller's behalf without threading a context parameter through
 * every component:
 *
 *   - the crossbar router records the sending domain of every message
 *     it stages, for the barrier's canonical (cycle, domain) merge,
 *   - slab arenas (debug builds) assert that per-domain bundles are
 *     never touched from a foreign domain.
 *
 * Outside domain execution — construction, epoch barriers, unit tests
 * driving components directly — the domain is kDomainNone and every
 * consumer falls back to its immediate behaviour. Code that schedules
 * a domain's first events from outside (SmCore::start, the end-of-run
 * L2 flush) enters that domain with ScopedSimDomain, so the events are
 * stamped with their owner.
 *
 * This header holds only that context. Work staged for an epoch
 * barrier lives with its owner: the crossbar's one staging vector and
 * GpuSystem's pending store commits.
 */

#ifndef CACHECRAFT_COMMON_DOMAIN_HPP
#define CACHECRAFT_COMMON_DOMAIN_HPP

#include <cstdint>

namespace cachecraft {

/** Sentinel: not executing inside any engine domain. */
inline constexpr std::int32_t kDomainNone = -1;

/** Domain ids must fit the event queue's 16-bit per-event stamp. */
inline constexpr std::int32_t kMaxDomains = 0x7FFF;

/** The domain whose events this thread is currently executing. */
inline thread_local std::int32_t tlsSimDomain = kDomainNone;

/** RAII: enter a domain for the current scope (nestable, restoring). */
class ScopedSimDomain
{
  public:
    explicit ScopedSimDomain(std::int32_t domain)
        : prevDomain_(tlsSimDomain)
    {
        tlsSimDomain = domain;
    }

    ~ScopedSimDomain() { tlsSimDomain = prevDomain_; }

    ScopedSimDomain(const ScopedSimDomain &) = delete;
    ScopedSimDomain &operator=(const ScopedSimDomain &) = delete;

  private:
    std::int32_t prevDomain_;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_DOMAIN_HPP
