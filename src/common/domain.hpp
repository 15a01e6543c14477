/**
 * @file
 * Execution-domain context for the domain/epoch engine.
 *
 * The engine partitions the machine into fixed *domains* — one per
 * SM and one per L2-slice/DRAM-channel pair — each with a private
 * event queue (see GpuSystem::run). While a domain's events are
 * being executed, these thread-locals identify the domain and its
 * queue, so cross-cutting facilities can act on the caller's behalf
 * without threading a context parameter through every component:
 *
 *   - the crossbar router stages outbound messages under the sending
 *     domain's canonical (cycle, domain, seq) key,
 *   - slab arenas (debug builds) assert that per-domain bundles are
 *     never touched from a foreign domain.
 *
 * Outside domain execution — construction, epoch barriers, unit tests
 * driving components directly — the domain is kDomainNone and every
 * consumer falls back to its immediate behaviour.
 */

#ifndef CACHECRAFT_COMMON_DOMAIN_HPP
#define CACHECRAFT_COMMON_DOMAIN_HPP

#include <algorithm>
#include <compare>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace cachecraft {

class EventQueue;

/** Sentinel: not executing inside any engine domain. */
inline constexpr std::int32_t kDomainNone = -1;

/** The domain whose events this thread is currently executing. */
inline thread_local std::int32_t tlsSimDomain = kDomainNone;

/** The event queue of the currently executing domain (null outside). */
inline thread_local EventQueue *tlsSimQueue = nullptr;

/**
 * Canonical merge key of one item a domain staged for the next epoch
 * barrier: (cycle, source domain, index in that domain's lane). The
 * barrier applies staged items sorted by it, so the result does not
 * depend on the order in which domains were drained.
 */
struct StagedKey
{
    Cycle cycle;
    std::uint32_t domain;
    std::uint32_t index;

    auto operator<=>(const StagedKey &) const = default;
};

/** One source domain's staging lane. */
template <class T>
struct StagedLane
{
    std::vector<T> items;
};

/** True if any lane holds a staged item. */
template <class T>
bool
anyStaged(const std::vector<StagedLane<T>> &lanes)
{
    return std::any_of(lanes.begin(), lanes.end(),
                       [](const StagedLane<T> &l) { return !l.items.empty(); });
}

/**
 * Barrier-only canonical merge: call apply(item, key) for every staged
 * item in StagedKey order, where cycle_of(item) is the key's cycle,
 * then empty the lanes. @p order is reusable sort scratch.
 */
template <class T, class CycleOf, class Apply>
void
applyStagedInOrder(std::vector<StagedLane<T>> &lanes,
                   std::vector<StagedKey> &order, CycleOf cycle_of,
                   Apply apply)
{
    order.clear();
    for (std::uint32_t d = 0; d < lanes.size(); ++d) {
        for (std::uint32_t i = 0; i < lanes[d].items.size(); ++i)
            order.push_back(StagedKey{cycle_of(lanes[d].items[i]), d, i});
    }
    if (order.empty())
        return;
    std::sort(order.begin(), order.end());
    for (const StagedKey &r : order)
        apply(lanes[r.domain].items[r.index], r);
    for (auto &lane : lanes)
        lane.items.clear();
}

/** RAII: enter a domain for the current scope (nestable, restoring). */
class ScopedSimDomain
{
  public:
    ScopedSimDomain(std::int32_t domain, EventQueue *queue)
        : prevDomain_(tlsSimDomain), prevQueue_(tlsSimQueue)
    {
        tlsSimDomain = domain;
        tlsSimQueue = queue;
    }

    ~ScopedSimDomain()
    {
        tlsSimDomain = prevDomain_;
        tlsSimQueue = prevQueue_;
    }

    ScopedSimDomain(const ScopedSimDomain &) = delete;
    ScopedSimDomain &operator=(const ScopedSimDomain &) = delete;

  private:
    std::int32_t prevDomain_;
    EventQueue *prevQueue_;
};

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_DOMAIN_HPP
