/**
 * @file
 * The SM <-> L2-slice interconnect, modeled as a pipelined crossbar:
 * fixed traversal latency plus one-flit-per-cycle serialization at
 * each destination port. That captures the two effects that matter
 * here — added miss latency and per-slice bandwidth limits — without
 * a full NoC model.
 *
 * Two operating modes:
 *
 *   Immediate (default): send() arbitrates and schedules the delivery
 *   on the crossbar's own event queue right away — the single-queue
 *   behaviour unit tests and standalone components use.
 *
 *   Router (setRouter()): the crossbar is the only cross-domain edge
 *   of the domain/epoch engine. send() — called from the *sending*
 *   domain's event execution — only stages the message in a
 *   per-source-domain buffer. At every epoch barrier GpuSystem::run
 *   calls applyStaged(), which arbitrates all staged messages in
 *   canonical (send cycle, source domain, source seq) order and posts
 *   each to its destination port's domain queue via
 *   EventQueue::postMessage. The canonical order makes port
 *   arbitration, contention stats, and delivery times independent of
 *   the order in which domains were drained; the epoch length
 *   (<= crossbar latency) guarantees every delivery lands strictly in
 *   the destination's future.
 */

#ifndef CACHECRAFT_GPU_CROSSBAR_HPP
#define CACHECRAFT_GPU_CROSSBAR_HPP

#include <string>
#include <vector>

#include "common/domain.hpp"
#include "common/inplace_function.hpp"
#include "common/types.hpp"
#include "gpu/event_queue.hpp"
#include "stats/stats.hpp"

namespace cachecraft {

namespace telemetry {
class Telemetry;
} // namespace telemetry

/** One direction of the interconnect (requests or responses). */
class Crossbar
{
  public:
    /**
     * @param name     stat prefix
     * @param num_ports destination port count
     * @param latency  pipelined traversal latency in cycles
     */
    Crossbar(std::string name, unsigned num_ports, Cycle latency,
             EventQueue &events, StatRegistry *stats,
             telemetry::Telemetry *telemetry = nullptr);

    /**
     * Enter router mode (see file comment): @p port_queues maps each
     * destination port to its domain's event queue; @p num_domains is
     * the number of source domains that may call send(). Call once,
     * before any traffic.
     */
    void setRouter(std::vector<EventQueue *> port_queues,
                   unsigned num_domains);

    /**
     * Deliver @p fn at destination @p port after traversal latency,
     * respecting the port's one-per-cycle acceptance rate. In router
     * mode this stages the message for the next applyStaged().
     * @param trace_id lifecycle id for the flight recorder (0 = none)
     * @param response true on the response-direction crossbar
     */
    void send(unsigned port, SmallFn fn, std::uint64_t trace_id = 0,
              bool response = false);

    /**
     * Router mode, barrier-only: arbitrate every staged message in
     * canonical (send cycle, source domain, source seq) order and post
     * it to its destination domain queue. Called at every epoch
     * barrier, while all domains are parked.
     */
    void applyStaged();

    /** Router mode: any messages staged since the last applyStaged(). */
    bool hasStaged() const { return anyStaged(staged_); }

    /**
     * Deepest per-port backlog at cycle @p now, in flits (how far the
     * most contended port's next acceptance slot is in the future).
     */
    Cycle maxPortBacklog(Cycle now) const;

    Counter statFlits;
    Counter statContentionCycles;

  private:
    /** One staged router-mode message (per-source-domain lanes). */
    struct Staged
    {
        SmallFn fn;
        Cycle sent;
        std::uint64_t traceId;
        std::uint32_t port;
        bool response;
    };

    /** Arbitrate one message sent at @p sent for @p port and deliver
     *  @p fn (immediate mode: schedule; router mode via @p post). */
    void arbitrate(unsigned port, Cycle sent, std::uint64_t trace_id,
                   bool response, SmallFn fn, std::uint32_t src,
                   std::uint32_t seq);

    std::string name_;
    Cycle latency_;
    EventQueue &events_;
    telemetry::Telemetry *telemetry_;
    std::vector<Cycle> portFreeAt_;
    std::vector<EventQueue *> portQueues_;   //!< empty = immediate mode
    std::vector<StagedLane<Staged>> staged_; //!< per source domain
    std::vector<StagedKey> order_; //!< applyStaged scratch, reused
};

} // namespace cachecraft

#endif // CACHECRAFT_GPU_CROSSBAR_HPP
