#include "gpu/crossbar.hpp"

#include <algorithm>

#include "common/domain.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace cachecraft {

Crossbar::Crossbar(std::string name, unsigned num_ports, Cycle latency,
                   EventQueue &events, StatRegistry *stats,
                   telemetry::Telemetry *telemetry)
    : name_(std::move(name)), latency_(latency), events_(events),
      telemetry_(telemetry), portFreeAt_(num_ports, 0)
{
    if (stats) {
        stats->registerCounter(name_ + ".flits", &statFlits);
        stats->registerCounter(name_ + ".contention_cycles",
                               &statContentionCycles);
    }
}

void
Crossbar::setRouter(std::vector<EventQueue *> port_queues,
                    unsigned num_domains)
{
    if (port_queues.size() != portFreeAt_.size())
        panic("crossbar router needs one destination queue per port");
    portQueues_ = std::move(port_queues);
    staged_.resize(num_domains);
}

void
Crossbar::arbitrate(unsigned port, Cycle sent, std::uint64_t trace_id,
                    bool response, SmallFn fn, std::uint32_t src,
                    std::uint32_t seq)
{
    statFlits.inc();
    const Cycle accept_at = std::max(sent, portFreeAt_[port]);
    statContentionCycles.inc(accept_at - sent);
    if (telemetry_) {
        if (auto *fr = telemetry_->recorder(); fr && trace_id != 0)
            fr->record(telemetry::RecordKind::kXbarHop, trace_id, sent,
                       port,
                       static_cast<std::uint32_t>(accept_at - sent),
                       static_cast<std::uint16_t>(
                           std::min<Cycle>(latency_, 0xFFFF)),
                       response ? telemetry::kFlagResponse : 0);
    }
    portFreeAt_[port] = accept_at + 1;
    if (portQueues_.empty()) {
        events_.schedule(accept_at + latency_, std::move(fn));
        return;
    }
    // Router delivery: never at or before the send cycle, so a
    // zero-latency crossbar still delivers strictly in the receiving
    // domain's future (identical to immediate mode for latency >= 1).
    const Cycle deliver_at =
        std::max(accept_at + latency_, sent + 1);
    portQueues_[port]->postMessage(deliver_at, sent, src, seq,
                                   std::move(fn));
}

void
Crossbar::send(unsigned port, SmallFn fn, std::uint64_t trace_id,
               bool response)
{
    if (portQueues_.empty()) {
        arbitrate(port, events_.now(), trace_id, response, std::move(fn),
                  0, 0);
        return;
    }
    // Router mode: stage under the sending domain; the barrier merges
    // canonically.
    if (tlsSimDomain < 0 ||
        static_cast<std::size_t>(tlsSimDomain) >= staged_.size())
        panic("router-mode crossbar send outside an engine domain");
    staged_[static_cast<std::size_t>(tlsSimDomain)].items.push_back(
        Staged{std::move(fn), tlsSimQueue->now(), trace_id, port,
               response});
}

void
Crossbar::applyStaged()
{
    // Canonical merge: (send cycle, source domain, source seq). Within
    // one lane entries are already in send order, so the sort key is a
    // total order over all staged messages.
    applyStagedInOrder(
        staged_, order_, [](const Staged &m) { return m.sent; },
        [this](Staged &m, const StagedKey &r) {
            arbitrate(m.port, m.sent, m.traceId, m.response,
                      std::move(m.fn), r.domain, r.index);
        });
}

Cycle
Crossbar::maxPortBacklog(Cycle now) const
{
    Cycle deepest = 0;
    for (const Cycle free_at : portFreeAt_) {
        if (free_at > now)
            deepest = std::max(deepest, free_at - now);
    }
    return deepest;
}

} // namespace cachecraft
