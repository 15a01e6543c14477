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
Crossbar::setRouter(std::vector<std::int32_t> port_domains,
                    unsigned num_domains)
{
    if (port_domains.size() != portFreeAt_.size())
        panic("crossbar router needs one destination domain per port");
    portDomains_ = std::move(port_domains);
    numDomains_ = num_domains;
}

void
Crossbar::arbitrate(unsigned port, Cycle sent, std::uint64_t trace_id,
                    bool response, SmallFn &&fn, std::uint32_t src,
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
    if (portDomains_.empty()) {
        events_.schedule(accept_at + latency_, std::move(fn));
        return;
    }
    // Router delivery: never at or before the send cycle, so a
    // zero-latency crossbar still delivers strictly in the queue's
    // future (identical to immediate mode for latency >= 1).
    const Cycle deliver_at =
        std::max(accept_at + latency_, sent + 1);
    events_.postMessage(deliver_at, sent, src, seq, portDomains_[port],
                        std::move(fn));
}

void
Crossbar::send(unsigned port, SmallFn fn, std::uint64_t trace_id,
               bool response)
{
    if (portDomains_.empty()) {
        arbitrate(port, events_.now(), trace_id, response, std::move(fn),
                  0, 0);
        return;
    }
    // Router mode: stage with the sending domain; the barrier merges
    // canonically.
    if (tlsSimDomain < 0 ||
        static_cast<unsigned>(tlsSimDomain) >= numDomains_)
        panic("router-mode crossbar send outside an engine domain");
    staged_.emplace_back(std::move(fn), events_.now(), trace_id, port,
                         static_cast<std::uint32_t>(tlsSimDomain), response);
}

void
Crossbar::applyStaged()
{
    // Canonical merge: (send cycle, source domain, staging index).
    // staged_ is in execution order, i.e. send-cycle order, so only
    // same-cycle messages of different domains are out of place and an
    // insertion sort costs O(n + inversions), allocating nothing.
    order_.clear();
    for (std::uint32_t i = 0; i < staged_.size(); ++i)
        order_.push_back(StagedKey{staged_[i].sent, staged_[i].domain, i});
    for (std::size_t i = 1; i < order_.size(); ++i) {
        const StagedKey key = order_[i];
        std::size_t j = i;
        for (; j > 0 && key < order_[j - 1]; --j)
            order_[j] = order_[j - 1];
        order_[j] = key;
    }
    for (const StagedKey &k : order_) {
        Staged &m = staged_[k.index];
        arbitrate(m.port, m.sent, m.traceId, m.response, std::move(m.fn),
                  k.domain, k.index);
    }
    staged_.clear();
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
