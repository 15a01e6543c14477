#include "dram/dram_model.hpp"

#include "common/log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

DramChannel::DramChannel(std::string name, ChannelId id,
                         const AddressMap &map, const DramTiming &timing,
                         EventQueue &events, StatRegistry *stats,
                         telemetry::Telemetry *telemetry)
    : name_(std::move(name)), id_(id), map_(map), timing_(timing),
      events_(events), telemetry_(telemetry),
      banks_(map.geometry().numBanks)
{
    if (stats) {
        stats->registerCounter(name_ + ".reads", &statReads);
        stats->registerCounter(name_ + ".writes", &statWrites);
        stats->registerCounter(name_ + ".row_hits", &statRowHits);
        stats->registerCounter(name_ + ".row_misses_closed",
                               &statRowMissesClosed);
        stats->registerCounter(name_ + ".row_conflicts", &statRowConflicts);
        stats->registerCounter(name_ + ".busy_cycles", &statBusyCycles);
        stats->registerHistogram(name_ + ".queue_latency",
                                 &statQueueLatency);
    }
}

void
DramChannel::enqueue(DramRequest request)
{
    CC_HOST_ZONE("dram.enqueue");
    const DramCoord coord = map_.coordOf(id_, request.phys);
    const std::uint32_t slot = pending_.acquire(
        Pending{std::move(request), coord, events_.now()});
    queue_.push_back(QueueKey{coord.row, coord.bank, slot});
    if (!issueScheduled_) {
        issueScheduled_ = true;
        events_.scheduleAfter(0, [this] { tryIssue(); });
    }
}

std::size_t
DramChannel::busyBanks(Cycle now) const
{
    std::size_t busy = 0;
    for (const BankState &bank : banks_) {
        if (bank.readyAt > now)
            ++busy;
    }
    return busy;
}

std::size_t
DramChannel::pickNext() const
{
    // FR-FCFS over a bounded scheduler window (real controllers see
    // a finite transaction queue): the oldest request within the
    // window whose row is open in its bank wins; otherwise the oldest
    // request overall.
    const std::size_t window = std::min<std::size_t>(queue_.size(),
                                                     kSchedulerWindow);
    for (std::size_t i = 0; i < window; ++i) {
        const QueueKey &key = queue_[i];
        const BankState &bank = banks_[key.bank];
        if (bank.open && bank.openRow == key.row)
            return i;
    }
    return 0;
}

void
DramChannel::tryIssue()
{
    CC_HOST_ZONE("dram.try_issue");
    issueScheduled_ = false;
    if (queue_.empty())
        return;

    const Cycle now = events_.now();
    // The data bus is the serialization point: wait for it.
    if (busFreeAt_ > now) {
        issueScheduled_ = true;
        events_.schedule(busFreeAt_, [this] { tryIssue(); });
        return;
    }

    const std::size_t idx = pickNext();
    const std::uint32_t slot = queue_[idx].slot;
    queue_.erase(idx);
    // Served in place: arena slots never move, and this one is released
    // only after its completion has been scheduled.
    Pending &pending = pending_[slot];

    BankState &bank = banks_[pending.coord.bank];
    const Cycle bank_ready = std::max(now, bank.readyAt);
    Cycle cas_at;
    RowOutcome outcome;
    if (bank.open && bank.openRow == pending.coord.row) {
        statRowHits.inc();
        outcome = RowOutcome::kHit;
        cas_at = bank_ready;
    } else if (!bank.open) {
        statRowMissesClosed.inc();
        outcome = RowOutcome::kMissClosed;
        cas_at = bank_ready + timing_.tRcd;
    } else {
        statRowConflicts.inc();
        outcome = RowOutcome::kConflict;
        cas_at = bank_ready + timing_.tRp + timing_.tRcd;
    }
    bank.open = true;
    bank.openRow = pending.coord.row;

    const Cycle data_at = cas_at + timing_.tCas;
    const Cycle done_at = data_at + timing_.tBurst;
    // The bank can take its next CAS once this burst completes; writes
    // additionally hold the bank for write recovery.
    bank.readyAt = done_at + (pending.req.isWrite ? timing_.tWr : 0);
    busFreeAt_ = data_at + timing_.tBurst;
    statBusyCycles.inc(timing_.tBurst);

    if (pending.req.isWrite)
        statWrites.inc();
    else
        statReads.inc();

    const Cycle complete_at = done_at + timing_.tController;
    statQueueLatency.sample(complete_at - pending.arrival);
    CACHECRAFT_VERIFY_HOOK(onDramCompletion(now, complete_at));

    if (telemetry_) {
        if (auto *prof = telemetry_->profiler())
            prof->recordRowAccess(
                (static_cast<std::uint64_t>(id_) << 48) |
                (static_cast<std::uint64_t>(pending.coord.bank) << 32) |
                (pending.coord.row & 0xFFFFFFFFull));
    }

    // Flight records: the transfer record carries the queue wait (a)
    // and the bank/row penalty (b) so the analyzer can split
    // [arrival, complete) into queue / bank-row / fetch segments; the
    // done record pins the completion cycle. Both are written at issue
    // time — done_at is already known — so record order is not cycle
    // order (the analyzer pairs by id and flags, not position).
    if (telemetry_ && pending.req.traceId != 0) {
        if (auto *fr = telemetry_->recorder()) {
            const std::uint8_t flags = static_cast<std::uint8_t>(
                (static_cast<std::uint8_t>(outcome)
                 << telemetry::kFlagRowShift) |
                (pending.req.isEcc ? telemetry::kFlagEcc : 0) |
                (pending.req.isWrite ? telemetry::kFlagWrite : 0));
            fr->record(telemetry::RecordKind::kDramXfer,
                       pending.req.traceId, now, pending.req.phys,
                       static_cast<std::uint32_t>(now - pending.arrival),
                       static_cast<std::uint16_t>(
                           std::min<Cycle>(cas_at - now, 0xFFFF)),
                       flags);
            fr->record(telemetry::RecordKind::kDramDone,
                       pending.req.traceId, complete_at,
                       pending.req.phys, 0, 0, flags);
        }
    }

    if (pending.req.onComplete)
        events_.schedule(complete_at, std::move(pending.req.onComplete));
    pending_.release(slot);

    if (!queue_.empty()) {
        issueScheduled_ = true;
        events_.schedule(busFreeAt_, [this] { tryIssue(); });
    }
}

DramSystem::DramSystem(const AddressMap &map, const DramTiming &timing,
                       EventQueue &events, StatRegistry *stats,
                       telemetry::Telemetry *telemetry)
    : map_(map)
{
    const unsigned n = map.geometry().numChannels;
    channels_.reserve(n);
    storage_.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        channels_.push_back(std::make_unique<DramChannel>(
            strCat("dram.ch", c), static_cast<ChannelId>(c), map, timing,
            events, stats, telemetry));
    }
}

void
DramSystem::readBytes(ChannelId channel, Addr phys,
                      std::span<std::uint8_t> out) const
{
    storage_[channel].read(phys, out);
}

void
DramSystem::writeBytes(ChannelId channel, Addr phys,
                       std::span<const std::uint8_t> in)
{
    storage_[channel].write(phys, in);
}

void
DramSystem::flipBit(ChannelId channel, Addr phys, unsigned bit)
{
    storage_[channel].flipBit(phys, bit);
}

double
DramSystem::rowHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const auto &ch : channels_) {
        hits += ch->statRowHits.value();
        total += ch->statRowHits.value() +
                 ch->statRowMissesClosed.value() +
                 ch->statRowConflicts.value();
    }
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
DramSystem::totalTransactions() const
{
    std::uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch->statReads.value() + ch->statWrites.value();
    return total;
}

} // namespace cachecraft
