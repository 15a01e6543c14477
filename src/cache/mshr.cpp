#include "cache/mshr.hpp"

#include "verify/verify.hpp"

namespace cachecraft {

MshrFile::MshrFile(std::string name, std::size_t capacity,
                   StatRegistry *stats)
    : name_(std::move(name)), capacity_(capacity)
{
    entries_.reserve(capacity_);
    if (stats) {
        stats->registerCounter(name_ + ".allocations", &statAllocations);
        stats->registerCounter(name_ + ".merges", &statMerges);
        stats->registerCounter(name_ + ".stalls", &statStalls);
    }
}

MshrFile::AllocOutcome
MshrFile::allocate(Addr line_addr, std::uint8_t sector_mask,
                   SmallFn &&waiter)
{
    Entry *entry = nullptr;
    bool fresh = false;
    if (entries_.size() < capacity_) {
        auto [slot, inserted] = entries_.tryEmplace(line_addr);
        entry = &slot;
        fresh = inserted;
    } else {
        entry = entries_.find(line_addr);
        if (!entry) {
            statStalls.inc();
            return AllocOutcome::kFull;
        }
    }
    if (waiter)
        waiters_.pushBack(entry->waiters, std::move(waiter));
    if (!fresh) {
        statMerges.inc();
        if ((entry->sectorMask & sector_mask) == sector_mask)
            return AllocOutcome::kMergedExisting;
        entry->sectorMask |= sector_mask;
        return AllocOutcome::kMergedNewSector;
    }
    entry->sectorMask = sector_mask;
    statAllocations.inc();
    CACHECRAFT_VERIFY_HOOK(
        onMshrAllocated(name_.c_str(), entries_.size(), capacity_));
    return AllocOutcome::kNewEntry;
}

bool
MshrFile::contains(Addr line_addr) const
{
    return entries_.find(line_addr) != nullptr;
}

std::uint8_t
MshrFile::requestedSectors(Addr line_addr) const
{
    const Entry *entry = entries_.find(line_addr);
    return entry ? entry->sectorMask : 0;
}

MshrFile::Waiters
MshrFile::release(Addr line_addr)
{
    std::optional<Entry> entry = entries_.extract(line_addr);
    CACHECRAFT_VERIFY_HOOK(
        onMshrRelease(name_.c_str(), line_addr, entry.has_value()));
    return entry ? entry->waiters : Waiters{};
}

} // namespace cachecraft
