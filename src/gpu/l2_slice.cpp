#include "gpu/l2_slice.hpp"

#include "common/log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/reuse_dist.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

L2Slice::L2Slice(std::string name, SliceId id, const L2SliceParams &params,
                 EventQueue &events,
                 std::unique_ptr<ProtectionScheme> scheme,
                 ArchReadFn arch_read, TagFn tag_of, StatRegistry *stats,
                 telemetry::Telemetry *telemetry, EngineArenas *arenas)
    : name_(std::move(name)), id_(id), params_(params), events_(events),
      scheme_(std::move(scheme)), archRead_(std::move(arch_read)),
      tagOf_(std::move(tag_of)), telemetry_(telemetry),
      ownedArenas_(arenas ? nullptr : std::make_unique<EngineArenas>()),
      arenas_(arenas ? arenas : ownedArenas_.get()),
      cache_(name_ + ".cache", params.cache, stats),
      mshrs_(name_ + ".mshr", params.mshrEntries, stats)
{
    if (stats) {
        stats->registerCounter(name_ + ".reads", &statReads);
        stats->registerCounter(name_ + ".writes", &statWrites);
        stats->registerCounter(name_ + ".mshr_stall_retries",
                               &statMshrStallRetries);
        stats->registerCounter(name_ + ".prefetch_fetches",
                               &statPrefetchFetches);
    }
    if (telemetry_) {
        if (auto *rp = telemetry_->reuse()) {
            telemetry::ReuseGeometry geom;
            geom.numSets = cache_.numSets();
            geom.numWays = cache_.numWays();
            geom.lineBytes = cache_.params().lineBytes;
            geom.sectorsPerLine = cache_.sectorsPerLine();
            cache_.setObserver(rp->attach(cache_.name(), "l2", geom));
        }
    }
}

Cycle
L2Slice::serviceSlot()
{
    const Cycle now = events_.now();
    const Cycle slot = std::max(now, nextServiceAt_);
    nextServiceAt_ = slot + 1;
    return slot;
}

void
L2Slice::handleEviction(const std::optional<Eviction> &ev)
{
    if (!ev || !ev->dirtyMask)
        return;
    // Write back every dirty sector of the victim line through the
    // protection scheme (posted).
    for (std::size_t s = 0; s < kSectorsPerLine; ++s) {
        if (!(ev->dirtyMask & (1u << s)))
            continue;
        const Addr sector = ev->lineAddr + s * kSectorBytes;
        scheme_->writeSector(sector, archRead_(sector), tagOf_(sector));
    }
}

void
L2Slice::read(Addr sector_addr, ecc::MemTag expected_tag, SmallFn done,
              std::uint64_t trace_id)
{
    CC_HOST_ZONE("l2.read");
    statReads.inc();
    if (telemetry_) {
        if (auto *prof = telemetry_->profiler())
            prof->recordSectorAccess(sector_addr);
    }
    // Each slice-level read continues one lifecycle track: the caller
    // (SM/crossbar) id is reused when present so the whole request
    // chain shares an id; direct slice reads allocate a fresh one.
    if (telemetry_ && telemetry_->active() && trace_id == 0)
        trace_id = telemetry_->newId();
    // The service event carries `done` by arena handle: the capture
    // would otherwise be a SmallFn nested inside an EventFn.
    const std::uint32_t handle = arenas_->parked.acquire(std::move(done));
    const Cycle slot = serviceSlot();
    if (telemetry_ && trace_id != 0) {
        if (auto *fr = telemetry_->recorder())
            fr->record(telemetry::RecordKind::kL2Queue, trace_id,
                       events_.now(), sector_addr,
                       static_cast<std::uint32_t>(slot - events_.now()));
    }
    events_.schedule(slot, [this, sector_addr, expected_tag, trace_id,
                            handle]() {
        SmallFn done_fn = std::move(arenas_->parked[handle]);
        arenas_->parked.release(handle);
        const auto result = cache_.access(sector_addr,
                                          /* is_write= */ false);
        if (telemetry_ && trace_id != 0) {
            if (auto *fr = telemetry_->recorder())
                fr->record(
                    telemetry::RecordKind::kL2Probe, trace_id,
                    events_.now(), sector_addr,
                    result.sectorHit
                        ? static_cast<std::uint32_t>(params_.hitLatency)
                        : 0,
                    0, result.sectorHit ? telemetry::kFlagHit : 0);
        }
        if (result.sectorHit) {
            events_.scheduleAfter(params_.hitLatency,
                                  std::move(done_fn));
            return;
        }
        handleReadMiss(sector_addr, expected_tag, std::move(done_fn),
                       trace_id);
    });
}

void
L2Slice::handleReadMiss(Addr sector_addr, ecc::MemTag tag, SmallFn done,
                        std::uint64_t trace_id)
{
    telemetry::FlightRecorder *fr =
        telemetry_ && trace_id != 0 ? telemetry_->recorder() : nullptr;
    using Outcome = MshrFile::AllocOutcome;
    const Outcome outcome =
        mshrs_.allocate(sector_addr, 1, std::move(done));
    switch (outcome) {
      case Outcome::kMergedExisting:
      case Outcome::kMergedNewSector:
        if (fr)
            fr->record(telemetry::RecordKind::kL2MshrMerge, trace_id,
                       events_.now(), sector_addr);
        return;
      case Outcome::kFull:
        // Structural stall: park the request; it is retried when an
        // MSHR frees up (no polling).
        statMshrStallRetries.inc();
        if (fr)
            fr->record(telemetry::RecordKind::kL2MshrBlocked, trace_id,
                       events_.now(), sector_addr);
        blocked_.push_back(
            BlockedRead{sector_addr, tag, std::move(done), trace_id});
        return;
      case Outcome::kNewEntry:
        break;
    }

    issueFetch(sector_addr, tag, trace_id);
    if (params_.fetchWholeLine)
        prefetchSiblings(sector_addr, tag);
}

void
L2Slice::issueFetch(Addr sector_addr, ecc::MemTag tag,
                    std::uint64_t trace_id)
{
    scheme_->readSector(
        sector_addr, tag,
        [this, sector_addr](const SectorFetchResult & /* result */) {
            // The sector arrives verified (reconstructed); install it.
            const SectorMask bit = static_cast<SectorMask>(
                1u << sectorInLine(sector_addr));
            handleEviction(cache_.fill(sector_addr, bit, 0));
            mshrs_.wake(mshrs_.release(sector_addr));
            // An MSHR just freed: admit one parked request.
            if (!blocked_.empty()) {
                BlockedRead blocked = std::move(blocked_.front());
                blocked_.pop_front();
                if (telemetry_) {
                    if (auto *rec = telemetry_->recorder();
                        rec && blocked.traceId != 0)
                        rec->record(telemetry::RecordKind::kL2MshrAdmit,
                                    blocked.traceId, events_.now(),
                                    blocked.sectorAddr);
                }
                handleReadMiss(blocked.sectorAddr, blocked.tag,
                               std::move(blocked.done),
                               blocked.traceId);
            }
        },
        trace_id);
}

void
L2Slice::prefetchSiblings(Addr sector_addr, ecc::MemTag tag)
{
    const Addr line = alignDown(sector_addr, kLineBytes);
    const SectorMask present = cache_.presentSectors(line);
    for (std::size_t s = 0; s < kSectorsPerLine; ++s) {
        const Addr sibling = line + s * kSectorBytes;
        if (sibling == sector_addr)
            continue;
        if (present & (1u << s))
            continue;
        if (mshrs_.contains(sibling))
            continue;
        // Best-effort: never let prefetch exhaust the MSHR file.
        if (mshrs_.size() + 1 >= mshrs_.capacity())
            return;
        if (mshrs_.allocate(sibling, 1, nullptr) !=
            MshrFile::AllocOutcome::kNewEntry)
            continue;
        statPrefetchFetches.inc();
        // Prefetches get their own lifecycle track (fresh id).
        issueFetch(sibling, tag,
                   telemetry_ && telemetry_->active()
                       ? telemetry_->newId()
                       : 0);
    }
}

void
L2Slice::write(Addr sector_addr, ecc::MemTag /* expected_tag */)
{
    CC_HOST_ZONE("l2.write");
    statWrites.inc();
    const Cycle slot = serviceSlot();
    events_.schedule(slot, [this, sector_addr] {
        const auto result = cache_.access(sector_addr,
                                          /* is_write= */ true);
        if (result.sectorHit)
            return; // dirty bit set by access()
        // Full-sector store: write-allocate without fetch.
        const SectorMask bit = static_cast<SectorMask>(
            1u << sectorInLine(sector_addr));
        handleEviction(cache_.fill(sector_addr, bit, bit));
    });
}

void
L2Slice::flushAll()
{
    std::vector<std::pair<Addr, SectorMask>> dirty;
    cache_.forEachLine([&dirty](Addr line, SectorMask /* valid */,
                                SectorMask dirty_mask) {
        if (dirty_mask)
            dirty.emplace_back(line, dirty_mask);
    });
    for (const auto &[line, mask] : dirty) {
        for (std::size_t s = 0; s < kSectorsPerLine; ++s) {
            if (!(mask & (1u << s)))
                continue;
            const Addr sector = line + s * kSectorBytes;
            scheme_->writeSector(sector, archRead_(sector),
                                 tagOf_(sector));
        }
        cache_.cleanSectors(line, mask);
    }
    scheme_->flush();
}

void
L2Slice::verifyDrained() const
{
    // Called after the post-flush event drain: everything in flight
    // must have retired by now, so any residue is a leak.
    CACHECRAFT_VERIFY_HOOK(
        onDrainResidue((name_ + ".mshr").c_str(), mshrs_.size()));
    CACHECRAFT_VERIFY_HOOK(
        onDrainResidue((name_ + ".blocked").c_str(), blocked_.size()));
    CACHECRAFT_VERIFY_HOOK(onDrainResidue(
        (name_ + ".meta_fetches").c_str(),
        scheme_->outstandingMetaFetches()));
}

} // namespace cachecraft
