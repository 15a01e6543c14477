#include "core/gpu_system.hpp"

#include <algorithm>
#include <chrono>

#include "common/bits.hpp"
#include "common/domain.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/sampler.hpp"

namespace cachecraft {

GpuSystem::GpuSystem(const SystemConfig &config, EngineArenaPool *arenas)
    : config_(config),
      ownedArenas_(arenas ? nullptr : std::make_unique<EngineArenaPool>()),
      arenaPool_(arenas ? arenas : ownedArenas_.get())
{
    config_.validate();

    // Fixed domain decomposition: one event queue per SM and one per
    // L2-slice/DRAM-channel pair, drained in turn under one
    // epoch-barrier schedule (see run()).
    const unsigned num_slices = config_.dram.numChannels;
    numDomains_ = config_.numSms + num_slices;
    queues_.reserve(numDomains_);
    for (unsigned d = 0; d < numDomains_; ++d)
        queues_.push_back(std::make_unique<EventQueue>());
    storeStage_.resize(config_.numSms);
    // Materialize (and, in debug builds, bind) every domain's arena
    // bundle now, so forDomain() lookups during the run never grow the
    // pool.
    for (unsigned d = 0; d < numDomains_; ++d)
        arenaPool_->forDomain(d).setDebugOwner(
            static_cast<std::int32_t>(d));

    telemetry_ = std::make_unique<telemetry::Telemetry>(
        &stats_, config_.telemetry);
    map_ = std::make_unique<AddressMap>(config_.dram,
                                        config_.effectiveLayout());
    std::vector<EventQueue *> channel_queues;
    channel_queues.reserve(num_slices);
    for (unsigned c = 0; c < num_slices; ++c)
        channel_queues.push_back(&sliceQueue(c));
    dram_ = std::make_unique<DramSystem>(*map_, config_.timing,
                                         channel_queues, &stats_,
                                         telemetry_.get());
    codec_ = ecc::makeCodec(config_.codec);

    // The crossbars always run in router mode: send() stages under
    // the sending domain and the epoch barrier arbitrates in canonical
    // order. The reference queue is unused in that mode.
    reqXbar_ = std::make_unique<Crossbar>("xbar.req", num_slices,
                                          config_.xbarLatency, *queues_[0],
                                          &stats_, telemetry_.get());
    respXbar_ = std::make_unique<Crossbar>("xbar.resp", config_.numSms,
                                           config_.xbarLatency,
                                           *queues_[0], &stats_,
                                           telemetry_.get());
    std::vector<EventQueue *> req_ports;
    for (unsigned c = 0; c < num_slices; ++c)
        req_ports.push_back(&sliceQueue(c));
    reqXbar_->setRouter(std::move(req_ports), numDomains_);
    std::vector<EventQueue *> resp_ports;
    for (unsigned s = 0; s < config_.numSms; ++s)
        resp_ports.push_back(&smQueue(s));
    respXbar_->setRouter(std::move(resp_ports), numDomains_);

    auto arch_read = [this](Addr addr) { return archRead(addr); };
    auto tag_of = [this](Addr addr) { return tagOf(addr); };

    slices_.reserve(num_slices);
    metaShadows_.reserve(num_slices);
    for (unsigned c = 0; c < num_slices; ++c) {
        metaShadows_.push_back(std::make_unique<SparseMemory>());
        const unsigned domain = config_.numSms + c;
        SchemeContext ctx;
        ctx.channel = static_cast<ChannelId>(c);
        ctx.map = map_.get();
        ctx.dram = dram_.get();
        ctx.events = &sliceQueue(c);
        ctx.codec = codec_.get();
        ctx.metaShadow = metaShadows_.back().get();
        ctx.stats = &stats_;
        ctx.telemetry = telemetry_.get();
        ctx.faultIndex = &faultIndex_;
        ctx.arenas = &arenaPool_->forDomain(domain);
        ctx.name = strCat("protect.slice", c);
        auto scheme = makeScheme(config_.scheme, ctx, config_.mrc);

        L2SliceParams slice_params = config_.l2;
        slice_params.cache.seed = config_.seed + c;
        slices_.push_back(std::make_unique<L2Slice>(
            strCat("l2.slice", c), static_cast<SliceId>(c), slice_params,
            sliceQueue(c), std::move(scheme), arch_read, tag_of, &stats_,
            telemetry_.get(), &arenaPool_->forDomain(domain)));
    }

    sms_.reserve(config_.numSms);
    for (unsigned s = 0; s < config_.numSms; ++s) {
        auto l2_read = [this, s](Addr addr, ecc::MemTag tag,
                                 SmallFn done, std::uint64_t id) {
            const SliceId slice = sliceOf(addr);
            // Park the SM-side completion in *this SM domain's*
            // response arena; the hop callbacks carry the 4-byte
            // handle plus the owning SM index, and the arena is only
            // ever touched from that SM's own event execution (the
            // response crossbar hops back before the release). The
            // lifecycle id rides along so both crossbar hops and the
            // slice read land on the caller's flight-record track.
            const std::uint32_t handle =
                arenaPool_->forDomain(s).responses.acquire(
                    PendingResponse{std::move(done), s});
            reqXbar_->send(
                slice,
                [this, slice, addr, tag, handle, id, s]() {
                    slices_[slice]->read(
                        addr, tag,
                        [this, handle, id, s] {
                            respXbar_->send(
                                s,
                                [this, handle, s] {
                                    auto &resp_arena =
                                        arenaPool_->forDomain(s)
                                            .responses;
                                    PendingResponse resp = std::move(
                                        resp_arena[handle]);
                                    resp_arena.release(handle);
                                    resp.done();
                                },
                                id,
                                /* response= */ true);
                        },
                        id);
                },
                id);
        };
        auto l2_write = [this, s](Addr addr, ecc::MemTag tag) {
            // The store's architectural value is committed at the next
            // canonical epoch boundary, in (cycle, SM, issue-order)
            // order — independent of domain drain order, and always
            // before the slice can observe the stored data (the write
            // message itself crosses the barrier later than the
            // commit).
            storeStage_[s].items.push_back(
                StagedStore{addr, smQueue(s).now()});
            const SliceId slice = sliceOf(addr);
            reqXbar_->send(slice, [this, slice, addr, tag] {
                slices_[slice]->write(addr, tag);
            });
        };

        SmParams sm_params = config_.sm;
        sm_params.l1.seed = config_.seed + 1000 + s;
        sms_.push_back(std::make_unique<SmCore>(
            strCat("sm", s), static_cast<SmId>(s), sm_params, smQueue(s),
            std::move(l2_read), std::move(l2_write), tag_of, &stats_,
            telemetry_.get()));
    }

    // Occupancy gauges for every structural resource; registered here
    // (still construction time) so the sampler sees a stable registry.
    if (auto *prof = telemetry_->profiler()) {
        for (unsigned c = 0; c < num_slices; ++c) {
            DramChannel *ch = &dram_->channel(static_cast<ChannelId>(c));
            prof->addGauge(strCat("dram.ch", c, ".queue_depth"), [ch] {
                return static_cast<std::uint64_t>(ch->queueDepth());
            });
            // Gauges read the barrier clock (simNow_): they are polled
            // at the epoch barrier while every domain is parked, and
            // individual domain clocks may legitimately lag the
            // barrier when idle.
            prof->addGauge(strCat("dram.ch", c, ".busy_banks"),
                           [this, ch] {
                               return static_cast<std::uint64_t>(
                                   ch->busyBanks(simNow_));
                           });
            L2Slice *slice = slices_[c].get();
            prof->addGauge(strCat("l2.slice", c, ".mshr_occupancy"),
                           [slice] {
                               return static_cast<std::uint64_t>(
                                   slice->mshrOccupancy());
                           });
            prof->addGauge(strCat("l2.slice", c, ".blocked_reads"),
                           [slice] {
                               return static_cast<std::uint64_t>(
                                   slice->blockedReads());
                           });
            prof->addGauge(strCat("l2.slice", c, ".service_backlog"),
                           [this, slice] {
                               return static_cast<std::uint64_t>(
                                   slice->serviceBacklog(simNow_));
                           });
            prof->addGauge(
                strCat("protect.slice", c, ".outstanding_meta_fetches"),
                [slice] {
                    return static_cast<std::uint64_t>(
                        slice->scheme().outstandingMetaFetches());
                });
        }
        prof->addGauge("xbar.req.max_port_backlog", [this] {
            return static_cast<std::uint64_t>(
                reqXbar_->maxPortBacklog(simNow_));
        });
        prof->addGauge("xbar.resp.max_port_backlog", [this] {
            return static_cast<std::uint64_t>(
                respXbar_->maxPortBacklog(simNow_));
        });
    }
}

GpuSystem::~GpuSystem() = default;

SliceId
GpuSystem::sliceOf(Addr addr) const
{
    return map_->channelOf(addr);
}

ecc::SectorData
GpuSystem::pattern(Addr sector_addr, std::uint64_t generation)
{
    SplitMix64 rng((sector_addr >> 5) * 0x9E3779B97F4A7C15ull +
                   generation * 0xD1B54A32D192ED03ull + 1);
    ecc::SectorData data{};
    for (std::size_t i = 0; i < data.size(); i += 8)
        storeLe64(std::span<std::uint8_t>(data), i, rng.next());
    return data;
}

void
GpuSystem::onStore(Addr sector_addr)
{
    ++writeGeneration_.tryEmplace(sectorBase(sector_addr)).first;
}

Cycle
GpuSystem::globalNow() const
{
    Cycle now = 0;
    for (const auto &q : queues_)
        now = std::max(now, q->now());
    return now;
}

bool
GpuSystem::anyStagedStores() const
{
    return anyStaged(storeStage_);
}

void
GpuSystem::applyStagedStores()
{
    // Write-generation bumps must happen in issue order — two SMs
    // storing to the same sector in one epoch would otherwise commit
    // in domain drain order — so the barrier commits every staged
    // store sorted by (issue cycle, source domain, lane index).
    applyStagedInOrder(
        storeStage_, storeOrder_,
        [](const StagedStore &s) { return s.cycle; },
        [this](const StagedStore &s, const StagedKey &) {
            onStore(s.addr);
        });
}

ecc::SectorData
GpuSystem::archRead(Addr sector_addr) const
{
    const Addr sector = sectorBase(sector_addr);
    const std::uint64_t *gen = writeGeneration_.find(sector);
    return pattern(sector, gen ? *gen : 0);
}

ecc::MemTag
GpuSystem::tagOf(Addr addr) const
{
    for (const TaggedRegion &region : regions_) {
        if (addr >= region.base && addr < region.base + region.size)
            return region.tag;
    }
    panic(strCat("access outside initialized regions: 0x", std::hex,
                 addr));
}

void
GpuSystem::initialize(const KernelTrace &trace)
{
    if (initialized_)
        panic("GpuSystem initialized twice");
    initialized_ = true;
    CC_HOST_ZONE_COUNTED("sim.init");

    regions_ = trace.regions;
    for (const TaggedRegion &region : regions_) {
        if (offsetIn(region.base, kSectorBytes) != 0 ||
            region.size % kSectorBytes != 0)
            fatal("regions must be 32 B aligned");
        if (region.base + region.size > map_->usableBytesTotal())
            fatal("region exceeds usable device memory");
        const Addr end = region.base + region.size;
        Addr addr = region.base;
        while (addr < end) {
            if (offsetIn(addr, kChunkBytes) == 0 &&
                addr + kChunkBytes <= end) {
                // Whole aligned chunk: encode through the batch chunk
                // codec (a chunk never straddles channels, so one
                // slice owns all eight sectors).
                ecc::ChunkData data{};
                for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
                    const ecc::SectorData sector =
                        pattern(addr + s * kSectorBytes, 0);
                    std::copy(sector.begin(), sector.end(),
                              data.begin() + s * kSectorBytes);
                }
                slices_[sliceOf(addr)]->scheme().initializeChunk(
                    addr, data, region.tag);
                addr += kChunkBytes;
                continue;
            }
            const ecc::SectorData data = pattern(addr, 0);
            slices_[sliceOf(addr)]->scheme().initializeSector(addr, data,
                                                              region.tag);
            addr += kSectorBytes;
        }
    }
}

RunStats
GpuSystem::run(const KernelTrace &trace)
{
    if (ran_)
        panic("GpuSystem::run called twice");
    ran_ = true;
    if (!initialized_)
        initialize(trace);

    const auto host_start = std::chrono::steady_clock::now();

    // Distribute warps round-robin over the SMs.
    for (std::size_t w = 0; w < trace.warps.size(); ++w)
        sms_[w % sms_.size()]->addWarp(&trace.warps[w]);
    for (auto &sm : sms_)
        sm->start();

    if (config_.telemetry.sampleInterval > 0)
        sampler_ = std::make_unique<telemetry::StatSampler>(
            &stats_, config_.telemetry.sampleInterval);
    telemetry::Profiler *prof = telemetry_->profiler();
    const Cycle prof_interval =
        prof ? std::max<Cycle>(config_.telemetry.profileInterval, 1) : 0;

    // Deterministic domain/epoch execution (see DESIGN.md §8.10).
    //
    // Every domain drains its private queue up to a shared epoch
    // boundary, then the barrier performs all cross-domain work in
    // canonical order: crossbar arbitration (by send cycle, source
    // domain, source seq) and store commits (same key). The epoch
    // length equals the crossbar latency (minimum 1), so every
    // cross-domain delivery lands strictly inside a later epoch of its
    // destination: a send at cycle s in the epoch covering
    // [kE, kE+E-1] delivers at >= s+E >= (k+1)E, past that epoch's
    // barrier at (k+1)E-1. The decomposition and this barrier schedule
    // are the timing semantics the golden digest pins.
    //
    // Store commits additionally apply only at *canonical* boundaries
    // (cycle (k+1)E-1), never at observer-inserted ones, so enabling
    // the sampler/profiler/progress heartbeat stays timing-neutral.
    const Cycle epoch = std::max<Cycle>(1, config_.xbarLatency);
    constexpr Cycle kNever = EventQueue::kNoEventCycle;
    std::vector<Cycle> next_at(numDomains_, kNever);
    Cycle close_floor = 0;
    auto close_sampler = [this, &close_floor](Cycle at) {
        if (sampler_ && at >= close_floor) {
            sampler_->closeEpoch(at);
            close_floor = at;
        }
    };

    auto drain = [&](const char *what) {
        CC_HOST_ZONE_COUNTED("engine.drain");
        while (true) {
            // One poll per domain per epoch: nothing runs between here
            // and the drain pass below, which reuses these values.
            Cycle earliest = kNever;
            for (std::uint32_t d = 0; d < numDomains_; ++d) {
                next_at[d] = queues_[d]->nextAt();
                earliest = std::min(earliest, next_at[d]);
            }
            if (earliest == kNever) {
                if (!anyStagedStores())
                    break;
                // Stores staged at an observer boundary with nothing
                // left to observe them: commit and finish.
                applyStagedStores();
                continue;
            }
            // Next barrier: the canonical boundary of the epoch
            // containing the earliest pending event — idle epochs are
            // skipped wholesale — clamped to the next canonical
            // boundary while stores are staged, and to any observer
            // boundary.
            Cycle limit = (earliest / epoch) * epoch + (epoch - 1);
            if (anyStagedStores())
                limit = std::min(limit,
                                 (simNow_ / epoch) * epoch + (epoch - 1));
            const Cycle sample_at =
                sampler_ ? sampler_->nextBoundary(simNow_) : kNever;
            const Cycle profile_at =
                prof ? (simNow_ / prof_interval + 1) * prof_interval
                     : kNever;
            const Cycle progress_at =
                progressInterval_
                    ? (simNow_ / progressInterval_ + 1) *
                          progressInterval_
                    : kNever;
            limit = std::min({limit, sample_at, profile_at, progress_at});

            for (std::uint32_t d = 0; d < numDomains_; ++d) {
                if (next_at[d] > limit)
                    continue;
                ScopedSimDomain scope(static_cast<std::int32_t>(d),
                                      queues_[d].get());
                if (!queues_[d]->runUntil(limit))
                    panic(what);
            }

            // ---- epoch barrier: every domain parked at limit ----
            // (The zone keeps its historical name: perfbench's
            // zone.barrier_share reads it.)
            CC_HOST_ZONE("shard.barrier");
            simNow_ = limit;
            reqXbar_->applyStaged();
            respXbar_->applyStaged();
            if ((limit + 1) % epoch == 0)
                applyStagedStores();
            if (prof && limit >= profile_at)
                prof->sampleOccupancy();
            if (limit >= sample_at)
                close_sampler(limit);
            if (progressFn_ && limit >= progress_at) {
                std::uint64_t executed = 0;
                for (const auto &q : queues_)
                    executed += q->executedEvents();
                progressFn_(limit, executed);
            }
        }
        close_sampler(globalNow());
    };

    drain("event budget exceeded: livelock in the simulator");
    for (const auto &sm : sms_) {
        if (!sm->done())
            panic("deadlock: SM finished with unretired warps");
    }

    RunStats rs;
    rs.cycles = globalNow();
    for (const auto &sm : sms_) {
        rs.instructions += sm->statInsts.value();
        rs.memInstructions += sm->statMemInsts.value();
    }
    rs.ipc = rs.cycles
                 ? static_cast<double>(rs.instructions) /
                       static_cast<double>(rs.cycles)
                 : 0.0;

    for (const auto &slice : slices_) {
        const SchemeStats &ps = slice->scheme().stats;
        rs.dramDataReads += ps.dataReads.value();
        rs.dramDataWrites += ps.dataWrites.value();
        rs.dramEccReads += ps.eccReads.value();
        rs.dramEccWrites += ps.eccWrites.value();
        rs.dramEccRmwReads += ps.eccRmwReads.value();
        rs.mrcHits += ps.mrcHits.value();
        rs.mrcMisses += ps.mrcMisses.value();
        rs.mrcFetchMerges += ps.mrcFetchMerges.value();
        rs.mrcDirtyEvictions += ps.mrcDirtyEvictions.value();
        rs.decodeClean += ps.decodeClean.value();
        rs.decodeCorrected += ps.decodeCorrected.value();
        rs.decodeUncorrectable += ps.decodeUncorrectable.value();
        rs.decodeTagMismatch += ps.decodeTagMismatch.value();
        rs.l2SectorHits += slice->cache().statSectorHits.value();
        rs.l2SectorMisses += slice->cache().statSectorMisses.value() +
                             slice->cache().statLineMisses.value();
    }
    rs.dramTotalTxns = dram_->totalTransactions();
    rs.rowHitRate = dram_->rowHitRate();

    for (const auto &[name, value] : stats_.flatten())
        rs.all.emplace(name, value);

    // Drain dirty state so post-run audits see consistent memory.
    // (Deliberately after the stats snapshot: the paper-style traffic
    // numbers exclude the artificial end-of-run flush — but the epoch
    // series keeps sampling through it, so summed deltas match the
    // live registry that reports render.)
    for (auto &slice : slices_)
        slice->flushAll();
    drain("event budget exceeded during flush");
    for (const auto &sm : sms_)
        sm->verifyDrained();
    for (const auto &slice : slices_)
        slice->verifyDrained();
    close_sampler(globalNow());

    if (const telemetry::FlightRecorder *fr = telemetry_->recorder();
        fr && fr->dropped() > 0) {
        rs.warnings.push_back(
            strCat("flight ring overflowed: ", fr->dropped(),
                   " oldest records dropped (raise flightCapacity)"));
    }
    std::uint64_t valve_trips = 0;
    for (const auto &q : queues_)
        valve_trips += q->valveTrips();
    if (valve_trips > 0) {
        rs.warnings.push_back(
            strCat("event-queue safety valve tripped ", valve_trips,
                   " time(s): execution was truncated"));
    }
    for (const std::string &w : rs.warnings)
        warn(w);

    // Host throughput provenance (includes the flush drain). The
    // event/depth counters are deterministic; the time-derived fields
    // are per-host and are never part of gated output.
    rs.simThroughput.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    for (const auto &q : queues_) {
        rs.simThroughput.eventsExecuted += q->executedEvents();
        // Summed across domains: an upper bound on simultaneous
        // outstanding events, comparable run-to-run because the
        // decomposition is fixed.
        rs.simThroughput.peakQueueDepth += q->peakDepth();
    }
    if (rs.simThroughput.hostSeconds > 0.0) {
        rs.simThroughput.eventsPerSec =
            static_cast<double>(rs.simThroughput.eventsExecuted) /
            rs.simThroughput.hostSeconds;
        rs.simThroughput.simMcyclesPerSec =
            static_cast<double>(rs.cycles) / 1e6 /
            rs.simThroughput.hostSeconds;
    }

    return rs;
}

AuditResult
GpuSystem::auditMemory() const
{
    CC_HOST_ZONE_COUNTED("sim.audit");
    AuditResult audit;
    for (const TaggedRegion &region : regions_) {
        const Addr end = region.base + region.size;
        Addr addr = region.base;
        while (addr < end) {
            // Whole aligned chunk under a protected layout: one batch
            // decode (clean chunks early-out on laned syndromes) with
            // the same per-sector classification as the scalar path.
            if (map_->layout() != EccLayout::kNone &&
                offsetIn(addr, kChunkBytes) == 0 &&
                addr + kChunkBytes <= end) {
                audit.sectors += kSectorsPerChunk;
                const ChannelId channel = map_->channelOf(addr);
                const Addr local = map_->channelLocalOf(addr);

                ecc::ChunkData stored{};
                for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
                    dram_->readBytes(
                        channel,
                        map_->dataPhys(local + s * kSectorBytes),
                        std::span<std::uint8_t>(
                            stored.data() + s * kSectorBytes,
                            kSectorBytes));
                }
                ecc::ChunkCheck check{};
                dram_->readBytes(channel, map_->eccChunkPhys(local),
                                 std::span<std::uint8_t>(check));

                const ecc::ChunkDecodeResult decoded =
                    codec_->decodeChunk(stored, check, region.tag);
                for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
                    switch (decoded.status[s]) {
                      case ecc::DecodeStatus::kClean:
                        audit.clean++;
                        break;
                      case ecc::DecodeStatus::kCorrected:
                        audit.corrected++;
                        break;
                      case ecc::DecodeStatus::kUncorrectable:
                      case ecc::DecodeStatus::kTagMismatch:
                        audit.uncorrectable++;
                        continue; // no trustworthy data to compare
                    }
                    const ecc::SectorData golden =
                        archRead(addr + s * kSectorBytes);
                    if (!std::equal(golden.begin(), golden.end(),
                                    decoded.data.begin() +
                                        s * kSectorBytes))
                        audit.silentCorruptions++;
                }
                addr += kChunkBytes;
                continue;
            }
            audit.sectors++;
            const ChannelId channel = map_->channelOf(addr);
            const Addr local = map_->channelLocalOf(addr);

            ecc::SectorData stored{};
            dram_->readBytes(channel, map_->dataPhys(local),
                             std::span<std::uint8_t>(stored));

            const ecc::SectorData golden = archRead(addr);
            if (map_->layout() == EccLayout::kNone) {
                if (stored == golden)
                    audit.clean++;
                else
                    audit.silentCorruptions++;
                addr += kSectorBytes;
                continue;
            }

            ecc::SectorCheck check{};
            dram_->readBytes(channel,
                             map_->eccChunkPhys(local) +
                                 sectorInChunk(local) *
                                     ecc::kCheckBytesPerSector,
                             std::span<std::uint8_t>(check));
            const auto decoded = codec_->decode(stored, check, region.tag);
            switch (decoded.status) {
              case ecc::DecodeStatus::kClean:
                audit.clean++;
                break;
              case ecc::DecodeStatus::kCorrected:
                audit.corrected++;
                break;
              case ecc::DecodeStatus::kUncorrectable:
              case ecc::DecodeStatus::kTagMismatch:
                audit.uncorrectable++;
                // No trustworthy data to compare against golden.
                addr += kSectorBytes;
                continue;
            }
            if (decoded.data != golden)
                audit.silentCorruptions++;
            addr += kSectorBytes;
        }
    }
    return audit;
}

ecc::DecodeResult
GpuSystem::decodeStored(Addr sector_addr) const
{
    const Addr sector = sectorBase(sector_addr);
    const ChannelId channel = map_->channelOf(sector);
    const Addr local = map_->channelLocalOf(sector);

    ecc::SectorData stored{};
    dram_->readBytes(channel, map_->dataPhys(local),
                     std::span<std::uint8_t>(stored));
    if (map_->layout() == EccLayout::kNone) {
        ecc::DecodeResult res;
        res.status = ecc::DecodeStatus::kClean;
        res.data = stored;
        return res;
    }
    ecc::SectorCheck check{};
    dram_->readBytes(channel,
                     map_->eccChunkPhys(local) +
                         sectorInChunk(local) * ecc::kCheckBytesPerSector,
                     std::span<std::uint8_t>(check));
    return codec_->decode(stored, check, tagOf(sector));
}

void
GpuSystem::injectDataFault(Addr logical, unsigned bit_index)
{
    const ChannelId channel = map_->channelOf(logical);
    const Addr local = map_->channelLocalOf(logical);
    const Addr phys = map_->dataPhys(sectorBase(local)) + bit_index / 8;
    dram_->flipBit(channel, phys, bit_index % 8);
    faultIndex_.noteFaultAt(logical);
}

void
GpuSystem::injectEccFault(Addr logical, unsigned byte_in_chunk,
                          unsigned bit)
{
    const ChannelId channel = map_->channelOf(logical);
    const Addr local = map_->channelLocalOf(logical);
    dram_->flipBit(channel, map_->eccChunkPhys(local) + byte_in_chunk,
                   bit);
    // An ECC-chunk fault can land in any of the chunk's eight check
    // fields; index the whole covering chunk.
    faultIndex_.noteFaultAt(logical);
}

} // namespace cachecraft
