#include "protect/scheme.hpp"

#include "common/log.hpp"
#include "faults/fault_index.hpp"
#include "protect/inline_naive.hpp"
#include "protect/mrc_scheme.hpp"
#include "protect/none_scheme.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

const char *
toString(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::kNone:
        return "no-ecc";
      case SchemeKind::kInlineNaive:
        return "inline-naive";
      case SchemeKind::kEccCache:
        return "ecc-cache";
      case SchemeKind::kCacheCraft:
        return "cachecraft";
    }
    return "unknown";
}

void
SchemeStats::registerAll(const std::string &prefix, StatRegistry *stats)
{
    if (!stats)
        return;
    stats->registerCounter(prefix + ".data_reads", &dataReads);
    stats->registerCounter(prefix + ".data_writes", &dataWrites);
    stats->registerCounter(prefix + ".ecc_reads", &eccReads);
    stats->registerCounter(prefix + ".ecc_writes", &eccWrites);
    stats->registerCounter(prefix + ".ecc_rmw_reads", &eccRmwReads);
    stats->registerCounter(prefix + ".mrc_hits", &mrcHits);
    stats->registerCounter(prefix + ".mrc_misses", &mrcMisses);
    stats->registerCounter(prefix + ".mrc_fetch_merges", &mrcFetchMerges);
    stats->registerCounter(prefix + ".mrc_evictions", &mrcEvictions);
    stats->registerCounter(prefix + ".mrc_dirty_evictions",
                           &mrcDirtyEvictions);
    stats->registerCounter(prefix + ".mrc_eager_writeouts",
                           &mrcEagerWriteouts);
    stats->registerCounter(prefix + ".decode_clean", &decodeClean);
    stats->registerCounter(prefix + ".decode_corrected", &decodeCorrected);
    stats->registerCounter(prefix + ".decode_uncorrectable",
                           &decodeUncorrectable);
    stats->registerCounter(prefix + ".decode_tag_mismatch",
                           &decodeTagMismatch);
    stats->registerCounter(prefix + ".corrected_units", &correctedUnits);
}

ProtectionScheme::ProtectionScheme(const SchemeContext &ctx) : ctx_(ctx)
{
    stats.registerAll(ctx_.name, ctx_.stats);
    if (ctx_.arenas == nullptr) {
        ownedArenas_ = std::make_unique<EngineArenas>();
        ctx_.arenas = ownedArenas_.get();
    }
}

std::uint32_t
ProtectionScheme::acquireRead(FetchCallback done, Addr logical,
                              ecc::MemTag tag, std::uint64_t trace_id,
                              std::uint8_t fanin)
{
    PendingRead read;
    read.done = std::move(done);
    read.logical = logical;
    read.traceId = trace_id;
    read.tagBits = static_cast<std::uint16_t>(tag);
    read.remaining = fanin;
    return ctx_.arenas->reads.acquire(std::move(read));
}

PendingRead &
ProtectionScheme::readSlot(std::uint32_t handle)
{
    return ctx_.arenas->reads[handle];
}

PendingRead
ProtectionScheme::takeRead(std::uint32_t handle)
{
    PendingRead read = std::move(ctx_.arenas->reads[handle]);
    ctx_.arenas->reads.release(handle);
    return read;
}

void
ProtectionScheme::joinRead(std::uint32_t handle)
{
    if (--ctx_.arenas->reads[handle].remaining > 0)
        return;
    PendingRead read = takeRead(handle);
    read.done(decodeSector(read.logical,
                           static_cast<ecc::MemTag>(read.tagBits),
                           read.fromShadow, read.traceId));
}

Addr
ProtectionScheme::local(Addr logical) const
{
    return ctx_.map->channelLocalOf(logical);
}

Addr
ProtectionScheme::dataPhys(Addr logical) const
{
    return ctx_.map->dataPhys(local(logical));
}

Addr
ProtectionScheme::eccPhys(Addr logical) const
{
    return ctx_.map->eccChunkPhys(local(logical));
}

std::size_t
ProtectionScheme::checkOffset(Addr logical) const
{
    return sectorInChunk(local(logical)) * kCheckBytes;
}

Addr
ProtectionScheme::shadowCheckAddr(Addr logical) const
{
    // Dense: each slice owns its shadow, and a chunk's eight check
    // fields sit at (local chunk index) x 32 B in sector order, like
    // an ECC chunk, so the shadow costs 1/8 of the data it covers.
    return local(logical) / kChunkBytes * sizeof(ecc::ChunkCheck) +
           checkOffset(logical);
}

namespace {

/**
 * Stamp @p req with a lifecycle id (the caller's @p trace_id, or a
 * fresh one for standalone transactions) so the channel can emit
 * flight records for it. No-op when no recorder is live.
 */
void
stampTxnId(telemetry::Telemetry *tel, std::uint64_t trace_id,
           DramRequest &req)
{
    if (!tel || !tel->active())
        return;
    req.traceId = trace_id ? trace_id : tel->newId();
}

} // namespace

void
ProtectionScheme::issueDataTxn(Addr logical, bool is_write,
                               SmallFn on_complete,
                               std::uint64_t trace_id)
{
    if (is_write)
        stats.dataWrites.inc();
    else
        stats.dataReads.inc();
    DramRequest req;
    req.phys = dataPhys(logical);
    req.isWrite = is_write;
    req.onComplete = std::move(on_complete);
    stampTxnId(ctx_.telemetry, trace_id, req);
    ctx_.dram->enqueue(ctx_.channel, std::move(req));
}

void
ProtectionScheme::issueEccTxn(Addr logical, bool is_write,
                              SmallFn on_complete,
                              std::uint64_t trace_id)
{
    if (is_write)
        stats.eccWrites.inc();
    else
        stats.eccReads.inc();
    DramRequest req;
    req.phys = eccPhys(logical);
    req.isWrite = is_write;
    req.isEcc = true;
    req.onComplete = std::move(on_complete);
    stampTxnId(ctx_.telemetry, trace_id, req);
    ctx_.dram->enqueue(ctx_.channel, std::move(req));
}

ecc::SectorData
ProtectionScheme::readStoredData(Addr logical) const
{
    ecc::SectorData data{};
    ctx_.dram->readBytes(ctx_.channel, dataPhys(logical),
                         std::span<std::uint8_t>(data));
    return data;
}

ecc::SectorCheck
ProtectionScheme::readStoredCheck(Addr logical) const
{
    ecc::SectorCheck check{};
    ctx_.dram->readBytes(ctx_.channel, eccPhys(logical) + checkOffset(logical),
                         std::span<std::uint8_t>(check));
    return check;
}

ecc::SectorCheck
ProtectionScheme::readShadowCheck(Addr logical) const
{
    ecc::SectorCheck check{};
    ctx_.metaShadow->read(shadowCheckAddr(logical),
                          std::span<std::uint8_t>(check));
    return check;
}

void
ProtectionScheme::writeShadowCheck(Addr logical,
                                   const ecc::SectorCheck &check)
{
    ctx_.metaShadow->write(shadowCheckAddr(logical),
                           std::span<const std::uint8_t>(check));
}

void
ProtectionScheme::publishCheckToStorage(Addr logical,
                                        const ecc::SectorCheck &check)
{
    ctx_.dram->writeBytes(ctx_.channel,
                          eccPhys(logical) + checkOffset(logical),
                          std::span<const std::uint8_t>(check));
}

void
ProtectionScheme::syncChunkToStorage(Addr logical, std::uint8_t mask)
{
    const Addr chunk_local = chunkBase(local(logical));
    const Addr chunk_logical = chunkBase(logical);
    if (mask == 0xFF) {
        // Whole chunk dirty: the shadow mirrors the ECC chunk layout
        // byte for byte, so publish all eight check fields as one
        // contiguous 32 B copy instead of eight 4 B ones.
        ecc::ChunkCheck check{};
        ctx_.metaShadow->read(shadowCheckAddr(chunk_logical),
                              std::span<std::uint8_t>(check));
        ctx_.dram->writeBytes(ctx_.channel,
                              ctx_.map->eccChunkPhys(chunk_local),
                              std::span<const std::uint8_t>(check));
        return;
    }
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        if (!(mask & (1u << s)))
            continue;
        // Reconstruct each covered sector's shadow address from its
        // logical sector (all sectors of a chunk share the channel).
        const Addr sector_logical = chunk_logical + s * kSectorBytes;
        ecc::SectorCheck check = readShadowCheck(sector_logical);
        ctx_.dram->writeBytes(
            ctx_.channel,
            ctx_.map->eccChunkPhys(chunk_local) + s * kCheckBytes,
            std::span<const std::uint8_t>(check));
    }
}

SectorFetchResult
ProtectionScheme::decodeSector(Addr logical, ecc::MemTag tag,
                               bool check_from_shadow,
                               std::uint64_t trace_id)
{
    const ecc::SectorData stored = readStoredData(logical);
    const ecc::SectorCheck check = check_from_shadow
                                       ? readShadowCheck(logical)
                                       : readStoredCheck(logical);

    SectorFetchResult res;
    // Fast path for chunks the fault injector never touched: a
    // syndrome-only clean check (clean syndromes imply decode would
    // return kClean with data == stored for every codec). The check
    // still computes every syndrome — a corrupt sector the index does
    // not know about (e.g. a planted scheme bug) falls through to the
    // full decoder below.
    if (ctx_.faultIndex && !ctx_.faultIndex->chunkTouched(logical) &&
        ctx_.codec->verifySectorClean(stored, check, tag)) {
        stats.decodeClean.inc();
        res.data = stored;
    } else {
        const ecc::DecodeResult decoded =
            ctx_.codec->decode(stored, check, tag);
        res.status = decoded.status;
        switch (decoded.status) {
          case ecc::DecodeStatus::kClean:
            stats.decodeClean.inc();
            res.data = decoded.data;
            break;
          case ecc::DecodeStatus::kCorrected:
            stats.decodeCorrected.inc();
            stats.correctedUnits.inc(decoded.correctedUnits);
            res.data = decoded.data;
            break;
          case ecc::DecodeStatus::kTagMismatch:
            stats.decodeTagMismatch.inc();
            stats.correctedUnits.inc(decoded.correctedUnits);
            res.data = decoded.data;
            break;
          case ecc::DecodeStatus::kUncorrectable:
            stats.decodeUncorrectable.inc();
            // Deliver raw bytes; the fault harness detects the DUE via
            // the status and, for SDC studies, compares against golden.
            res.data = stored;
            break;
        }
    }
    if (ctx_.telemetry && trace_id != 0) {
        if (auto *fr = ctx_.telemetry->recorder())
            fr->record(telemetry::RecordKind::kDecode, trace_id,
                       ctx_.events->now(), logical, 0, 0,
                       static_cast<std::uint8_t>(res.status));
    }
    CACHECRAFT_VERIFY_HOOK(onDecodeSector(
        logical, tag, static_cast<std::uint8_t>(res.status),
        res.data.data(), check_from_shadow));
    return res;
}

void
ProtectionScheme::initializeSector(Addr logical, const ecc::SectorData &data,
                                   ecc::MemTag tag)
{
    ctx_.dram->writeBytes(ctx_.channel, dataPhys(logical),
                          std::span<const std::uint8_t>(data));
    CACHECRAFT_VERIFY_HOOK(onInitSector(logical, data.data(), tag));
    if (ctx_.map->layout() == EccLayout::kNone)
        return;
    const ecc::SectorCheck check = ctx_.codec->encode(data, tag);
    writeShadowCheck(logical, check);
    publishCheckToStorage(logical, check);
}

void
ProtectionScheme::initializeChunk(Addr logical, const ecc::ChunkData &data,
                                  ecc::MemTag tag)
{
    // A chunk's 256 B are contiguous in physical memory under every
    // layout (kCoLocated re-packs whole chunks), so one write stores
    // all eight sectors.
    ctx_.dram->writeBytes(ctx_.channel, dataPhys(logical),
                          std::span<const std::uint8_t>(data));
    for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
        CACHECRAFT_VERIFY_HOOK(onInitSector(
            logical + s * kSectorBytes, data.data() + s * kSectorBytes,
            tag));
    }
    if (ctx_.map->layout() == EccLayout::kNone)
        return;
    ecc::ChunkCheck check{};
    ctx_.codec->encodeChunk(data, tag, check);
    ctx_.metaShadow->write(shadowCheckAddr(logical),
                           std::span<const std::uint8_t>(check));
    ctx_.dram->writeBytes(ctx_.channel, eccPhys(logical),
                          std::span<const std::uint8_t>(check));
}

std::unique_ptr<ProtectionScheme>
makeScheme(SchemeKind kind, const SchemeContext &ctx,
           const MrcOptions &mrc_options)
{
    switch (kind) {
      case SchemeKind::kNone:
        return std::make_unique<NoneScheme>(ctx);
      case SchemeKind::kInlineNaive:
        return std::make_unique<InlineNaiveScheme>(ctx);
      case SchemeKind::kEccCache: {
        // Prior art: read caching at chunk granularity, write-through.
        MrcOptions opts = mrc_options;
        opts.writebackMrc = false;
        return std::make_unique<MrcScheme>(ctx, opts,
                                           /* cachecraft= */ false);
      }
      case SchemeKind::kCacheCraft:
        return std::make_unique<MrcScheme>(ctx, mrc_options,
                                           /* cachecraft= */ true);
    }
    panic("unknown scheme kind");
}

} // namespace cachecraft
