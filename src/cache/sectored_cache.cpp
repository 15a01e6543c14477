#include "cache/sectored_cache.hpp"

#include "common/bits.hpp"
#include "common/log.hpp"
#include "telemetry/host_profiler.hpp"
#include "verify/verify.hpp"

namespace cachecraft {

std::string
cacheGeometryError(const CacheParams &params)
{
    if (!isPow2(params.lineBytes) || !isPow2(params.sectorBytes))
        return "cache line/sector sizes must be powers of two";
    if (params.lineBytes % params.sectorBytes != 0)
        return "cache line size must be a multiple of the sector size";
    if (params.assoc == 0)
        return "cache associativity must be positive";
    if (params.sizeBytes % (params.lineBytes * params.assoc) != 0)
        return "cache size must be divisible by line size * assoc";
    if (!isPow2(params.sizeBytes / (params.lineBytes * params.assoc)))
        return "cache must have a power-of-two number of sets";
    if (params.lineBytes / params.sectorBytes > 8)
        return "at most 8 sectors per line supported (SectorMask width)";
    return {};
}

SectoredCache::SectoredCache(std::string name, const CacheParams &params,
                             StatRegistry *stats)
    : name_(std::move(name)), params_(params)
{
    if (const std::string error = cacheGeometryError(params_);
        !error.empty())
        fatal(error);
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.assoc);
    sectorsPerLine_ = params_.lineBytes / params_.sectorBytes;
    // cacheGeometryError() guarantees powers of two: index by shifts.
    lineShift_ = log2Floor(params_.lineBytes);
    sectorShift_ = log2Floor(params_.sectorBytes);

    ways_.resize(numSets_ * params_.assoc);
    repl_ = makeReplacementPolicy(params_.repl, numSets_, params_.assoc,
                                  params_.seed);

    if (stats) {
        stats->registerCounter(name_ + ".accesses", &statAccesses);
        stats->registerCounter(name_ + ".line_hits", &statLineHits);
        stats->registerCounter(name_ + ".sector_hits", &statSectorHits);
        stats->registerCounter(name_ + ".sector_misses", &statSectorMisses);
        stats->registerCounter(name_ + ".line_misses", &statLineMisses);
        stats->registerCounter(name_ + ".fills", &statFills);
        stats->registerCounter(name_ + ".evictions", &statEvictions);
        stats->registerCounter(name_ + ".dirty_evictions",
                               &statDirtyEvictions);
        stats->registerCounter(name_ + ".write_hits", &statWriteHits);
        stats->registerCounter(name_ + ".invalidates", &statInvalidates);
    }
}

std::size_t
SectoredCache::setIndex(Addr line_addr) const
{
    return static_cast<std::size_t>((line_addr >> lineShift_) &
                                    (numSets_ - 1));
}

int
SectoredCache::findWay(std::size_t set, Addr line_addr) const
{
    const std::size_t base = set * params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Way &way = ways_[base + w];
        if (way.valid && way.lineAddr == line_addr)
            return static_cast<int>(w);
    }
    return -1;
}

SectorMask
SectoredCache::sectorBit(Addr addr) const
{
    return static_cast<SectorMask>(1u << sectorIndex(addr));
}

CacheAccessResult
SectoredCache::probe(Addr addr) const
{
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    CacheAccessResult res;
    if (w < 0)
        return res;
    res.lineHit = true;
    res.sectorHit =
        (ways_[set * params_.assoc + w].validMask & sectorBit(addr)) != 0;
    return res;
}

CacheAccessResult
SectoredCache::access(Addr addr, bool is_write)
{
    CC_HOST_ZONE("cache.access");
    statAccesses.inc();
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    CacheAccessResult res;
    const unsigned sector = sectorIndex(addr);
    if (w < 0) {
        statLineMisses.inc();
        if (observer_)
            observer_->onAccess(line, set, sector, res, is_write);
        return res;
    }
    res.lineHit = true;
    statLineHits.inc();
    Way &way = ways_[set * params_.assoc + w];
    const SectorMask bit = sectorBit(addr);
    if (way.validMask & bit) {
        res.sectorHit = true;
        statSectorHits.inc();
        repl_->onHit(set, static_cast<unsigned>(w));
        if (is_write) {
            way.dirtyMask |= bit;
            statWriteHits.inc();
            CACHECRAFT_VERIFY_HOOK(onCacheLineState(
                name_.c_str(), line, way.validMask, way.dirtyMask));
        }
    } else {
        statSectorMisses.inc();
        // Touching the line keeps it warm even on a sector miss.
        repl_->onHit(set, static_cast<unsigned>(w));
    }
    if (observer_)
        observer_->onAccess(line, set, sector, res, is_write);
    return res;
}

std::optional<Eviction>
SectoredCache::fill(Addr addr, SectorMask fill_mask, SectorMask dirty_mask)
{
    CC_HOST_ZONE("cache.fill");
    statFills.inc();
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    int w = findWay(set, line);
    std::optional<Eviction> evicted;
    const bool allocated = w < 0;

    if (w < 0) {
        // Prefer an invalid way; otherwise ask the policy.
        const std::size_t base = set * params_.assoc;
        for (unsigned i = 0; i < params_.assoc; ++i) {
            if (!ways_[base + i].valid) {
                w = static_cast<int>(i);
                break;
            }
        }
        if (w < 0) {
            w = static_cast<int>(repl_->victim(set));
            Way &victim_way = ways_[base + w];
            Eviction ev;
            ev.lineAddr = victim_way.lineAddr;
            ev.validMask = victim_way.validMask;
            ev.dirtyMask = victim_way.dirtyMask;
            evicted = ev;
            statEvictions.inc();
            if (ev.dirtyMask)
                statDirtyEvictions.inc();
            if (observer_)
                observer_->onEvict(ev.lineAddr, set, ev.validMask);
        }
        Way &way = ways_[base + w];
        way.valid = true;
        way.lineAddr = line;
        way.validMask = 0;
        way.dirtyMask = 0;
        repl_->onInsert(set, static_cast<unsigned>(w));
    }

    Way &way = ways_[set * params_.assoc + w];
    way.validMask |= fill_mask;
    way.dirtyMask |= static_cast<SectorMask>(dirty_mask & fill_mask);
    CACHECRAFT_VERIFY_HOOK(onCacheLineState(name_.c_str(), line,
                                            way.validMask, way.dirtyMask));
    if (observer_)
        observer_->onFill(line, set, allocated);
    return evicted;
}

std::optional<Eviction>
SectoredCache::invalidate(Addr addr)
{
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    if (w < 0)
        return std::nullopt;
    Way &way = ways_[set * params_.assoc + w];
    Eviction ev;
    ev.lineAddr = way.lineAddr;
    ev.validMask = way.validMask;
    ev.dirtyMask = way.dirtyMask;
    way.valid = false;
    way.lineAddr = kNoAddr;
    way.validMask = 0;
    way.dirtyMask = 0;
    repl_->onInvalidate(set, static_cast<unsigned>(w));
    statInvalidates.inc();
    if (observer_)
        observer_->onEvict(ev.lineAddr, set, ev.validMask);
    return ev;
}

SectorMask
SectoredCache::presentSectors(Addr addr) const
{
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    return w < 0 ? 0 : ways_[set * params_.assoc + w].validMask;
}

SectorMask
SectoredCache::dirtySectors(Addr addr) const
{
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    return w < 0 ? 0 : ways_[set * params_.assoc + w].dirtyMask;
}

void
SectoredCache::cleanSectors(Addr addr, SectorMask mask)
{
    const Addr line = alignDown(addr, params_.lineBytes);
    const std::size_t set = setIndex(line);
    const int w = findWay(set, line);
    if (w >= 0)
        ways_[set * params_.assoc + w].dirtyMask &=
            static_cast<SectorMask>(~mask);
}

void
SectoredCache::forEachLine(
    const std::function<void(Addr, SectorMask, SectorMask)> &fn) const
{
    for (const Way &way : ways_) {
        if (way.valid)
            fn(way.lineAddr, way.validMask, way.dirtyMask);
    }
}

std::size_t
SectoredCache::numResidentLines() const
{
    std::size_t n = 0;
    for (const Way &way : ways_)
        n += way.valid ? 1 : 0;
    return n;
}

} // namespace cachecraft
