#include "verify/fuzz.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/gpu_system.hpp"
#include "ecc/codec.hpp"
#include "telemetry/flight_recorder.hpp"
#include "verify/invariants.hpp"
#include "verify/oracle.hpp"
#include "verify/verify.hpp"

namespace cachecraft::verify {

namespace {

/** Cache geometries that satisfy SectoredCache's constructor checks. */
struct CacheShape
{
    std::size_t sizeBytes;
    unsigned assoc;
};

constexpr CacheShape kL2Shapes[] = {{4096, 2}, {8192, 4}, {16384, 4}};
constexpr CacheShape kMrcShapes[] = {{512, 2}, {1024, 4}, {2048, 4}};
constexpr std::size_t kRegionSizes[] = {2048, 4096, 8192, 16384};

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kNone,
    SchemeKind::kInlineNaive,
    SchemeKind::kEccCache,
    SchemeKind::kCacheCraft,
};

/**
 * Fault patterns each codec is guaranteed to correct (one plan per
 * protection chunk keeps codewords independent, so any combination
 * drawn from this set must decode to the exact original bytes —
 * miscorrection under these patterns is a real bug, never noise).
 */
std::vector<FaultPattern>
correctablePatterns(ecc::CodecKind codec)
{
    switch (codec) {
      case ecc::CodecKind::kChipkill:
        // RS t=2 over 1 B symbols: every modeled pattern stays within
        // two symbols of one codeword.
        return allFaultPatterns();
      case ecc::CodecKind::kSecDed:
        // Words are not bit-interleaved: an adjacent pair lands in one
        // 64-bit word and is only detected, so single flips are the
        // limit of guaranteed correction.
        return {FaultPattern::kSingleBit, FaultPattern::kEccChunkBit};
      case ecc::CodecKind::kSecBadaec:
      case ecc::CodecKind::kAftEcc:
        return {FaultPattern::kSingleBit, FaultPattern::kEccChunkBit};
    }
    return {FaultPattern::kSingleBit};
}

} // namespace

SystemConfig
FuzzCase::toConfig() const
{
    SystemConfig cfg;
    cfg.numSms = numSms;
    cfg.sm.l1.sizeBytes = 4 * 1024;
    cfg.sm.l1.assoc = 2;
    cfg.sm.l1MshrEntries = 4;
    cfg.l2.cache.sizeBytes = l2SizeBytes;
    cfg.l2.cache.assoc = l2Assoc;
    cfg.l2.mshrEntries = l2MshrEntries;
    cfg.l2.fetchWholeLine = fetchWholeLine;
    cfg.dram.numChannels = numChannels;
    cfg.dram.numBanks = 4;
    cfg.dram.channelCapacity = 16ull << 20;
    cfg.scheme = scheme;
    cfg.codec = codec;
    cfg.mrc.sizeBytes = mrcSizeBytes;
    cfg.mrc.assoc = mrcAssoc;
    cfg.mrc.chunkGranularity = chunkGranularity;
    cfg.mrc.writebackMrc = writebackMrc;
    cfg.mrc.eagerWriteout = eagerWriteout;
    cfg.mrc.fetchOnWriteMiss = fetchOnWriteMiss;
    cfg.mrc.plantStaleMetaBug = plantMrcStaleMetaBug;
    cfg.coLocatedLayout = coLocated;
    cfg.seed = seed;
    return cfg;
}

KernelTrace
FuzzCase::toTrace() const
{
    KernelTrace trace;
    trace.name = strCat("fuzz-", toString(scheme), "-", seed);
    // Compact to non-empty warp streams (minimization can leave warp
    // indices with no instructions; an instruction-less warp stream
    // is pointless and SM scheduling never needs the gap preserved).
    std::map<unsigned, std::vector<WarpInst>> streams;
    for (const FuzzAccess &a : accesses) {
        WarpInst inst;
        inst.isMem = true;
        inst.isWrite = a.isWrite;
        inst.lanes = a.lanes;
        streams[a.warp].push_back(std::move(inst));
    }
    for (auto &entry : streams)
        trace.warps.push_back(std::move(entry.second));
    trace.regions.push_back({regionBase, regionBytes, tag});
    return trace;
}

FuzzCase
generateCase(std::uint64_t seed, SchemeKind scheme)
{
    Xoshiro256 rng(seed ^ (0x9E3779B97F4A7C15ull *
                           (static_cast<std::uint64_t>(scheme) + 1)));
    FuzzCase c;
    c.seed = seed;
    c.scheme = scheme;

    const auto codecs = ecc::allCodecs();
    c.codec = codecs[rng.below(codecs.size())];
    c.numSms = 1 + static_cast<unsigned>(rng.below(3));
    c.numChannels = 1 + static_cast<unsigned>(rng.below(2));
    const CacheShape l2 = kL2Shapes[rng.below(std::size(kL2Shapes))];
    c.l2SizeBytes = l2.sizeBytes;
    c.l2Assoc = l2.assoc;
    c.l2MshrEntries = std::size_t{2} << rng.below(3); // 2, 4, or 8
    c.fetchWholeLine = rng.below(2) != 0;
    const CacheShape mrc = kMrcShapes[rng.below(std::size(kMrcShapes))];
    c.mrcSizeBytes = mrc.sizeBytes;
    c.mrcAssoc = mrc.assoc;
    c.chunkGranularity = rng.below(2) != 0;
    c.writebackMrc = rng.below(2) != 0;
    c.eagerWriteout = rng.below(4) == 0;
    c.fetchOnWriteMiss = rng.below(2) != 0;
    c.coLocated = rng.below(2) != 0;
    c.regionBase = rng.below(8) * kChunkBytes;
    c.regionBytes = kRegionSizes[rng.below(std::size(kRegionSizes))];
    c.tag = static_cast<std::uint8_t>(1 + rng.below(3));

    const unsigned numWarps = 1 + static_cast<unsigned>(rng.below(4));
    const std::size_t numAccesses = 4 + rng.below(61); // 4..64
    c.accesses.reserve(numAccesses);
    for (std::size_t i = 0; i < numAccesses; ++i) {
        FuzzAccess a;
        a.warp = static_cast<unsigned>(rng.below(numWarps));
        a.isWrite = rng.below(2) != 0;
        const std::size_t laneCount = 1 + rng.below(16);
        // Half the instructions stream within one line (coalescing,
        // sector hits, write-after-write); the rest gather across the
        // whole region (misses, evictions, chunk churn).
        const bool local = rng.below(2) != 0;
        const Addr focus =
            c.regionBase + alignDown(rng.below(c.regionBytes), kLineBytes);
        a.lanes.reserve(laneCount);
        for (std::size_t l = 0; l < laneCount; ++l) {
            if (local)
                a.lanes.push_back(focus + rng.below(kLineBytes / 4) * 4);
            else
                a.lanes.push_back(c.regionBase +
                                  rng.below(c.regionBytes / 4) * 4);
        }
        c.accesses.push_back(std::move(a));
    }

    if (scheme != SchemeKind::kNone) {
        // Faults only where a codec stands behind the data, drawn from
        // its guaranteed-correctable set, at most one per chunk.
        FaultInjector injector(SplitMix64(seed ^ 0xFA17FA17ull).next());
        const auto patterns = correctablePatterns(c.codec);
        const std::size_t faultCount = rng.below(3); // 0..2
        std::set<Addr> usedChunks;
        for (std::size_t i = 0; i < faultCount; ++i) {
            for (unsigned attempt = 0; attempt < 8; ++attempt) {
                FaultPlan plan =
                    injector.plan(patterns[rng.below(patterns.size())],
                                  c.regionBase, c.regionBytes);
                if (usedChunks.insert(chunkBase(plan.sectorAddr)).second) {
                    c.faults.push_back(std::move(plan));
                    break;
                }
            }
        }
    }
    return c;
}

FuzzResult
runCase(const FuzzCase &c, const std::string &flight_dump_path)
{
    FuzzResult result;
    SystemConfig cfg = c.toConfig();
    if (!flight_dump_path.empty())
        cfg.telemetry.flightRecorderEnabled = true;
    const KernelTrace trace = c.toTrace();

    GpuSystem gpu(cfg);
    const auto codec = ecc::makeCodec(c.codec);
    GoldenOracle oracle(codec.get());
    InvariantChecker invariants;
    ListenerFanout fanout;
    fanout.add(&oracle);
    fanout.add(&invariants);
    ScopedListener scope(&fanout);

    gpu.initialize(trace);

    std::set<Addr> tainted;
    for (const FaultPlan &plan : c.faults) {
        FaultInjector::apply(gpu, plan);
        if (plan.pattern == FaultPattern::kEccChunkBit) {
            // A flipped check bit can belong to any of the chunk's
            // eight per-sector fields.
            oracle.taintChunk(plan.sectorAddr);
            const Addr chunk = chunkBase(plan.sectorAddr);
            for (unsigned s = 0; s < kSectorsPerChunk; ++s)
                tainted.insert(chunk + s * kSectorBytes);
        } else {
            oracle.taintSector(plan.sectorAddr);
            tainted.insert(sectorBase(plan.sectorAddr));
        }
    }

    const RunStats rs = gpu.run(trace);

    if (!flight_dump_path.empty()) {
        if (const telemetry::FlightRecorder *fr =
                gpu.telemetry().recorder()) {
            std::ofstream dump(flight_dump_path,
                               std::ios::binary | std::ios::trunc);
            if (dump)
                fr->writeBinary(dump);
        }
    }

    for (const std::string &v : oracle.violations())
        result.violations.push_back("oracle: " + v);
    for (const std::string &v : invariants.violations())
        result.violations.push_back("invariant: " + v);
    for (const std::string &v : verifyFinalState(gpu, trace, tainted))
        result.violations.push_back("final-state: " + v);
    result.decodesChecked = oracle.decodesChecked();
    result.invariantEventsChecked = invariants.eventsChecked();
    result.ok = result.violations.empty() && oracle.ok() &&
                invariants.ok();
    return result;
}

FuzzCase
minimizeCase(const FuzzCase &failing, unsigned *runs_out)
{
    unsigned runs = 0;
    const auto fails = [&runs](const FuzzCase &cand) {
        ++runs;
        return !runCase(cand).ok;
    };

    FuzzCase best = failing;

    // Phase 1: ddmin over the access list.
    std::size_t granularity = 2;
    while (best.accesses.size() >= 2) {
        const std::size_t len = best.accesses.size();
        const std::size_t chunk = (len + granularity - 1) / granularity;
        bool reduced = false;
        for (std::size_t start = 0; start < len; start += chunk) {
            FuzzCase cand = best;
            const auto first = cand.accesses.begin() +
                               static_cast<std::ptrdiff_t>(start);
            const auto last =
                cand.accesses.begin() +
                static_cast<std::ptrdiff_t>(std::min(start + chunk, len));
            cand.accesses.erase(first, last);
            if (fails(cand)) {
                best = std::move(cand);
                granularity = std::max<std::size_t>(2, granularity - 1);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (chunk <= 1)
                break;
            granularity = std::min(len, granularity * 2);
        }
    }
    // A fault-only failure may need no accesses at all.
    if (!best.accesses.empty()) {
        FuzzCase cand = best;
        cand.accesses.clear();
        if (fails(cand))
            best = std::move(cand);
    }

    // Phase 2: lane reduction within each surviving access.
    for (std::size_t i = 0; i < best.accesses.size(); ++i) {
        while (best.accesses[i].lanes.size() > 1) {
            FuzzCase cand = best;
            auto &lanes = cand.accesses[i].lanes;
            lanes.resize(std::max<std::size_t>(1, lanes.size() / 2));
            if (!fails(cand))
                break;
            best = std::move(cand);
        }
    }

    // Phase 3: greedy knob simplification.
    const auto tryReduce = [&](auto &&mutate) {
        FuzzCase cand = best;
        mutate(cand);
        if (fails(cand))
            best = std::move(cand);
    };
    for (std::size_t i = best.faults.size(); i-- > 0;) {
        tryReduce([i](FuzzCase &x) {
            x.faults.erase(x.faults.begin() +
                           static_cast<std::ptrdiff_t>(i));
        });
    }
    tryReduce([](FuzzCase &x) { x.numSms = 1; });
    tryReduce([](FuzzCase &x) { x.numChannels = 1; });
    tryReduce([](FuzzCase &x) {
        for (FuzzAccess &a : x.accesses)
            a.warp = 0;
    });
    tryReduce([](FuzzCase &x) { x.fetchWholeLine = false; });
    tryReduce([](FuzzCase &x) { x.eagerWriteout = false; });
    tryReduce([](FuzzCase &x) { x.fetchOnWriteMiss = false; });
    tryReduce([](FuzzCase &x) { x.chunkGranularity = false; });
    tryReduce([](FuzzCase &x) {
        x.l2SizeBytes = kL2Shapes[0].sizeBytes;
        x.l2Assoc = kL2Shapes[0].assoc;
    });
    tryReduce([](FuzzCase &x) {
        x.mrcSizeBytes = kMrcShapes[0].sizeBytes;
        x.mrcAssoc = kMrcShapes[0].assoc;
    });
    tryReduce([](FuzzCase &x) {
        // Slide the whole program down with the region, or candidate
        // accesses would land outside it and panic.
        const Addr base = x.regionBase;
        x.regionBase = 0;
        for (FuzzAccess &a : x.accesses)
            for (Addr &lane : a.lanes)
                lane -= base;
        for (FaultPlan &f : x.faults)
            f.sectorAddr -= base;
    });

    if (runs_out)
        *runs_out = runs;
    return best;
}

std::string
toJson(const FuzzCase &c)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.fuzz_case");
    w.key("schema_version").value(kJsonSchemaVersion);
    // As a string: a JSON number would round-trip through double and
    // lose the low bits of a 64-bit seed.
    w.key("seed").value(strCat(c.seed));
    w.key("scheme").value(toString(c.scheme));
    w.key("codec").value(ecc::toString(c.codec));
    w.key("sms").value(std::uint64_t{c.numSms});
    w.key("channels").value(std::uint64_t{c.numChannels});
    w.key("l2_bytes").value(std::uint64_t{c.l2SizeBytes});
    w.key("l2_assoc").value(std::uint64_t{c.l2Assoc});
    w.key("l2_mshrs").value(std::uint64_t{c.l2MshrEntries});
    w.key("fetch_whole_line").value(c.fetchWholeLine);
    w.key("mrc_bytes").value(std::uint64_t{c.mrcSizeBytes});
    w.key("mrc_assoc").value(std::uint64_t{c.mrcAssoc});
    w.key("chunk_granularity").value(c.chunkGranularity);
    w.key("writeback_mrc").value(c.writebackMrc);
    w.key("eager_writeout").value(c.eagerWriteout);
    w.key("fetch_on_write_miss").value(c.fetchOnWriteMiss);
    w.key("co_located").value(c.coLocated);
    w.key("region_base").value(std::uint64_t{c.regionBase});
    w.key("region_bytes").value(std::uint64_t{c.regionBytes});
    w.key("tag").value(std::uint64_t{c.tag});
    w.key("plant_mrc_stale_meta_bug").value(c.plantMrcStaleMetaBug);
    w.key("accesses").beginArray();
    for (const FuzzAccess &a : c.accesses) {
        w.beginObject();
        w.key("warp").value(std::uint64_t{a.warp});
        w.key("write").value(a.isWrite);
        w.key("lanes").beginArray();
        for (const Addr addr : a.lanes)
            w.value(std::uint64_t{addr});
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("faults").beginArray();
    for (const FaultPlan &p : c.faults) {
        w.beginObject();
        w.key("pattern").value(toString(p.pattern));
        w.key("sector").value(std::uint64_t{p.sectorAddr});
        w.key("data_bits").beginArray();
        for (const unsigned bit : p.dataBits)
            w.value(std::uint64_t{bit});
        w.endArray();
        w.key("ecc_byte").value(std::uint64_t{p.eccByte});
        w.key("ecc_bit").value(std::uint64_t{p.eccBit});
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

namespace {

bool
parseFail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

bool
readU64(const JsonValue &obj, std::string_view key, std::uint64_t *out,
        std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber())
        return parseFail(error, strCat("missing numeric field: ", key));
    *out = static_cast<std::uint64_t>(v->asNumber());
    return true;
}

bool
readBool(const JsonValue &obj, std::string_view key, bool *out,
         std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isBool())
        return parseFail(error, strCat("missing boolean field: ", key));
    *out = v->asBool();
    return true;
}

} // namespace

bool
fromJson(std::string_view text, FuzzCase *out, std::string *error)
{
    const auto parsed = jsonParse(text, error);
    if (!parsed)
        return false;
    const JsonValue &root = *parsed;
    if (!root.isObject())
        return parseFail(error, "reproducer is not a JSON object");

    FuzzCase c;

    const JsonValue *seedV = root.find("seed");
    if (seedV && seedV->isString())
        c.seed = std::strtoull(seedV->asString().c_str(), nullptr, 10);
    else if (seedV && seedV->isNumber())
        c.seed = static_cast<std::uint64_t>(seedV->asNumber());
    else
        return parseFail(error, "missing field: seed");

    const JsonValue *schemeV = root.find("scheme");
    if (!schemeV || !schemeV->isString())
        return parseFail(error, "missing string field: scheme");
    bool schemeFound = false;
    for (const SchemeKind kind : kAllSchemes) {
        if (schemeV->asString() == toString(kind)) {
            c.scheme = kind;
            schemeFound = true;
            break;
        }
    }
    if (!schemeFound)
        return parseFail(error,
                         strCat("unknown scheme: ", schemeV->asString()));

    const JsonValue *codecV = root.find("codec");
    if (!codecV || !codecV->isString())
        return parseFail(error, "missing string field: codec");
    bool codecFound = false;
    for (const ecc::CodecKind kind : ecc::allCodecs()) {
        if (codecV->asString() == ecc::toString(kind)) {
            c.codec = kind;
            codecFound = true;
            break;
        }
    }
    if (!codecFound)
        return parseFail(error,
                         strCat("unknown codec: ", codecV->asString()));

    std::uint64_t u = 0;
    if (!readU64(root, "sms", &u, error))
        return false;
    c.numSms = static_cast<unsigned>(u);
    if (!readU64(root, "channels", &u, error))
        return false;
    c.numChannels = static_cast<unsigned>(u);
    if (!readU64(root, "l2_bytes", &u, error))
        return false;
    c.l2SizeBytes = u;
    if (!readU64(root, "l2_assoc", &u, error))
        return false;
    c.l2Assoc = static_cast<unsigned>(u);
    if (!readU64(root, "l2_mshrs", &u, error))
        return false;
    c.l2MshrEntries = u;
    if (!readBool(root, "fetch_whole_line", &c.fetchWholeLine, error))
        return false;
    if (!readU64(root, "mrc_bytes", &u, error))
        return false;
    c.mrcSizeBytes = u;
    if (!readU64(root, "mrc_assoc", &u, error))
        return false;
    c.mrcAssoc = static_cast<unsigned>(u);
    if (!readBool(root, "chunk_granularity", &c.chunkGranularity, error))
        return false;
    if (!readBool(root, "writeback_mrc", &c.writebackMrc, error))
        return false;
    if (!readBool(root, "eager_writeout", &c.eagerWriteout, error))
        return false;
    if (!readBool(root, "fetch_on_write_miss", &c.fetchOnWriteMiss, error))
        return false;
    if (!readBool(root, "co_located", &c.coLocated, error))
        return false;
    if (!readU64(root, "region_base", &u, error))
        return false;
    c.regionBase = u;
    if (!readU64(root, "region_bytes", &u, error))
        return false;
    c.regionBytes = u;
    if (!readU64(root, "tag", &u, error))
        return false;
    c.tag = static_cast<std::uint8_t>(u);
    if (!readBool(root, "plant_mrc_stale_meta_bug", &c.plantMrcStaleMetaBug,
                  error))
        return false;

    const JsonValue *accessesV = root.find("accesses");
    if (!accessesV || !accessesV->isArray())
        return parseFail(error, "missing array field: accesses");
    for (const JsonValue &entry : accessesV->asArray()) {
        if (!entry.isObject())
            return parseFail(error, "access entry is not an object");
        FuzzAccess a;
        if (!readU64(entry, "warp", &u, error))
            return false;
        a.warp = static_cast<unsigned>(u);
        if (!readBool(entry, "write", &a.isWrite, error))
            return false;
        const JsonValue *lanesV = entry.find("lanes");
        if (!lanesV || !lanesV->isArray())
            return parseFail(error, "access entry lacks lanes array");
        for (const JsonValue &lane : lanesV->asArray()) {
            if (!lane.isNumber())
                return parseFail(error, "lane address is not a number");
            a.lanes.push_back(static_cast<Addr>(lane.asNumber()));
        }
        c.accesses.push_back(std::move(a));
    }

    const JsonValue *faultsV = root.find("faults");
    if (!faultsV || !faultsV->isArray())
        return parseFail(error, "missing array field: faults");
    for (const JsonValue &entry : faultsV->asArray()) {
        if (!entry.isObject())
            return parseFail(error, "fault entry is not an object");
        FaultPlan p;
        const JsonValue *patternV = entry.find("pattern");
        if (!patternV || !patternV->isString())
            return parseFail(error, "fault entry lacks pattern");
        bool patternFound = false;
        for (const FaultPattern pattern : allFaultPatterns()) {
            if (patternV->asString() == toString(pattern)) {
                p.pattern = pattern;
                patternFound = true;
                break;
            }
        }
        if (!patternFound)
            return parseFail(
                error, strCat("unknown fault pattern: ",
                              patternV->asString()));
        if (!readU64(entry, "sector", &u, error))
            return false;
        p.sectorAddr = u;
        const JsonValue *bitsV = entry.find("data_bits");
        if (!bitsV || !bitsV->isArray())
            return parseFail(error, "fault entry lacks data_bits");
        for (const JsonValue &bit : bitsV->asArray()) {
            if (!bit.isNumber())
                return parseFail(error, "data bit is not a number");
            p.dataBits.push_back(static_cast<unsigned>(bit.asNumber()));
        }
        if (!readU64(entry, "ecc_byte", &u, error))
            return false;
        p.eccByte = static_cast<unsigned>(u);
        if (!readU64(entry, "ecc_bit", &u, error))
            return false;
        p.eccBit = static_cast<unsigned>(u);
        c.faults.push_back(std::move(p));
    }

    *out = std::move(c);
    return true;
}

} // namespace cachecraft::verify
