/**
 * @file
 * Tests for the miss-ratio-curve layer (telemetry/cache_curves): the
 * exactness contract (one-pass curves equal a brute-force per-set LRU
 * replay of the retained stream, at several associativities, across
 * seeded full-system runs on every scheme), per-kind aggregation,
 * JSON/SVG export shape, and the report-gating / timing-neutrality
 * guarantees of the reuse profiler.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cachecraft.hpp"
#include "telemetry/cache_curves.hpp"
#include "telemetry/report.hpp"
#include "telemetry/reuse_dist.hpp"
#include "telemetry/telemetry.hpp"

namespace cachecraft::telemetry {
namespace {

/** Small system: every scheme, 2 channels, tight caches. */
SystemConfig
profiledConfig(SchemeKind scheme, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.numSms = 2;
    cfg.dram.numChannels = 2;
    cfg.dram.channelCapacity = 32ull << 20;
    cfg.l2.cache.sizeBytes = 16 * 1024;
    cfg.l2.cache.assoc = 4;
    cfg.mrc.sizeBytes = 2 * 1024;
    cfg.seed = seed;
    cfg.telemetry.reuseProfileEnabled = true;
    cfg.telemetry.reuseMaxAssoc = 16;
    cfg.telemetry.reuseRetainStream = true;
    return cfg;
}

WorkloadParams
smallWorkload(std::uint64_t seed)
{
    WorkloadParams p;
    p.footprintBytes = 128 * 1024;
    p.numWarps = 4;
    p.memInstsPerWarp = 6;
    p.seed = seed;
    return p;
}

// --------------------------------------------------------------------
// Exactness: one pass == brute force, across schemes and seeds
// --------------------------------------------------------------------

/**
 * The acceptance contract: for every monitored cache (all MRC and L2
 * slices) the single-pass miss counts equal an independent brute-force
 * LRU replay of the retained access stream — exactly, at several
 * associativities including 1, the geometric one, and the bound —
 * across seeded runs on all four schemes and varied access patterns.
 */
TEST(CurveExactness, OnePassMatchesBruteForceAcrossSchemesAndSeeds)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    constexpr SchemeKind kSchemes[] = {
        SchemeKind::kNone,
        SchemeKind::kInlineNaive,
        SchemeKind::kEccCache,
        SchemeKind::kCacheCraft,
    };
    constexpr WorkloadKind kKinds[] = {
        WorkloadKind::kStreaming,
        WorkloadKind::kStrided,
        WorkloadKind::kRandomAccess,
        WorkloadKind::kReduction,
    };

    std::size_t checksRun = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const SchemeKind scheme = kSchemes[seed % std::size(kSchemes)];
        GpuSystem gpu(profiledConfig(scheme, seed));
        gpu.run(makeWorkload(kKinds[(seed / 3) % std::size(kKinds)],
                             smallWorkload(seed)));

        const ReuseProfiler *rp = gpu.telemetry().reuse();
        ASSERT_NE(rp, nullptr);
        ASSERT_FALSE(rp->monitors().empty());
        bool sawMrc = false;
        bool sawL2 = false;
        for (const auto &m : rp->monitors()) {
            sawMrc = sawMrc || m->kind() == "mrc";
            sawL2 = sawL2 || m->kind() == "l2";
            const unsigned bound = m->options().maxAssoc;
            const unsigned probes[] = {
                1u, 2u, m->geometry().numWays, bound / 2, bound};
            for (unsigned ways : probes) {
                if (ways == 0 || ways > bound)
                    continue;
                ASSERT_EQ(m->missesAtWays(ways),
                          bruteForceLruMisses(*m, ways))
                    << "seed " << seed << " cache " << m->name()
                    << " ways " << ways;
                ++checksRun;
            }
        }
        // Both cache classes must actually be under test: MRC slices
        // only exist when a protection scheme instantiates them.
        EXPECT_TRUE(sawL2) << "seed " << seed;
        if (scheme == SchemeKind::kEccCache ||
            scheme == SchemeKind::kCacheCraft) {
            EXPECT_TRUE(sawMrc) << "seed " << seed;
        }
    }
    // ≥3 distinct associativities per cache over many caches.
    EXPECT_GT(checksRun, 100u);
}

TEST(CurveExactness, CurvesAreMonotoneAndEndAtColdMisses)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    GpuSystem gpu(profiledConfig(SchemeKind::kCacheCraft, 3));
    gpu.run(makeWorkload(WorkloadKind::kStreaming, smallWorkload(3)));
    const ReuseProfiler *rp = gpu.telemetry().reuse();
    ASSERT_NE(rp, nullptr);
    for (const auto &m : rp->monitors()) {
        const auto curve = missRatioCurve(*m);
        ASSERT_EQ(curve.size(), m->options().maxAssoc);
        for (std::size_t i = 1; i < curve.size(); ++i) {
            EXPECT_LE(curve[i].misses, curve[i - 1].misses);
            EXPECT_EQ(curve[i].capacityBytes,
                      m->geometry().numSets * curve[i].ways *
                          m->geometry().lineBytes);
        }
        EXPECT_GE(curve.back().misses, m->coldMisses());
    }
}

// --------------------------------------------------------------------
// Aggregation
// --------------------------------------------------------------------

ReuseGeometry
geom(std::size_t sets, std::size_t line)
{
    ReuseGeometry g;
    g.numSets = sets;
    g.numWays = 2;
    g.lineBytes = line;
    g.sectorsPerLine = 4;
    return g;
}

void
feed(CacheReuseMonitor *m, std::initializer_list<Addr> lines)
{
    for (Addr line : lines) {
        CacheAccessResult res;
        m->onAccess(line, 0, 0, res, false);
    }
}

TEST(AggregateByKind, SumsSameGeometrySlicesPerKind)
{
    ReuseOptions opt;
    opt.maxAssoc = 4;
    ReuseProfiler p(opt);
    feed(p.attach("l2.slice0", "l2", geom(4, 32)), {0x000, 0x080, 0x000});
    feed(p.attach("l2.slice1", "l2", geom(4, 32)), {0x100});
    feed(p.attach("mrc0", "mrc", geom(2, 32)), {0x000});

    const auto kinds = aggregateByKind(p);
    ASSERT_EQ(kinds.size(), 2u);
    EXPECT_EQ(kinds[0].kind, "l2");
    EXPECT_EQ(kinds[0].caches, 2u);
    EXPECT_EQ(kinds[0].accesses, 4u);
    EXPECT_EQ(kinds[0].coldMisses, 3u);
    // The reuse at distance 1 hits from 2 ways on.
    EXPECT_EQ(kinds[0].points[0].misses, 4u);
    EXPECT_EQ(kinds[0].points[1].misses, 3u);
    EXPECT_EQ(kinds[1].kind, "mrc");
    EXPECT_EQ(kinds[1].caches, 1u);
}

TEST(AggregateByKind, MixedGeometryKindsAreSkippedNotMisSummed)
{
    ReuseOptions opt;
    ReuseProfiler p(opt);
    feed(p.attach("l2.slice0", "l2", geom(4, 32)), {0x000});
    feed(p.attach("l2.slice1", "l2", geom(8, 32)), {0x000}); // mixed
    feed(p.attach("l2.slice2", "l2", geom(4, 32)), {0x000});
    feed(p.attach("mrc0", "mrc", geom(2, 32)), {0x000});

    // "l2" slices disagree on numSets: the kind must vanish entirely
    // (a partial sum would silently misreport the curve).
    const auto kinds = aggregateByKind(p);
    ASSERT_EQ(kinds.size(), 1u);
    EXPECT_EQ(kinds[0].kind, "mrc");
}

// --------------------------------------------------------------------
// Export shape
// --------------------------------------------------------------------

TEST(CurvesJson, SectionCarriesCachesKindsAndHeatmaps)
{
    ReuseOptions opt;
    opt.maxAssoc = 4;
    opt.retainStream = false;
    ReuseProfiler p(opt);
    feed(p.attach("l2.slice0", "l2", geom(4, 32)),
         {0x000, 0x080, 0x000});

    std::ostringstream os;
    JsonWriter w(os);
    writeCurvesJson(w, p);
    std::string error;
    const auto doc = jsonParse(os.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    const JsonValue *options = doc->find("options");
    ASSERT_NE(options, nullptr);
    EXPECT_EQ(options->find("max_assoc")->asNumber(), 4.0);
    const JsonValue *caches = doc->find("caches");
    ASSERT_NE(caches, nullptr);
    ASSERT_EQ(caches->asArray().size(), 1u);
    const JsonValue &cache = caches->asArray()[0];
    EXPECT_EQ(cache.find("name")->asString(), "l2.slice0");
    EXPECT_EQ(cache.find("accesses")->asNumber(), 3.0);
    EXPECT_EQ(cache.find("curve")->asArray().size(), 4u);
    const JsonValue *heatmap = cache.find("heatmap");
    ASSERT_NE(heatmap, nullptr);
    EXPECT_NE(heatmap->find("occupancy"), nullptr);
    ASSERT_NE(cache.find("sector_locality"), nullptr);
    const JsonValue *kinds = doc->find("kinds");
    ASSERT_NE(kinds, nullptr);
    ASSERT_EQ(kinds->asArray().size(), 1u);
}

TEST(CurvesSvg, RendersDeterministicallyWithEmptyState)
{
    ReuseOptions opt;
    ReuseProfiler empty(opt);
    const std::string blank = renderCurvesSvg(empty);
    EXPECT_NE(blank.find("no profiled accesses"), std::string::npos);

    ReuseProfiler p(opt);
    feed(p.attach("l2.slice0", "l2", geom(4, 32)),
         {0x000, 0x080, 0x000, 0x100});
    const std::string svg = renderCurvesSvg(p);
    EXPECT_NE(svg.find("<polyline"), std::string::npos);
    EXPECT_EQ(svg, renderCurvesSvg(p)); // byte-deterministic
}

// --------------------------------------------------------------------
// Report gating and timing neutrality
// --------------------------------------------------------------------

TEST(ReuseProfileGate, DisabledRunsOmitTheCurvesSectionByteForByte)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "tracing compiled out";

    SystemConfig off = profiledConfig(SchemeKind::kCacheCraft, 5);
    off.telemetry.reuseProfileEnabled = false;
    off.telemetry.sampleInterval = 0;
    SystemConfig on = profiledConfig(SchemeKind::kCacheCraft, 5);
    on.telemetry.sampleInterval = 0;

    GpuSystem a(off);
    GpuSystem b(on);
    const auto trace =
        makeWorkload(WorkloadKind::kStreaming, smallWorkload(5));
    RunStats ra = a.run(trace);
    RunStats rb = b.run(trace);

    EXPECT_EQ(a.telemetry().reuse(), nullptr);
    ASSERT_NE(b.telemetry().reuse(), nullptr);

    // Observation is free: not one simulated cycle moves.
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dramTotalTxns, rb.dramTotalTxns);

    ra.simThroughput = rb.simThroughput = SimThroughput{};
    std::ostringstream osa;
    std::ostringstream osb;
    writeRunReport(osa, RunManifest{}, a.config(), ra,
                   a.statsRegistry(), a.sampler(), nullptr, nullptr,
                   a.telemetry().reuse());
    writeRunReport(osb, RunManifest{}, b.config(), rb,
                   b.statsRegistry(), b.sampler(), nullptr, nullptr,
                   nullptr);
    // A disabled (null) profiler writes the exact pre-feature bytes,
    // whichever side the null comes from.
    EXPECT_EQ(osa.str(), osb.str());
    EXPECT_EQ(osa.str().find("\"curves\""), std::string::npos);

    std::ostringstream osc;
    writeRunReport(osc, RunManifest{}, b.config(), rb,
                   b.statsRegistry(), b.sampler(), nullptr, nullptr,
                   b.telemetry().reuse());
    EXPECT_NE(osc.str().find("\"curves\""), std::string::npos);
    std::string error;
    const auto doc = jsonParse(osc.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *curves = doc->find("curves");
    ASSERT_NE(curves, nullptr);
    EXPECT_FALSE(curves->find("caches")->asArray().empty());
}

TEST(ReuseProfileGate, BruteForceWithoutRetainedStreamDies)
{
    ReuseOptions opt; // retainStream off
    CacheReuseMonitor m("c", "l2", geom(4, 32), opt);
    EXPECT_DEATH(bruteForceLruMisses(m, 2), "retained stream");
}

} // namespace
} // namespace cachecraft::telemetry
