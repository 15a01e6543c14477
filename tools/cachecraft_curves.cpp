/**
 * @file
 * cachecraft_curves — the cache-behavior observatory CLI.
 *
 * Runs one workload with one-pass reuse-distance profiling forced on
 * and renders what a capacity sweep would have needed dozens of runs
 * for: exact LRU miss-ratio curves of the L2 slices and the MRC at
 * every associativity up to a bound, per-set-group residency heatmaps,
 * and the metadata-locality histogram (how many distinct protection
 * chunks each resident MRC line served).
 *
 *   cachecraft_curves --workload gemm --scheme cachecraft
 *   cachecraft_curves --workload random --json curves.json --svg mrc.svg
 *   cachecraft_curves --workload streaming --validate
 *
 * --validate retains the raw access streams and replays them through a
 * brute-force per-set LRU model at several associativities per cache;
 * any mismatch with the one-pass curves is a bug and exits 1. This is
 * the exactness contract the CI curves-smoke job pins.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/cache_curves.hpp"
#include "telemetry/report.hpp"
#include "telemetry/reuse_dist.hpp"
#include "telemetry/telemetry.hpp"

#include "tool_args.hpp"

using namespace cachecraft;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_curves — one-pass miss-ratio curves, residency "
        "heatmaps,\nand metadata-locality attribution\n"
        "\n"
        "one built-in kernel, set up by the knobs below, with\n"
        "--reuse-profile forced on\n"
        "\n");
    printKnobHelp();
    std::printf(
        "\n"
        "heatmaps:\n"
        "  --set-groups N      heatmap rows per cache (64)\n"
        "  --epoch-accesses N  initial heatmap epoch length (4096)\n"
        "\n"
        "output:\n"
        "  --json FILE         write the curves document\n"
        "                      (schema cachecraft.curves/1)\n"
        "  --svg FILE          write the miss-ratio curve chart\n"
        "  --validate          retain the access streams and check the\n"
        "                      one-pass curves against brute-force LRU\n"
        "                      re-simulation (exit 1 on any mismatch)\n"
        "  --quiet             suppress the console summary\n");
}

std::string
fmtCapacity(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= 1024 * 1024 && bytes % (1024 * 1024) == 0)
        std::snprintf(buf, sizeof buf, "%llu MiB",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof buf, "%llu KiB",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof buf, "%llu B",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

/** The associativities --validate replays per cache: the extremes,
 *  the configured geometry, and a mid point — at least three. */
std::set<unsigned>
validationWays(const telemetry::CacheReuseMonitor &m)
{
    const unsigned max_assoc = m.options().maxAssoc;
    std::set<unsigned> ways = {1u, max_assoc};
    ways.insert(std::min(m.geometry().numWays, max_assoc));
    ways.insert(std::max(1u, max_assoc / 2));
    ways.insert(std::min(3u, max_assoc));
    return ways;
}

} // namespace

int
main(int argc, char **argv)
{
    KnobTarget run = toolKnobDefaults();
    SystemConfig &config = run.config;
    const WorkloadParams &wparams = run.params;
    const WorkloadKind &workload = run.workload;
    std::string json_path;
    std::string svg_path;
    bool validate = false;
    bool quiet = false;

    const ToolArgs args("cachecraft_curves", argc, argv, 1);
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--set-groups") {
            config.telemetry.reuseSetGroups = args.count<unsigned>(i);
            if (config.telemetry.reuseSetGroups == 0)
                fatal("--set-groups must be positive");
        } else if (flag == "--epoch-accesses") {
            config.telemetry.reuseEpochAccesses = args.count(i);
            if (config.telemetry.reuseEpochAccesses == 0)
                fatal("--epoch-accesses must be positive");
        } else if (flag == "--json") {
            json_path = args.value(i);
        } else if (flag == "--svg") {
            svg_path = args.value(i);
        } else if (flag == "--validate") {
            validate = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (!args.knob(i, run)) {
            usage();
            fatal("unknown flag: " + flag);
        }
    }

    if (const std::string error = knobTargetError(run); !error.empty())
        fatal(error);

    if (!telemetry::kTraceCompiledIn) {
        std::fprintf(stderr,
                     "cachecraft_curves: tracing was compiled out "
                     "(CACHECRAFT_DISABLE_TRACING); nothing to profile\n");
        return 2;
    }

    enableKnob(run, "reuse_profile");
    config.telemetry.reuseRetainStream = validate;

    GpuSystem gpu(config);
    const RunStats rs = gpu.run(makeWorkload(workload, wparams));
    const telemetry::ReuseProfiler *reuse = gpu.telemetry().reuse();
    if (!reuse)
        fatal("reuse profiler missing after an enabled run");

    if (!quiet) {
        std::printf("workload %s / scheme %s: %llu cycles\n",
                    toString(workload), toString(config.scheme),
                    static_cast<unsigned long long>(rs.cycles));
        for (const telemetry::KindCurve &k :
             telemetry::aggregateByKind(*reuse)) {
            std::printf(
                "%s (%zu slice%s, %zu sets x %zu B lines/slice): "
                "%llu accesses, %llu cold\n",
                k.kind.c_str(), k.caches, k.caches == 1 ? "" : "s",
                k.geometry.numSets, k.geometry.lineBytes,
                static_cast<unsigned long long>(k.accesses),
                static_cast<unsigned long long>(k.coldMisses));
            // A compressed curve: every power-of-two associativity.
            for (const telemetry::CurvePoint &p : k.points) {
                if ((p.ways & (p.ways - 1)) != 0)
                    continue;
                std::printf("  %9s (%2u ways): miss ratio %6.2f%%\n",
                            fmtCapacity(p.capacityBytes).c_str(),
                            p.ways, 100.0 * p.missRatio);
            }
        }
        for (const auto &m : reuse->monitors()) {
            if (m->kind() != "mrc")
                continue;
            const auto hist = m->sectorsServedHistogram();
            std::uint64_t lines = 0;
            std::uint64_t shared = 0;
            for (std::size_t k = 0; k < hist.size(); ++k) {
                lines += hist[k];
                if (k >= 2)
                    shared += hist[k];
            }
            std::printf(
                "%s locality: %llu lines resident over the run, "
                "%.1f%% served >=2 distinct chunks\n",
                m->name().c_str(),
                static_cast<unsigned long long>(lines),
                lines > 0 ? 100.0 * static_cast<double>(shared) /
                                static_cast<double>(lines)
                          : 0.0);
        }
    }

    if (validate) {
        std::size_t checks = 0;
        std::size_t failures = 0;
        for (const auto &m : reuse->monitors()) {
            for (unsigned ways : validationWays(*m)) {
                const std::uint64_t one_pass = m->missesAtWays(ways);
                const std::uint64_t brute =
                    telemetry::bruteForceLruMisses(*m, ways);
                ++checks;
                if (one_pass != brute) {
                    ++failures;
                    std::fprintf(
                        stderr,
                        "MISMATCH %s at %u ways: one-pass %llu != "
                        "brute-force %llu\n",
                        m->name().c_str(), ways,
                        static_cast<unsigned long long>(one_pass),
                        static_cast<unsigned long long>(brute));
                } else if (!quiet) {
                    std::printf(
                        "validated %s at %2u ways: %llu misses "
                        "(one-pass == brute-force)\n",
                        m->name().c_str(), ways,
                        static_cast<unsigned long long>(one_pass));
                }
            }
        }
        std::printf("validate: %zu/%zu checks exact\n",
                    checks - failures, checks);
        if (failures > 0)
            return 1;
    }

    if (!json_path.empty()) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("cachecraft.curves/1");
        w.key("schema_version").value(kJsonSchemaVersion);
        w.key("manifest").beginObject();
        w.key("tool").value("cachecraft_curves");
        w.key("build").value(telemetry::buildVersion());
        w.key("workload").value(toString(workload));
        w.key("workload_seed").value(wparams.seed);
        w.endObject();
        w.key("config").beginObject();
        w.key("summary").value(config.summary());
        w.key("scheme").value(toString(config.scheme));
        w.endObject();
        w.key("cycles").value(rs.cycles);
        w.key("curves");
        telemetry::writeCurvesJson(w, *reuse);
        w.endObject();
        os << '\n';
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write " + json_path);
        out << os.str();
        if (!quiet)
            std::printf("wrote %s\n", json_path.c_str());
    }

    if (!svg_path.empty()) {
        std::ofstream out(svg_path);
        if (!out)
            fatal("cannot write " + svg_path);
        out << telemetry::renderCurvesSvg(*reuse);
        if (!quiet)
            std::printf("wrote %s\n", svg_path.c_str());
    }
    return 0;
}
