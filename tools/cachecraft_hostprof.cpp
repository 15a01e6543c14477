/**
 * @file
 * cachecraft_hostprof — the host-performance observatory CLI.
 *
 * Profiles where the *simulator's own* wall-clock and memory go, per
 * subsystem: runs one workload (or a whole campaign) with the host
 * zone profiler forced on and renders the merged zone tree as a
 * console breakdown, a diffable JSON artifact, Brendan-Gregg folded
 * stacks, and a self-contained flamegraph SVG.
 *
 *   cachecraft_hostprof --workload gemm --scheme cachecraft
 *   cachecraft_hostprof --workload random --json prof.json --svg f.svg
 *   cachecraft_hostprof --campaign bench/campaigns/ci_smoke.json \
 *       --out /tmp/prof_tree --jobs 2
 *
 * Single-run mode asserts nothing but measures everything: the JSON
 * manifest carries wall_ns and sum_exclusive_ns side by side, which is
 * how the CI hostprof-smoke job checks that attributed time covers
 * >=90% of the measured wall clock. Campaign mode writes the normal
 * report tree plus hostprof.{json,folded,svg} next to the campaign
 * manifest (zone times there sum CPU time across workers, so they can
 * legitimately exceed wall clock with --jobs > 1).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/report.hpp"

#include "tool_args.hpp"

using namespace cachecraft;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_hostprof — host wall-clock zones, hardware "
        "counters,\nand memory telemetry of the simulator itself\n"
        "\n"
        "single-run mode (built-in kernels):\n"
        "  --workload NAME     streaming strided stencil2d gemm\n"
        "                      transpose reduction histogram random\n"
        "                      spmv (default streaming)\n"
        "  --footprint-mib N   array footprint (default 8)\n"
        "  --warps N           total warps (default 256)\n"
        "  --mem-insts N       mem insts/warp, irregular kernels (48)\n"
        "  --seed N            workload seed (default 7)\n"
        "  --scheme S          no-ecc | inline-naive | ecc-cache |\n"
        "                      cachecraft (default cachecraft)\n"
        "  --codec C           secded | sec-badaec | chipkill |\n"
        "                      aft-ecc (default secded)\n"
        "  --sms N             SM count (default 16)\n"
        "  --l2-kib N          L2 KiB per slice (default 512)\n"
        "  --mrc-kib N         MRC KiB per slice (default 16)\n"
        "\n"
        "campaign mode:\n"
        "  --campaign FILE     profile a whole campaign spec instead\n"
        "  --out DIR           campaign output tree (required with\n"
        "                      --campaign); hostprof.{json,folded,svg}\n"
        "                      land next to campaign_manifest.json\n"
        "  --jobs N            campaign worker threads (default 1 so\n"
        "                      zone times stay comparable to wall)\n"
        "\n"
        "output:\n"
        "  --json FILE         write the profile document\n"
        "                      (schema cachecraft.hostprof/1;\n"
        "                      diffable via cachecraft_diff)\n"
        "  --folded FILE       write folded stacks (flamegraph.pl\n"
        "                      compatible: \"host;a;b <ns>\" lines)\n"
        "  --svg FILE          write a self-contained flamegraph SVG\n"
        "  --no-counters       skip perf_event hardware counters\n"
        "  --quiet             suppress the console tree\n");
}

std::optional<SchemeKind>
parseScheme(const std::string &s)
{
    for (auto kind : {SchemeKind::kNone, SchemeKind::kInlineNaive,
                      SchemeKind::kEccCache, SchemeKind::kCacheCraft}) {
        if (s == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::optional<ecc::CodecKind>
parseCodec(const std::string &s)
{
    for (auto kind : ecc::allCodecs()) {
        if (s == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::optional<WorkloadKind>
parseWorkload(const std::string &s)
{
    for (auto kind : allWorkloads()) {
        if (s == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

void
writeArtifactFiles(const telemetry::HostProfileArtifact &artifact,
                   const std::string &json_path,
                   const std::string &folded_path,
                   const std::string &svg_path,
                   const std::string &title, bool quiet)
{
    if (!json_path.empty()) {
        std::ostringstream os;
        JsonWriter w(os);
        telemetry::writeHostProfileJson(w, artifact);
        os << '\n';
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write " + json_path);
        out << os.str();
        if (!quiet)
            std::printf("wrote %s\n", json_path.c_str());
    }
    if (!folded_path.empty()) {
        std::ofstream out(folded_path);
        if (!out)
            fatal("cannot write " + folded_path);
        out << telemetry::renderHostFolded(artifact.snapshot);
        if (!quiet)
            std::printf("wrote %s\n", folded_path.c_str());
    }
    if (!svg_path.empty()) {
        std::ofstream out(svg_path);
        if (!out)
            fatal("cannot write " + svg_path);
        out << telemetry::renderHostFlameSvg(artifact.snapshot, title);
        if (!quiet)
            std::printf("wrote %s\n", svg_path.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadParams wparams;
    wparams.footprintBytes = 8 * 1024 * 1024;
    wparams.numWarps = 256;
    wparams.memInstsPerWarp = 48;
    wparams.seed = 7;

    SystemConfig config;
    WorkloadKind workload = WorkloadKind::kStreaming;
    std::string campaign_path;
    std::string out_dir;
    unsigned jobs = 1;
    std::string json_path;
    std::string folded_path;
    std::string svg_path;
    bool counters = true;
    bool quiet = false;

    const ToolArgs args("cachecraft_hostprof", argc, argv, 1);
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--workload") {
            const std::string name = args.value(i);
            const auto kind = parseWorkload(name);
            if (!kind)
                fatal("unknown workload: " + name);
            workload = *kind;
        } else if (flag == "--footprint-mib") {
            wparams.footprintBytes = args.bytes(i, 1024 * 1024);
        } else if (flag == "--warps") {
            wparams.numWarps = args.count<unsigned>(i);
        } else if (flag == "--mem-insts") {
            wparams.memInstsPerWarp = args.count<unsigned>(i);
        } else if (flag == "--seed") {
            wparams.seed = args.count(i);
        } else if (flag == "--scheme") {
            const std::string name = args.value(i);
            const auto kind = parseScheme(name);
            if (!kind)
                fatal("unknown scheme: " + name);
            config.scheme = *kind;
        } else if (flag == "--codec") {
            const std::string name = args.value(i);
            const auto kind = parseCodec(name);
            if (!kind)
                fatal("unknown codec: " + name);
            config.codec = *kind;
        } else if (flag == "--sms") {
            config.numSms = args.count<unsigned>(i);
        } else if (flag == "--l2-kib") {
            config.l2.cache.sizeBytes = args.bytes(i, 1024);
        } else if (flag == "--mrc-kib") {
            config.mrc.sizeBytes = args.bytes(i, 1024);
        } else if (flag == "--campaign") {
            campaign_path = args.value(i);
        } else if (flag == "--out") {
            out_dir = args.value(i);
        } else if (flag == "--jobs") {
            jobs = args.count<unsigned>(i);
            if (jobs == 0)
                fatal("--jobs must be positive");
        } else if (flag == "--json") {
            json_path = args.value(i);
        } else if (flag == "--folded") {
            folded_path = args.value(i);
        } else if (flag == "--svg") {
            svg_path = args.value(i);
        } else if (flag == "--no-counters") {
            counters = false;
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            usage();
            fatal("unknown flag: " + flag);
        }
    }

    if (const std::string error = config.geometryError(); !error.empty())
        fatal(error);

    if (!telemetry::kTraceCompiledIn) {
        std::fprintf(stderr,
                     "cachecraft_hostprof: tracing was compiled out "
                     "(CACHECRAFT_DISABLE_TRACING); nothing to profile\n");
        return 2;
    }

    telemetry::HostProfileOptions popts;
    popts.counters = counters;

    telemetry::HostProfileArtifact artifact;
    artifact.tool = "cachecraft_hostprof";
    std::string title;
    int exit_code = 0;

    if (!campaign_path.empty()) {
        if (out_dir.empty())
            fatal("--campaign needs --out DIR");
        std::ifstream in(campaign_path);
        if (!in)
            fatal("cannot read " + campaign_path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::string error;
        const auto spec =
            campaign::parseCampaignSpec(buffer.str(), &error);
        if (!spec)
            fatal("bad campaign spec: " + error);

        campaign::RunnerOptions ropts;
        ropts.outDir = out_dir;
        ropts.jobs = jobs;
        ropts.progress = quiet ? nullptr : stderr;

        telemetry::HostProfiler::retain(popts);
        const auto start = std::chrono::steady_clock::now();
        const campaign::CampaignResult result =
            campaign::runCampaign(*spec, ropts);
        artifact.wallNs = elapsedNs(start);
        telemetry::HostProfiler::release();

        artifact.config.emplace_back("campaign", spec->name);
        artifact.config.emplace_back("spec_hash", spec->specHash);
        title = "hostprof: campaign " + spec->name;
        if (json_path.empty())
            json_path = out_dir + "/hostprof.json";
        if (folded_path.empty())
            folded_path = out_dir + "/hostprof.folded";
        if (svg_path.empty())
            svg_path = out_dir + "/hostprof.svg";
        // Mirror cachecraft_sweep: failed/timed-out points surface in
        // the exit code, after the profile artifacts are written.
        if (result.countWithStatus(campaign::PointStatus::kOk) !=
            spec->points.size())
            exit_code = 1;
    } else {
        telemetry::HostProfiler::retain(popts);
        const auto start = std::chrono::steady_clock::now();
        {
            GpuSystem gpu(config);
            gpu.run(makeWorkload(workload, wparams));
            gpu.auditMemory();
        }
        telemetry::HostProfiler::sampleMemory();
        artifact.wallNs = elapsedNs(start);
        telemetry::HostProfiler::release();

        artifact.config.emplace_back("workload", toString(workload));
        artifact.config.emplace_back("scheme",
                                     toString(config.scheme));
        artifact.config.emplace_back("summary", config.summary());
        title = strCat("hostprof: ", toString(workload), " / ",
                       toString(config.scheme));
    }

    artifact.snapshot = telemetry::HostProfiler::snapshot();

    if (!quiet) {
        std::printf("%s\n",
                    telemetry::renderHostTree(artifact.snapshot).c_str());
        const std::uint64_t sum =
            telemetry::hostSumExclusiveNs(artifact.snapshot.root);
        std::printf("attributed %.2fms of %.2fms wall (%.1f%%)\n",
                    static_cast<double>(sum) / 1e6,
                    static_cast<double>(artifact.wallNs) / 1e6,
                    artifact.wallNs > 0
                        ? 100.0 * static_cast<double>(sum) /
                              static_cast<double>(artifact.wallNs)
                        : 0.0);
    }

    writeArtifactFiles(artifact, json_path, folded_path, svg_path,
                       title, quiet);
    return exit_code;
}
