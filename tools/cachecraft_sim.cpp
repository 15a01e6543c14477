/**
 * @file
 * cachecraft_sim — the command-line simulator.
 *
 * Runs one workload (built-in kernel or a trace file) on one
 * configuration and prints the run report; optionally dumps the
 * generated trace, the full statistics as CSV, and the energy model.
 *
 *   cachecraft_sim --workload random --scheme cachecraft --energy
 *   cachecraft_sim --trace my.trace --scheme inline-naive
 *   cachecraft_sim --workload gemm --dump-trace gemm.trace
 *
 * Run with --help for the full flag list.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "common/json.hpp"
#include "core/cachecraft.hpp"
#include "stats/energy.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/options.hpp"
#include "workloads/trace_io.hpp"

#include "tool_args.hpp"

using namespace cachecraft;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_sim — GPU memory-protection simulator\n"
        "\n"
        "workload selection (one of):\n"
        "  --workload NAME     built-in kernel: streaming strided\n"
        "                      stencil2d gemm transpose reduction\n"
        "                      histogram random spmv\n"
        "  --trace FILE        load a trace file (see trace_io.hpp)\n"
        "\n"
        "workload sizing (built-in kernels):\n"
        "  --footprint-mib N   array footprint (default 8)\n"
        "  --warps N           total warps (default 256)\n"
        "  --mem-insts N       mem insts/warp, irregular kernels (48)\n"
        "  --seed N            workload seed (default 7)\n"
        "\n"
        "system configuration:\n"
        "  --scheme S          no-ecc | inline-naive | ecc-cache |\n"
        "                      cachecraft (default cachecraft)\n"
        "  --codec C           secded | sec-badaec | chipkill |\n"
        "                      aft-ecc (default secded)\n"
        "  --sms N             SM count (default 16)\n"
        "  --l2-kib N          L2 KiB per slice (default 512)\n"
        "  --mrc-kib N         MRC KiB per slice (default 16)\n"
        "  --no-r1 --no-r2 --no-r3   disable CacheCraft mechanisms\n"
        "  --gto               greedy-then-oldest warp scheduling\n"
        "  --l2-whole-line     fetch whole 128 B line on L2 miss\n"
        "\n"
        "output:\n"
        "  --dump-trace FILE   write the workload trace and exit\n"
        "  --list-stats        print the sorted names of every\n"
        "                      statistic this configuration registers\n"
        "                      and exit (no simulation)\n"
        "  --stats-csv FILE    write every statistic as CSV\n"
        "  --energy            print the energy model breakdown\n"
        "  --quiet             suppress the configuration block\n"
        "  --log-level L       silent | warn | info | debug (warn)\n"
        "\n"
        "telemetry:\n"
        "  --sample-interval N sample stat deltas every N cycles\n"
        "  --epochs-csv FILE   write the epoch series as CSV\n"
        "  --profile           enable the occupancy profiler\n"
        "                      (occupancy gauges, hottest DRAM rows\n"
        "                      and L2 sectors; adds a \"profile\"\n"
        "                      report section; cycle attribution is\n"
        "                      --flight-record's critical path)\n"
        "  --profile-interval N poll occupancy gauges every N cycles\n"
        "                      (default 4096)\n"
        "  --report-json FILE  write the full machine-readable run\n"
        "                      report (manifest + config + stats)\n"
        "  --flight-record FILE enable the binary flight recorder and\n"
        "                      write its dump (analyze with\n"
        "                      cachecraft_trace, which also exports\n"
        "                      Chrome/Perfetto JSON); adds a\n"
        "                      \"critical_path\" report section\n"
        "  --flight-capacity N flight ring size in records (1048576)\n"
        "  --reuse-profile     enable one-pass reuse-distance\n"
        "                      profiling of the L2 and MRC access\n"
        "                      streams (miss-ratio curves, residency\n"
        "                      heatmaps, locality attribution; adds a\n"
        "                      \"curves\" report section; see also the\n"
        "                      dedicated cachecraft_curves tool)\n"
        "  --reuse-max-assoc N curve bound: miss-ratio points at\n"
        "                      1..N ways (default 64)\n"
        "  --host-profile FILE enable the host wall-clock zone\n"
        "                      profiler and write its JSON artifact\n"
        "                      (schema cachecraft.hostprof/1; see the\n"
        "                      dedicated cachecraft_hostprof tool for\n"
        "                      trees, folded stacks, and flamegraphs)\n"
        "  --progress N        heartbeat: print cycles and events/s to\n"
        "                      stderr every N simulated cycles (off by\n"
        "                      default; output is stderr-only so\n"
        "                      reports stay byte-identical)\n");
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

std::optional<LogLevel>
parseLogLevel(const std::string &s)
{
    if (s == "silent")
        return LogLevel::Silent;
    if (s == "warn")
        return LogLevel::Warn;
    if (s == "info")
        return LogLevel::Info;
    if (s == "debug")
        return LogLevel::Debug;
    return std::nullopt;
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadParams wparams;
    wparams.footprintBytes = 8 * 1024 * 1024;
    wparams.numWarps = 256;
    wparams.memInstsPerWarp = 48;

    SystemConfig config;
    std::optional<WorkloadKind> workload;
    std::string trace_path;
    std::string dump_path;
    std::string csv_path;
    std::string report_json_path;
    std::string epochs_csv_path;
    std::string flight_path;
    std::string host_profile_path;
    Cycle progress_interval = 0;
    bool want_energy = false;
    bool quiet = false;
    bool list_stats = false;

    const ToolArgs args("cachecraft_sim", argc, argv, 1);

    // Telemetry flags funnel through the shared knob parser (the same
    // one campaign specs use), so the two surfaces cannot drift on
    // names, coupling rules, or validation.
    auto telemetry_knob = [&](const char *flag, const std::string &knob,
                              const std::string &text) {
        std::string error;
        if (!telemetry::applyTelemetryKnobText(config.telemetry, knob,
                                               text, &error))
            fatal(strCat("flag ", flag, " ", error));
    };

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--workload") {
            workload = parseWorkload(args.value(i));
            if (!workload)
                fatal("unknown workload");
        } else if (flag == "--trace") {
            trace_path = args.value(i);
        } else if (flag == "--footprint-mib") {
            wparams.footprintBytes = args.bytes(i, 1024 * 1024);
        } else if (flag == "--warps") {
            wparams.numWarps = args.count<unsigned>(i);
        } else if (flag == "--mem-insts") {
            wparams.memInstsPerWarp = args.count<unsigned>(i);
        } else if (flag == "--seed") {
            wparams.seed = args.count(i);
        } else if (flag == "--scheme") {
            const auto scheme = parseScheme(args.value(i));
            if (!scheme)
                fatal("unknown scheme");
            config.scheme = *scheme;
        } else if (flag == "--codec") {
            const auto codec = parseCodec(args.value(i));
            if (!codec)
                fatal("unknown codec");
            config.codec = *codec;
        } else if (flag == "--sms") {
            config.numSms = args.count<unsigned>(i);
        } else if (flag == "--l2-kib") {
            config.l2.cache.sizeBytes = args.bytes(i, 1024);
        } else if (flag == "--mrc-kib") {
            config.mrc.sizeBytes = args.bytes(i, 1024);
        } else if (flag == "--no-r1") {
            config.mrc.chunkGranularity = false;
        } else if (flag == "--no-r2") {
            config.mrc.writebackMrc = false;
        } else if (flag == "--no-r3") {
            config.coLocatedLayout = false;
        } else if (flag == "--gto") {
            config.sm.scheduler = WarpSched::kGto;
        } else if (flag == "--l2-whole-line") {
            config.l2.fetchWholeLine = true;
        } else if (flag == "--dump-trace") {
            dump_path = args.value(i);
        } else if (flag == "--list-stats") {
            list_stats = true;
        } else if (flag == "--stats-csv") {
            csv_path = args.value(i);
        } else if (flag == "--sample-interval") {
            telemetry_knob("--sample-interval", "sample_interval",
                           args.value(i));
        } else if (flag == "--epochs-csv") {
            epochs_csv_path = args.value(i);
        } else if (flag == "--profile") {
            telemetry_knob("--profile", "profile", "true");
        } else if (flag == "--profile-interval") {
            telemetry_knob("--profile-interval", "profile_interval",
                           args.value(i));
        } else if (flag == "--report-json") {
            report_json_path = args.value(i);
        } else if (flag == "--flight-record") {
            flight_path = args.value(i);
            telemetry_knob("--flight-record", "flight_recorder", "true");
        } else if (flag == "--flight-capacity") {
            telemetry_knob("--flight-capacity", "flight_capacity",
                           args.value(i));
        } else if (flag == "--reuse-profile") {
            telemetry_knob("--reuse-profile", "reuse_profile", "true");
        } else if (flag == "--reuse-max-assoc") {
            telemetry_knob("--reuse-max-assoc", "reuse_max_assoc",
                           args.value(i));
        } else if (flag == "--host-profile") {
            host_profile_path = args.value(i);
            telemetry_knob("--host-profile", "host_profile", "true");
        } else if (flag == "--progress") {
            progress_interval = args.count(i);
            if (progress_interval == 0)
                fatal("--progress must be positive");
        } else if (flag == "--log-level") {
            const auto level = parseLogLevel(args.value(i));
            if (!level)
                fatal("unknown log level (see --help)");
            setLogLevel(*level);
        } else if (flag == "--energy") {
            want_energy = true;
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag %s (see --help)\n",
                         flag.c_str());
            return 1;
        }
    }

    if (const std::string error = config.geometryError(); !error.empty())
        fatal(error);

    if (list_stats) {
        // Stat registration happens at construction, so the sorted
        // name dump needs no simulation — but it does honor the
        // configuration flags (scheme/sms/... change what exists).
        GpuSystem gpu(config);
        for (const auto &[name, value] : gpu.statsRegistry().flatten())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    // Build the trace.
    KernelTrace trace;
    if (!trace_path.empty()) {
        std::string error;
        trace = loadTraceFile(trace_path, &error);
        if (!error.empty())
            fatal(error);
    } else {
        trace = makeWorkload(workload.value_or(WorkloadKind::kStreaming),
                             wparams);
    }

    if (!dump_path.empty()) {
        if (!saveTraceFile(trace, dump_path))
            fatal("cannot write " + dump_path);
        std::printf("wrote %s (%llu insts)\n", dump_path.c_str(),
                    static_cast<unsigned long long>(trace.totalInsts()));
        return 0;
    }

    if (!epochs_csv_path.empty() && config.telemetry.sampleInterval == 0)
        fatal("--epochs-csv needs --sample-interval");
    if (config.telemetry.profileEnabled && !telemetry::kTraceCompiledIn)
        warn("tracing was compiled out (CACHECRAFT_DISABLE_TRACING); "
             "--profile has no effect");
    if (!flight_path.empty() && !telemetry::kTraceCompiledIn)
        warn("tracing was compiled out (CACHECRAFT_DISABLE_TRACING); "
             "the flight dump will be empty");
    if (config.telemetry.reuseProfileEnabled &&
        !telemetry::kTraceCompiledIn)
        warn("tracing was compiled out (CACHECRAFT_DISABLE_TRACING); "
             "--reuse-profile has no effect");
    if (!host_profile_path.empty() && !telemetry::kTraceCompiledIn)
        warn("tracing was compiled out (CACHECRAFT_DISABLE_TRACING); "
             "the host profile will be empty");
    // Fail on unwritable output paths now, not after a long run.
    for (const std::string &path :
         {epochs_csv_path, report_json_path, flight_path,
          host_profile_path}) {
        if (path.empty())
            continue;
        std::ofstream probe(path, std::ios::app);
        if (!probe)
            fatal("cannot write " + path);
    }

    if (!quiet)
        std::printf("--- configuration ---\n%s\n",
                    config.describe().c_str());

    const auto prof_start = std::chrono::steady_clock::now();
    GpuSystem gpu(config);
    const auto wall_start = std::chrono::steady_clock::now();
    if (progress_interval > 0) {
        gpu.setProgress(
            progress_interval,
            [wall_start](Cycle cycle, std::uint64_t events) {
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
                std::fprintf(
                    stderr,
                    "progress: cycle %llu, %llu events (%.0f ev/s)\n",
                    static_cast<unsigned long long>(cycle),
                    static_cast<unsigned long long>(events),
                    elapsed > 0.0
                        ? static_cast<double>(events) / elapsed
                        : 0.0);
                // Heartbeats must survive block-buffered pipes
                // (tee, CI log capture), so flush every line.
                std::fflush(stderr);
            });
    }
    const RunStats rs = gpu.run(trace);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    std::printf("--- %s on %s ---\n", config.summary().c_str(),
                trace.name.c_str());
    std::printf("cycles            %llu\n",
                static_cast<unsigned long long>(rs.cycles));
    std::printf("IPC               %.4f\n", rs.ipc);
    std::printf("DRAM txns         %llu (data %llu/%llu, ecc %llu/%llu)\n",
                static_cast<unsigned long long>(rs.dramTotalTxns),
                static_cast<unsigned long long>(rs.dramDataReads),
                static_cast<unsigned long long>(rs.dramDataWrites),
                static_cast<unsigned long long>(rs.dramEccReads),
                static_cast<unsigned long long>(rs.dramEccWrites));
    std::printf("row-buffer hits   %.1f%%\n", 100.0 * rs.rowHitRate);
    std::printf("MRC coverage      %.1f%%\n", 100.0 * rs.mrcCoverage());
    std::printf("decodes           clean %llu, corrected %llu, DUE %llu,"
                " tag-mismatch %llu\n",
                static_cast<unsigned long long>(rs.decodeClean),
                static_cast<unsigned long long>(rs.decodeCorrected),
                static_cast<unsigned long long>(rs.decodeUncorrectable),
                static_cast<unsigned long long>(rs.decodeTagMismatch));
    for (const std::string &warning : rs.warnings)
        std::printf("WARNING           %s\n", warning.c_str());

    if (const telemetry::Profiler *prof = gpu.telemetry().profiler()) {
        const auto hot = prof->hottestRows();
        if (!hot.empty()) {
            std::printf("hottest row       0x%llx (%llu accesses)\n",
                        static_cast<unsigned long long>(hot[0].key),
                        static_cast<unsigned long long>(hot[0].count));
        }
    }

    if (want_energy) {
        const EnergyBreakdown e = computeEnergy(rs.all);
        std::printf("energy            %.1f uJ total "
                    "(dram %.1f, sram %.1f, codec %.1f)\n",
                    e.totalNj() / 1000.0, e.dramNj() / 1000.0,
                    (e.l1Nj + e.l2Nj + e.mrcNj) / 1000.0,
                    e.codecNj / 1000.0);
    }

    const AuditResult audit = gpu.auditMemory();
    std::printf("memory audit      %llu sectors, %llu SDC, %llu DUE\n",
                static_cast<unsigned long long>(audit.sectors),
                static_cast<unsigned long long>(audit.silentCorruptions),
                static_cast<unsigned long long>(audit.uncorrectable));

    if (!csv_path.empty()) {
        std::ofstream csv(csv_path);
        csv << "stat,value\n";
        for (const auto &[name, value] : rs.all)
            csv << name << ',' << value << '\n';
        std::printf("wrote %s\n", csv_path.c_str());
    }

    if (!epochs_csv_path.empty()) {
        std::ofstream out(epochs_csv_path);
        if (!out)
            fatal("cannot write " + epochs_csv_path);
        out << gpu.sampler()->renderCsv();
        std::printf("wrote %s (%zu epochs)\n", epochs_csv_path.c_str(),
                    gpu.sampler()->epochs().size());
    }

    if (!flight_path.empty()) {
        std::ofstream out(flight_path,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            fatal("cannot write " + flight_path);
        const telemetry::FlightRecorder *fr = gpu.telemetry().recorder();
        if (fr)
            fr->writeBinary(out);
        std::printf("wrote %s (%zu records, %llu dropped)\n",
                    flight_path.c_str(), fr ? fr->size() : 0,
                    static_cast<unsigned long long>(fr ? fr->dropped()
                                                       : 0));
    }

    if (!report_json_path.empty()) {
        std::ofstream out(report_json_path);
        if (!out)
            fatal("cannot write " + report_json_path);
        telemetry::RunManifest manifest;
        manifest.tool = "cachecraft_sim";
        manifest.workload = trace.name;
        manifest.workloadSeed = wparams.seed;
        manifest.wallSeconds = wall_seconds;
        telemetry::writeRunReport(out, manifest, gpu.config(), rs,
                                  gpu.statsRegistry(), gpu.sampler(),
                                  gpu.telemetry().profiler(),
                                  gpu.telemetry().recorder(),
                                  gpu.telemetry().reuse());
        std::printf("wrote %s\n", report_json_path.c_str());
    }

    if (!host_profile_path.empty()) {
        std::ofstream out(host_profile_path);
        if (!out)
            fatal("cannot write " + host_profile_path);
        telemetry::HostProfileArtifact artifact;
        artifact.snapshot = telemetry::HostProfiler::snapshot();
        artifact.tool = "cachecraft_sim";
        // The profiled window spans system construction through the
        // memory audit — the same region the zones cover, so the
        // exclusive-time sum is comparable to this wall clock.
        artifact.wallNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - prof_start)
                .count());
        artifact.config.emplace_back("workload", trace.name);
        artifact.config.emplace_back("summary", config.summary());
        JsonWriter w(out);
        telemetry::writeHostProfileJson(w, artifact);
        out << '\n';
        std::printf("wrote %s\n", host_profile_path.c_str());
    }
    return 0;
}
