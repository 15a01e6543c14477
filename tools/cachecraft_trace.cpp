/**
 * @file
 * cachecraft_trace — flight-recorder dump analyzer.
 *
 * Reads the binary dump cachecraft_sim --flight-record (or a fuzz
 * postmortem) wrote, runs the critical-path attribution, and prints:
 *
 *  - the aggregate breakdown: which blocking edge each critical-path
 *    cycle was spent on, and the headline "N% of critical-path cycles
 *    were metadata reconstruction";
 *  - the top-K slowest requests with their full span chains;
 *  - latency percentiles bucketed by path shape.
 *
 * Optional artifacts:
 *
 *   --json FILE    schema-stamped breakdown JSON (diffable with
 *                  cachecraft_diff)
 *   --chrome FILE  Chrome trace_event export of the slowest requests
 *                  (open in chrome://tracing or Perfetto)
 *
 * Exit codes: 0 on success, 2 on an unreadable/invalid dump.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/flight_recorder.hpp"

#include "tool_args.hpp"

using namespace cachecraft;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_trace — critical-path analysis of a flight dump\n"
        "\n"
        "usage: cachecraft_trace DUMP.flight [options]\n"
        "\n"
        "  --json FILE    write the breakdown as a schema-stamped JSON\n"
        "                 artifact (diffable with cachecraft_diff)\n"
        "  --chrome FILE  write Chrome trace_event JSON of the slowest\n"
        "                 requests' attributed segments\n"
        "  --top K        slowest requests to report (default 10)\n"
        "  --quiet        suppress the human-readable report\n");
}

void
printBreakdown(const telemetry::CriticalPathBreakdown &bd,
               const telemetry::FlightDump &dump)
{
    using telemetry::PathSegment;

    std::printf("--- critical-path breakdown ---\n");
    std::printf("requests          %llu completed, %llu incomplete\n",
                static_cast<unsigned long long>(bd.requests),
                static_cast<unsigned long long>(bd.incompleteRequests));
    std::printf("records           %zu (%llu dropped)\n",
                dump.records.size(),
                static_cast<unsigned long long>(dump.dropped));
    std::printf("total latency     %llu cycles\n",
                static_cast<unsigned long long>(bd.totalLatency));
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(PathSegment::kCount); ++s) {
        const auto seg = static_cast<PathSegment>(s);
        const std::uint64_t cycles = bd.totalCycles[s];
        if (cycles == 0)
            continue;
        std::printf("  %-18s %12llu cycles (%5.1f%%)%s\n",
                    telemetry::toString(seg),
                    static_cast<unsigned long long>(cycles),
                    bd.totalLatency
                        ? 100.0 * static_cast<double>(cycles) /
                              static_cast<double>(bd.totalLatency)
                        : 0.0,
                    telemetry::isMetadataSegment(seg) ? "  [metadata]"
                                                      : "");
    }
    std::printf("%.1f%% of critical-path cycles were metadata "
                "reconstruction\n",
                100.0 * bd.metadataFraction());
}

void
printSlowest(const telemetry::CriticalPathBreakdown &bd)
{
    using telemetry::PathSegment;
    if (bd.slowest.empty())
        return;
    std::printf("--- slowest requests ---\n");
    for (const telemetry::RequestPath &path : bd.slowest) {
        std::printf("id %llu  addr 0x%llx  [%llu, %llu)  %llu cycles%s\n",
                    static_cast<unsigned long long>(path.id),
                    static_cast<unsigned long long>(path.addr),
                    static_cast<unsigned long long>(path.start),
                    static_cast<unsigned long long>(path.end),
                    static_cast<unsigned long long>(path.latency()),
                    path.isWrite ? "  (write)" : "");
        for (std::size_t s = 0;
             s < static_cast<std::size_t>(PathSegment::kCount); ++s) {
            if (path.segmentCycles[s] == 0)
                continue;
            std::printf("    %-18s %llu\n",
                        telemetry::toString(
                            static_cast<PathSegment>(s)),
                        static_cast<unsigned long long>(
                            path.segmentCycles[s]));
        }
    }
}

void
printShapes(const telemetry::CriticalPathBreakdown &bd)
{
    if (bd.shapes.empty())
        return;
    std::printf("--- latency by path shape ---\n");
    std::printf("%10s %8s %8s %8s %8s  shape\n", "count", "p50", "p90",
                "p99", "max");
    for (const telemetry::ShapeBucket &bucket : bd.shapes) {
        std::printf("%10llu %8llu %8llu %8llu %8llu  %s\n",
                    static_cast<unsigned long long>(bucket.count),
                    static_cast<unsigned long long>(bucket.p50),
                    static_cast<unsigned long long>(bucket.p90),
                    static_cast<unsigned long long>(bucket.p99),
                    static_cast<unsigned long long>(bucket.max),
                    telemetry::shapeName(bucket.shapeMask).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dump_path;
    std::string json_path;
    std::string chrome_path;
    std::size_t top_k = 10;
    bool quiet = false;

    const ToolArgs args("cachecraft_trace", argc, argv, 1);

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--json") {
            json_path = args.value(i);
        } else if (flag == "--chrome") {
            chrome_path = args.value(i);
        } else if (flag == "--top") {
            top_k = args.count<std::size_t>(i);
        } else if (flag == "--quiet") {
            quiet = true;
        } else if (!flag.empty() && flag[0] == '-') {
            std::fprintf(stderr, "unknown flag %s (see --help)\n",
                         flag.c_str());
            return 1;
        } else if (dump_path.empty()) {
            dump_path = flag;
        } else {
            std::fprintf(stderr, "only one dump path allowed\n");
            return 1;
        }
    }
    if (dump_path.empty()) {
        usage();
        return 1;
    }

    std::ifstream in(dump_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", dump_path.c_str());
        return 2;
    }
    telemetry::FlightDump dump;
    std::string error;
    if (!telemetry::readFlightDump(in, &dump, &error)) {
        std::fprintf(stderr, "%s: %s\n", dump_path.c_str(),
                     error.c_str());
        return 2;
    }

    const telemetry::CriticalPathBreakdown bd =
        telemetry::analyzeCriticalPath(dump.records, top_k);

    if (!quiet) {
        printBreakdown(bd, dump);
        printSlowest(bd);
        printShapes(bd);
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 2;
        }
        telemetry::writeBreakdownJson(out, bd, dump, dump_path);
        if (!quiet)
            std::printf("wrote %s\n", json_path.c_str());
    }

    if (!chrome_path.empty()) {
        std::ofstream out(chrome_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         chrome_path.c_str());
            return 2;
        }
        telemetry::writeChromePathJson(out, dump.records, bd.slowest);
        if (!quiet)
            std::printf("wrote %s\n", chrome_path.c_str());
    }
    return 0;
}
