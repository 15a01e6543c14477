/**
 * @file
 * cachecraft_fuzz — differential fuzzer for the whole memory
 * hierarchy. Each seed becomes a random small-machine configuration,
 * a random tagged workload, and (for protected schemes) a set of
 * guaranteed-correctable planned faults; the case runs under the
 * golden memory oracle and the layer invariant checker, so any
 * divergence between the timing model and architectural memory
 * semantics fails the run.
 *
 *   cachecraft_fuzz --seeds 200                      # sweep all schemes
 *   cachecraft_fuzz --seeds 50 --scheme cachecraft
 *   cachecraft_fuzz --replay fuzz_repro.json         # re-run a repro
 *
 * On the first failing case the fuzzer delta-debugs it down to the
 * smallest still-failing program and writes a self-contained JSON
 * reproducer next to --out, then keeps scanning (later failures are
 * counted but not minimized).
 *
 * Exit codes: 0 = all cases consistent, 1 = at least one oracle or
 * invariant violation, 2 = usage/parse error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "protect/scheme.hpp"
#include "verify/fuzz.hpp"

#include "tool_args.hpp"

using namespace cachecraft;
namespace fs = std::filesystem;

namespace {

constexpr SchemeKind kAllSchemes[] = {
    SchemeKind::kNone,
    SchemeKind::kInlineNaive,
    SchemeKind::kEccCache,
    SchemeKind::kCacheCraft,
};

void
usage()
{
    std::printf(
        "cachecraft_fuzz — differential fuzzing of the simulator\n"
        "against its golden memory oracle and invariant checker\n"
        "\n"
        "  cachecraft_fuzz [options]\n"
        "\n"
        "options:\n"
        "  --seeds N        seeds to run (default 20)\n"
        "  --seed-base S    first seed (default 1)\n"
        "  --scheme NAME    no-ecc | inline-naive | ecc-cache |\n"
        "                   cachecraft | all (default all)\n"
        "  --plant mrc-stale-meta\n"
        "                   self-test: plant the stale-metadata bug in\n"
        "                   the write-back MRC (runs must FAIL)\n"
        "  --out DIR        reproducer output directory (default .)\n"
        "  --no-minimize    write the raw failing case unminimized\n"
        "  --replay FILE    run one JSON reproducer and exit\n"
        "  --flight FILE    with --replay: also write the run's flight\n"
        "                   ring to FILE (analyze with cachecraft_trace)\n"
        "  --quiet          only print the final summary\n"
        "\n"
        "exit codes: 0 consistent, 1 violation found, 2 usage error\n");
}

int
replay(const std::string &path, const std::string &flight_path,
       bool quiet)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cachecraft_fuzz: cannot read %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    verify::FuzzCase fuzzCase;
    std::string error;
    if (!verify::fromJson(buf.str(), &fuzzCase, &error)) {
        std::fprintf(stderr, "cachecraft_fuzz: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    const verify::FuzzResult result =
        verify::runCase(fuzzCase, flight_path);
    if (!flight_path.empty() && !quiet)
        std::printf("flight dump: %s\n", flight_path.c_str());
    if (!quiet) {
        std::printf("replay %s: scheme=%s codec=%s accesses=%zu "
                    "faults=%zu decodes=%llu invariant_events=%llu\n",
                    path.c_str(), toString(fuzzCase.scheme),
                    ecc::toString(fuzzCase.codec), fuzzCase.accesses.size(),
                    fuzzCase.faults.size(),
                    static_cast<unsigned long long>(result.decodesChecked),
                    static_cast<unsigned long long>(
                        result.invariantEventsChecked));
    }
    for (const std::string &v : result.violations)
        std::printf("  %s\n", v.c_str());
    std::printf("replay verdict: %s (%zu violations)\n",
                result.ok ? "CONSISTENT" : "VIOLATION",
                result.violations.size());
    return result.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seeds = 20;
    std::uint64_t seedBase = 1;
    std::string schemeArg = "all";
    std::string plantArg;
    std::string outDir = ".";
    std::string replayPath;
    std::string flightPath;
    bool minimize = true;
    bool quiet = false;

    const ToolArgs args("cachecraft_fuzz", argc, argv, 2);

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--seeds") {
            seeds = args.count(i);
        } else if (flag == "--seed-base") {
            seedBase = args.count(i);
        } else if (flag == "--scheme") {
            schemeArg = args.value(i);
        } else if (flag == "--plant") {
            plantArg = args.value(i);
        } else if (flag == "--out") {
            outDir = args.value(i);
        } else if (flag == "--no-minimize") {
            minimize = false;
        } else if (flag == "--replay") {
            replayPath = args.value(i);
        } else if (flag == "--flight") {
            flightPath = args.value(i);
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "cachecraft_fuzz: unknown flag %s\n",
                         flag.c_str());
            usage();
            return 2;
        }
    }

    if (!replayPath.empty())
        return replay(replayPath, flightPath, quiet);
    if (!flightPath.empty()) {
        std::fprintf(stderr,
                     "cachecraft_fuzz: --flight needs --replay "
                     "(sweeps write postmortems automatically)\n");
        return 2;
    }

    bool plantStaleMeta = false;
    if (!plantArg.empty()) {
        if (plantArg != "mrc-stale-meta") {
            std::fprintf(stderr, "cachecraft_fuzz: unknown plant '%s' "
                         "(supported: mrc-stale-meta)\n",
                         plantArg.c_str());
            return 2;
        }
        plantStaleMeta = true;
        // The stale-metadata bug lives in the write-back MRC path, so
        // the self-test only makes sense for the cachecraft scheme.
        if (schemeArg == "all")
            schemeArg = "cachecraft";
    }

    std::vector<SchemeKind> schemes;
    if (schemeArg == "all") {
        schemes.assign(std::begin(kAllSchemes), std::end(kAllSchemes));
    } else {
        for (const SchemeKind kind : kAllSchemes) {
            if (schemeArg == toString(kind))
                schemes.push_back(kind);
        }
        if (schemes.empty()) {
            std::fprintf(stderr, "cachecraft_fuzz: unknown scheme '%s'\n",
                         schemeArg.c_str());
            return 2;
        }
    }

    std::uint64_t casesRun = 0;
    std::uint64_t failures = 0;
    std::uint64_t decodes = 0;
    std::uint64_t invariantEvents = 0;
    std::string firstReproPath;

    for (std::uint64_t s = 0; s < seeds; ++s) {
        const std::uint64_t seed = seedBase + s;
        for (const SchemeKind scheme : schemes) {
            verify::FuzzCase fuzzCase = verify::generateCase(seed, scheme);
            if (plantStaleMeta) {
                fuzzCase.plantMrcStaleMetaBug = true;
                fuzzCase.writebackMrc = true;
            }
            const verify::FuzzResult result = verify::runCase(fuzzCase);
            ++casesRun;
            decodes += result.decodesChecked;
            invariantEvents += result.invariantEventsChecked;
            if (result.ok) {
                if (!quiet)
                    std::printf("seed %llu %-12s ok (%llu decodes)\n",
                                static_cast<unsigned long long>(seed),
                                toString(scheme),
                                static_cast<unsigned long long>(
                                    result.decodesChecked));
                continue;
            }

            ++failures;
            std::printf("seed %llu %-12s FAILED (%zu violations)\n",
                        static_cast<unsigned long long>(seed),
                        toString(scheme), result.violations.size());
            for (const std::string &v : result.violations)
                std::printf("  %s\n", v.c_str());

            // Minimize and persist only the first failure; later ones
            // are almost always the same bug again.
            if (!firstReproPath.empty())
                continue;
            verify::FuzzCase repro = fuzzCase;
            unsigned minimizeRuns = 0;
            if (minimize) {
                repro = verify::minimizeCase(fuzzCase, &minimizeRuns);
                std::printf("minimized: %zu -> %zu accesses (%u runs)\n",
                            fuzzCase.accesses.size(),
                            repro.accesses.size(), minimizeRuns);
            }
            std::error_code ec;
            fs::create_directories(outDir, ec);
            const fs::path path =
                fs::path(outDir) /
                strCat("fuzz_repro_", toString(scheme), "_seed", seed,
                       ".json");
            std::ofstream out(path);
            if (out) {
                out << verify::toJson(repro);
                firstReproPath = path.string();
                std::printf("reproducer: %s\n", firstReproPath.c_str());
                std::printf("replay with: cachecraft_fuzz --replay %s\n",
                            firstReproPath.c_str());
                // Postmortem: re-run the minimized case with the
                // flight recorder on and drop the binary ring next to
                // the reproducer — recording is timing-neutral, so
                // this replays the identical failure.
                const std::string postmortem =
                    firstReproPath + ".flight";
                verify::runCase(repro, postmortem);
                std::printf("postmortem: %s (analyze with: "
                            "cachecraft_trace %s)\n",
                            postmortem.c_str(), postmortem.c_str());
            } else {
                std::fprintf(stderr,
                             "cachecraft_fuzz: cannot write %s\n",
                             path.string().c_str());
            }
        }
    }

    std::printf("fuzz summary: %llu cases, %llu failures, %llu decodes "
                "checked, %llu invariant events checked\n",
                static_cast<unsigned long long>(casesRun),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(decodes),
                static_cast<unsigned long long>(invariantEvents));
    return failures ? 1 : 0;
}
