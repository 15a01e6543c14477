/**
 * @file
 * cachecraft_sweep — expand a declarative campaign spec (a JSON
 * cartesian grid of scheme/workload/knob values) and run every point
 * in-process on a worker pool, writing one run report per point plus
 * a campaign manifest (see src/campaign/ and DESIGN.md §8.3).
 *
 *   cachecraft_sweep bench/campaigns/e1_headline.json --out runs/e1
 *   cachecraft_sweep spec.json --out runs/x --jobs 4 --point-timeout 60
 *   cachecraft_sweep spec.json --dry-run
 *
 * Per-point reports are byte-identical for every --jobs value; failed
 * or timed-out points are recorded in the manifest and never abort
 * the campaign.
 *
 * Exit codes: 0 = every point ok, 1 = some points failed or timed
 * out, 2 = usage or spec error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

#include "tool_args.hpp"

using namespace cachecraft;

namespace {

void
usage()
{
    std::printf(
        "cachecraft_sweep — run every point of a campaign spec\n"
        "\n"
        "  cachecraft_sweep SPEC.json --out DIR [options]\n"
        "\n"
        "options:\n"
        "  --out DIR           output report tree (required unless\n"
        "                      --dry-run): DIR/campaign_manifest.json\n"
        "                      plus DIR/reports/<point>.json\n"
        "  --jobs N            worker threads (default: hardware\n"
        "                      concurrency; report bytes do not depend\n"
        "                      on N)\n"
        "  --shards N          engine threads within each point\n"
        "                      (default 1; composes with --jobs;\n"
        "                      report bytes do not depend on N)\n"
        "  --point-timeout S   record points running longer than S\n"
        "                      wall seconds as \"timeout\" (default:\n"
        "                      unlimited)\n"
        "  --dry-run           print the expanded points and exit\n"
        "  --quiet             no live progress lines\n"
        "  --progress S        also emit a heartbeat status line every\n"
        "                      S seconds (points done, elapsed, ETA)\n"
        "                      even while all workers are mid-point\n"
        "  --list-knobs        print the knob names base/grid accept\n"
        "\n"
        "exit codes: 0 all points ok, 1 failed/timeout points,\n"
        "            2 usage or spec error\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path;
    campaign::RunnerOptions options;
    bool dry_run = false;

    const ToolArgs args("cachecraft_sweep", argc, argv, 2);

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage();
            return 0;
        } else if (flag == "--out") {
            options.outDir = args.value(i);
        } else if (flag == "--jobs") {
            options.jobs = args.count<unsigned>(i);
        } else if (flag == "--shards") {
            options.shards = args.count<unsigned>(i);
            if (options.shards == 0) {
                std::fprintf(stderr, "cachecraft_sweep: --shards "
                                     "must be positive\n");
                return 2;
            }
        } else if (flag == "--point-timeout") {
            options.pointTimeoutSeconds = args.real(i);
        } else if (flag == "--dry-run") {
            dry_run = true;
        } else if (flag == "--quiet") {
            options.progress = nullptr;
        } else if (flag == "--progress") {
            options.heartbeatSeconds = args.real(i);
            if (options.heartbeatSeconds <= 0.0) {
                std::fprintf(stderr,
                             "cachecraft_sweep: --progress wants a "
                             "positive interval in seconds\n");
                return 2;
            }
        } else if (flag == "--list-knobs") {
            for (const std::string &knob : campaign::knownKnobs())
                std::printf("%s\n", knob.c_str());
            return 0;
        } else if (!flag.empty() && flag[0] == '-') {
            std::fprintf(stderr, "cachecraft_sweep: unknown flag %s\n",
                         flag.c_str());
            return 2;
        } else if (spec_path.empty()) {
            spec_path = flag;
        } else {
            std::fprintf(stderr,
                         "cachecraft_sweep: unexpected argument %s\n",
                         flag.c_str());
            return 2;
        }
    }

    if (spec_path.empty()) {
        usage();
        return 2;
    }

    std::ifstream in(spec_path);
    if (!in) {
        std::fprintf(stderr, "cachecraft_sweep: cannot read %s\n",
                     spec_path.c_str());
        return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    auto spec = campaign::parseCampaignSpec(buf.str(), &error);
    if (!spec) {
        std::fprintf(stderr, "cachecraft_sweep: %s: %s\n",
                     spec_path.c_str(), error.c_str());
        return 2;
    }

    if (dry_run) {
        std::printf("campaign %s (%s): %zu points\n",
                    spec->name.c_str(), spec->specHash.c_str(),
                    spec->points.size());
        for (const campaign::CampaignPoint &point : spec->points) {
            std::printf("  %s%s%s\n", point.label.c_str(),
                        point.expandError.empty() ? "" : "  EXPAND "
                                                         "ERROR: ",
                        point.expandError.c_str());
        }
        return 0;
    }

    if (options.outDir.empty()) {
        std::fprintf(stderr,
                     "cachecraft_sweep: --out DIR is required "
                     "(or use --dry-run)\n");
        return 2;
    }

    const campaign::CampaignResult result =
        campaign::runCampaign(*spec, options);
    const std::size_t ok =
        result.countWithStatus(campaign::PointStatus::kOk);
    const std::size_t failed =
        result.countWithStatus(campaign::PointStatus::kFailed);
    const std::size_t timeout =
        result.countWithStatus(campaign::PointStatus::kTimeout);
    std::printf("campaign %s: %zu ok, %zu failed, %zu timeout "
                "(%u jobs, %.2fs) -> %s\n",
                spec->name.c_str(), ok, failed, timeout, result.jobs,
                result.wallSeconds, options.outDir.c_str());
    return failed + timeout == 0 ? 0 : 1;
}
