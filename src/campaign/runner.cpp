#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/arena.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "core/cachecraft.hpp"
#include "telemetry/host_profiler.hpp"
#include "telemetry/report.hpp"

namespace fs = std::filesystem;

namespace cachecraft::campaign {

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::kOk:
        return "ok";
      case PointStatus::kFailed:
        return "failed";
      case PointStatus::kTimeout:
        return "timeout";
    }
    return "?";
}

std::size_t
CampaignResult::countWithStatus(PointStatus status) const
{
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(),
        [status](const PointOutcome &o) { return o.status == status; }));
}

namespace {

/**
 * Run one valid point on a fresh GpuSystem and write its report.
 * The report's own manifest carries no wall-clock data (wall_seconds
 * 0, jobs 1 — each point runs single-threaded): per-point reports
 * must be byte-identical for every --jobs value, so the measured wall
 * time goes only into the campaign manifest's host-varying section.
 */
PointOutcome
runOnePoint(const CampaignSpec &spec, const CampaignPoint &point,
            const RunnerOptions &options, EngineArenaPool *arenas)
{
    PointOutcome outcome;
    const auto t0 = std::chrono::steady_clock::now();
    CC_HOST_ZONE_COUNTED("campaign.point");
    try {
        GpuSystem gpu(point.config, arenas);
        const KernelTrace trace =
            makeWorkload(point.workload, point.params);
        RunStats rs = gpu.run(trace);
        outcome.cycles = rs.cycles;
        outcome.warnings = rs.warnings;
        outcome.eventsExecuted = rs.simThroughput.eventsExecuted;
        outcome.hostEventsPerSec = rs.simThroughput.eventsPerSec;
        outcome.arenaPeakSlots = gpu.arenas().peakLiveTotal();
        // Zero the host-varying throughput fields before the report is
        // written: per-point report bytes must not depend on the host
        // or on --jobs. The measured rates go only into the campaign
        // manifest's host-varying section.
        rs.simThroughput.hostSeconds = 0.0;
        rs.simThroughput.eventsPerSec = 0.0;
        rs.simThroughput.simMcyclesPerSec = 0.0;

        telemetry::RunManifest manifest;
        manifest.tool = "cachecraft_sweep";
        manifest.workload = trace.name;
        manifest.workloadSeed = point.params.seed;
        manifest.wallSeconds = 0.0;
        manifest.hostname = telemetry::osHostname();
        manifest.jobs = 1;
        manifest.extra.emplace_back("campaign", spec.name);
        manifest.extra.emplace_back("point", point.label);

        const std::string relative = "reports/" + point.label + ".json";
        const fs::path path = fs::path(options.outDir) / relative;
        std::ofstream out(path);
        if (!out) {
            outcome.status = PointStatus::kFailed;
            outcome.error = "cannot write " + path.string();
            return outcome;
        }
        {
            CC_HOST_ZONE("campaign.report");
            telemetry::writeRunReport(out, manifest, gpu.config(), rs,
                                      gpu.statsRegistry(), gpu.sampler(),
                                      gpu.telemetry().profiler(),
                                      gpu.telemetry().recorder(),
                                      gpu.telemetry().reuse());
        }
        outcome.reportFile = relative;
        outcome.status = PointStatus::kOk;
    } catch (const std::exception &e) {
        outcome.status = PointStatus::kFailed;
        outcome.error = e.what();
    } catch (...) {
        outcome.status = PointStatus::kFailed;
        outcome.error = "unknown exception";
    }

    outcome.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (outcome.status == PointStatus::kOk &&
        options.pointTimeoutSeconds > 0.0 &&
        outcome.wallSeconds > options.pointTimeoutSeconds) {
        outcome.status = PointStatus::kTimeout;
        outcome.error = strCat("exceeded point timeout (",
                               outcome.wallSeconds, "s > ",
                               options.pointTimeoutSeconds, "s)");
    }
    return outcome;
}

} // namespace

CampaignResult
runCampaign(const CampaignSpec &spec, const RunnerOptions &options)
{
    CampaignResult result;
    result.jobs = options.jobs != 0
                      ? options.jobs
                      : std::max(1u, std::thread::hardware_concurrency());
    result.jobs = static_cast<unsigned>(
        std::min<std::size_t>(result.jobs,
                              std::max<std::size_t>(
                                  spec.points.size(), 1)));
    result.outcomes.resize(spec.points.size());

    fs::create_directories(fs::path(options.outDir) / "reports");

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done{0};
    std::mutex console;
    // Mean host events/sec over completed points, for the heartbeat.
    // Guarded by `console` (both writers and the reader hold it).
    double evs_sum = 0.0;
    std::size_t evs_count = 0;

    auto report_progress = [&](const CampaignPoint &point,
                               const PointOutcome &outcome) {
        if (options.progress == nullptr)
            return;
        const std::size_t finished = ++done;
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        const std::size_t remaining = spec.points.size() - finished;
        // ETA extrapolates the mean wall time of *completed* points
        // over what is left, so it tightens as evidence accumulates.
        const double eta = finished
                               ? elapsed / double(finished) *
                                     double(remaining)
                               : 0.0;
        std::lock_guard<std::mutex> lock(console);
        if (outcome.hostEventsPerSec > 0.0) {
            evs_sum += outcome.hostEventsPerSec;
            ++evs_count;
        }
        std::fprintf(options.progress,
                     "[%zu/%zu] %-7s %s (cycles=%llu, %.2fs, "
                     "%.2fM ev/s)%s eta ~%.0fs\n",
                     finished, spec.points.size(),
                     toString(outcome.status), point.label.c_str(),
                     static_cast<unsigned long long>(outcome.cycles),
                     outcome.wallSeconds,
                     outcome.hostEventsPerSec / 1e6,
                     outcome.error.empty()
                         ? ""
                         : strCat(" [", outcome.error, "]").c_str(),
                     eta);
        std::fflush(options.progress);
    };

    auto worker = [&]() {
        // One slab-arena pool per worker (one arena bundle per engine
        // domain), reused across every point this worker runs: the
        // chunk storage stays warm instead of being reallocated per
        // GpuSystem. reset() between points restores the canonical
        // free-list order, so a reused pool behaves exactly like a
        // fresh one (report bytes unchanged).
        EngineArenaPool arenas;
        while (true) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= spec.points.size())
                return;
            const CampaignPoint &point = spec.points[i];
            PointOutcome outcome;
            if (!point.expandError.empty()) {
                outcome.status = PointStatus::kFailed;
                outcome.error = point.expandError;
            } else {
                arenas.reset();
                outcome = runOnePoint(spec, point, options, &arenas);
            }
            result.outcomes[i] = std::move(outcome);
            // One RSS sample per completed point: a campaign-long
            // memory trace with no background sampler thread.
            telemetry::HostProfiler::sampleMemory();
            report_progress(point, result.outcomes[i]);
        }
    };

    // Optional heartbeat: while the pool runs, print a periodic status
    // line even when no point has completed recently, so a sweep stuck
    // inside one long point still shows signs of life. The monitor
    // sleeps on a condition variable and is woken for shutdown, so an
    // idle campaign never lingers past its last point.
    std::mutex heartbeat_mutex;
    std::condition_variable heartbeat_cv;
    bool campaign_done = false;
    std::thread heartbeat;
    if (options.heartbeatSeconds > 0.0 && options.progress != nullptr) {
        heartbeat = std::thread([&]() {
            const auto interval = std::chrono::duration<double>(
                options.heartbeatSeconds);
            std::unique_lock<std::mutex> lock(heartbeat_mutex);
            while (!heartbeat_cv.wait_for(
                lock, interval, [&]() { return campaign_done; })) {
                const std::size_t finished =
                    done.load(std::memory_order_relaxed);
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                const double eta =
                    finished ? elapsed / double(finished) *
                                   double(spec.points.size() - finished)
                             : 0.0;
                std::lock_guard<std::mutex> console_lock(console);
                const double mean_evs =
                    evs_count ? evs_sum / double(evs_count) : 0.0;
                std::fprintf(options.progress,
                             "heartbeat: %zu/%zu points done, "
                             "%.0fs elapsed, avg %.2fM ev/s, "
                             "eta ~%.0fs\n",
                             finished, spec.points.size(), elapsed,
                             mean_evs / 1e6, eta);
                std::fflush(options.progress);
            }
        });
    }

    std::vector<std::thread> pool;
    for (unsigned t = 0; t < result.jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    if (heartbeat.joinable()) {
        {
            std::lock_guard<std::mutex> lock(heartbeat_mutex);
            campaign_done = true;
        }
        heartbeat_cv.notify_all();
        heartbeat.join();
    }

    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::ofstream manifest(fs::path(options.outDir) /
                           "campaign_manifest.json");
    if (manifest)
        manifest << renderCampaignManifest(spec, result);
    return result;
}

std::string
renderCampaignManifest(const CampaignSpec &spec,
                       const CampaignResult &result)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.campaign_manifest/1");
    w.key("schema_version").value(kJsonSchemaVersion);
    w.key("name").value(spec.name);
    w.key("spec_hash").value(spec.specHash);
    w.key("total_points").value(
        static_cast<std::uint64_t>(spec.points.size()));
    w.key("ok_points").value(static_cast<std::uint64_t>(
        result.countWithStatus(PointStatus::kOk)));
    w.key("failed_points").value(static_cast<std::uint64_t>(
        result.countWithStatus(PointStatus::kFailed)));
    w.key("timeout_points").value(static_cast<std::uint64_t>(
        result.countWithStatus(PointStatus::kTimeout)));

    w.key("points").beginArray();
    for (std::size_t i = 0; i < spec.points.size(); ++i) {
        const CampaignPoint &point = spec.points[i];
        const PointOutcome &outcome = result.outcomes[i];
        w.beginObject();
        w.key("label").value(point.label);
        w.key("status").value(toString(outcome.status));
        if (!outcome.error.empty())
            w.key("error").value(outcome.error);
        w.key("axes").beginObject();
        for (const auto &[axis, value] : point.axes)
            w.key(axis).value(value);
        w.endObject();
        if (!outcome.reportFile.empty())
            w.key("report").value(outcome.reportFile);
        w.key("cycles").value(static_cast<std::uint64_t>(outcome.cycles));
        w.key("warnings").beginArray();
        for (const std::string &warning : outcome.warnings)
            w.value(warning);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    // Host- and wall-clock-varying fields live under "manifest", the
    // prefix cachecraft_diff drops by default — two same-spec trees
    // must diff clean no matter where or how parallel they ran.
    w.key("manifest").beginObject();
    w.key("tool").value("cachecraft_sweep");
    w.key("build").value(telemetry::buildVersion());
    w.key("hostname").value(telemetry::osHostname());
    w.key("jobs").value(std::uint64_t{result.jobs});
    w.key("wall_seconds").value(result.wallSeconds);
    w.key("point_wall_seconds").beginObject();
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        w.key(spec.points[i].label).value(result.outcomes[i].wallSeconds);
    w.endObject();
    // events_executed is deterministic (it also appears in each
    // point's own report), but new keys in the points array would
    // break tree diffs against older manifests — so the engine
    // telemetry stays together down here.
    w.key("point_events_executed").beginObject();
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        w.key(spec.points[i].label)
            .value(result.outcomes[i].eventsExecuted);
    w.endObject();
    w.key("point_events_per_sec").beginObject();
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        w.key(spec.points[i].label)
            .value(result.outcomes[i].hostEventsPerSec);
    w.endObject();
    w.key("point_arena_peak_slots").beginObject();
    for (std::size_t i = 0; i < spec.points.size(); ++i)
        w.key(spec.points[i].label)
            .value(result.outcomes[i].arenaPeakSlots);
    w.endObject();
    w.key("rss_kib").value(telemetry::hostCurrentRssKib());
    w.key("peak_rss_kib").value(telemetry::hostPeakRssKib());
    w.endObject();

    w.endObject();
    os << '\n';
    return os.str();
}

} // namespace cachecraft::campaign
