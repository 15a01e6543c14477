#include "telemetry/report.hpp"

#include "common/json.hpp"
#include "telemetry/cache_curves.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/flight_recorder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace cachecraft::telemetry {

std::string
buildVersion()
{
#ifdef CACHECRAFT_GIT_DESCRIBE
    return CACHECRAFT_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

std::string
osHostname()
{
#if defined(__unix__) || defined(__APPLE__)
    char buf[256] = {};
    if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0')
        return buf;
#endif
    return "unknown";
}

void
writeRunReport(std::ostream &os, const RunManifest &manifest,
               const SystemConfig &config, const RunStats &rs,
               const StatRegistry &stats, const StatSampler *sampler,
               const Profiler *profiler, const FlightRecorder *recorder,
               const ReuseProfiler *reuse)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.run_report/1");
    w.key("schema_version").value(kJsonSchemaVersion);

    w.key("manifest").beginObject();
    w.key("tool").value(manifest.tool);
    w.key("build").value(buildVersion());
    w.key("workload").value(manifest.workload);
    w.key("workload_seed").value(manifest.workloadSeed);
    w.key("wall_seconds").value(manifest.wallSeconds);
    w.key("hostname").value(manifest.hostname.empty() ? osHostname()
                                                      : manifest.hostname);
    w.key("jobs").value(std::uint64_t{manifest.jobs});
    for (const auto &[key, val] : manifest.extra)
        w.key(key).value(val);
    // Engine throughput lives under the manifest (provenance, not
    // results): cachecraft_diff always ignores the "manifest." prefix,
    // so the host-varying fields never break report comparisons. The
    // deterministic counters are additionally surfaced by perf_smoke
    // for strict gating.
    w.key("sim_throughput").beginObject();
    w.key("events_executed").value(rs.simThroughput.eventsExecuted);
    w.key("peak_queue_depth").value(rs.simThroughput.peakQueueDepth);
    w.key("host_seconds").value(rs.simThroughput.hostSeconds);
    w.key("events_per_sec").value(rs.simThroughput.eventsPerSec);
    w.key("sim_mcycles_per_sec").value(rs.simThroughput.simMcyclesPerSec);
    w.endObject();
    w.endObject();

    w.key("config").beginObject();
    w.key("summary").value(config.summary());
    w.key("scheme").value(toString(config.scheme));
    w.key("codec").value(toString(config.codec));
    w.key("layout").value(toString(config.effectiveLayout()));
    w.key("num_sms").value(std::uint64_t{config.numSms});
    w.key("l1_bytes_per_sm").value(
        std::uint64_t{config.sm.l1.sizeBytes});
    w.key("l2_bytes_per_slice").value(
        std::uint64_t{config.l2.cache.sizeBytes});
    w.key("mrc_bytes_per_slice").value(
        std::uint64_t{config.mrc.sizeBytes});
    w.key("dram_channels").value(std::uint64_t{config.dram.numChannels});
    w.key("warp_scheduler").value(toString(config.sm.scheduler));
    w.key("mrc_chunk_granularity").value(config.mrc.chunkGranularity);
    w.key("mrc_writeback").value(config.mrc.writebackMrc);
    w.key("co_located_layout").value(config.coLocatedLayout);
    w.key("system_seed").value(config.seed);
    w.key("sample_interval").value(config.telemetry.sampleInterval);
    w.key("profile_enabled").value(config.telemetry.profileEnabled);
    w.key("profile_interval").value(config.telemetry.profileInterval);
    w.endObject();

    w.key("results").beginObject();
    w.key("cycles").value(rs.cycles);
    w.key("instructions").value(rs.instructions);
    w.key("mem_instructions").value(rs.memInstructions);
    w.key("ipc").value(rs.ipc);
    w.key("dram_total_txns").value(rs.dramTotalTxns);
    w.key("dram_data_reads").value(rs.dramDataReads);
    w.key("dram_data_writes").value(rs.dramDataWrites);
    w.key("dram_ecc_reads").value(rs.dramEccReads);
    w.key("dram_ecc_writes").value(rs.dramEccWrites);
    w.key("row_hit_rate").value(rs.rowHitRate);
    w.key("l2_sector_hits").value(rs.l2SectorHits);
    w.key("l2_sector_misses").value(rs.l2SectorMisses);
    w.key("mrc_hit_rate").value(rs.mrcHitRate());
    w.key("mrc_coverage").value(rs.mrcCoverage());
    w.key("decode_clean").value(rs.decodeClean);
    w.key("decode_corrected").value(rs.decodeCorrected);
    w.key("decode_uncorrectable").value(rs.decodeUncorrectable);
    w.key("decode_tag_mismatch").value(rs.decodeTagMismatch);
    w.endObject();

    w.key("warnings").beginArray();
    for (const std::string &warning : rs.warnings)
        w.value(warning);
    w.endArray();

    w.key("stats").raw(stats.renderJson());

    if (profiler) {
        w.key("profile");
        profiler->writeJson(w);
    }

    if (recorder) {
        // Summarized critical-path attribution (the full dump is the
        // binary artifact; cachecraft_trace renders it in detail).
        const CriticalPathBreakdown bd =
            analyzeCriticalPath(recorder->snapshot());
        w.key("critical_path").beginObject();
        w.key("requests").value(bd.requests);
        w.key("incomplete_requests").value(bd.incompleteRequests);
        w.key("total_latency_cycles").value(bd.totalLatency);
        w.key("metadata_fraction").value(bd.metadataFraction());
        w.key("segments").beginObject();
        for (std::size_t s = 0;
             s < static_cast<std::size_t>(PathSegment::kCount); ++s)
            w.key(toString(static_cast<PathSegment>(s)))
                .value(bd.totalCycles[s]);
        w.endObject();
        w.key("flight_records")
            .value(static_cast<std::uint64_t>(recorder->size()));
        w.key("flight_dropped").value(recorder->dropped());
        w.endObject();
    }

    if (reuse) {
        // One-pass reuse-distance products (miss-ratio curves,
        // residency heatmaps, locality histograms). The section — and
        // its knobs — exist only when profiling ran, so reports with
        // it off stay byte-identical to pre-observatory ones.
        w.key("curves");
        writeCurvesJson(w, *reuse);
    }

    if (sampler) {
        w.key("sample_interval").value(sampler->interval());
        w.key("epochs");
        sampler->writeJson(w);
    }

    w.endObject();
    os << '\n';
}

} // namespace cachecraft::telemetry
