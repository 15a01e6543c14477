/**
 * @file
 * perf_smoke — the deterministic bench subset behind the CI perf gate.
 *
 * Runs a small, fixed grid of (workload, scheme) points — scaled-down
 * versions of the fig_* experiments, seconds not minutes — and emits
 * one JSON document of integer metrics per point. The simulator is a
 * deterministic discrete-event model, so for a given build the output
 * is byte-identical run to run; CI regenerates it and diffs against
 * the committed BENCH_baseline.json with cachecraft_diff, failing the
 * job when any metric moves beyond tolerance.
 *
 * Only integer counters are emitted (no IPC / hit-rate ratios): they
 * round-trip exactly through the JSON layer on every platform, so a
 * baseline generated on one machine diffs clean on another as long as
 * the simulated behaviour is unchanged. That now includes the engine's
 * events_executed and peak_queue_depth — the deterministic half of the
 * sim_throughput telemetry — so an event-count regression trips the
 * gate like any DRAM counter. The host-varying half (seconds, rates)
 * goes under a top-level "manifest" object that cachecraft_diff
 * ignores; pass --no-manifest to omit it entirely when the output must
 * be byte-identical run to run (the gate's determinism check, the
 * committed baseline).
 *
 * Usage: perf_smoke [--out FILE] [--no-manifest]   (default: stdout)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "ecc/codec.hpp"
#include "ecc/crc32.hpp"
#include "ecc/simd_dispatch.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/reuse_dist.hpp"

using namespace cachecraft;

namespace {

/** Small enough to finish in seconds, large enough to exercise L2
 *  misses, MRC fills, and DRAM row behaviour on every scheme. */
WorkloadParams
smokeParams()
{
    WorkloadParams p;
    p.footprintBytes = 1 * 1024 * 1024;
    p.numWarps = 64;
    p.memInstsPerWarp = 24;
    p.seed = 7;
    return p;
}

/** One metric point: integer counters only (see file comment). */
void
writePoint(JsonWriter &w, const RunStats &rs)
{
    w.beginObject();
    w.key("cycles").value(static_cast<std::uint64_t>(rs.cycles));
    w.key("instructions").value(rs.instructions);
    w.key("mem_instructions").value(rs.memInstructions);
    w.key("dram_data_reads").value(rs.dramDataReads);
    w.key("dram_data_writes").value(rs.dramDataWrites);
    w.key("dram_ecc_reads").value(rs.dramEccReads);
    w.key("dram_ecc_writes").value(rs.dramEccWrites);
    w.key("dram_ecc_rmw_reads").value(rs.dramEccRmwReads);
    w.key("dram_total_txns").value(rs.dramTotalTxns);
    w.key("mrc_hits").value(rs.mrcHits);
    w.key("mrc_misses").value(rs.mrcMisses);
    w.key("mrc_fetch_merges").value(rs.mrcFetchMerges);
    w.key("mrc_dirty_evictions").value(rs.mrcDirtyEvictions);
    w.key("l2_sector_hits").value(rs.l2SectorHits);
    w.key("l2_sector_misses").value(rs.l2SectorMisses);
    w.key("decode_clean").value(rs.decodeClean);
    w.key("decode_corrected").value(rs.decodeCorrected);
    w.key("decode_uncorrectable").value(rs.decodeUncorrectable);
    w.key("events_executed").value(rs.simThroughput.eventsExecuted);
    w.key("peak_queue_depth").value(rs.simThroughput.peakQueueDepth);
    w.endObject();
}

/**
 * Deterministic whole-chunk decode sweep over every codec: a seeded
 * chunk corpus with a fixed schedule of injected fault patterns,
 * decoded once at whatever SIMD tier this host dispatches to and once
 * clamped to scalar. The integer outcome counts and the CRC of every
 * decoded byte gate the batch codec kernels — a behaviour change in
 * any dispatch tier, or any scalar/SIMD divergence, moves a metric.
 */
void
writeCodecKernels(JsonWriter &w)
{
    w.key("codec_kernels").beginObject();
    for (ecc::CodecKind kind : ecc::allCodecs()) {
        const auto codec = ecc::makeCodec(kind);
        Xoshiro256 rng(29);
        std::uint64_t clean = 0;
        std::uint64_t corrected = 0;
        std::uint64_t uncorrectable = 0;
        std::uint64_t tag_mismatch = 0;
        std::uint64_t corrected_units = 0;
        std::uint64_t scalar_divergences = 0;
        std::uint32_t crc = 0;
        for (unsigned i = 0; i < 64; ++i) {
            ecc::ChunkData data;
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.next());
            ecc::MemTag tag = 0x2B;
            ecc::ChunkCheck check{};
            codec->encodeChunk(data, tag, check);

            const auto flipData = [&](std::size_t byte,
                                      unsigned bit) {
                data[byte % data.size()] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            };
            const std::size_t sector =
                rng.below(kSectorsPerChunk) * kSectorBytes;
            switch (i % 8) {
            case 0:
            case 4: // fault-free: the early-out path
                break;
            case 1: // single data bit
                flipData(rng.below(kChunkBytes), i);
                break;
            case 2: // two bytes in one sector
                flipData(sector + rng.below(kSectorBytes), 1);
                flipData(sector + rng.below(kSectorBytes), 6);
                break;
            case 3: // check byte
                check[rng.below(check.size())] ^= 0x41;
                break;
            case 5: // burst: beyond every codec's correction power
                for (unsigned b = 0; b < 8; ++b)
                    flipData(sector + 3 * b, b);
                break;
            case 6: // data + check in the same sector
                flipData(sector + rng.below(kSectorBytes), 2);
                check[(sector / kSectorBytes) *
                          ecc::kCheckBytesPerSector +
                      rng.below(ecc::kCheckBytesPerSector)] ^= 0x08;
                break;
            default: // tag mismatch where representable
                if (codec->supportsTags())
                    tag ^= 0x15;
                else
                    flipData(rng.below(kChunkBytes), 5);
                break;
            }

            const auto res = codec->decodeChunk(data, check, tag);
            {
                ecc::ScopedTierOverride clamp(
                    ecc::SimdTier::kScalar);
                const auto ref =
                    codec->decodeChunk(data, check, tag);
                if (res.status != ref.status ||
                    res.correctedUnits != ref.correctedUnits ||
                    res.data != ref.data)
                    ++scalar_divergences;
            }
            for (std::size_t s = 0; s < kSectorsPerChunk; ++s) {
                switch (res.status[s]) {
                case ecc::DecodeStatus::kClean: ++clean; break;
                case ecc::DecodeStatus::kCorrected:
                    ++corrected;
                    break;
                case ecc::DecodeStatus::kUncorrectable:
                    ++uncorrectable;
                    break;
                case ecc::DecodeStatus::kTagMismatch:
                    ++tag_mismatch;
                    break;
                }
                corrected_units += res.correctedUnits[s];
            }
            crc = ecc::crc32cUpdate(
                crc, std::span<const std::uint8_t>(res.data));
        }
        w.key(codec->name()).beginObject();
        w.key("sectors_clean").value(clean);
        w.key("sectors_corrected").value(corrected);
        w.key("sectors_uncorrectable").value(uncorrectable);
        w.key("sectors_tag_mismatch").value(tag_mismatch);
        w.key("corrected_units").value(corrected_units);
        w.key("decoded_crc32c").value(
            static_cast<std::uint64_t>(crc));
        w.key("scalar_divergences").value(scalar_divergences);
        w.endObject();
    }
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    bool with_manifest = true;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--no-manifest") == 0) {
            with_manifest = false;
        } else {
            std::fprintf(
                stderr,
                "usage: perf_smoke [--out FILE] [--no-manifest]\n");
            return 2;
        }
    }

    // The smoke grid: one regular, one tiled, and one irregular
    // workload, each under the no-protection bound and the full
    // CacheCraft scheme. Six runs total.
    const std::vector<WorkloadKind> workloads = {
        WorkloadKind::kStreaming,
        WorkloadKind::kGemmTiled,
        WorkloadKind::kRandomAccess,
    };
    const std::vector<SchemeKind> schemes = {
        SchemeKind::kNone,
        SchemeKind::kCacheCraft,
    };

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("schema").value("cachecraft.perf_smoke/1");
    w.key("schema_version").value(kJsonSchemaVersion);
    std::vector<std::pair<std::string, SimThroughput>> throughput;
    w.key("points").beginObject();
    for (WorkloadKind kind : workloads) {
        for (SchemeKind scheme : schemes) {
            const std::string name =
                strCat(toString(kind), ".", toString(scheme));
            std::fprintf(stderr, "[perf_smoke] %s\n", name.c_str());
            const RunStats rs = bench::runPoint(
                bench::configFor(scheme), kind, smokeParams());
            w.key(name);
            writePoint(w, rs);
            throughput.emplace_back(name, rs.simThroughput);
        }
    }
    w.endObject();

    // Recorder-on rerun of one smoke point: the flight ring's
    // deterministic accounting, plus the run's cycle count — which
    // must stay byte-equal to the recorder-off "streaming.cachecraft"
    // point above. Any timing leak from recording, or any drift in
    // how many causal edges the instrumentation emits, trips the
    // gate like a DRAM-counter regression.
    {
        std::fprintf(stderr, "[perf_smoke] streaming.cachecraft"
                             " (flight recorder on)\n");
        SystemConfig cfg = bench::configFor(SchemeKind::kCacheCraft);
        cfg.telemetry.flightRecorderEnabled = true;
        GpuSystem gpu(cfg);
        const RunStats rs = gpu.run(
            makeWorkload(WorkloadKind::kStreaming, smokeParams()));
        const telemetry::FlightRecorder *fr =
            gpu.telemetry().recorder();
        w.key("flight_recorder").beginObject();
        w.key("cycles").value(static_cast<std::uint64_t>(rs.cycles));
        w.key("records").value(
            fr ? static_cast<std::uint64_t>(fr->size()) : 0u);
        w.key("dropped").value(fr ? fr->dropped() : 0u);
        w.key("last_cycle").value(
            fr ? static_cast<std::uint64_t>(fr->lastCycle()) : 0u);
        w.endObject();
    }

    // Reuse-profiler-on rerun of the same smoke point: cycles must
    // stay byte-equal to the profiler-off "streaming.cachecraft"
    // point (observation is free), and the one-pass curve counts are
    // deterministic integers — a drift in either the instrumentation
    // points or the stack-distance math trips the gate.
    {
        std::fprintf(stderr, "[perf_smoke] streaming.cachecraft"
                             " (reuse profile on)\n");
        SystemConfig cfg = bench::configFor(SchemeKind::kCacheCraft);
        cfg.telemetry.reuseProfileEnabled = true;
        GpuSystem gpu(cfg);
        const RunStats rs = gpu.run(
            makeWorkload(WorkloadKind::kStreaming, smokeParams()));
        const telemetry::ReuseProfiler *rp = gpu.telemetry().reuse();
        w.key("reuse_profile").beginObject();
        w.key("cycles").value(static_cast<std::uint64_t>(rs.cycles));
        std::uint64_t monitors = 0;
        std::uint64_t accesses = 0;
        std::uint64_t cold = 0;
        std::uint64_t mrc_misses_1w = 0;
        std::uint64_t mrc_misses_8w = 0;
        std::uint64_t l2_misses_1w = 0;
        std::uint64_t l2_misses_16w = 0;
        if (rp) {
            for (const auto &m : rp->monitors()) {
                ++monitors;
                accesses += m->accesses();
                cold += m->coldMisses();
                if (m->kind() == "mrc") {
                    mrc_misses_1w += m->missesAtWays(1);
                    mrc_misses_8w += m->missesAtWays(8);
                } else if (m->kind() == "l2") {
                    l2_misses_1w += m->missesAtWays(1);
                    l2_misses_16w += m->missesAtWays(16);
                }
            }
        }
        w.key("monitors").value(monitors);
        w.key("accesses").value(accesses);
        w.key("cold_misses").value(cold);
        w.key("mrc_misses_at_1w").value(mrc_misses_1w);
        w.key("mrc_misses_at_8w").value(mrc_misses_8w);
        w.key("l2_misses_at_1w").value(l2_misses_1w);
        w.key("l2_misses_at_16w").value(l2_misses_16w);
        w.endObject();
    }

    std::fprintf(stderr, "[perf_smoke] codec_kernels sweep\n");
    writeCodecKernels(w);

    if (with_manifest) {
        // Host-varying rates, under the prefix cachecraft_diff drops.
        w.key("manifest").beginObject();
        w.key("sim_throughput").beginObject();
        for (const auto &[name, st] : throughput) {
            w.key(name).beginObject();
            w.key("host_seconds").value(st.hostSeconds);
            w.key("events_per_sec").value(st.eventsPerSec);
            w.key("sim_mcycles_per_sec").value(st.simMcyclesPerSec);
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endObject();
    os << '\n';

    if (out_path.empty()) {
        std::fputs(os.str().c_str(), stdout);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "perf_smoke: cannot write %s\n",
                         out_path.c_str());
            return 2;
        }
        out << os.str();
        std::fprintf(stderr, "[perf_smoke] wrote %s\n",
                     out_path.c_str());
    }
    return 0;
}
