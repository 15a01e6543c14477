/**
 * @file
 * Experiment E8 — Implicit Memory Tagging table: (a) detection rate
 * of wrong-tag accesses (memory-safety violations) under the AFT-ECC
 * codec for every scheme, and (b) the performance cost of enabling
 * tagging, i.e. AFT-ECC vs SEC-DED under CacheCraft.
 *
 * Expected shape: 100 % detection of tag mismatches on memory-side
 * accesses (the code's alias-free guarantee) at zero additional
 * metadata traffic — tag checks ride the existing ECC path.
 */

#include "bench_common.hpp"

using namespace cachecraft;
using namespace cachecraft::bench;

namespace {

/** A trace that reads a tagged buffer, with some accesses carrying a
 *  stale tag (modeling use-after-free / OOB pointers). */
KernelTrace
violationTrace(unsigned violations)
{
    KernelTrace trace;
    trace.name = "tag-violations";
    constexpr std::size_t size = 1024 * 1024;
    trace.regions = {{0, size, 0x5A}};
    std::vector<WarpInst> warp;
    const std::size_t lines = size / kLineBytes;
    for (std::size_t i = 0; i < 512; ++i) {
        // Each access reads a distinct line so cached data never
        // masks the memory-side tag check.
        const Addr base = (i % lines) * kLineBytes;
        WarpInst inst = WarpInst::affine(base, kWarpLanes, false);
        if (i < violations)
            inst.tagOverride = 0x11;
        warp.push_back(inst);
    }
    trace.warps.push_back(std::move(warp));
    return trace;
}

} // namespace

int
main()
{
    ResultTable detect(
        "E8a: Wrong-tag access detection (AFT-ECC, 64 violating "
        "accesses among 512)");
    detect.setHeader({"scheme", "violations-detected", "expected",
                      "false-positives"});
    for (SchemeKind scheme :
         {SchemeKind::kInlineNaive, SchemeKind::kEccCache,
          SchemeKind::kCacheCraft}) {
        SystemConfig cfg = configFor(scheme);
        cfg.codec = ecc::CodecKind::kAftEcc;
        GpuSystem gpu(cfg);
        const RunStats rs = gpu.run(violationTrace(64));
        // Each violating warp instruction touches 4 sectors.
        detect.addRow({toString(scheme),
                       std::to_string(rs.decodeTagMismatch),
                       std::to_string(64 * 4),
                       std::to_string(rs.decodeUncorrectable)});
        std::fflush(stdout);
    }
    emit(detect);

    ResultTable perf(
        "E8b: Cost of tagging — AFT-ECC vs SEC-DED under CacheCraft");
    perf.setHeader({"workload", "cycles:secded", "cycles:aft-ecc",
                    "tagging overhead%"});
    const WorkloadParams params = defaultWorkloadParams();
    for (WorkloadKind kind :
         {WorkloadKind::kStreaming, WorkloadKind::kStencil2D,
          WorkloadKind::kTranspose, WorkloadKind::kRandomAccess}) {
        SystemConfig secded = configFor(SchemeKind::kCacheCraft);
        secded.codec = ecc::CodecKind::kSecDed;
        const RunStats a = runPoint(secded, kind, params);

        SystemConfig aft = configFor(SchemeKind::kCacheCraft);
        aft.codec = ecc::CodecKind::kAftEcc;
        const RunStats b = runPoint(aft, kind, params);

        perf.addRow({toString(kind), std::to_string(a.cycles),
                     std::to_string(b.cycles),
                     ResultTable::num(
                         100.0 * (static_cast<double>(b.cycles) /
                                      static_cast<double>(a.cycles) -
                                  1.0),
                         2)});
        std::fflush(stdout);
    }
    emit(perf);
    return 0;
}
