/**
 * @file
 * Scenario: memory-safety enforcement with Implicit Memory Tagging.
 *
 * A CUDA-style allocator hands out two buffers with different memory
 * tags. A bug then accesses buffer A through a stale pointer whose
 * tag belongs to the freed allocation it used to point at (a
 * use-after-free). With the AFT-ECC codec the hardware detects every
 * such access on the memory path — with zero extra metadata storage
 * or traffic, because the tag rides the existing ECC code — and with
 * CacheCraft the *performance* cost of that protection is also
 * nearly eliminated.
 */

#include <cstdio>

#include "core/cachecraft.hpp"

using namespace cachecraft;

namespace {

constexpr ecc::MemTag kLiveTag = 0x3C;
constexpr ecc::MemTag kStaleTag = 0x99;
constexpr std::size_t kBufferBytes = 2 * 1024 * 1024;

/** A kernel that mostly behaves, but a few accesses use a pointer
 *  whose tag is stale. */
KernelTrace
buggyKernel(unsigned bad_accesses)
{
    KernelTrace trace;
    trace.name = "use-after-free";
    trace.regions = {{0, kBufferBytes, kLiveTag}};

    std::vector<WarpInst> warp;
    const std::size_t lines = kBufferBytes / kLineBytes;
    for (std::size_t i = 0; i < 1024; ++i) {
        const Addr base = (i % lines) * kLineBytes;
        WarpInst inst = WarpInst::affine(base, kWarpLanes, false);
        if (i % (1024 / bad_accesses) == 7)
            inst.tagOverride = kStaleTag; // the dangling pointer
        warp.push_back(inst);
    }
    trace.warps.push_back(std::move(warp));
    return trace;
}

} // namespace

int
main()
{
    const KernelTrace trace = buggyKernel(/* bad_accesses= */ 16);

    std::printf("kernel with injected use-after-free accesses\n\n");

    ResultTable table("IMT detection and cost");
    table.setHeader({"scheme", "codec", "violations-flagged", "cycles"});

    for (auto codec :
         {ecc::CodecKind::kSecDed, ecc::CodecKind::kAftEcc}) {
        for (auto scheme :
             {SchemeKind::kInlineNaive, SchemeKind::kCacheCraft}) {
            SystemConfig cfg;
            cfg.scheme = scheme;
            cfg.codec = codec;
            GpuSystem gpu(cfg);
            const RunStats rs = gpu.run(trace);
            table.addRow({toString(scheme), toString(codec),
                          std::to_string(rs.decodeTagMismatch),
                          std::to_string(rs.cycles)});
        }
    }
    std::printf("%s\n", table.renderText().c_str());

    std::printf(
        "SEC-DED rows flag nothing: untagged ECC cannot see the bug.\n"
        "AFT-ECC rows flag every memory-side violating sector access\n"
        "(accesses served by caches are checked at fill, as IMT\n"
        "specifies). CacheCraft keeps the tagged configuration as\n"
        "fast as its untagged one — memory safety without the tax.\n");
    return 0;
}
