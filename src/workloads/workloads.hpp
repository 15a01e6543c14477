/**
 * @file
 * The synthetic GPU workload suite.
 *
 * Nine parameterized kernels spanning the locality spectrum of the
 * usual GPU benchmark suites (Rodinia / PolyBench / graph workloads),
 * standing in for SASS traces (see DESIGN.md §5). What each one
 * stresses:
 *
 *  - kStreaming     fully coalesced SAXPY-style streams (best case)
 *  - kStrided       fixed-stride accesses that defeat coalescing
 *  - kStencil2D     5-point stencil: strong spatial reuse
 *  - kGemmTiled     tiled matrix multiply: high compute + B-reuse
 *  - kTranspose     coalesced reads, divergent writes (write RMW)
 *  - kReduction     tree reduction: shrinking, read-heavy footprint
 *  - kHistogram     streamed reads + write-hot small bin array
 *  - kRandomAccess  fully divergent uniform gathers (worst case)
 *  - kSpmv          CSR-style gathers with a Zipf-hot column set
 */

#ifndef CACHECRAFT_WORKLOADS_WORKLOADS_HPP
#define CACHECRAFT_WORKLOADS_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/kernel_trace.hpp"

namespace cachecraft {

/** Which synthetic kernel to generate. */
enum class WorkloadKind : std::uint8_t
{
    kStreaming,
    kStrided,
    kStencil2D,
    kGemmTiled,
    kTranspose,
    kReduction,
    kHistogram,
    kRandomAccess,
    kSpmv,
};

/** Human-readable workload name. */
const char *toString(WorkloadKind kind);

/** All nine kinds, in canonical report order. */
std::vector<WorkloadKind> allWorkloads();

/** Generation parameters common to all kernels. */
struct WorkloadParams
{
    /** Primary array footprint in bytes (per major array). */
    std::size_t footprintBytes = 8 * 1024 * 1024;
    /** Number of warps across the whole GPU. */
    unsigned numWarps = 64;
    /** Memory instructions per warp for the irregular kernels. */
    unsigned memInstsPerWarp = 256;
    /** Compute cycles modeled between memory instructions. */
    Cycle computeCycles = 4;
    /** Deterministic seed. */
    std::uint64_t seed = 7;
};

/**
 * Bytes of device memory the @p kind kernel spans under @p params: the
 * end of its highest region, computed without generating the trace.
 * Check it against AddressMap::usableBytesTotal() before generation.
 */
std::size_t regionBytes(WorkloadKind kind, const WorkloadParams &params);

/** Generate the @p kind kernel under @p params. */
KernelTrace makeWorkload(WorkloadKind kind, const WorkloadParams &params);

} // namespace cachecraft

#endif // CACHECRAFT_WORKLOADS_WORKLOADS_HPP
