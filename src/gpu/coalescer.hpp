/**
 * @file
 * The SIMT memory-access coalescer.
 *
 * A warp's 32 lane addresses collapse into the minimal set of unique
 * 32 B sector requests, exactly as GPU load/store units do. The
 * sector count per warp instruction (1 for fully coalesced streaming,
 * up to 32 for fully divergent gathers) is the single most important
 * workload property for this study.
 */

#ifndef CACHECRAFT_GPU_COALESCER_HPP
#define CACHECRAFT_GPU_COALESCER_HPP

#include <vector>

#include "common/types.hpp"
#include "gpu/kernel_trace.hpp"

namespace cachecraft {

/** One coalesced sector request. */
struct SectorRequest
{
    Addr sectorAddr = 0; //!< 32 B aligned
    bool isWrite = false;
};

/**
 * Coalesce a warp instruction's active lanes into unique sector
 * requests, in first-appearance order (deterministic), replacing the
 * contents of @p out. Reusing @p out across calls makes coalescing
 * allocation-free once it has grown to a warp's worth of sectors.
 * Any lane count works; up to kWarpLanes lanes dedupe through a small
 * open-addressed set on the stack.
 */
void coalesceInto(const WarpInst &inst, std::vector<SectorRequest> &out);

/** coalesceInto() into a fresh vector. */
std::vector<SectorRequest> coalesce(const WarpInst &inst);

} // namespace cachecraft

#endif // CACHECRAFT_GPU_COALESCER_HPP
