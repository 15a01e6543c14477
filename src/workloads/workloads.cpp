#include "workloads/workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"

namespace cachecraft {

namespace {

/** Region tags: distinct per array so tagged codecs are exercised. */
constexpr ecc::MemTag kTagA = 0x11;
constexpr ecc::MemTag kTagB = 0x22;
constexpr ecc::MemTag kTagC = 0x33;

/** A warp instruction with 32 consecutive 4 B lanes from @p base. */
WarpInst
coalescedInst(Addr base, bool is_write, Cycle compute)
{
    return WarpInst::affine(base, kWarpLanes, is_write, compute);
}

/** Side of the square n x n float matrices of gemm and transpose. */
std::size_t
squareSide(const WorkloadParams &p)
{
    return std::size_t(1) << log2Floor(std::uint64_t(
               std::sqrt(double(p.footprintBytes / 2 / 4))));
}

/** Row width, in 4 B cells, of the stencil's square-ish grid filling
 *  half the footprint per array (in + out). */
std::size_t
stencilWidth(const WorkloadParams &p)
{
    const std::size_t cells = p.footprintBytes / 2 / 4;
    return std::max<std::size_t>(
        kWarpLanes, std::size_t(1) << log2Floor(
                        std::uint64_t(std::sqrt(double(cells)))));
}

/** Bytes of the histogram's bin array (4096 4 B bins). */
constexpr std::size_t kHistogramBinBytes = 16 * 1024;

/** The regions each kernel touches: the one place their sizes and
 *  bases are derived, shared by the generators and regionBytes(). */
std::vector<TaggedRegion>
regionsOf(WorkloadKind kind, const WorkloadParams &p)
{
    const std::size_t fp = p.footprintBytes;
    switch (kind) {
      case WorkloadKind::kStreaming:
      case WorkloadKind::kSpmv: {
        const std::size_t half = fp / 2;
        return {{0, half, kTagA}, {half, half, kTagB}};
      }
      case WorkloadKind::kStrided:
      case WorkloadKind::kReduction:
      case WorkloadKind::kRandomAccess:
        return {{0, fp, kTagA}};
      case WorkloadKind::kStencil2D: {
        const std::size_t width = stencilWidth(p);
        const std::size_t array = width * (fp / 2 / 4 / width) * 4;
        return {{0, array, kTagA}, {array, array, kTagB}};
      }
      case WorkloadKind::kGemmTiled: {
        const std::size_t n = squareSide(p);
        const std::size_t matrix = n * n * 4;
        return {{0, matrix, kTagA},
                {matrix, matrix, kTagB},
                {2 * matrix, matrix, kTagC}};
      }
      case WorkloadKind::kTranspose: {
        const std::size_t n = squareSide(p);
        const std::size_t matrix = n * n * 4;
        return {{0, matrix, kTagA}, {matrix, matrix, kTagB}};
      }
      case WorkloadKind::kHistogram:
        return {{0, fp, kTagA}, {fp, kHistogramBinBytes, kTagB}};
    }
    panic("unknown workload kind");
}

/** An empty trace of @p kind: its name and regions. */
KernelTrace
startTrace(WorkloadKind kind, const WorkloadParams &p)
{
    KernelTrace trace;
    trace.name = toString(kind);
    trace.regions = regionsOf(kind, p);
    return trace;
}

/** Lane addresses of one warp instruction, built before they are
 *  handed to KernelTrace::memInst (which keeps what it needs). */
using LaneScratch = std::array<Addr, kWarpLanes>;

/**
 * SAXPY-style streaming: y[i] = a*x[i] + y[i]. Each warp sweeps
 * disjoint 128 B tiles of two arrays: load x, load y, store y.
 */
KernelTrace
makeStreaming(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kStreaming, p);
    const Addr base_x = trace.regions[0].base;
    const Addr base_y = trace.regions[1].base;

    const std::size_t tiles = trace.regions[0].size / kLineBytes;
    trace.warps.resize(p.numWarps);
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (std::size_t t = w; t < tiles; t += p.numWarps) {
            const Addr off = static_cast<Addr>(t) * kLineBytes;
            trace.warps[w].push_back(
                coalescedInst(base_x + off, false, p.computeCycles));
            trace.warps[w].push_back(
                coalescedInst(base_y + off, false, p.computeCycles));
            trace.warps[w].push_back(
                coalescedInst(base_y + off, true, p.computeCycles));
        }
    }
    return trace;
}

/**
 * Fixed-stride sweep: lane i touches base + (i * stride). A 64 B
 * stride puts two lanes per sector -> 16 sector requests per warp
 * instruction, defeating coalescing without being fully random.
 */
KernelTrace
makeStrided(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kStrided, p);
    constexpr std::size_t stride = 64;
    const std::size_t span = kWarpLanes * stride;
    const std::size_t steps = trace.regions[0].size / span;

    trace.warps.resize(p.numWarps);
    LaneScratch lanes;
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (std::size_t step = w; step < steps; step += p.numWarps) {
            const Addr base = static_cast<Addr>(step) * span;
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes[lane] = base + lane * stride;
            trace.warps[w].push_back(
                trace.memInst(lanes, false, p.computeCycles));
        }
    }
    return trace;
}

/**
 * 5-point 2D stencil over a W x H float grid: out(x,y) = f(in(x,y),
 * in(x±1,y), in(x,y±1)). Neighbour rows give strong L1/L2 reuse.
 */
KernelTrace
makeStencil2d(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kStencil2D, p);
    const std::size_t width = stencilWidth(p);
    const std::size_t height = trace.regions[0].size / 4 / width;
    const Addr base_in = trace.regions[0].base;
    const Addr base_out = trace.regions[1].base;

    trace.warps.resize(p.numWarps);
    std::size_t block = 0;
    for (std::size_t y = 1; y + 1 < height; ++y) {
        for (std::size_t x = 0; x + kWarpLanes <= width;
             x += kWarpLanes, ++block) {
            auto &warp = trace.warps[block % p.numWarps];
            const Addr center = base_in + (y * width + x) * 4;
            const Addr north = center - width * 4;
            const Addr south = center + width * 4;
            warp.push_back(coalescedInst(center, false, p.computeCycles));
            warp.push_back(coalescedInst(north, false, 0));
            warp.push_back(coalescedInst(south, false, 0));
            // East/west: the same row shifted by one cell (extra
            // sector at the boundary, mostly L1 hits).
            if (x + kWarpLanes < width)
                warp.push_back(coalescedInst(center + 4, false, 0));
            if (x > 0)
                warp.push_back(coalescedInst(center - 4, false, 0));
            warp.push_back(coalescedInst(
                base_out + (y * width + x) * 4, true, p.computeCycles));
        }
    }
    return trace;
}

/**
 * Tiled GEMM: C += A * B with 32x32 tiles. A and C stream per warp;
 * B tiles are shared across all warps (heavy L2 reuse). Compute-
 * dominant: each k-step models the MAC latency.
 */
KernelTrace
makeGemmTiled(const WorkloadParams &p)
{
    // n x n float matrices sized so A+B+C fit ~1.5x footprint.
    KernelTrace trace = startTrace(WorkloadKind::kGemmTiled, p);
    const std::size_t n = squareSide(p);
    const Addr base_a = trace.regions[0].base;
    const Addr base_b = trace.regions[1].base;
    const Addr base_c = trace.regions[2].base;

    constexpr std::size_t tile = 32;
    const std::size_t tiles = n / tile;
    trace.warps.resize(p.numWarps);
    std::size_t out_tile = 0;
    for (std::size_t ti = 0; ti < tiles; ++ti) {
        for (std::size_t tj = 0; tj < tiles; ++tj, ++out_tile) {
            auto &warp = trace.warps[out_tile % p.numWarps];
            for (std::size_t tk = 0; tk < tiles; ++tk) {
                // One row of the A tile and one row of the B tile per
                // k-step (the other 31 rows hit in L1 across steps of
                // the real inner loop; this models the DRAM-visible
                // stream).
                const Addr a_row =
                    base_a + ((ti * tile) * n + tk * tile) * 4;
                const Addr b_row =
                    base_b + ((tk * tile) * n + tj * tile) * 4;
                warp.push_back(coalescedInst(a_row, false,
                                             p.computeCycles));
                warp.push_back(coalescedInst(b_row, false, 0));
                warp.push_back(WarpInst::compute(16));
            }
            const Addr c_row = base_c + ((ti * tile) * n + tj * tile) * 4;
            warp.push_back(coalescedInst(c_row, false, 0));
            warp.push_back(coalescedInst(c_row, true, p.computeCycles));
        }
    }
    return trace;
}

/**
 * Matrix transpose: coalesced row reads, column writes that scatter
 * every lane into a different line — the write-path stress test.
 */
KernelTrace
makeTranspose(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kTranspose, p);
    const std::size_t n = squareSide(p);
    const Addr base_in = trace.regions[0].base;
    const Addr base_out = trace.regions[1].base;

    trace.warps.resize(p.numWarps);
    LaneScratch lanes;
    std::size_t block = 0;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x + kWarpLanes <= n;
             x += kWarpLanes, ++block) {
            auto &warp = trace.warps[block % p.numWarps];
            warp.push_back(coalescedInst(
                base_in + (y * n + x) * 4, false, p.computeCycles));
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes[lane] = base_out + ((x + lane) * n + y) * 4;
            warp.push_back(trace.memInst(lanes, true, 0));
        }
    }
    return trace;
}

/**
 * Tree reduction: log2(N) passes, each reading the previous pass's
 * output; later passes become cache resident.
 */
KernelTrace
makeReduction(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kReduction, p);

    trace.warps.resize(p.numWarps);
    std::size_t active = trace.regions[0].size;
    while (active >= 2 * kLineBytes) {
        const std::size_t half = active / 2;
        const std::size_t tiles = half / kLineBytes;
        for (std::size_t t = 0; t < tiles; ++t) {
            auto &warp = trace.warps[t % p.numWarps];
            const Addr off = static_cast<Addr>(t) * kLineBytes;
            warp.push_back(coalescedInst(off, false, p.computeCycles));
            warp.push_back(coalescedInst(half + off, false, 0));
            warp.push_back(coalescedInst(off, true, 0));
        }
        active = half;
    }
    return trace;
}

/**
 * Histogram: stream the input, scatter increments into a small bin
 * array. Bins are read-modify-write (load + store), concentrated and
 * write-hot — the coalescing showcase for a write-back MRC.
 */
KernelTrace
makeHistogram(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kHistogram, p);
    const Addr base_bins = trace.regions[1].base;
    constexpr std::size_t bins_bytes = kHistogramBinBytes;

    Xoshiro256 rng(p.seed);
    const std::size_t tiles = trace.regions[0].size / kLineBytes;
    trace.warps.resize(p.numWarps);
    LaneScratch lanes;
    for (std::size_t t = 0; t < tiles; ++t) {
        auto &warp = trace.warps[t % p.numWarps];
        warp.push_back(coalescedInst(static_cast<Addr>(t) * kLineBytes,
                                     false, p.computeCycles));
        // Each lane updates a random bin; values cluster (Gaussian-
        // ish via sum of draws) so some bins are hot.
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane) {
            const std::uint64_t bin =
                (rng.below(bins_bytes / 8) + rng.below(bins_bytes / 8)) &
                (bins_bytes / 4 - 1);
            lanes[lane] = base_bins + bin * 4;
        }
        // The store reuses the load's lanes in the pool.
        const WarpInst load = trace.memInst(lanes, false, 0);
        WarpInst store = load;
        store.isWrite = true;
        warp.push_back(load);
        warp.push_back(store);
    }
    return trace;
}

/**
 * Uniform random gathers: every lane an independent 4 B load from
 * the whole footprint — the coalescing and locality worst case.
 */
KernelTrace
makeRandomAccess(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kRandomAccess, p);
    const std::size_t array = trace.regions[0].size;

    Xoshiro256 rng(p.seed);
    trace.warps.resize(p.numWarps);
    LaneScratch lanes;
    for (unsigned w = 0; w < p.numWarps; ++w) {
        for (unsigned i = 0; i < p.memInstsPerWarp; ++i) {
            for (std::size_t lane = 0; lane < kWarpLanes; ++lane)
                lanes[lane] = rng.below(array / 4) * 4;
            trace.warps[w].push_back(
                trace.memInst(lanes, false, p.computeCycles));
        }
    }
    return trace;
}

/**
 * SpMV-like CSR traversal: coalesced reads of row values/indices plus
 * gathers of x[col] with a Zipf-hot head (a small set of columns
 * absorbs much of the traffic, as in power-law graphs).
 */
KernelTrace
makeSpmv(const WorkloadParams &p)
{
    KernelTrace trace = startTrace(WorkloadKind::kSpmv, p);
    const std::size_t values = trace.regions[0].size;
    const Addr base_x = trace.regions[1].base;
    const std::size_t xvec = trace.regions[1].size;

    Xoshiro256 rng(p.seed);
    const std::size_t hot = std::max<std::size_t>(1, xvec / 64);
    const std::size_t tiles = values / kLineBytes;
    trace.warps.resize(p.numWarps);
    LaneScratch lanes;
    for (std::size_t t = 0; t < tiles; ++t) {
        auto &warp = trace.warps[t % p.numWarps];
        // Row values + column indices (one stream stands for both).
        warp.push_back(coalescedInst(static_cast<Addr>(t) * kLineBytes,
                                     false, p.computeCycles));
        // Gather x[col]: 70 % of lanes hit the hot head.
        for (std::size_t lane = 0; lane < kWarpLanes; ++lane) {
            const bool is_hot = rng.chance(0.7);
            const std::size_t pool = is_hot ? hot : xvec;
            lanes[lane] = base_x + rng.below(pool / 4) * 4;
        }
        warp.push_back(trace.memInst(lanes, false, 0));
    }
    return trace;
}

} // namespace

const char *
toString(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::kStreaming:
        return "streaming";
      case WorkloadKind::kStrided:
        return "strided";
      case WorkloadKind::kStencil2D:
        return "stencil2d";
      case WorkloadKind::kGemmTiled:
        return "gemm";
      case WorkloadKind::kTranspose:
        return "transpose";
      case WorkloadKind::kReduction:
        return "reduction";
      case WorkloadKind::kHistogram:
        return "histogram";
      case WorkloadKind::kRandomAccess:
        return "random";
      case WorkloadKind::kSpmv:
        return "spmv";
    }
    return "unknown";
}

std::vector<WorkloadKind>
allWorkloads()
{
    return {WorkloadKind::kStreaming,  WorkloadKind::kStrided,
            WorkloadKind::kStencil2D,  WorkloadKind::kGemmTiled,
            WorkloadKind::kTranspose,  WorkloadKind::kReduction,
            WorkloadKind::kHistogram,  WorkloadKind::kRandomAccess,
            WorkloadKind::kSpmv};
}

std::size_t
regionBytes(WorkloadKind kind, const WorkloadParams &params)
{
    std::size_t end = 0;
    for (const TaggedRegion &region : regionsOf(kind, params))
        end = std::max<std::size_t>(end, region.base + region.size);
    return end;
}

KernelTrace
makeWorkload(WorkloadKind kind, const WorkloadParams &params)
{
    switch (kind) {
      case WorkloadKind::kStreaming:
        return makeStreaming(params);
      case WorkloadKind::kStrided:
        return makeStrided(params);
      case WorkloadKind::kStencil2D:
        return makeStencil2d(params);
      case WorkloadKind::kGemmTiled:
        return makeGemmTiled(params);
      case WorkloadKind::kTranspose:
        return makeTranspose(params);
      case WorkloadKind::kReduction:
        return makeReduction(params);
      case WorkloadKind::kHistogram:
        return makeHistogram(params);
      case WorkloadKind::kRandomAccess:
        return makeRandomAccess(params);
      case WorkloadKind::kSpmv:
        return makeSpmv(params);
    }
    panic("unknown workload kind");
}

} // namespace cachecraft
