/**
 * @file
 * Whole-system configuration: the single struct a user fills in (or
 * leaves at defaults) to build a simulated GPU.
 *
 * Defaults model a mid-size GDDR6 GPU: 16 SMs with 64 KiB sectored
 * L1s, 8 memory partitions each pairing a 512 KiB L2 slice with one
 * DRAM channel (4 MiB L2 total), and a 16 KiB-per-slice metadata
 * reconstruction cache for the MRC schemes.
 */

#ifndef CACHECRAFT_CORE_CONFIG_HPP
#define CACHECRAFT_CORE_CONFIG_HPP

#include <string>

#include "dram/address_map.hpp"
#include "dram/dram_model.hpp"
#include "ecc/codec.hpp"
#include "gpu/l2_slice.hpp"
#include "gpu/sm_core.hpp"
#include "protect/scheme.hpp"
#include "telemetry/telemetry.hpp"

namespace cachecraft {

/** Full system configuration. */
struct SystemConfig
{
    /** Number of streaming multiprocessors. */
    unsigned numSms = 16;
    /** Per-SM core/L1 parameters. */
    SmParams sm;
    /** Per-slice L2 parameters (one slice per DRAM channel). */
    L2SliceParams l2;
    /** Request/response crossbar traversal latency. */
    Cycle xbarLatency = 16;

    /** DRAM organization. */
    DramGeometry dram;
    /** DRAM timing. */
    DramTiming timing;

    /** Protection scheme under test. */
    SchemeKind scheme = SchemeKind::kCacheCraft;
    /** ECC code protecting DRAM. */
    ecc::CodecKind codec = ecc::CodecKind::kSecDed;
    /** MRC options (R1/R2) for the MRC schemes. */
    MrcOptions mrc;
    /**
     * R3 — use the crafted co-located inline-ECC layout. Only
     * meaningful for SchemeKind::kCacheCraft; the baselines always
     * use the conventional segregated carve-out.
     */
    bool coLocatedLayout = true;

    /** Master seed for all randomized structures. */
    std::uint64_t seed = 1;

    /** Observability: epoch sampling + lifecycle tracing. */
    telemetry::TelemetryOptions telemetry;

    /** Construct the defaults described in the file comment. */
    SystemConfig();

    /** The ECC layout this configuration implies. */
    EccLayout effectiveLayout() const;

    /** fatal() with geometryError() if it is non-empty. */
    void validate() const;

    /**
     * Why a GpuSystem cannot be built from this config, or empty: no
     * SMs or no DRAM channels, a non-canonical L1/L2 line or sector,
     * or caches that cannot exist ("L2 geometry: …" / "MRC geometry:
     * …", see cacheGeometryError; the MRC is checked only for schemes
     * that build it). GpuSystem's constructor fatal()s on these, so
     * entry points check first and reject the config before any
     * output.
     */
    std::string geometryError() const;

    /** One-line summary, e.g. for bench row labels. */
    std::string summary() const;

    /** Multi-line configuration table (Experiment E10). */
    std::string describe() const;
};

} // namespace cachecraft

#endif // CACHECRAFT_CORE_CONFIG_HPP
