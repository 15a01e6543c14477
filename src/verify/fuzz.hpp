/**
 * @file
 * Differential fuzzing engine: seeded random workload/config/fault
 * programs run through GpuSystem under the golden memory oracle and
 * the layer invariant checker.
 *
 * A FuzzCase is a fully self-contained program: it round-trips
 * through JSON so a failing case can be committed as a reproducer and
 * replayed bit-identically (`cachecraft_fuzz --replay case.json`).
 * When a case fails, minimizeCase() delta-debugs the access list and
 * then greedily strips configuration knobs, re-running the simulator
 * after every candidate reduction so the result is the smallest
 * still-failing program.
 */

#ifndef CACHECRAFT_VERIFY_FUZZ_HPP
#define CACHECRAFT_VERIFY_FUZZ_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "faults/fault_injector.hpp"
#include "gpu/kernel_trace.hpp"

namespace cachecraft::verify {

/** One warp memory instruction of a fuzz program. */
struct FuzzAccess
{
    unsigned warp = 0;
    bool isWrite = false;
    /** Active-lane byte addresses (all within the case's region). */
    std::vector<Addr> lanes;
};

/**
 * A self-contained differential-test program: machine shape, one
 * tagged region, an access list, and optional planned faults.
 */
struct FuzzCase
{
    std::uint64_t seed = 0;
    SchemeKind scheme = SchemeKind::kCacheCraft;
    ecc::CodecKind codec = ecc::CodecKind::kSecDed;

    unsigned numSms = 1;
    unsigned numChannels = 1;

    std::size_t l2SizeBytes = 8 * 1024;
    unsigned l2Assoc = 4;
    std::size_t l2MshrEntries = 4;
    bool fetchWholeLine = false;

    std::size_t mrcSizeBytes = 1024;
    unsigned mrcAssoc = 4;
    bool chunkGranularity = true;
    bool writebackMrc = true;
    bool eagerWriteout = false;
    bool fetchOnWriteMiss = true;
    bool coLocated = true;

    Addr regionBase = 0;
    std::size_t regionBytes = 4096;
    std::uint8_t tag = 1;

    std::vector<FuzzAccess> accesses;
    std::vector<FaultPlan> faults;

    /** Enable MrcOptions::plantStaleMetaBug (self-test of the rig). */
    bool plantMrcStaleMetaBug = false;

    /** The SystemConfig this case describes (small machine). */
    SystemConfig toConfig() const;

    /** The KernelTrace this case describes. */
    KernelTrace toTrace() const;
};

/** Outcome of one differential run. */
struct FuzzResult
{
    bool ok = true;
    /** Oracle + invariant + final-state violations, capped. */
    std::vector<std::string> violations;
    std::uint64_t decodesChecked = 0;
    std::uint64_t invariantEventsChecked = 0;
};

/**
 * Deterministically generate a random case for @p scheme from
 * @p seed. Faults (when the scheme is protected) are drawn from the
 * codec's guaranteed-correctable pattern set, at most one per
 * protection chunk, so a correct simulator always passes.
 */
FuzzCase generateCase(std::uint64_t seed, SchemeKind scheme);

/**
 * Run @p c through GpuSystem with the golden oracle and invariant
 * checker attached, then verify final memory against the recomputed
 * architectural state.
 *
 * @param flight_dump_path when non-empty, the run executes with the
 * flight recorder enabled and its ring is written there as a binary
 * postmortem dump (cachecraft_trace reads it) — recording is
 * timing-neutral, so the verdict is identical either way.
 */
FuzzResult runCase(const FuzzCase &c,
                   const std::string &flight_dump_path = {});

/**
 * Shrink a failing case: ddmin over the access list, then per-access
 * lane reduction, then greedy knob simplification (drop faults,
 * collapse SMs/channels/warps, clear optional features). Every kept
 * reduction still fails runCase(). @p runs_out (optional) receives
 * the number of simulator runs spent minimizing.
 */
FuzzCase minimizeCase(const FuzzCase &failing,
                      unsigned *runs_out = nullptr);

/** Serialize @p c as a self-contained JSON reproducer. */
std::string toJson(const FuzzCase &c);

/**
 * Parse a reproducer produced by toJson(). Returns false (with a
 * diagnostic in @p error, may be null) on malformed input.
 */
bool fromJson(std::string_view text, FuzzCase *out,
              std::string *error = nullptr);

} // namespace cachecraft::verify

#endif // CACHECRAFT_VERIFY_FUZZ_HPP
