#include "core/knobs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/parse_number.hpp"
#include "dram/address_map.hpp"

namespace cachecraft {

namespace {

using Set = void (*)(KnobTarget &, std::uint64_t);

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kSizeMax = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

constexpr Knob
boolean(const char *name, const char *help, Set set)
{
    return {name, help, Knob::Kind::kBool, 1, 1, nullptr, nullptr, set};
}

constexpr Knob
count(const char *name, const char *help, std::uint64_t unit,
      std::uint64_t max, const char *positive, Set set)
{
    return {name, help, Knob::Kind::kCount, unit, max, positive, nullptr,
            set};
}

/** Enum values 0..n-1 named by the enum's toString. */
template <typename E>
const char *
labelOf(std::uint64_t i)
{
    return toString(static_cast<E>(i));
}

template <typename E>
constexpr Knob
choice(const char *name, const char *help, std::uint64_t n, Set set)
{
    return {name, help, Knob::Kind::kEnum, 1, n, nullptr, &labelOf<E>,
            set};
}

constexpr Knob kKnobs[] = {
    // The kernel and its sizing.
    choice<WorkloadKind>(
        "workload", "built-in kernel", 9,
        [](KnobTarget &t, std::uint64_t v) {
            t.workload = static_cast<WorkloadKind>(v);
        }),
    count("footprint_mib", "primary array footprint in MiB", 1024 * 1024,
          kSizeMax, "MiB footprint",
          [](KnobTarget &t, std::uint64_t v) { t.params.footprintBytes = v; }),
    count("warps", "total warps across the GPU", 1, kUnsignedMax,
          "warp count",
          [](KnobTarget &t, std::uint64_t v) {
              t.params.numWarps = static_cast<unsigned>(v);
          }),
    count("mem_insts", "memory instructions per warp (irregular kernels)",
          1, kUnsignedMax, "instruction count",
          [](KnobTarget &t, std::uint64_t v) {
              t.params.memInstsPerWarp = static_cast<unsigned>(v);
          }),
    count("seed", "workload generator seed", 1, kU64Max, nullptr,
          [](KnobTarget &t, std::uint64_t v) { t.params.seed = v; }),

    // The machine.
    choice<SchemeKind>(
        "scheme", "memory protection scheme", 4,
        [](KnobTarget &t, std::uint64_t v) {
            t.config.scheme = static_cast<SchemeKind>(v);
        }),
    choice<ecc::CodecKind>(
        "codec", "ECC code protecting DRAM", 4,
        [](KnobTarget &t, std::uint64_t v) {
            t.config.codec = static_cast<ecc::CodecKind>(v);
        }),
    count("sms", "SM count", 1, kUnsignedMax, "SM count",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.numSms = static_cast<unsigned>(v);
          }),
    count("l2_kib", "L2 KiB per slice", 1024, kSizeMax, "KiB size",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.l2.cache.sizeBytes = v;
          }),
    count("mrc_kib", "metadata reconstruction cache KiB per slice", 1024,
          kSizeMax, "KiB size",
          [](KnobTarget &t, std::uint64_t v) { t.config.mrc.sizeBytes = v; }),
    count("system_seed", "seed of the machine's randomized structures", 1,
          kU64Max, nullptr,
          [](KnobTarget &t, std::uint64_t v) { t.config.seed = v; }),
    boolean("gto", "greedy-then-oldest warp scheduling (off: round-robin)",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.sm.scheduler =
                    v != 0 ? WarpSched::kGto : WarpSched::kRoundRobin;
            }),
    boolean("l2_whole_line", "fetch the whole 128 B line on an L2 miss",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.l2.fetchWholeLine = v != 0;
            }),

    // CacheCraft's mechanisms (on by default).
    boolean("chunk_granularity",
            "R1: an MRC fill keeps the whole 32 B ECC chunk",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.mrc.chunkGranularity = v != 0;
            }),
    boolean("writeback_mrc",
            "R2: dirty metadata coalesces in a write-back MRC",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.mrc.writebackMrc = v != 0;
            }),
    boolean("co_located_layout",
            "R3: ECC chunks co-located with their data rows",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.coLocatedLayout = v != 0;
            }),

    // Telemetry (all off by default; none changes simulated timing).
    count("sample_interval", "sample stat deltas every N cycles", 1,
          kU64Max, "cycle interval",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.telemetry.sampleInterval = v;
          }),
    boolean("profile",
            "occupancy gauges and the hottest DRAM rows and L2 sectors",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.telemetry.profileEnabled = v != 0;
            }),
    count("profile_interval",
          "poll occupancy gauges every N cycles (implies profile)", 1,
          kU64Max, "cycle interval",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.telemetry.profileEnabled = true;
              t.config.telemetry.profileInterval = v;
          }),
    boolean("flight_recorder", "record every request's causal edges",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.telemetry.flightRecorderEnabled = v != 0;
            }),
    count("flight_capacity", "flight ring size in records", 1, kSizeMax,
          "record capacity",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.telemetry.flightCapacity = v;
          }),
    boolean("reuse_profile",
            "reuse-distance curves of the L2 and MRC access streams",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.telemetry.reuseProfileEnabled = v != 0;
            }),
    count("reuse_max_assoc",
          "curve points at 1..N ways (implies reuse_profile)", 1,
          kUnsignedMax, "associativity",
          [](KnobTarget &t, std::uint64_t v) {
              t.config.telemetry.reuseProfileEnabled = true;
              t.config.telemetry.reuseMaxAssoc = static_cast<unsigned>(v);
          }),
    boolean("host_profile", "time the simulator's own host zones",
            [](KnobTarget &t, std::uint64_t v) {
                t.config.telemetry.hostProfileEnabled = v != 0;
            }),
};

/** The leading rows that set the kernel (see setsKernel). */
constexpr std::size_t kKernelKnobs = 5;
static_assert(std::string_view(kKnobs[kKernelKnobs - 1].name) == "seed" &&
                  std::string_view(kKnobs[kKernelKnobs].name) == "scheme",
              "the kernel rows lead the table, ending at seed");

/**
 * A JSON number as the text applyKnobText parses: an integer below
 * 2^64 prints exactly, a larger one as 2^64 (out of range for every
 * knob), and a fraction or a negative number as "" (not a count).
 */
std::string
countText(const JsonValue &value)
{
    if (!value.isNumber())
        return {};
    const double n = value.asNumber();
    if (!(n >= 0) || n != std::floor(n))
        return {};
    if (n >= 0x1p64)
        return "18446744073709551616";
    return std::to_string(static_cast<std::uint64_t>(n));
}

} // namespace

std::span<const Knob>
knobTable()
{
    return kKnobs;
}

const Knob *
findKnob(std::string_view name)
{
    for (const Knob &knob : kKnobs) {
        if (name == knob.name)
            return &knob;
    }
    return nullptr;
}

bool
setsKernel(const Knob &knob)
{
    for (std::size_t i = 0; i < kKernelKnobs; ++i) {
        if (&knob == &kKnobs[i])
            return true;
    }
    return false;
}

std::vector<std::string>
knownKnobs()
{
    std::vector<std::string> names;
    for (const Knob &knob : kKnobs)
        names.emplace_back(knob.name);
    std::sort(names.begin(), names.end());
    return names;
}

std::string
applyKnob(KnobTarget &target, const Knob &knob, const JsonValue &value)
{
    switch (knob.kind) {
      case Knob::Kind::kBool:
        if (!value.isBool())
            return "wants a boolean";
        return applyKnobText(target, knob,
                             value.asBool() ? "true" : "false");
      case Knob::Kind::kCount:
        return applyKnobText(target, knob, countText(value));
      case Knob::Kind::kEnum:
        if (!value.isString())
            return strCat("wants a ", knob.name, " name string");
        return applyKnobText(target, knob, value.asString());
    }
    return {};
}

std::string
applyKnobText(KnobTarget &target, const Knob &knob, std::string_view text)
{
    switch (knob.kind) {
      case Knob::Kind::kBool:
        if (text != "true" && text != "false")
            return "wants a boolean";
        knob.set(target, text == "true");
        return {};
      case Knob::Kind::kCount: {
        std::string error;
        const auto n = parseUnsigned(text, knob.max / knob.unit, &error);
        if (!n)
            return error;
        if (*n == 0 && knob.positive != nullptr)
            return strCat("wants a positive ", knob.positive);
        knob.set(target, *n * knob.unit);
        return {};
      }
      case Knob::Kind::kEnum:
        for (std::uint64_t i = 0; i < knob.max; ++i) {
            if (text == knob.label(i)) {
                knob.set(target, i);
                return {};
            }
        }
        return strCat("unknown ", knob.name, " \"", text, "\"");
    }
    return {};
}

std::string
knobTargetError(const KnobTarget &target)
{
    if (std::string error = target.config.geometryError(); !error.empty())
        return error;
    const std::size_t need = regionBytes(target.workload, target.params);
    const AddressMap map(target.config.dram,
                         target.config.effectiveLayout());
    if (need <= map.usableBytesTotal())
        return {};
    return strCat("workload ", toString(target.workload), " spans ", need,
                  " bytes, more than the ", map.usableBytesTotal(),
                  " bytes of usable device memory");
}

} // namespace cachecraft
