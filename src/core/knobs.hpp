/**
 * @file
 * The knob table: every setting a campaign spec or a tool flag can
 * change, in one place.
 *
 * A knob has a name ("l2_kib"), one line of help, a value kind and a
 * setter. Campaign specs apply knobs from JSON values
 * (`"l2_kib": 256`); cachecraft_sim, cachecraft_hostprof and
 * cachecraft_curves derive a flag from each name (`--l2-kib 256`, and
 * `--gto` / `--no-gto` for booleans) and apply its text. Both paths
 * share one validator, so they accept the same values and reject the
 * rest with the same message. `cachecraft_sweep --list-knobs` prints
 * the names.
 */

#ifndef CACHECRAFT_CORE_KNOBS_HPP
#define CACHECRAFT_CORE_KNOBS_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "workloads/workloads.hpp"

namespace cachecraft {

class JsonValue;

/** What knobs write into: a machine, a kernel and its sizing. */
struct KnobTarget
{
    SystemConfig config;
    WorkloadKind workload = WorkloadKind::kStreaming;
    WorkloadParams params;
};

/** One row of the knob table. */
struct Knob
{
    enum class Kind : std::uint8_t
    {
        kBool,  //!< true / false
        kCount, //!< a non-negative integer times a unit
        kEnum,  //!< one name of a fixed list
    };

    const char *name;
    const char *help;
    Kind kind;
    /** kCount: the field counts value × unit (1024 for a KiB knob). */
    std::uint64_t unit;
    /** kCount: the largest field value; kEnum: the number of names. */
    std::uint64_t max;
    /** kCount: the noun of "wants a positive …"; null if 0 is valid. */
    const char *positive;
    /** kEnum: the name of value @p i < max. */
    const char *(*label)(std::uint64_t i);
    /** Write a checked value: 0/1, the scaled count or the enum index. */
    void (*set)(KnobTarget &target, std::uint64_t value);
};

/** Every knob, in help order. */
std::span<const Knob> knobTable();

/** The row named @p name, or nullptr. */
const Knob *findKnob(std::string_view name);

/**
 * True if table row @p knob sets the built-in kernel (the workload or
 * its sizing) rather than the machine; a trace file replaces all of
 * them.
 */
bool setsKernel(const Knob &knob);

/** Every knob name, sorted. */
std::vector<std::string> knownKnobs();

/**
 * Apply a campaign-spec value: a JSON bool, number or string as the
 * knob's kind asks. Returns why the value is rejected ("wants a
 * positive warp count", ...) or "" once it is applied; a rejected
 * value leaves @p target unchanged.
 */
std::string applyKnob(KnobTarget &target, const Knob &knob,
                      const JsonValue &value);

/**
 * Apply flag text: "true"/"false", decimal digits or a name. Same
 * checks and messages as applyKnob.
 */
std::string applyKnobText(KnobTarget &target, const Knob &knob,
                          std::string_view text);

/**
 * Why @p target cannot run, or "": first its machine's
 * SystemConfig::geometryError(), then whether its built-in kernel's
 * regions (regionBytes()) fit the device's usable bytes under the
 * effective ECC layout. Every entry point calls it once, after the
 * knobs are applied and before generation, which would otherwise
 * build a trace the device cannot hold.
 */
std::string knobTargetError(const KnobTarget &target);

} // namespace cachecraft

#endif // CACHECRAFT_CORE_KNOBS_HPP
