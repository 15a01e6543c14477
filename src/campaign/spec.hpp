/**
 * @file
 * Declarative experiment-campaign specifications.
 *
 * A campaign spec is one JSON document describing a cartesian grid of
 * run points (DESIGN.md §8.3):
 *
 *   {
 *     "schema": "cachecraft.campaign_spec/1",
 *     "name": "e1_headline",
 *     "base": { "footprint_mib": 4, "warps": 256, "seed": 7 },
 *     "grid": {
 *       "workload": ["streaming", "gemm", "random"],
 *       "scheme":   ["no-ecc", "cachecraft"]
 *     }
 *   }
 *
 * `base` sets fixed knobs applied to every point; each `grid` axis is
 * a knob name mapped to a list of values, and the expansion is the
 * cartesian product in spec order (first axis outermost). Every point
 * gets a deterministic zero-padded label ("p003_gemm_cachecraft"),
 * its own SystemConfig and WorkloadParams — same-spec expansions are
 * identical byte for byte regardless of who expands them.
 *
 * Error model: structural problems (missing "grid", an axis that is
 * not an array, an unknown knob name) reject the whole spec, while a
 * bad knob *value* ("scheme": "bogus", "warps": 0, a count too large
 * for its field — the checks of core/knobs.hpp), or knob values
 * that together make an impossible cache geometry ("l2_kib": 3), mark
 * only the affected points as failed-at-expansion
 * (CampaignPoint::expandError), so one bad axis value can never abort
 * the rest of the campaign.
 */

#ifndef CACHECRAFT_CAMPAIGN_SPEC_HPP
#define CACHECRAFT_CAMPAIGN_SPEC_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/knobs.hpp"

namespace cachecraft::campaign {

/** One expanded run point of a campaign grid: the KnobTarget its
 *  knobs were applied to, plus where it came from. */
struct CampaignPoint : KnobTarget
{
    /** Position in expansion order (also the label prefix). */
    std::size_t index = 0;
    /** Deterministic file-name-safe label, e.g. "p003_gemm_cachecraft". */
    std::string label;
    /** (axis, value) pairs this point was expanded from, in spec order. */
    std::vector<std::pair<std::string, std::string>> axes;

    /** Non-empty when a knob value was invalid: the point is recorded
     *  as failed in the campaign manifest and never run. */
    std::string expandError;
};

/** A parsed and fully expanded campaign. */
struct CampaignSpec
{
    std::string name;
    std::vector<CampaignPoint> points;
    /** CRC-32C of the spec text, e.g. "crc32c:9ae1f203" — stamped into
     *  the campaign manifest so a report tree names its producer. */
    std::string specHash;
};

/**
 * Parse @p text as a campaign spec and expand its grid.
 * Returns std::nullopt on structural errors (diagnostic in @p error).
 */
std::optional<CampaignSpec> parseCampaignSpec(const std::string &text,
                                              std::string *error);

/** The knob names base/grid accept, sorted (see core/knobs.hpp). */
using cachecraft::knownKnobs;

} // namespace cachecraft::campaign

#endif // CACHECRAFT_CAMPAIGN_SPEC_HPP
