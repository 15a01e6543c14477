#include "campaign/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <span>

#include "common/json.hpp"
#include "common/log.hpp"
#include "ecc/crc32.hpp"
#include "protect/mrc_scheme.hpp"
#include "telemetry/options.hpp"

namespace cachecraft::campaign {

namespace {

/** Slug a knob value into a label fragment: [a-z0-9-] only. */
std::string
slug(const std::string &value)
{
    std::string out;
    for (char ch : value) {
        if (std::isalnum(static_cast<unsigned char>(ch)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? std::string("x") : out;
}

/** Render a knob's JSON value for labels and the manifest axes. */
std::string
valueString(const JsonValue &v)
{
    switch (v.kind()) {
      case JsonValue::Kind::kString:
        return v.asString();
      case JsonValue::Kind::kNumber:
        return jsonNumber(v.asNumber());
      case JsonValue::Kind::kBool:
        return v.asBool() ? "true" : "false";
      default:
        return "?";
    }
}

/**
 * Why the caches a point's GpuSystem would build cannot exist (see
 * cacheGeometryError), or empty. Checked at expansion because their
 * constructors end the process: an "l2_kib" of 3 must fail its point,
 * not the campaign. The MRC is checked only for schemes that build it.
 */
std::string
geometryError(const SystemConfig &config)
{
    if (std::string e = cacheGeometryError(config.l2.cache); !e.empty())
        return "L2 geometry: " + e;
    if (config.scheme == SchemeKind::kEccCache ||
        config.scheme == SchemeKind::kCacheCraft) {
        if (std::string e = cacheGeometryError(mrcParams(config.mrc));
            !e.empty())
            return "MRC geometry: " + e;
    }
    return {};
}

template <typename Kind>
std::optional<Kind>
parseEnum(const std::string &name, std::span<const Kind> all)
{
    for (Kind kind : all) {
        if (name == toString(kind))
            return kind;
    }
    return std::nullopt;
}

/** Read a non-negative integral JSON number; error otherwise. */
bool
asCount(const JsonValue &v, std::uint64_t &out, std::string *error)
{
    if (!v.isNumber() || v.asNumber() < 0 ||
        v.asNumber() != std::floor(v.asNumber())) {
        *error = "wants a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(v.asNumber());
    return true;
}

/**
 * Apply one (knob, value) to a point. Returns false with a diagnostic
 * in @p error when the value is invalid for that knob; unknown knob
 * names are a *structural* error detected before application (see
 * applyKnob's caller), so reaching here means the name is known.
 */
bool
applyKnob(CampaignPoint &point, const std::string &knob,
          const JsonValue &v, std::string *error)
{
    std::uint64_t n = 0;
    if (knob == "workload") {
        if (!v.isString()) {
            *error = "wants a workload name string";
            return false;
        }
        const std::vector<WorkloadKind> all = allWorkloads();
        const auto kind = parseEnum<WorkloadKind>(v.asString(), all);
        if (!kind) {
            *error = "unknown workload \"" + v.asString() + "\"";
            return false;
        }
        point.workload = *kind;
    } else if (knob == "scheme") {
        static const SchemeKind kSchemes[] = {
            SchemeKind::kNone, SchemeKind::kInlineNaive,
            SchemeKind::kEccCache, SchemeKind::kCacheCraft};
        if (!v.isString()) {
            *error = "wants a scheme name string";
            return false;
        }
        const auto kind = parseEnum<SchemeKind>(v.asString(), kSchemes);
        if (!kind) {
            *error = "unknown scheme \"" + v.asString() + "\"";
            return false;
        }
        point.config.scheme = *kind;
    } else if (knob == "codec") {
        if (!v.isString()) {
            *error = "wants a codec name string";
            return false;
        }
        const std::vector<ecc::CodecKind> all = ecc::allCodecs();
        const auto kind = parseEnum<ecc::CodecKind>(v.asString(), all);
        if (!kind) {
            *error = "unknown codec \"" + v.asString() + "\"";
            return false;
        }
        point.config.codec = *kind;
    } else if (knob == "sms") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive SM count";
            return false;
        }
        point.config.numSms = static_cast<unsigned>(n);
    } else if (knob == "l2_kib") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive KiB size";
            return false;
        }
        point.config.l2.cache.sizeBytes = n * 1024;
    } else if (knob == "mrc_kib") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive KiB size";
            return false;
        }
        point.config.mrc.sizeBytes = n * 1024;
    } else if (knob == "footprint_mib") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive MiB footprint";
            return false;
        }
        point.params.footprintBytes = n * 1024 * 1024;
    } else if (knob == "warps") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive warp count";
            return false;
        }
        point.params.numWarps = static_cast<unsigned>(n);
    } else if (knob == "mem_insts") {
        if (!asCount(v, n, error) || n == 0) {
            *error = "wants a positive instruction count";
            return false;
        }
        point.params.memInstsPerWarp = static_cast<unsigned>(n);
    } else if (knob == "seed") {
        if (!asCount(v, n, error))
            return false;
        point.params.seed = n;
    } else if (knob == "system_seed") {
        if (!asCount(v, n, error))
            return false;
        point.config.seed = n;
    } else if (knob == "chunk_granularity") {
        if (!v.isBool()) {
            *error = "wants a boolean";
            return false;
        }
        point.config.mrc.chunkGranularity = v.asBool();
    } else if (knob == "writeback_mrc") {
        if (!v.isBool()) {
            *error = "wants a boolean";
            return false;
        }
        point.config.mrc.writebackMrc = v.asBool();
    } else if (knob == "co_located_layout") {
        if (!v.isBool()) {
            *error = "wants a boolean";
            return false;
        }
        point.config.coLocatedLayout = v.asBool();
    } else if (knob == "gto") {
        if (!v.isBool()) {
            *error = "wants a boolean";
            return false;
        }
        point.config.sm.scheduler =
            v.asBool() ? WarpSched::kGto : WarpSched::kRoundRobin;
    } else if (knob == "l2_whole_line") {
        if (!v.isBool()) {
            *error = "wants a boolean";
            return false;
        }
        point.config.l2.fetchWholeLine = v.asBool();
    } else {
        // Every telemetry knob (profiling gates, capacities, the host
        // profiler) parses through the shared TelemetryOptions parser
        // so CLI flags and spec knobs agree on names and validation.
        const auto telemetry_knobs = telemetry::telemetryKnobNames();
        if (std::find(telemetry_knobs.begin(), telemetry_knobs.end(),
                      knob) == telemetry_knobs.end()) {
            *error = "unknown knob";
            return false;
        }
        return telemetry::applyTelemetryKnob(point.config.telemetry,
                                             knob, v, error);
    }
    return true;
}

bool
knownKnob(const std::string &name)
{
    const auto all = knownKnobs();
    return std::find(all.begin(), all.end(), name) != all.end();
}

} // namespace

std::vector<std::string>
knownKnobs()
{
    std::vector<std::string> all = {
        "chunk_granularity", "co_located_layout", "codec",
        "footprint_mib",     "gto",               "l2_kib",
        "l2_whole_line",     "mem_insts",         "mrc_kib",
        "scheme",            "seed",              "sms",
        "system_seed",       "warps",             "workload",
        "writeback_mrc"};
    for (std::string &knob : telemetry::telemetryKnobNames())
        all.push_back(std::move(knob));
    std::sort(all.begin(), all.end());
    return all;
}

std::optional<CampaignSpec>
parseCampaignSpec(const std::string &text, std::string *error)
{
    auto fail = [error](const std::string &what) {
        if (error)
            *error = what;
        return std::nullopt;
    };

    std::string parse_error;
    const auto doc = jsonParse(text, &parse_error);
    if (!doc)
        return fail("spec is not valid JSON: " + parse_error);
    if (!doc->isObject())
        return fail("spec must be a JSON object");

    if (const JsonValue *schema = doc->find("schema")) {
        if (!schema->isString() ||
            schema->asString() != "cachecraft.campaign_spec/1")
            return fail("unsupported spec schema (want "
                        "\"cachecraft.campaign_spec/1\")");
    }

    CampaignSpec spec;
    const JsonValue *name = doc->find("name");
    if (name == nullptr || !name->isString() || name->asString().empty())
        return fail("spec needs a non-empty \"name\" string");
    spec.name = name->asString();

    for (const auto &[key, value] : doc->asObject()) {
        (void)value;
        if (key != "schema" && key != "schema_version" && key != "name" &&
            key != "base" && key != "grid" && key != "comment")
            return fail("unknown top-level key \"" + key + "\"");
    }

    const JsonValue *base = doc->find("base");
    if (base != nullptr && !base->isObject())
        return fail("\"base\" must be an object of knob values");

    const JsonValue *grid = doc->find("grid");
    if (grid == nullptr || !grid->isObject())
        return fail("spec needs a \"grid\" object of knob-value lists");

    // Structural validation up front: every knob name must be known
    // and every axis a non-empty array, so a typo rejects the spec
    // instead of silently failing every point.
    if (base != nullptr) {
        for (const auto &[knob, value] : base->asObject()) {
            (void)value;
            if (!knownKnob(knob))
                return fail("unknown base knob \"" + knob + "\"");
        }
    }
    for (const auto &[knob, axis] : grid->asObject()) {
        if (!knownKnob(knob))
            return fail("unknown grid axis \"" + knob + "\"");
        if (!axis.isArray() || axis.asArray().empty())
            return fail("grid axis \"" + knob +
                        "\" must be a non-empty array");
    }

    const JsonValue::Object &axes = grid->asObject();
    std::size_t total = 1;
    for (const auto &[knob, axis] : axes) {
        (void)knob;
        total *= axis.asArray().size();
    }
    if (total > 100000)
        return fail("grid expands to " + std::to_string(total) +
                    " points; refusing (limit 100000)");

    // Width of the zero-padded index in labels.
    std::size_t digits = 3;
    for (std::size_t p = 1000; p <= total; p *= 10)
        ++digits;

    // Cartesian product, first axis outermost (spec order).
    std::vector<std::size_t> cursor(axes.size(), 0);
    for (std::size_t index = 0; index < total; ++index) {
        CampaignPoint point;
        point.index = index;

        std::string point_error;
        if (base != nullptr) {
            for (const auto &[knob, value] : base->asObject()) {
                std::string e;
                if (point_error.empty() &&
                    !applyKnob(point, knob, value, &e))
                    point_error = "base knob \"" + knob + "\" " + e;
            }
        }

        const std::string number = std::to_string(index);
        point.label = "p";
        if (number.size() < digits)
            point.label.append(digits - number.size(), '0');
        point.label += number;
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const auto &[knob, axis] = axes[a];
            const JsonValue &value = axis.asArray()[cursor[a]];
            point.axes.emplace_back(knob, valueString(value));
            point.label += '_';
            point.label += slug(valueString(value));
            std::string e;
            if (point_error.empty() &&
                !applyKnob(point, knob, value, &e))
                point_error = "grid axis \"" + knob + "\" " + e;
        }
        if (point_error.empty())
            point_error = geometryError(point.config);
        point.expandError = std::move(point_error);
        spec.points.push_back(std::move(point));

        // Odometer increment: last axis fastest.
        for (std::size_t a = axes.size(); a-- > 0;) {
            if (++cursor[a] < axes[a].second.asArray().size())
                break;
            cursor[a] = 0;
        }
    }

    const auto *bytes = reinterpret_cast<const std::uint8_t *>(
        text.data());
    char hash[32];
    std::snprintf(hash, sizeof hash, "crc32c:%08x",
                  ecc::crc32c({bytes, text.size()}));
    spec.specHash = hash;
    return spec;
}

} // namespace cachecraft::campaign
