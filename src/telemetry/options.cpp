#include "telemetry/options.hpp"

#include <cmath>

#include "common/json.hpp"
#include "common/parse_number.hpp"

namespace cachecraft::telemetry {

namespace {

bool
asBool(const JsonValue &v, bool &out, std::string *error)
{
    if (!v.isBool()) {
        if (error)
            *error = "wants a boolean";
        return false;
    }
    out = v.asBool();
    return true;
}

bool
asPositiveCount(const JsonValue &v, std::uint64_t &out,
                const char *what, std::string *error)
{
    if (!v.isNumber() || v.asNumber() <= 0 ||
        v.asNumber() != std::floor(v.asNumber())) {
        if (error)
            *error = what;
        return false;
    }
    out = static_cast<std::uint64_t>(v.asNumber());
    return true;
}

} // namespace

std::vector<std::string>
telemetryKnobNames()
{
    return {"flight_capacity", "flight_recorder", "host_profile",
            "profile",         "profile_interval", "reuse_max_assoc",
            "reuse_profile",   "sample_interval"};
}

bool
applyTelemetryKnob(TelemetryOptions &options, const std::string &knob,
                   const JsonValue &v, std::string *error)
{
    bool b = false;
    std::uint64_t n = 0;
    if (knob == "sample_interval") {
        if (!asPositiveCount(v, n, "wants a positive cycle interval",
                             error))
            return false;
        options.sampleInterval = n;
    } else if (knob == "profile") {
        if (!asBool(v, b, error))
            return false;
        options.profileEnabled = b;
    } else if (knob == "profile_interval") {
        if (!asPositiveCount(v, n, "wants a positive cycle interval",
                             error))
            return false;
        options.profileEnabled = true;
        options.profileInterval = n;
    } else if (knob == "flight_recorder") {
        if (!asBool(v, b, error))
            return false;
        options.flightRecorderEnabled = b;
    } else if (knob == "flight_capacity") {
        if (!asPositiveCount(v, n, "wants a positive record capacity",
                             error))
            return false;
        options.flightCapacity = static_cast<std::size_t>(n);
    } else if (knob == "reuse_profile") {
        if (!asBool(v, b, error))
            return false;
        options.reuseProfileEnabled = b;
    } else if (knob == "reuse_max_assoc") {
        if (!asPositiveCount(v, n, "wants a positive associativity",
                             error))
            return false;
        options.reuseProfileEnabled = true;
        options.reuseMaxAssoc = static_cast<unsigned>(n);
    } else if (knob == "host_profile") {
        if (!asBool(v, b, error))
            return false;
        options.hostProfileEnabled = b;
    } else {
        if (error)
            *error = "unknown telemetry knob";
        return false;
    }
    return true;
}

bool
applyTelemetryKnobText(TelemetryOptions &options,
                       const std::string &knob, const std::string &text,
                       std::string *error)
{
    if (text == "true" || text == "false")
        return applyTelemetryKnob(options, knob,
                                  JsonValue(text == "true"), error);
    if (const auto n = parseUnsigned(text)) {
        // Pass as a JSON number to share the JSON-path validation;
        // every in-range knob value survives the round-trip exactly.
        return applyTelemetryKnob(options, knob,
                                  JsonValue(static_cast<double>(*n)),
                                  error);
    }
    if (error)
        *error = "wants a boolean or non-negative integer";
    return false;
}

} // namespace cachecraft::telemetry
