/**
 * @file
 * Tests for the knob table (core/knobs.hpp): every row applies the
 * same way from a campaign-spec JSON value and from CLI flag text,
 * bad values reject with one message on both paths and leave the
 * target untouched, counts are bounded by their field, the implied
 * gates hold (profile_interval implies profile, reuse_max_assoc
 * implies reuse_profile), and campaign specs accept exactly the
 * table's knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "campaign/spec.hpp"
#include "common/json.hpp"
#include "core/knobs.hpp"

namespace cachecraft {
namespace {

std::string
apply(KnobTarget &target, std::string_view knob, const JsonValue &value)
{
    const Knob *row = findKnob(knob);
    EXPECT_NE(row, nullptr) << knob;
    return row ? applyKnob(target, *row, value) : "no such knob";
}

std::string
applyText(KnobTarget &target, std::string_view knob, std::string_view text)
{
    const Knob *row = findKnob(knob);
    EXPECT_NE(row, nullptr) << knob;
    return row ? applyKnobText(target, *row, text) : "no such knob";
}

/** Every field a knob writes, as text: equal fingerprints mean the
 *  same describe(), summary(), WorkloadParams and TelemetryOptions. */
std::string
fingerprint(const KnobTarget &t)
{
    const telemetry::TelemetryOptions &o = t.config.telemetry;
    std::ostringstream os;
    os << t.config.describe() << t.config.summary() << '\n'
       << toString(t.workload) << ' ' << t.params.footprintBytes << ' '
       << t.params.numWarps << ' ' << t.params.memInstsPerWarp << ' '
       << t.params.computeCycles << ' ' << t.params.seed << '\n'
       << t.config.seed << ' ' << toString(t.config.sm.scheduler) << ' '
       << t.config.l2.fetchWholeLine << ' ' << t.config.coLocatedLayout
       << '\n'
       << o.sampleInterval << ' ' << o.profileEnabled << ' '
       << o.profileInterval << ' ' << o.flightRecorderEnabled << ' '
       << o.flightCapacity << ' ' << o.reuseProfileEnabled << ' '
       << o.reuseMaxAssoc << ' ' << o.reuseSetGroups << ' '
       << o.reuseEpochAccesses << ' ' << o.reuseRetainStream << ' '
       << o.hostProfileEnabled;
    return os.str();
}

/** A valid value of @p row on both paths: JSON and flag text. */
struct Value
{
    JsonValue json;
    std::string text;
};

/** Two valid, different values of @p row. */
std::pair<Value, Value>
validValues(const Knob &row)
{
    switch (row.kind) {
      case Knob::Kind::kBool:
        return {{JsonValue(true), "true"}, {JsonValue(false), "false"}};
      case Knob::Kind::kCount:
        return {{JsonValue(32.0), "32"}, {JsonValue(64.0), "64"}};
      case Knob::Kind::kEnum:
        return {{JsonValue(std::string(row.label(0))), row.label(0)},
                {JsonValue(std::string(row.label(1))), row.label(1)}};
    }
    return {};
}

TEST(KnobTable, SpecJsonAndFlagTextAgreeOnEveryRow)
{
    const std::string untouched = fingerprint(KnobTarget{});
    for (const Knob &row : knobTable()) {
        const auto [a, b] = validValues(row);
        std::string seen[2];
        for (int v = 0; v < 2; ++v) {
            const Value &value = v == 0 ? a : b;
            KnobTarget from_json;
            KnobTarget from_text;
            EXPECT_EQ(applyKnob(from_json, row, value.json), "")
                << row.name;
            EXPECT_EQ(applyKnobText(from_text, row, value.text), "")
                << row.name;
            EXPECT_EQ(fingerprint(from_json), fingerprint(from_text))
                << row.name << " = " << value.text;
            seen[v] = fingerprint(from_json);
        }
        // The row writes something, and the value decides what.
        EXPECT_NE(seen[0], seen[1]) << row.name;

        // One invalid value: the same message on both paths, and the
        // target as it was.
        Value bad;
        switch (row.kind) {
          case Knob::Kind::kBool:
            bad = {JsonValue(1.0), "1"};
            break;
          case Knob::Kind::kCount:
            bad = {JsonValue(-1.0), "-1"};
            break;
          case Knob::Kind::kEnum:
            bad = {JsonValue(std::string("bogus")), "bogus"};
            break;
        }
        KnobTarget from_json;
        KnobTarget from_text;
        const std::string json_error = applyKnob(from_json, row, bad.json);
        EXPECT_FALSE(json_error.empty()) << row.name;
        EXPECT_EQ(json_error, applyKnobText(from_text, row, bad.text))
            << row.name;
        EXPECT_EQ(fingerprint(from_json), untouched) << row.name;
        EXPECT_EQ(fingerprint(from_text), untouched) << row.name;
    }
}

TEST(KnobTable, NamesAreUniqueFlagSafeAndListed)
{
    std::set<std::string> names;
    for (const Knob &row : knobTable()) {
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
        EXPECT_EQ(std::string(row.name).find_first_not_of(
                      "abcdefghijklmnopqrstuvwxyz0123456789_"),
                  std::string::npos)
            << row.name;
        EXPECT_NE(std::string(row.help), "") << row.name;
        EXPECT_EQ(findKnob(row.name), &row) << row.name;
    }
    const std::vector<std::string> known = knownKnobs();
    EXPECT_TRUE(std::is_sorted(known.begin(), known.end()));
    EXPECT_EQ(std::set<std::string>(known.begin(), known.end()), names);
    EXPECT_EQ(known.size(), 24u);
}

TEST(KnobTable, EnumRowsNameEveryKind)
{
    auto labels = [](const char *knob) {
        std::vector<std::string> out;
        const Knob *row = findKnob(knob);
        for (std::uint64_t i = 0; row != nullptr && i < row->max; ++i)
            out.emplace_back(row->label(i));
        return out;
    };
    std::vector<std::string> workloads;
    for (WorkloadKind kind : allWorkloads())
        workloads.emplace_back(toString(kind));
    EXPECT_EQ(labels("workload"), workloads);
    std::vector<std::string> codecs;
    for (ecc::CodecKind kind : ecc::allCodecs())
        codecs.emplace_back(toString(kind));
    EXPECT_EQ(labels("codec"), codecs);
    EXPECT_EQ(labels("scheme"),
              (std::vector<std::string>{"no-ecc", "inline-naive",
                                        "ecc-cache", "cachecraft"}));
}

TEST(KnobTable, CountsRejectValuesTheirFieldCannotHold)
{
    // 2^32 warps used to truncate to 0, and 2^44 MiB to wrap to 0
    // bytes; a JSON number at or past 2^64 has no integer type at all.
    struct Case
    {
        const char *knob;
        double json;
        const char *text;
        const char *error;
    };
    const Case cases[] = {
        {"warps", 4294967296.0, "4294967296",
         "is out of range (max 4294967295)"},
        {"footprint_mib", 17592186044416.0, "17592186044416",
         "is out of range (max 17592186044415)"},
        {"l2_kib", 18014398509481984.0, "18014398509481984",
         "is out of range (max 18014398509481983)"},
        {"seed", 18446744073709551616.0, "18446744073709551616",
         "is out of range (max 18446744073709551615)"},
        {"seed", 1e300,
         "1000000000000000000000000000000000000000000000000000000",
         "is out of range (max 18446744073709551615)"},
    };
    for (const Case &c : cases) {
        KnobTarget json_target;
        KnobTarget text_target;
        EXPECT_EQ(apply(json_target, c.knob, JsonValue(c.json)), c.error)
            << c.knob;
        EXPECT_EQ(applyText(text_target, c.knob, c.text), c.error)
            << c.knob;
    }

    // The largest value of each field still applies.
    KnobTarget target;
    EXPECT_EQ(applyText(target, "warps", "4294967295"), "");
    EXPECT_EQ(target.params.numWarps, 4294967295u);
    EXPECT_EQ(applyText(target, "footprint_mib", "17592186044415"), "");
    EXPECT_EQ(target.params.footprintBytes, 17592186044415ull << 20);
    EXPECT_EQ(applyText(target, "seed", "18446744073709551615"), "");
    EXPECT_EQ(target.params.seed, 18446744073709551615ull);
}

TEST(KnobTable, SizingCountsMustBePositive)
{
    struct Case
    {
        const char *knob;
        const char *error;
    };
    const Case cases[] = {
        {"sms", "wants a positive SM count"},
        {"l2_kib", "wants a positive KiB size"},
        {"mrc_kib", "wants a positive KiB size"},
        {"footprint_mib", "wants a positive MiB footprint"},
        {"warps", "wants a positive warp count"},
        {"mem_insts", "wants a positive instruction count"},
    };
    for (const Case &c : cases) {
        KnobTarget target;
        EXPECT_EQ(apply(target, c.knob, JsonValue(0.0)), c.error);
        EXPECT_EQ(applyText(target, c.knob, "0"), c.error);
    }
    // Seeds may be 0.
    KnobTarget target;
    EXPECT_EQ(applyText(target, "seed", "0"), "");
    EXPECT_EQ(apply(target, "system_seed", JsonValue(0.0)), "");
}

TEST(KnobTable, EnumsWantANameString)
{
    KnobTarget target;
    EXPECT_EQ(apply(target, "scheme", JsonValue(1.0)),
              "wants a scheme name string");
    EXPECT_EQ(apply(target, "workload", JsonValue(true)),
              "wants a workload name string");
    EXPECT_EQ(applyText(target, "codec", "chipkill"), "");
    EXPECT_EQ(target.config.codec, ecc::CodecKind::kChipkill);
    EXPECT_EQ(applyText(target, "codec", "Chipkill"),
              "unknown codec \"Chipkill\"");
}

// --------------------------------------------------------------------
// The telemetry rows
// --------------------------------------------------------------------

TEST(TelemetryKnobs, NamesAreSortedAndComplete)
{
    const auto names = campaign::knownKnobs();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char *knob :
         {"flight_capacity", "flight_recorder", "host_profile",
          "profile", "profile_interval", "reuse_max_assoc",
          "reuse_profile", "sample_interval"}) {
        EXPECT_NE(findKnob(knob), nullptr) << knob;
    }
}

TEST(TelemetryKnobs, BooleanGatesRoundTrip)
{
    struct Case
    {
        const char *knob;
        bool telemetry::TelemetryOptions::*field;
    };
    using telemetry::TelemetryOptions;
    const Case cases[] = {
        {"profile", &TelemetryOptions::profileEnabled},
        {"flight_recorder", &TelemetryOptions::flightRecorderEnabled},
        {"reuse_profile", &TelemetryOptions::reuseProfileEnabled},
        {"host_profile", &TelemetryOptions::hostProfileEnabled},
    };
    for (const Case &c : cases) {
        KnobTarget target;
        const TelemetryOptions &options = target.config.telemetry;
        EXPECT_EQ(apply(target, c.knob, JsonValue(true)), "") << c.knob;
        EXPECT_TRUE(options.*c.field) << c.knob;
        EXPECT_EQ(apply(target, c.knob, JsonValue(false)), "") << c.knob;
        EXPECT_FALSE(options.*c.field) << c.knob;

        // A number is not a boolean, whatever its value.
        EXPECT_EQ(apply(target, c.knob, JsonValue(1.0)), "wants a boolean")
            << c.knob;
    }
}

TEST(TelemetryKnobs, CountKnobsRoundTrip)
{
    KnobTarget target;
    const telemetry::TelemetryOptions &options = target.config.telemetry;
    ASSERT_EQ(apply(target, "sample_interval", JsonValue(2048.0)), "");
    EXPECT_EQ(options.sampleInterval, 2048u);
    ASSERT_EQ(apply(target, "flight_capacity", JsonValue(4096.0)), "");
    EXPECT_EQ(options.flightCapacity, 4096u);
}

TEST(TelemetryKnobs, IntervalKnobsImplyTheirGate)
{
    for (bool text : {false, true}) {
        KnobTarget target;
        const telemetry::TelemetryOptions &options =
            target.config.telemetry;
        EXPECT_FALSE(options.profileEnabled);
        ASSERT_EQ(text ? applyText(target, "profile_interval", "1024")
                       : apply(target, "profile_interval",
                               JsonValue(1024.0)),
                  "");
        EXPECT_TRUE(options.profileEnabled);
        EXPECT_EQ(options.profileInterval, 1024u);

        EXPECT_FALSE(options.reuseProfileEnabled);
        ASSERT_EQ(text ? applyText(target, "reuse_max_assoc", "16")
                       : apply(target, "reuse_max_assoc", JsonValue(16.0)),
                  "");
        EXPECT_TRUE(options.reuseProfileEnabled);
        EXPECT_EQ(options.reuseMaxAssoc, 16u);
    }
}

TEST(TelemetryKnobs, RejectsBadCounts)
{
    struct Case
    {
        const char *knob;
        const char *zero;
    };
    const Case cases[] = {
        {"sample_interval", "wants a positive cycle interval"},
        {"profile_interval", "wants a positive cycle interval"},
        {"flight_capacity", "wants a positive record capacity"},
        {"reuse_max_assoc", "wants a positive associativity"},
    };
    for (const Case &c : cases) {
        KnobTarget target;
        EXPECT_EQ(apply(target, c.knob, JsonValue(0.0)), c.zero);
        for (const JsonValue &bad :
             {JsonValue(-4.0), JsonValue(2.5), JsonValue(true),
              JsonValue(std::string("lots")), JsonValue(std::string("8"))}) {
            EXPECT_EQ(apply(target, c.knob, bad),
                      "wants a non-negative integer")
                << c.knob;
        }
    }
}

TEST(TelemetryKnobs, RejectionLeavesOptionsUntouched)
{
    KnobTarget target;
    target.config.telemetry.sampleInterval = 777;
    target.config.telemetry.profileInterval = 555;
    EXPECT_NE(apply(target, "sample_interval", JsonValue(-1.0)), "");
    EXPECT_NE(applyText(target, "sample_interval", "0"), "");
    EXPECT_EQ(target.config.telemetry.sampleInterval, 777u);
    // A rejected interval does not switch its gate on either.
    EXPECT_NE(applyText(target, "profile_interval", "0"), "");
    EXPECT_FALSE(target.config.telemetry.profileEnabled);
    EXPECT_EQ(target.config.telemetry.profileInterval, 555u);
}

TEST(TelemetryKnobs, UnknownKnobRejects)
{
    // trace_capacity sized the retired span tracer's ring; it is now
    // as unknown as a typo, in the table and in specs.
    for (const char *knob : {"warp_speed", "trace_capacity"}) {
        EXPECT_EQ(findKnob(knob), nullptr) << knob;
        std::string error;
        const std::string spec = std::string(R"({"name": "t", "grid": {")") +
                                 knob + R"(": [64]}})";
        EXPECT_FALSE(campaign::parseCampaignSpec(spec, &error).has_value());
        EXPECT_EQ(error, std::string("unknown grid axis \"") + knob + "\"");
    }
}

TEST(TelemetryKnobText, ParsesBooleansAndDigits)
{
    KnobTarget target;
    const telemetry::TelemetryOptions &options = target.config.telemetry;
    ASSERT_EQ(applyText(target, "host_profile", "true"), "");
    EXPECT_TRUE(options.hostProfileEnabled);
    ASSERT_EQ(applyText(target, "host_profile", "false"), "");
    EXPECT_FALSE(options.hostProfileEnabled);
    ASSERT_EQ(applyText(target, "flight_capacity", "65536"), "");
    EXPECT_EQ(options.flightCapacity, 65536u);
}

TEST(TelemetryKnobText, RejectsNonValues)
{
    for (const char *bad : {"", "yes", "12x", "-3", "1.5", "True"}) {
        KnobTarget target;
        EXPECT_EQ(applyText(target, "host_profile", bad), "wants a boolean")
            << bad;
        EXPECT_EQ(applyText(target, "flight_capacity", bad),
                  "wants a non-negative integer")
            << bad;
    }
}

TEST(TelemetryKnobText, DigitsStillValidatePerKnob)
{
    // Text "0" parses as a number but sample_interval wants > 0: the
    // text path shares the JSON path's validation verbatim.
    KnobTarget target;
    EXPECT_EQ(applyText(target, "sample_interval", "0"),
              "wants a positive cycle interval");
    // And booleans don't accept digit text.
    EXPECT_EQ(applyText(target, "host_profile", "1"), "wants a boolean");
}

TEST(TelemetryKnobs, CampaignSpecAcceptsEveryTelemetryKnob)
{
    const auto known = campaign::knownKnobs();
    for (const char *knob :
         {"flight_capacity", "flight_recorder", "host_profile",
          "profile", "profile_interval", "reuse_max_assoc",
          "reuse_profile", "sample_interval"}) {
        EXPECT_NE(std::find(known.begin(), known.end(), knob),
                  known.end())
            << knob;
    }
}

TEST(TelemetryKnobs, CampaignSpecRoutesValuesThroughSharedParser)
{
    const std::string spec_text = R"({
        "name": "t",
        "base": {"host_profile": true, "profile_interval": 2048},
        "grid": {"workload": ["streaming"]}
    })";
    std::string error;
    const auto spec = campaign::parseCampaignSpec(spec_text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    ASSERT_EQ(spec->points.size(), 1u);
    const auto &telemetry = spec->points[0].config.telemetry;
    EXPECT_TRUE(spec->points[0].expandError.empty())
        << spec->points[0].expandError;
    EXPECT_TRUE(telemetry.hostProfileEnabled);
    EXPECT_TRUE(telemetry.profileEnabled);
    EXPECT_EQ(telemetry.profileInterval, 2048u);
}

TEST(TelemetryKnobs, CampaignSpecSurfacesBadTelemetryValues)
{
    const std::string spec_text = R"({
        "name": "t",
        "grid": {"host_profile": [1]}
    })";
    std::string error;
    const auto spec = campaign::parseCampaignSpec(spec_text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    ASSERT_EQ(spec->points.size(), 1u);
    EXPECT_EQ(spec->points[0].expandError,
              "grid axis \"host_profile\" wants a boolean");
}

} // namespace
} // namespace cachecraft
