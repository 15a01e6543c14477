#include "campaign/spec.hpp"

#include <cctype>
#include <cstdio>

#include "common/json.hpp"
#include "ecc/crc32.hpp"

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

} // namespace

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
            if (findKnob(knob) == nullptr)
                return fail("unknown base knob \"" + knob + "\"");
        }
    }
    for (const auto &[knob, axis] : grid->asObject()) {
        if (findKnob(knob) == nullptr)
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
                const std::string e =
                    applyKnob(point, *findKnob(knob), value);
                if (!e.empty()) {
                    point_error = "base knob \"" + knob + "\" " + e;
                    break;
                }
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
            if (!point_error.empty())
                continue;
            const std::string e = applyKnob(point, *findKnob(knob), value);
            if (!e.empty())
                point_error = "grid axis \"" + knob + "\" " + e;
        }
        // Checked at expansion because the cache constructors end the
        // process: an "l2_kib" of 3 must fail its point, not the
        // campaign. So is a kernel the device cannot hold, before
        // generation tries to build it.
        if (point_error.empty())
            point_error = knobTargetError(point);
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
