#include "common/parse_number.hpp"

#include <charconv>
#include <cmath>

namespace cachecraft {

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max, std::string *error)
{
    // from_chars takes digits only for unsigned types (no sign, no
    // whitespace); requiring it to consume the whole text rejects
    // suffixes.
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || (ec != std::errc{} &&
                         ec != std::errc::result_out_of_range) ||
        ptr != end) {
        if (error)
            *error = "wants a non-negative integer";
        return std::nullopt;
    }
    if (ec == std::errc::result_out_of_range || value > max) {
        if (error)
            *error = "is out of range (max " + std::to_string(max) + ")";
        return std::nullopt;
    }
    return value;
}

std::optional<double>
parseNonNegativeReal(std::string_view text, std::string *error)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || text.front() == '-' || ec != std::errc{} ||
        ptr != end || !std::isfinite(value)) {
        if (error)
            *error = "wants a non-negative number";
        return std::nullopt;
    }
    return value;
}

} // namespace cachecraft
