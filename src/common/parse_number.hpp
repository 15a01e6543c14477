/**
 * @file
 * Checked parsing of numeric text from command lines.
 *
 * std::stoul and friends throw on garbage and quietly accept a
 * leading '-', spaces or a trailing suffix ("12abc"); std::strtoull
 * returns 0 for garbage. These parsers accept exactly one form each
 * and report anything else as a message, so a bad flag value becomes
 * a diagnostic instead of an uncaught exception or a silent zero.
 */

#ifndef CACHECRAFT_COMMON_PARSE_NUMBER_HPP
#define CACHECRAFT_COMMON_PARSE_NUMBER_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace cachecraft {

/**
 * Parse @p text as a base-10 integer in [0, @p max]: ASCII digits
 * only, no sign, space or suffix. On failure returns nullopt and, when
 * @p error is non-null, sets it to "wants a non-negative integer" or
 * "is out of range (max N)".
 */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
              std::string *error = nullptr);

/**
 * Parse @p text as a finite, non-negative decimal number ("2",
 * "0.05", "1e-3"). The whole text must be the number; signs, "inf"
 * and "nan" are rejected. On failure returns nullopt and, when
 * @p error is non-null, sets it to "wants a non-negative number".
 */
std::optional<double> parseNonNegativeReal(std::string_view text,
                                           std::string *error = nullptr);

} // namespace cachecraft

#endif // CACHECRAFT_COMMON_PARSE_NUMBER_HPP
