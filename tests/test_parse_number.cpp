/**
 * @file
 * Tests for the checked numeric parsers behind every tool's flags.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/parse_number.hpp"

namespace cachecraft {
namespace {

TEST(ParseUnsigned, AcceptsPlainDigits)
{
    EXPECT_EQ(parseUnsigned("0"), 0u);
    EXPECT_EQ(parseUnsigned("42"), 42u);
    EXPECT_EQ(parseUnsigned("007"), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseUnsigned, RejectsNonDigitsAndNegatives)
{
    for (const char *bad :
         {"", "abc", "two", "-1", "+1", " 1", "1 ", "12abc", "1.5",
          "0x10", "1e3"}) {
        std::string error;
        EXPECT_FALSE(parseUnsigned(bad, 100, &error)) << bad;
        EXPECT_EQ(error, "wants a non-negative integer") << bad;
    }
}

TEST(ParseUnsigned, RejectsOutOfRange)
{
    std::string error;
    EXPECT_EQ(parseUnsigned("4294967295", 4294967295u), 4294967295u);
    EXPECT_FALSE(parseUnsigned("4294967296", 4294967295u, &error));
    EXPECT_EQ(error, "is out of range (max 4294967295)");
    // Past 64 bits is out of range, not a syntax error.
    EXPECT_FALSE(parseUnsigned("18446744073709551616",
                               std::numeric_limits<std::uint64_t>::max(),
                               &error));
    EXPECT_EQ(error, "is out of range (max 18446744073709551615)");
}

TEST(ParseNonNegativeReal, AcceptsDecimalForms)
{
    EXPECT_EQ(parseNonNegativeReal("0"), 0.0);
    EXPECT_EQ(parseNonNegativeReal("2"), 2.0);
    EXPECT_EQ(parseNonNegativeReal("0.05"), 0.05);
    EXPECT_EQ(parseNonNegativeReal("1e-3"), 1e-3);
}

TEST(ParseNonNegativeReal, RejectsEverythingElse)
{
    for (const char *bad : {"", "abc", "-0.5", "-0", "+1", " 1", "1s",
                            "inf", "nan", "1e999"}) {
        std::string error;
        EXPECT_FALSE(parseNonNegativeReal(bad, &error)) << bad;
        EXPECT_EQ(error, "wants a non-negative number") << bad;
    }
}

} // namespace
} // namespace cachecraft
