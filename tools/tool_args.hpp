/**
 * @file
 * Flag values for the command-line tools' argv loops.
 *
 * Every tool walks argv by hand. ToolArgs hands out the value that
 * follows a flag and parses numeric values with the checked parsers
 * of common/parse_number.hpp. A missing or malformed value prints
 * "<tool>: flag <flag> <why>" to stderr and exits with the tool's
 * usage-error code, never with an uncaught exception.
 */

#ifndef CACHECRAFT_TOOLS_TOOL_ARGS_HPP
#define CACHECRAFT_TOOLS_TOOL_ARGS_HPP

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/parse_number.hpp"

namespace cachecraft {

class ToolArgs
{
  public:
    /** @param usage_exit exit status for a bad or missing value. */
    ToolArgs(const char *tool, int argc, char **argv, int usage_exit)
        : tool_(tool), argc_(argc), argv_(argv), usageExit_(usage_exit)
    {
    }

    /** The value after flag argv[i]; advances @p i onto it. */
    const char *
    value(int &i) const
    {
        if (i + 1 >= argc_)
            fail(i, "needs a value");
        return argv_[++i];
    }

    /** The value after flag argv[i] as an integer in [0, @p max]. */
    template <typename T = std::uint64_t>
    T
    count(int &i, std::uint64_t max = std::numeric_limits<T>::max()) const
    {
        const int flag = i;
        const char *text = value(i);
        std::string error;
        const auto v = parseUnsigned(text, max, &error);
        if (!v)
            fail(flag, got(error, text));
        return static_cast<T>(*v);
    }

    /** The value after flag argv[i], counted in @p unit bytes, as a
     *  byte count (rejecting products that overflow 64 bits). */
    std::uint64_t
    bytes(int &i, std::uint64_t unit) const
    {
        return count(i, std::numeric_limits<std::uint64_t>::max() / unit) *
               unit;
    }

    /** The value after flag argv[i] as a finite number >= 0. */
    double
    real(int &i) const
    {
        const int flag = i;
        const char *text = value(i);
        std::string error;
        const auto v = parseNonNegativeReal(text, &error);
        if (!v)
            fail(flag, got(error, text));
        return *v;
    }

    /** Report that flag argv[i] is unusable (@p why) and exit. */
    [[noreturn]] void
    fail(int i, const std::string &why) const
    {
        std::fprintf(stderr, "%s: flag %s %s\n", tool_, argv_[i],
                     why.c_str());
        std::exit(usageExit_);
    }

  private:
    static std::string
    got(const std::string &error, const char *text)
    {
        return error + " (got \"" + text + "\")";
    }

    const char *tool_;
    int argc_;
    char **argv_;
    int usageExit_;
};

} // namespace cachecraft

#endif // CACHECRAFT_TOOLS_TOOL_ARGS_HPP
