/**
 * @file
 * Flag values for the command-line tools' argv loops.
 *
 * Every tool walks argv by hand. ToolArgs hands out the value that
 * follows a flag and parses numeric values with the checked parsers
 * of common/parse_number.hpp. A missing or malformed value prints
 * "<tool>: flag <flag> <why>" to stderr and exits with the tool's
 * usage-error code, never with an uncaught exception.
 *
 * The simulating tools take every knob of core/knobs.hpp as a flag
 * named after it (`l2_kib` is `--l2-kib N`, a boolean `gto` is `--gto`
 * or `--no-gto`): ToolArgs::knob applies one, printKnobHelp lists
 * them, and toolKnobDefaults is the kernel sizing they start from.
 */

#ifndef CACHECRAFT_TOOLS_TOOL_ARGS_HPP
#define CACHECRAFT_TOOLS_TOOL_ARGS_HPP

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/parse_number.hpp"
#include "core/knobs.hpp"

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

    /**
     * Apply argv[i] if it is a knob flag, advancing @p i past its
     * value, and return its table row. Returns null, touching nothing,
     * when it is none; a bad value exits like any bad flag value.
     */
    const Knob *
    knob(int &i, KnobTarget &target) const
    {
        const std::string_view flag = argv_[i];
        if (!flag.starts_with("--") || flag.find('_') != flag.npos)
            return nullptr;
        std::string name(flag.substr(2));
        std::replace(name.begin(), name.end(), '-', '_');
        const Knob *row = findKnob(name);
        bool on = true;
        if (row == nullptr && name.starts_with("no_")) {
            row = findKnob(std::string_view(name).substr(3));
            on = false;
            if (row != nullptr && row->kind != Knob::Kind::kBool)
                return nullptr;
        }
        if (row == nullptr)
            return nullptr;
        const int at = i;
        const std::string text = row->kind == Knob::Kind::kBool
                                     ? (on ? "true" : "false")
                                     : value(i);
        const std::string error = applyKnobText(target, *row, text);
        if (!error.empty())
            fail(at, row->kind == Knob::Kind::kCount
                         ? got(error, text.c_str())
                         : error);
        return row;
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

/** The kernel sizing every simulating tool starts from. */
inline KnobTarget
toolKnobDefaults()
{
    KnobTarget target;
    target.params.footprintBytes = 8 * 1024 * 1024;
    target.params.numWarps = 256;
    target.params.memInstsPerWarp = 48;
    target.params.seed = 7;
    return target;
}

/** Turn boolean knob @p name on, for an output flag that needs it. */
inline void
enableKnob(KnobTarget &target, std::string_view name)
{
    applyKnobText(target, *findKnob(name), "true");
}

/**
 * Print the knob block of a tool's --help from the knob table, except
 * the knobs in @p skip, which the tool spells as flags of its own.
 */
inline void
printKnobHelp(std::initializer_list<std::string_view> skip = {})
{
    constexpr std::size_t kColumn = 22;
    constexpr std::size_t kWidth = 76;
    const KnobTarget defaults = toolKnobDefaults();
    std::printf(
        "knobs (the campaign spec keys of the same names; kernel sizing\n"
        "defaults --footprint-mib %llu --warps %u --mem-insts %u --seed "
        "%llu):\n",
        static_cast<unsigned long long>(defaults.params.footprintBytes >>
                                        20),
        defaults.params.numWarps, defaults.params.memInstsPerWarp,
        static_cast<unsigned long long>(defaults.params.seed));
    for (const Knob &knob : knobTable()) {
        if (std::find(skip.begin(), skip.end(), knob.name) != skip.end())
            continue;
        std::string flag = knob.name;
        std::replace(flag.begin(), flag.end(), '_', '-');
        std::string line = "  --" + flag;
        std::string help = knob.help;
        switch (knob.kind) {
          case Knob::Kind::kBool:
            line += ", --no-" + flag;
            break;
          case Knob::Kind::kCount:
            line += " N";
            break;
          case Knob::Kind::kEnum:
            line += " NAME";
            for (std::uint64_t v = 0; v < knob.max; ++v)
                help += (v == 0 ? ": " : " | ") + std::string(knob.label(v));
            break;
        }
        if (line.size() >= kColumn) {
            std::printf("%s\n", line.c_str());
            line.clear();
        }
        std::istringstream words(help);
        for (std::string word; words >> word;) {
            if (line.size() > kColumn &&
                line.size() + 1 + word.size() > kWidth) {
                std::printf("%s\n", line.c_str());
                line.clear();
            }
            if (line.size() < kColumn)
                line.resize(kColumn, ' ');
            else
                line += ' ';
            line += word;
        }
        std::printf("%s\n", line.c_str());
    }
}

} // namespace cachecraft

#endif // CACHECRAFT_TOOLS_TOOL_ARGS_HPP
