/**
 * @file
 * One typed flag table per command line.
 *
 * Each CLI declares its flags as rows binding a name to a typed target
 * (a count in [min, max], a finite real in a range, text, a switch, or
 * a value parsed by one of the toolkit's parseX() functions), a help
 * line, and the target's initial value as the default. parseFlags()
 * takes `--name=V` and `--name V`, matches whole names only, rejects
 * unknown flags and collects positional arguments; flagHelp() renders
 * `--help` from the same tables. Errors are thrown as FlagError, never
 * exit(), so tests drive the parser in-process.
 *
 * toCount() and toReal() consume the whole text or reject it. `.scn`
 * numbers and WCRT_SCALE go through them too, so every number the
 * toolkit reads has one grammar.
 */

#ifndef WCRT_BASE_FLAGS_HH
#define WCRT_BASE_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "base/logging.hh"

namespace wcrt {

/** Input limits shared by the CLIs and the `.scn` keys. */
constexpr uint64_t kMaxJobs = 4096;  //!< worker/actor caps, not spawns
constexpr uint64_t kMaxAssoc = 1 << 16;
constexpr uint64_t kMaxLineBytes = 1 << 16;
constexpr uint64_t kMaxSizeKb = 1 << 22;  //!< one cache capacity, KB
constexpr double kMinScale = 1e-6;
constexpr double kMaxScale = 1000;

/** A rejected argument or environment value; what() is the message. */
struct FlagError : std::runtime_error
{
    static constexpr int kBadValue = 1;  //!< a value failed its type
    static constexpr int kUsage = 2;     //!< unknown flag, arity, ...

    FlagError(int status, const std::string &msg)
        : std::runtime_error(msg), status(status)
    {}

    int status;  //!< the exit status a main() returns for it
};

/** Decimal digits only, as a count in [min, max]. */
std::optional<uint64_t> toCount(std::string_view text, uint64_t min,
                                uint64_t max);

/** A finite decimal real in [min, max]; no sign, hex, nan or inf. */
std::optional<double> toReal(std::string_view text, double min,
                             double max);

/** "MIN..MAX": the range text of errors and `--help`. */
template <typename Lo, typename Hi>
std::string
rangeText(Lo min, Hi max)
{
    std::ostringstream os;
    os << min << ".." << max;
    return os.str();
}

/** Store a converted value into `out`; false, `out` untouched, if none. */
template <typename V, typename T>
bool
assignIf(const std::optional<V> &v, T &out)
{
    if (v)
        out = static_cast<T>(*v);
    return v.has_value();
}

/**
 * @name Bare numeric arguments
 * A number outside any flag table (an example's positional or short
 * option, an environment variable): toCount() / toReal() in
 * [min, max], else FlagError(kBadValue, "bad NAME 'TEXT' (expected
 * MIN..MAX)").
 */
/** @{ */
uint64_t countArg(std::string_view name, std::string_view text,
                  uint64_t min, uint64_t max);
double realArg(std::string_view name, std::string_view text, double min,
               double max);
/** @} */

/** A cache line size: a power of two in 1..kMaxLineBytes. */
bool parseLineBytes(const std::string &text, uint32_t &out);

/** WCRT_SCALE through toReal() in [kMinScale, kMaxScale]; 0.5 unset. */
double envScale();

/** One row of a flag table; build with the *Flag() helpers below. */
struct Flag
{
    std::string name;      //!< matched whole, after the "--"
    std::string meta;      //!< value placeholder; empty for a switch
    std::string help;
    std::string expected;  //!< accepted values, for errors and --help
    std::string fallback;  //!< the target's initial value ("" = none)
    //! Store the value into the target; false rejects it.
    std::function<bool(const std::string &)> set;
};

/** One command of a tool: its positional arguments and flag table. */
struct FlagCommand
{
    std::string name;     //!< subcommand; empty for a single-command tool
    std::string args;     //!< positional synopsis ("<file.wtrace>")
    size_t minArgs = 0;   //!< positional arguments required ...
    size_t maxArgs = 0;   //!< ... and allowed
    std::vector<Flag> flags;
};

/** What parseFlags() found besides the targets it set. */
struct FlagArgs
{
    const FlagCommand *command = nullptr;  //!< null only under help
    std::vector<std::string> positional;
    bool help = false;  //!< --help or -h seen; nothing after it parsed
};

/**
 * Parse a command line (argv without argv[0]) against `commands`; the
 * first argument names the command unless the tool has one unnamed
 * command. Throws FlagError.
 */
FlagArgs parseFlags(const std::vector<FlagCommand> &commands,
                    const std::vector<std::string> &args);

/** `--help` text: a synopsis per command, then each flag once. */
std::string flagHelp(const std::string &tool,
                     const std::vector<FlagCommand> &commands);

/**
 * A value `parse(text, target)` converts: the choice row for the
 * toolkit's parseX() functions (parseMrcMode, parseSweepKind, ...) and
 * the base of the builders below. `expected` lists what it accepts.
 */
template <typename T, typename Parse>
Flag
choiceFlag(std::string name, T &target, Parse parse, std::string meta,
           std::string expected, std::string help)
{
    std::string fallback;
    if constexpr (std::is_same_v<T, std::string>) {
        fallback = target;
    } else if constexpr (std::is_arithmetic_v<T>) {
        std::ostringstream os;
        os << target;
        fallback = os.str();
    } else if constexpr (requires { toString(target); }) {
        fallback = toString(target);
    }
    return {std::move(name), std::move(meta), std::move(help),
            std::move(expected), std::move(fallback),
            [&target, parse](const std::string &v) {
                return parse(v, target);
            }};
}

/** A count in [min, max] into an unsigned target. */
template <typename T>
Flag
countFlag(std::string name, T &target, uint64_t min, uint64_t max,
          std::string help)
{
    if (max > std::numeric_limits<T>::max())
        wcrt_panic("--", name, " range overflows its target");
    return choiceFlag(std::move(name), target,
                      [min, max](const std::string &v, T &out) {
                          return assignIf(toCount(v, min, max), out);
                      },
                      "N", rangeText(min, max), std::move(help));
}

/** A finite real in [min, max]. */
inline Flag
realFlag(std::string name, double &target, double min, double max,
         std::string help)
{
    return choiceFlag(std::move(name), target,
                      [min, max](const std::string &v, double &out) {
                          return assignIf(toReal(v, min, max), out);
                      },
                      "X", rangeText(min, max), std::move(help));
}

/** Free text; `meta` names it in the synopsis ("DIR", "FILE"). */
inline Flag
textFlag(std::string name, std::string &target, std::string meta,
         std::string help)
{
    return choiceFlag(std::move(name), target,
                      [](const std::string &v, std::string &out) {
                          out = v;
                          return true;
                      },
                      std::move(meta), "", std::move(help));
}

/** A switch: present sets the target; `--name=V` is a usage error. */
inline Flag
switchFlag(std::string name, bool &target, std::string help)
{
    return {std::move(name), "", std::move(help), "", "",
            [&target](const std::string &) { return target = true; }};
}

} // namespace wcrt

#endif // WCRT_BASE_FLAGS_HH
