/**
 * @file
 * Unit tests for the typed flag table (base/flags): the two
 * full-consumption converters, parseFlags() rejections and their exit
 * statuses, WCRT_SCALE, `--help`, and a seeded mutation fuzz over flag
 * vectors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/flags.hh"
#include "base/rng.hh"
#include "tracefile/replay.hh"

namespace wcrt {
namespace {

/**
 * A two-command tool: `run [<file>]` with a flag of every kind, and
 * `show <file>` with none. The rows bind to `t`, so it is not copied.
 */
struct Tool
{
    Tool() = default;
    Tool(const Tool &) = delete;

    FlagArgs parse(const std::vector<std::string> &args)
    {
        return parseFlags(commands, args);
    }

    unsigned jobs = 0;
    double scale = 0.5;
    std::string ring;
    uint64_t ringKb = 1024;
    bool json = false;
    MrcMode mode = MrcMode::StackDistance;
    unsigned cell = 0;
    std::vector<FlagCommand> commands = {
        {"run", "<file>", 0, 1,
         {countFlag("jobs", jobs, 0, kMaxJobs, "worker cap"),
          realFlag("scale", scale, kMinScale, kMaxScale, "scale"),
          textFlag("ring", ring, "NAME", "ring name"),
          countFlag("ring-kb", ringKb, 1, 1 << 20, "ring size"),
          switchFlag("json", json, "emit JSON"),
          choiceFlag("mode", mode, parseMrcMode, "M",
                     "stack, oracle or verify", "curve path"),
          countFlag("cell", cell, 0, 99, "one cell")}},
        {"show", "<file>", 1, 1, {}}};
};

TEST(Flags, ConvertersConsumeWholeTextOrReject)
{
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "16x", "0x10",
                            "1e3", "1.0", "18446744073709551616", "4097"})
        EXPECT_FALSE(toCount(bad, 0, 4096)) << "'" << bad << "'";
    EXPECT_EQ(toCount("0", 0, 4096), 0u);
    EXPECT_EQ(toCount("007", 0, 4096), 7u);
    EXPECT_EQ(toCount("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
    EXPECT_FALSE(toCount("0", 1, 4096));

    for (const char *bad : {"", "nan", "NaN", "inf", "-inf", "infinity",
                            "-0.5", "+1", " 1", "1 ", "1x", "0x1p3", "1e",
                            ".", "1e999", "1e-400", "0"})
        EXPECT_FALSE(toReal(bad, kMinScale, kMaxScale)) << "'" << bad << "'";
    EXPECT_EQ(toReal("0.25", kMinScale, kMaxScale), 0.25);
    EXPECT_EQ(toReal(".5", kMinScale, kMaxScale), 0.5);
    EXPECT_EQ(toReal("1e-3", kMinScale, kMaxScale), 1e-3);
    EXPECT_EQ(toReal("1000", kMinScale, kMaxScale), 1000.0);
    EXPECT_FALSE(toReal("1000.5", kMinScale, kMaxScale));

    uint32_t line = 0;
    EXPECT_TRUE(parseLineBytes("64", line));
    EXPECT_EQ(line, 64u);
    for (const char *bad : {"48", "0", "131072", "64abc", "-64"})
        EXPECT_FALSE(parseLineBytes(bad, line)) << bad;
}

TEST(Flags, EveryRejectionClassThrowsWithItsStatus)
{
    struct Case
    {
        std::vector<std::string> args;
        int status;
        const char *message;
    };
    const std::vector<Case> cases = {
        {{"run", "--jobs=-1"}, 1, "bad --jobs '-1' (expected 0..4096)"},
        {{"run", "--jobs", "16x"}, 1, "bad --jobs '16x'"},
        {{"run", "--jobs="}, 1, "bad --jobs ''"},
        {{"run", "--jobs=1e99"}, 1, "bad --jobs '1e99'"},
        {{"run", "--jobs"}, 2, "--jobs needs a value"},
        {{"run", "--scale=nan"}, 1, "bad --scale 'nan'"},
        {{"run", "--scale=inf"}, 1, "bad --scale 'inf'"},
        {{"run", "--scale=0"}, 1, "bad --scale '0'"},
        {{"run", "--scale=abc"}, 1, "bad --scale 'abc'"},
        {{"run", "--cell=abc"}, 1, "bad --cell 'abc' (expected 0..99)"},
        {{"run", "--mode=sideways"}, 1, "bad --mode 'sideways'"},
        {{"run", "--frob"}, 2, "unknown flag --frob"},
        {{"run", "--rin=x"}, 2, "unknown flag --rin"},
        {{"run", "--ring-k=8"}, 2, "unknown flag --ring-k"},
        {{"run", "--json=1"}, 2, "--json takes no value"},
        {{"run", "a", "b"}, 2, "unexpected argument 'b'"},
        {{"show"}, 2, "missing <file> (try --help)"},
        {{"show", "f", "--jobs=1"}, 2, "unknown flag --jobs"},
        {{"walk"}, 2, "unknown command 'walk'"},
        {{}, 2, "missing command"},
    };
    for (const Case &c : cases) {
        Tool tool;
        try {
            tool.parse(c.args);
            ADD_FAILURE() << "accepted " << c.message;
        } catch (const FlagError &err) {
            EXPECT_EQ(err.status, c.status) << err.what();
            EXPECT_NE(std::string(err.what()).find(c.message),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Flags, ParseSetsTargetsMatchesWholeNamesAndCollectsPositionals)
{
    Tool t;
    FlagArgs args = t.parse({"run", "--ring", "r", "--ring-kb", "64",
                             "--jobs=8", "--scale=0.25", "--json", "--mode",
                             "oracle", "file", "--cell=3"});
    EXPECT_FALSE(args.help);
    EXPECT_EQ(args.command, &t.commands[0]);
    EXPECT_EQ(args.positional, std::vector<std::string>{"file"});
    EXPECT_EQ(t.ring, "r");
    EXPECT_EQ(t.ringKb, 64u);
    EXPECT_EQ(t.jobs, 8u);
    EXPECT_EQ(t.scale, 0.25);
    EXPECT_TRUE(t.json);
    EXPECT_EQ(t.mode, MrcMode::Oracle);
    EXPECT_EQ(t.cell, 3u);

    // --ring takes its value whole, never --ring-kb's.
    Tool u;
    u.parse({"run", "--ring=--ring-kb=8"});
    EXPECT_EQ(u.ring, "--ring-kb=8");
    EXPECT_EQ(u.ringKb, 1024u);

    // --help stops parsing: a bad value after it is never read.
    Tool h;
    EXPECT_TRUE(h.parse({"run", "--help", "--jobs=-1"}).help);
    EXPECT_TRUE(h.parse({"--help"}).help);
}

TEST(Flags, HelpListsEveryFlagWithRangeAndDefault)
{
    Tool t;
    std::string help = flagHelp("/path/to/tool", t.commands);
    EXPECT_NE(help.find("  tool run <file> [--jobs=N]"), std::string::npos)
        << help;
    EXPECT_NE(help.find("--jobs=N          worker cap [0..4096, default 0]"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("[1e-06..1000, default 0.5]"), std::string::npos);
    EXPECT_NE(help.find("[stack, oracle or verify, default stack]"),
              std::string::npos);
    EXPECT_NE(help.find("--ring=NAME       ring name\n"), std::string::npos);
    EXPECT_NE(help.find("--json            emit JSON\n"), std::string::npos);
    EXPECT_NE(help.find("  tool show <file>\n"), std::string::npos);
}

TEST(Flags, EnvScaleGoesThroughTheRealConverter)
{
    const char *saved = std::getenv("WCRT_SCALE");
    std::string keep = saved ? saved : "";
    for (const char *bad : {"abc", "0", "nan", "inf", "-1", "0.5x", ""}) {
        setenv("WCRT_SCALE", bad, 1);
        try {
            envScale();
            ADD_FAILURE() << "WCRT_SCALE='" << bad << "' accepted";
        } catch (const FlagError &err) {
            EXPECT_EQ(err.status, FlagError::kBadValue);
            EXPECT_NE(std::string(err.what()).find(
                          "bad WCRT_SCALE '" + std::string(bad) + "'"),
                      std::string::npos);
        }
    }
    setenv("WCRT_SCALE", "0.25", 1);
    EXPECT_EQ(envScale(), 0.25);
    unsetenv("WCRT_SCALE");
    EXPECT_EQ(envScale(), 0.5);
    if (saved)
        setenv("WCRT_SCALE", keep.c_str(), 1);
}

/**
 * Mutate valid flag vectors (bytes flipped, inserted, dropped; whole
 * arguments swapped for hostile tokens) with a fixed seed and budget.
 * Every vector must parse into in-range targets or throw FlagError:
 * never another exception, a crash or a sanitizer report.
 */
TEST(Flags, MutationFuzzParsesOrThrowsFlagError)
{
    const std::vector<std::string> seed = {
        "run", "--jobs=8", "--scale", "0.25", "--ring=r", "--ring-kb", "64",
        "--json", "--mode=verify", "--cell=7", "file"};
    const std::vector<std::string> hostile = {
        "", "-", "--", "=", "--=", "-1", "nan", "inf", "1e99", "0x10",
        " 7", "18446744073709551616", "--jobs", "--ring", "--help=1",
        "--json=", "--scale=1e-400", std::string("4\0", 2)};
    const std::string bytes = "-=0123456789.eExX+ ,abc\xff";
    Rng rng(20240611);
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::vector<std::string> args = seed;
        for (int m = 1 + static_cast<int>(rng.nextBelow(3)); m > 0; --m) {
            std::string &arg = args[rng.nextBelow(args.size())];
            switch (rng.nextBelow(6)) {
              case 0:
                if (!arg.empty())
                    arg[rng.nextBelow(arg.size())] =
                        bytes[rng.nextBelow(bytes.size())];
                break;
              case 1:
                arg.insert(rng.nextBelow(arg.size() + 1), 1,
                           bytes[rng.nextBelow(bytes.size())]);
                break;
              case 2:
                arg.resize(rng.nextBelow(arg.size() + 1));
                break;
              case 3:
                arg = hostile[rng.nextBelow(hostile.size())];
                break;
              case 4:
                args.erase(args.begin() + static_cast<long>(
                                              rng.nextBelow(args.size())));
                if (args.empty())
                    args.push_back("");
                break;
              default:
                args.push_back(seed[rng.nextBelow(seed.size())]);
                break;
            }
        }
        Tool t;
        try {
            FlagArgs out = t.parse(args);
            ++parsed;
            EXPECT_LE(out.positional.size(), 1u);
            EXPECT_LE(t.jobs, kMaxJobs);
            EXPECT_TRUE(std::isfinite(t.scale));
            EXPECT_GE(t.scale, kMinScale);
            EXPECT_LE(t.scale, kMaxScale);
            EXPECT_GE(t.ringKb, 1u);
            EXPECT_LE(t.ringKb, 1u << 20);
            EXPECT_LE(t.cell, 99u);
        } catch (const FlagError &err) {
            ++rejected;
            EXPECT_TRUE(err.status == FlagError::kBadValue ||
                        err.status == FlagError::kUsage);
            EXPECT_NE(err.what()[0], '\0');
        }
    }
    // Both outcomes are exercised, so the loop is not vacuous.
    EXPECT_GT(parsed, 1000);
    EXPECT_GT(rejected, 1000);
}

} // namespace
} // namespace wcrt
