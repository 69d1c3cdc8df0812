/**
 * @file
 * The shared command-line option table (common/options.h): strict
 * number parsing, range and width checks, repeatable rows, positional
 * operands, the observability output defaults, and the generated usage.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/config.h"
#include "common/options.h"
#include "common/trace.h"

using namespace cyclops;

namespace
{

/** A table shaped like the tools': own rows plus both shared groups. */
struct Cli
{
    u64 seed = 1;
    u32 threads = 4;
    u32 capacity = 0;
    bool quiet = false;
    ObsConfig obs;
    FaultConfig fault;
    OptionTable table{"tool"};

    Cli()
    {
        table.add(numOpt("--seed", "N", "seed", seed))
            .add(numOpt("--threads", "N", "threads (1..8)", threads, 1, 8))
            .add(numOpt("--capacity", "N", "a u32 field", capacity))
            .add(switchOpt("--quiet", "no progress", quiet));
        addFaultOptions(table, fault);
        addObsOptions(table, obs, true);
    }

    /** Parse @p args (argv[0] supplied); "" or the mistake. */
    std::string
    parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "tool");
        return table.parse(int(args.size()), args.data());
    }
};

} // namespace

TEST(Options, RejectsMalformedNumbers)
{
    for (const char *bad : {"abc", "12x", "-1", "+1", " 1", "", "0x"}) {
        Cli cli;
        const std::string err = cli.parse({"--seed", bad});
        EXPECT_NE(err.find("--seed: '"), std::string::npos) << bad;
        EXPECT_NE(err.find("is not a nonnegative number"),
                  std::string::npos)
            << bad;
        EXPECT_EQ(cli.seed, 1u) << bad;
    }
}

TEST(Options, AcceptsHexAndOctal)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--seed", "0x10", "--capacity", "010"}), "");
    EXPECT_EQ(cli.seed, 16u);
    EXPECT_EQ(cli.capacity, 8u);
}

TEST(Options, ChecksTheDestinationWidth)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--capacity", "4294967295"}), "");
    EXPECT_EQ(cli.capacity, 4294967295u);
    EXPECT_EQ(cli.parse({"--capacity", "4294967296"}),
              "--capacity: '4294967296' is out of range 0..4294967295");
    EXPECT_EQ(cli.parse({"--disable-tu", "4294967296"}),
              "--disable-tu: '4294967296' is out of range 0..4294967295");
    EXPECT_EQ(cli.parse({"--seed", "18446744073709551615"}), "");
    EXPECT_NE(cli.parse({"--seed", "18446744073709551616"}), "");
}

TEST(Options, ChecksTheRowRange)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--threads", "9"}),
              "--threads: '9' is out of range 1..8");
    EXPECT_EQ(cli.parse({"--threads", "0"}),
              "--threads: '0' is out of range 1..8");
    EXPECT_EQ(cli.threads, 4u);
    EXPECT_EQ(cli.parse({"--threads", "8"}), "");
    EXPECT_EQ(cli.threads, 8u);
}

TEST(Options, ReportsMissingOperandAndUnknownFlag)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--seed"}), "--seed needs N");
    EXPECT_EQ(cli.parse({"--quiet", "--bogus"}),
              "unknown argument '--bogus'");
    EXPECT_EQ(cli.parse({"prog.s"}), "unexpected argument 'prog.s'");
    EXPECT_EQ(cli.parse({"--trace-cats", "mem,bogus"}),
              "--trace-cats: 'mem,bogus' is not a category list");
}

TEST(Options, RepeatedListRowsAppend)
{
    Cli cli;
    EXPECT_EQ(cli.parse({"--disable-tu", "3", "--disable-bank", "1",
                         "--disable-tu", "5", "--watchdog", "0"}),
              "");
    EXPECT_EQ(cli.fault.disabledTus, (std::vector<u32>{3, 5}));
    EXPECT_EQ(cli.fault.disabledBanks, (std::vector<u32>{1}));
    EXPECT_EQ(cli.fault.watchdogCycles, 0u);
}

TEST(Options, SwitchesAndText)
{
    Cli cli;
    EXPECT_EQ(
        cli.parse({"--quiet", "--host-obs", "--stats-json", "s.json"}), "");
    EXPECT_TRUE(cli.quiet);
    EXPECT_TRUE(cli.obs.hostObs);
    EXPECT_EQ(cli.obs.statsJson, "s.json");

    bool shrink = true;
    OptionTable off("tool");
    off.add(switchOpt("--no-shrink", "raw failure", shrink, false));
    const char *argv[] = {"tool", "--no-shrink"};
    EXPECT_EQ(off.parse(2, argv), "");
    EXPECT_FALSE(shrink);
}

TEST(Options, ObsOutputDefaultsApplyAfterParsing)
{
    Cli bare;
    EXPECT_EQ(bare.parse({"--trace-out", "t.json", "--prof-out", "p"}),
              "");
    EXPECT_EQ(bare.obs.traceCats, kTraceAll);
    EXPECT_EQ(bare.obs.profInterval, 512u);

    // Explicit values win, whatever their position on the line.
    Cli given;
    EXPECT_EQ(given.parse({"--trace-cats", "mem", "--trace-out", "t.json",
                           "--prof-out", "p", "--prof-interval", "64"}),
              "");
    EXPECT_EQ(given.obs.traceCats, traceBit(TraceCat::Mem));
    EXPECT_EQ(given.obs.profInterval, 64u);

    // No output file, no default.
    Cli none;
    EXPECT_EQ(none.parse({}), "");
    EXPECT_EQ(none.obs.traceCats, 0u);
    EXPECT_EQ(none.obs.profInterval, 0u);
}

TEST(Options, OnePositionalOperand)
{
    OptionTable table("tool", "prog.s");
    const char *none[] = {"tool"};
    EXPECT_EQ(table.parse(1, none), "missing prog.s");
    const char *two[] = {"tool", "a.s", "b.s"};
    EXPECT_EQ(table.parse(3, two), "more than one prog.s");
    const char *one[] = {"tool", "a.s"};
    std::string path;
    EXPECT_EQ(table.parse(2, one, &path), "");
    EXPECT_EQ(path, "a.s");
}

TEST(Options, UsageNamesEveryRow)
{
    Cli cli;
    const std::string usage = cli.table.usage();
    EXPECT_EQ(usage.rfind("usage: tool [--seed N] [--threads N]", 0), 0u);
    ASSERT_EQ(cli.table.rows().size(), 4u + 8u + 11u);
    for (const Option &opt : cli.table.rows()) {
        const std::string synopsis =
            "[" + opt.flag +
            (opt.metavar.empty() ? "" : " " + opt.metavar) + "]";
        EXPECT_NE(usage.find(synopsis), std::string::npos) << opt.flag;
        EXPECT_NE(usage.find("\n  " + opt.flag), std::string::npos)
            << opt.flag;
        EXPECT_NE(usage.find(opt.help), std::string::npos) << opt.flag;
    }
}

TEST(Options, MistakesExitTwoWithUsage)
{
    Cli cli;
    const char *argv[] = {"tool", "--seed", "abc"};
    EXPECT_EXIT(cli.table.parseOrExit(3, argv),
                testing::ExitedWithCode(2),
                "tool: --seed: 'abc' is not a nonnegative number\n"
                "usage: tool ");
}
