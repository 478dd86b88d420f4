/**
 * @file
 * Tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include "common/cli.h"

namespace hilos {
namespace {

ArgParser
makeParser()
{
    ArgParser p("tool");
    p.addOption("model", "OPT-66B", "model name")
        .addOption("batch", "16", "batch size")
        .addOption("alpha", "0.5", "ratio")
        .addFlag("verbose", "chatty output");
    return p;
}

bool
parse(ArgParser &p, std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"tool"};
    argv.insert(argv.end(), args.begin(), args.end());
    return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, DefaultsApplyWhenAbsent)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_EQ(p.get("model"), "OPT-66B");
    EXPECT_EQ(p.getInt("batch"), 16);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(Cli, SpaceSeparatedValues)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--model", "OPT-175B", "--batch", "4"}));
    EXPECT_EQ(p.get("model"), "OPT-175B");
    EXPECT_EQ(p.getInt("batch"), 4);
}

TEST(Cli, EqualsSeparatedValues)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--model=Qwen2.5-32B", "--alpha=0.25"}));
    EXPECT_EQ(p.get("model"), "Qwen2.5-32B");
    EXPECT_DOUBLE_EQ(p.getDouble("alpha"), 0.25);
}

TEST(Cli, FlagsAreBoolean)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--verbose"}));
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(Cli, UnknownOptionFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--bogus", "1"}));
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(Cli, MissingValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--model"}));
    EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(Cli, PositionalArgumentFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"stray"}));
}

TEST(Cli, FlagWithValueFails)
{
    ArgParser p = makeParser();
    EXPECT_FALSE(parse(p, {"--verbose=yes"}));
}

TEST(Cli, BadIntegerSetsError)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--batch", "banana"}));
    EXPECT_EQ(p.getInt("batch"), 0);
    EXPECT_FALSE(p.ok());
}

TEST(Cli, CountAcceptsZeroAndRejectsNegative)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--batch", "0"}));
    EXPECT_EQ(p.getCount("batch"), 0u);
    EXPECT_TRUE(p.ok());
    ASSERT_TRUE(parse(p, {"--batch", "-3"}));
    EXPECT_EQ(p.getCount("batch"), 0u);
    EXPECT_EQ(p.error(), "batch -3 must be >= 0");
}

TEST(Cli, HelpIsDetected)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {"--help"}));
    EXPECT_TRUE(p.helpRequested());
    EXPECT_NE(p.usage().find("--model"), std::string::npos);
    EXPECT_NE(p.usage().find("model name"), std::string::npos);
}

TEST(Cli, UndeclaredAccessDies)
{
    ArgParser p = makeParser();
    ASSERT_TRUE(parse(p, {}));
    EXPECT_DEATH(p.get("nope"), "undeclared");
}

}  // namespace
}  // namespace hilos
