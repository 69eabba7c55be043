/**
 * @file
 * OptionParser tests, including the failure modes the old ad-hoc
 * argument scanner got wrong (silently dropped trailing token,
 * accepted unknown options).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "base/cli.hh"

namespace
{

using statsched::base::OptionParser;
using statsched::base::parseNumber;

/** argv builder: parse("estimate", "--samples", "50") etc. */
template <typename... Tokens>
bool
parseTokens(OptionParser &parser, Tokens... tokens)
{
    std::array<const char *, sizeof...(Tokens) + 2> argv{
        "statsched_cli", "cmd", tokens...};
    return parser.parse(static_cast<int>(argv.size()),
                        const_cast<char **>(argv.data()), 2);
}

OptionParser
makeParser()
{
    OptionParser parser;
    parser.addInt("samples", "2000", "sample size", 1);
    parser.addReal("loss", "2.5", "acceptable loss", 0, 100,
                   OptionParser::Open);
    parser.addOption("benchmark", "ipfwd-l1", "workload");
    parser.addFlag("no-memoize", "disable the cache");
    return parser;
}

/** @return parse()'s error for "--name value", or "" if accepted. */
std::string
refusal(OptionParser parser, const std::string &name,
        const std::string &value)
{
    const std::string token = "--" + name + "=" + value;
    return parseTokens(parser, token.c_str()) ? "" : parser.error();
}

TEST(OptionParser, DefaultsApplyWhenAbsent)
{
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser));
    EXPECT_EQ(parser.getInt("samples"), 2000);
    EXPECT_DOUBLE_EQ(parser.getDouble("loss"), 2.5);
    EXPECT_EQ(parser.get("benchmark"), "ipfwd-l1");
    EXPECT_FALSE(parser.flag("no-memoize"));
    EXPECT_FALSE(parser.given("samples"));
}

TEST(OptionParser, ParsesSpaceAndEqualsSyntax)
{
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser, "--samples", "512",
                            "--loss=1.25", "--benchmark=aho"));
    EXPECT_EQ(parser.getInt("samples"), 512);
    EXPECT_DOUBLE_EQ(parser.getDouble("loss"), 1.25);
    EXPECT_EQ(parser.get("benchmark"), "aho");
    EXPECT_TRUE(parser.given("samples"));
}

TEST(OptionParser, FlagsConsumeNoValue)
{
    OptionParser parser = makeParser();
    // "--no-memoize" sits between an option and its value; it must
    // not swallow "--samples"'s argument.
    ASSERT_TRUE(parseTokens(parser, "--no-memoize", "--samples",
                            "64"));
    EXPECT_TRUE(parser.flag("no-memoize"));
    EXPECT_EQ(parser.getInt("samples"), 64);
}

TEST(OptionParser, FlagAcceptsExplicitBoolean)
{
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser, "--no-memoize=0"));
    EXPECT_FALSE(parser.flag("no-memoize"));

    OptionParser again = makeParser();
    ASSERT_TRUE(parseTokens(again, "--no-memoize=1"));
    EXPECT_TRUE(again.flag("no-memoize"));
}

TEST(OptionParser, RejectsUnknownOption)
{
    OptionParser parser = makeParser();
    EXPECT_FALSE(parseTokens(parser, "--bogus", "3"));
    EXPECT_NE(parser.error().find("unknown option"),
              std::string::npos);
    EXPECT_NE(parser.error().find("bogus"), std::string::npos);
}

TEST(OptionParser, RejectsTrailingOptionWithoutValue)
{
    // The old parser's `i + 1 < argc` loop silently ignored this.
    OptionParser parser = makeParser();
    EXPECT_FALSE(parseTokens(parser, "--samples"));
    EXPECT_NE(parser.error().find("missing value"),
              std::string::npos);
}

TEST(OptionParser, RejectsEmptyValue)
{
    // "--samples=" would otherwise parse as 0 and blow up far from
    // the command line (e.g. an empty sample in the estimator).
    OptionParser parser = makeParser();
    EXPECT_FALSE(parseTokens(parser, "--samples="));
    EXPECT_NE(parser.error().find("empty value"), std::string::npos);

    OptionParser spaced = makeParser();
    EXPECT_FALSE(parseTokens(spaced, "--samples", ""));
    EXPECT_NE(spaced.error().find("empty value"), std::string::npos);
}

TEST(OptionParser, RejectsBarePositionalToken)
{
    OptionParser parser = makeParser();
    EXPECT_FALSE(parseTokens(parser, "samples", "3"));
    EXPECT_NE(parser.error().find("expected --option"),
              std::string::npos);
}

TEST(OptionParser, LastOccurrenceWins)
{
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser, "--samples", "10",
                            "--samples=20"));
    EXPECT_EQ(parser.getInt("samples"), 20);
}

TEST(OptionParser, UsageListsDeclaredOptions)
{
    const OptionParser parser = makeParser();
    const std::string usage = parser.usage();
    EXPECT_NE(usage.find("--samples"), std::string::npos);
    EXPECT_NE(usage.find("--no-memoize"), std::string::npos);
    EXPECT_NE(usage.find("sample size"), std::string::npos);
    EXPECT_NE(usage.find("an integer in [1, inf)"), std::string::npos);
    EXPECT_NE(usage.find("a number in (0, 100)"), std::string::npos);
}

TEST(OptionParser, IntegerRefusesAnythingButAWholeNumber)
{
    // strtol read each of these as a prefix and ran on it.
    for (const char *bad : {"50abc", "2e3", "1.5", "0x10", " 50", "50 ",
                            "", "+", "-", "+-5", "nan", "inf"}) {
        const std::string error = refusal(makeParser(), "samples", bad);
        EXPECT_NE(error.find("'--samples'"), std::string::npos)
            << "'" << bad << "': " << error;
    }
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser, "--samples", "+50"));
    EXPECT_EQ(parser.getInt("samples"), 50);
}

TEST(OptionParser, IntegerRefusesOverflow)
{
    OptionParser parser;
    parser.addInt("seed", "7", "sampler seed");
    ASSERT_TRUE(parseTokens(parser, "--seed", "9223372036854775807"));
    EXPECT_EQ(parser.getInt("seed"), std::numeric_limits<long>::max());
    ASSERT_TRUE(parseTokens(parser, "--seed", "-9223372036854775808"));
    EXPECT_EQ(parser.getInt("seed"), std::numeric_limits<long>::min());
    ASSERT_TRUE(parseTokens(parser, "--seed", "-1"));
    EXPECT_EQ(parser.getInt("seed"), -1);
    EXPECT_FALSE(parseTokens(parser, "--seed", "9223372036854775808"));
    EXPECT_NE(parser.error().find(
                  "'--seed' must be an integer in (-inf, inf)"),
              std::string::npos)
        << parser.error();
    EXPECT_FALSE(parseTokens(parser, "--seed", "-9223372036854775809"));
    EXPECT_FALSE(
        parseTokens(parser, "--seed", "99999999999999999999"));
}

TEST(OptionParser, IntegerRangeEndsAreClosed)
{
    OptionParser parser;
    parser.addInt("tasks", "3", "workload size", 1, 8);
    for (const char *ok : {"1", "8"})
        EXPECT_TRUE(parseTokens(parser, "--tasks", ok)) << ok;
    for (const char *bad : {"0", "9", "-1"}) {
        EXPECT_FALSE(parseTokens(parser, "--tasks", bad)) << bad;
        EXPECT_NE(parser.error().find("an integer in [1, 8]"),
                  std::string::npos)
            << parser.error();
    }
}

TEST(OptionParser, RealRefusesNanInfinityAndTrailingText)
{
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "infinity",
                            "1e999", "2.5x", "2,5", "0x1p1"}) {
        const std::string error = refusal(makeParser(), "loss", bad);
        EXPECT_NE(error.find("'--loss' must be a number in (0, 100)"),
                  std::string::npos)
            << "'" << bad << "': " << error;
    }
    OptionParser parser = makeParser();
    ASSERT_TRUE(parseTokens(parser, "--loss", "1e-6"));
    EXPECT_DOUBLE_EQ(parser.getDouble("loss"), 1e-6);
    ASSERT_TRUE(parseTokens(parser, "--loss", ".5"));
    EXPECT_DOUBLE_EQ(parser.getDouble("loss"), 0.5);
}

TEST(OptionParser, RealRangeEndsAreOpenOrClosed)
{
    // Open: (0, 100) takes neither end.
    for (const char *bad : {"0", "-0", "100", "-1", "150"})
        EXPECT_NE(refusal(makeParser(), "loss", bad), "") << bad;
    for (const char *ok : {"1e-300", "99.999"})
        EXPECT_EQ(refusal(makeParser(), "loss", ok), "") << ok;

    // Closed: [0, 1] takes both.
    OptionParser closed;
    closed.addReal("fraction", "0", "audited share", 0, 1);
    for (const char *ok : {"0", "1", "0.5"})
        EXPECT_TRUE(parseTokens(closed, "--fraction", ok)) << ok;
    for (const char *bad : {"-0.001", "1.001"}) {
        EXPECT_FALSE(parseTokens(closed, "--fraction", bad)) << bad;
        EXPECT_NE(closed.error().find("a number in [0, 1]"),
                  std::string::npos)
            << closed.error();
    }

    // No upper limit: any finite value from the lower end up.
    OptionParser positive;
    positive.addReal("deadline", "30", "seconds", 0,
                     OptionParser::kInfinity, OptionParser::Open);
    EXPECT_TRUE(parseTokens(positive, "--deadline", "1e300"));
    EXPECT_FALSE(parseTokens(positive, "--deadline", "0"));
    EXPECT_NE(positive.error().find("a number in (0, inf)"), std::string::npos)
        << positive.error();
    EXPECT_FALSE(parseTokens(positive, "--deadline", "inf"));
}

TEST(OptionParser, FlagValueMustBeABoolean)
{
    for (const char *on : {"1", "true"}) {
        OptionParser parser = makeParser();
        ASSERT_TRUE(parseTokens(parser, (std::string("--no-memoize=") +
                                         on).c_str()));
        EXPECT_TRUE(parser.flag("no-memoize")) << on;
    }
    for (const char *off : {"0", "false"}) {
        OptionParser parser = makeParser();
        ASSERT_TRUE(parseTokens(parser, (std::string("--no-memoize=") +
                                         off).c_str()));
        EXPECT_FALSE(parser.flag("no-memoize")) << off;
    }
    for (const char *bad : {"banana", "", "yes", "2", "TRUE"}) {
        const std::string error = refusal(makeParser(), "no-memoize", bad);
        EXPECT_NE(error.find("'--no-memoize' must be 0, 1, true or false"),
                  std::string::npos)
            << "'" << bad << "': " << error;
    }
}

TEST(OptionParser, GettersParseStrictlyForUndeclaredTypes)
{
    // An option declared without a type is checked when it is read.
    OptionParser parser;
    parser.addOption("count", "12");
    ASSERT_TRUE(parseTokens(parser, "--count", "7x"));
    EXPECT_THROW(parser.getInt("count"), std::invalid_argument);
    EXPECT_THROW(parser.getDouble("count"), std::invalid_argument);
    ASSERT_TRUE(parseTokens(parser, "--count", "7"));
    EXPECT_EQ(parser.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(parser.getDouble("count"), 7.0);
}

TEST(ParseNumber, UnsignedTakesNoSign)
{
    std::uint64_t value = 3;
    EXPECT_TRUE(parseNumber("18446744073709551615", value));
    EXPECT_EQ(value, 18446744073709551615ull);
    for (const char *bad : {"-1", "+1", "18446744073709551616", "1e3",
                            "12abc", ""})
        EXPECT_FALSE(parseNumber(bad, value)) << bad;
}

} // anonymous namespace
