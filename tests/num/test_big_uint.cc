/**
 * @file
 * BigUint unit and property tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "num/big_uint.hh"
#include "stats/rng.hh"

namespace
{

using statsched::num::BigUint;
using statsched::stats::Rng;

TEST(BigUint, DefaultIsZero)
{
    BigUint z;
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.toString(), "0");
    EXPECT_EQ(z.toUint64(), 0u);
    EXPECT_EQ(z.bitLength(), 0u);
}

TEST(BigUint, ConstructFromUint64)
{
    EXPECT_EQ(BigUint(1u).toString(), "1");
    EXPECT_EQ(BigUint(4294967295ull).toString(), "4294967295");
    EXPECT_EQ(BigUint(4294967296ull).toString(), "4294967296");
    EXPECT_EQ(BigUint(18446744073709551615ull).toString(),
              "18446744073709551615");
}

TEST(BigUint, DecimalStringRoundTrip)
{
    const std::string digits =
        "123456789012345678901234567890123456789012345678901234567890";
    BigUint v(digits);
    EXPECT_EQ(v.toString(), digits);
    EXPECT_EQ(v.digitCount(), digits.size());
}

TEST(BigUint, LeadingZerosIgnored)
{
    EXPECT_EQ(BigUint(std::string("000042")).toString(), "42");
    EXPECT_EQ(BigUint(std::string("0")).toString(), "0");
}

TEST(BigUint, AdditionCarriesAcrossLimbs)
{
    BigUint a(0xffffffffull);
    BigUint b(1u);
    EXPECT_EQ((a + b).toString(), "4294967296");

    BigUint big("99999999999999999999999999999999");
    EXPECT_EQ((big + BigUint(1u)).toString(),
              "100000000000000000000000000000000");
}

TEST(BigUint, SubtractionBorrows)
{
    BigUint a("100000000000000000000000000000000");
    BigUint b(1u);
    EXPECT_EQ((a - b).toString(),
              "99999999999999999999999999999999");
    EXPECT_TRUE((a - a).isZero());
}

TEST(BigUint, MultiplicationMatchesKnownProducts)
{
    BigUint a("123456789123456789");
    BigUint b("987654321987654321");
    EXPECT_EQ((a * b).toString(),
              "121932631356500531347203169112635269");
    EXPECT_TRUE((a * BigUint()).isZero());
    EXPECT_EQ((a * BigUint(1u)).toString(), a.toString());
}

TEST(BigUint, DivisionAndRemainderKnownValues)
{
    BigUint a("1000000000000000000000000000000");
    BigUint b("999999999999");
    BigUint r;
    BigUint q = BigUint::divMod(a, b, r);
    // Verified independently: a = q*b + r.
    EXPECT_EQ((q * b + r).toString(), a.toString());
    EXPECT_TRUE(r < b);
}

TEST(BigUint, DivisionBySelfAndOne)
{
    BigUint a("314159265358979323846264338327950288");
    EXPECT_EQ((a / a).toString(), "1");
    EXPECT_EQ((a / BigUint(1u)).toString(), a.toString());
    EXPECT_TRUE((a % a).isZero());
}

TEST(BigUint, ComparisonOperators)
{
    BigUint small(41u);
    BigUint big("123456789123456789123456789");
    EXPECT_LT(small, big);
    EXPECT_GT(big, small);
    EXPECT_LE(small, BigUint(41u));
    EXPECT_GE(small, BigUint(41u));
    EXPECT_EQ(small, BigUint(41u));
    EXPECT_NE(small, big);
}

TEST(BigUint, PowMatchesRepeatedMultiplication)
{
    EXPECT_EQ(BigUint::pow(BigUint(2u), 0).toString(), "1");
    EXPECT_EQ(BigUint::pow(BigUint(2u), 64).toString(),
              "18446744073709551616");
    EXPECT_EQ(BigUint::pow(BigUint(10u), 30).toString(),
              "1" + std::string(30, '0'));
    // 3^40, computed independently.
    EXPECT_EQ(BigUint::pow(BigUint(3u), 40).toString(),
              "12157665459056928801");
}

TEST(BigUint, FactorialKnownValues)
{
    EXPECT_EQ(BigUint::factorial(0).toString(), "1");
    EXPECT_EQ(BigUint::factorial(5).toString(), "120");
    EXPECT_EQ(BigUint::factorial(20).toString(),
              "2432902008176640000");
    EXPECT_EQ(BigUint::factorial(25).toString(),
              "15511210043330985984000000");
    EXPECT_EQ(BigUint::factorial(100).digitCount(), 158u);
}

TEST(BigUint, BinomialKnownValues)
{
    EXPECT_EQ(BigUint::binomial(0, 0).toString(), "1");
    EXPECT_EQ(BigUint::binomial(5, 2).toString(), "10");
    EXPECT_EQ(BigUint::binomial(64, 32).toString(),
              "1832624140942590534");
    EXPECT_TRUE(BigUint::binomial(5, 6).isZero());
}

TEST(BigUint, BinomialPascalIdentity)
{
    for (unsigned n = 1; n <= 40; ++n) {
        for (unsigned k = 1; k <= n; ++k) {
            EXPECT_EQ(BigUint::binomial(n, k),
                      BigUint::binomial(n - 1, k - 1) +
                      BigUint::binomial(n - 1, k))
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(BigUint, ScientificNotation)
{
    EXPECT_EQ(BigUint("1750").toScientific(2), "1.75e3");
    EXPECT_EQ(BigUint(9u).toScientific(2), "9.00e0");
    EXPECT_EQ(BigUint().toScientific(2), "0");
    EXPECT_EQ(BigUint("123456").toScientific(0), "1e5");
}

TEST(BigUint, ToDoubleApproximates)
{
    EXPECT_DOUBLE_EQ(BigUint(12345u).toDouble(), 12345.0);
    const double big = BigUint::pow(BigUint(10u), 50).toDouble();
    EXPECT_NEAR(big, 1e50, 1e35);
}

/** Randomized 64-bit arithmetic cross-check against native ints. */
TEST(BigUint, RandomizedSmallArithmeticOracle)
{
    Rng rng(2024);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t a = rng.next() >> 33;
        const std::uint64_t b = (rng.next() >> 33) + 1;
        const BigUint ba(a);
        const BigUint bb(b);
        EXPECT_EQ((ba + bb).toUint64(), a + b);
        EXPECT_EQ((ba * bb).toUint64(), a * b);
        EXPECT_EQ((ba / bb).toUint64(), a / b);
        EXPECT_EQ((ba % bb).toUint64(), a % b);
        if (a >= b) {
            EXPECT_EQ((ba - bb).toUint64(), a - b);
        }
    }
}

/** (a*b)/b == a and (a*b)%b == 0 for large random operands. */
TEST(BigUint, MultiplyDivideInverseProperty)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        BigUint a(rng.next());
        BigUint b(rng.next() | 1);
        // Grow operands to multi-limb sizes.
        a = a * a + BigUint(rng.next());
        b = b * b + BigUint(1u);
        const BigUint product = a * b;
        EXPECT_EQ(product / b, a);
        EXPECT_TRUE((product % b).isZero());
    }
}

/** String round trip on randomly sized numbers. */
TEST(BigUint, StringRoundTripProperty)
{
    Rng rng(99);
    for (int i = 0; i < 100; ++i) {
        std::string digits;
        const int len = 1 + static_cast<int>(rng.uniformInt(70));
        digits.push_back(
            static_cast<char>('1' + rng.uniformInt(9)));
        for (int d = 1; d < len; ++d) {
            digits.push_back(
                static_cast<char>('0' + rng.uniformInt(10)));
        }
        EXPECT_EQ(BigUint(digits).toString(), digits);
    }
}

TEST(BigUint, BitLength)
{
    EXPECT_EQ(BigUint(1u).bitLength(), 1u);
    EXPECT_EQ(BigUint(255u).bitLength(), 8u);
    EXPECT_EQ(BigUint(256u).bitLength(), 9u);
    EXPECT_EQ(BigUint::pow(BigUint(2u), 100).bitLength(), 101u);
}

} // anonymous namespace
