/**
 * @file
 * RNG statistical sanity tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/rng.hh"

namespace
{

using statsched::stats::Rng;

TEST(Rng, DeterministicBySeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformIntUnbiasedAcrossBuckets)
{
    Rng rng(4);
    const std::uint64_t buckets = 7;
    std::vector<int> counts(buckets, 0);
    const int n = 140000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(buckets)];
    // Chi-squared test at a generous threshold.
    const double expected = static_cast<double>(n) / buckets;
    double chi2 = 0.0;
    for (int c : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    // 99.9% quantile of chi2 with 6 df is 22.46.
    EXPECT_LT(chi2, 22.46);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.uniformInt(3), 3u);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(6);
    const int n = 200000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double z = rng.normal();
        sum += z;
        sum_sq += z * z;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParameters)
{
    Rng rng(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(5.0, 2.0);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependentish)
{
    Rng parent(8);
    Rng child = parent.split();
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        seen.insert(parent.next());
        seen.insert(child.next());
    }
    // No collisions between the streams in a short window.
    EXPECT_EQ(seen.size(), 2000u);
}

TEST(Rng, JumpMatchesStepping)
{
    // n = 256 is the degree of p(x): by Cayley-Hamilton that jump is
    // correct only if the hard-coded polynomial is.
    const std::uint64_t steps[] = {0, 1, 255, 256, 257, 49152,
                                   1234567};
    for (const std::uint64_t seed : {1ull, 7ull, 0xdeadbeefull}) {
        for (const std::uint64_t n : steps) {
            Rng stepped(seed);
            for (std::uint64_t i = 0; i < n; ++i)
                stepped.next();
            Rng jumped(seed);
            jumped.jump(Rng::jumpPolynomial(n));
            for (int i = 0; i < 8; ++i) {
                ASSERT_EQ(jumped.next(), stepped.next())
                    << "seed " << seed << ", n " << n << ", output "
                    << i;
            }
        }
    }
}

TEST(Rng, JumpPolynomialMatchesReferenceConstants)
{
    // Blackman and Vigna's xoshiro256 jump() and long_jump() apply
    // x^(2^128) and x^(2^192) modulo p(x).
    const Rng::Polynomial jump = {
        0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
        0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
    const Rng::Polynomial longJump = {
        0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
        0x77710069854ee241ull, 0x39109bb02acbe635ull};
    Rng::Polynomial power = {2, 0, 0, 0};  // x
    for (int i = 1; i <= 192; ++i) {
        power = statsched::stats::detail::mulModCharacteristic(power,
                                                               power);
        if (i == 128) {
            EXPECT_EQ(power, jump);
        }
    }
    EXPECT_EQ(power, longJump);
}

} // anonymous namespace
