/**
 * @file
 * Capture-probability tests (Section 3.1 / Figure 2 of the paper).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "base/check.hh"
#include "core/capture_probability.hh"

namespace
{

using namespace statsched::core;

TEST(CaptureProbability, ClosedFormMatchesDirectPow)
{
    for (double p : {1.0, 2.0, 5.0, 10.0, 25.0}) {
        for (std::uint64_t n : {1ull, 10ull, 100ull, 1000ull}) {
            const double direct =
                1.0 - std::pow((100.0 - p) / 100.0,
                               static_cast<double>(n));
            EXPECT_NEAR(captureProbability(p, n), direct, 1e-12)
                << "p=" << p << " n=" << n;
        }
    }
}

TEST(CaptureProbability, PaperHeadlineNumbers)
{
    // "a sample of several hundred random observations is sufficient
    // to capture at least one of 1% or 2% of the best-performing
    // task assignments with a very high probability."
    EXPECT_GT(captureProbability(1.0, 500), 0.99);
    EXPECT_GT(captureProbability(2.0, 300), 0.99);
    // Small samples (< 10) are unlikely to capture the top 1-5%.
    EXPECT_LT(captureProbability(1.0, 10), 0.1);
    EXPECT_LT(captureProbability(5.0, 10), 0.41);
}

TEST(CaptureProbability, EdgeSampleSizes)
{
    EXPECT_DOUBLE_EQ(captureProbability(5.0, 0), 0.0);
    EXPECT_NEAR(captureProbability(5.0, 1), 0.05, 1e-12);
}

TEST(CaptureProbability, MonotoneInBothArguments)
{
    double prev = 0.0;
    for (std::uint64_t n = 1; n < 2000; n *= 2) {
        const double p = captureProbability(1.0, n);
        EXPECT_GT(p, prev);
        prev = p;
    }
    EXPECT_LT(captureProbability(1.0, 100),
              captureProbability(2.0, 100));
}

TEST(CaptureProbability, AsymptoticallyApproachesOne)
{
    EXPECT_GT(captureProbability(1.0, 3000), 0.999999);
    EXPECT_LT(captureProbability(1.0, 3000), 1.0 + 1e-12);
}

TEST(RequiredSampleSize, InvertsTheProbability)
{
    for (double p : {0.5, 1.0, 2.0, 5.0}) {
        for (double target : {0.9, 0.99, 0.999}) {
            const std::uint64_t n = requiredSampleSize(p, target);
            EXPECT_GE(captureProbability(p, n), target);
            if (n > 1) {
                EXPECT_LT(captureProbability(p, n - 1), target)
                    << "p=" << p << " target=" << target;
            }
        }
    }
}

TEST(RequiredSampleSize, RefusesACountPast64Bits)
{
    // The top 1e-16 percent needs about 4.6e18 draws, which fit...
    EXPECT_EQ(requiredSampleSize(1e-16, 0.99), 4605170185988089856ull);
    EXPECT_EQ(requiredSampleSizeIfFits(1e-16, 0.99),
              4605170185988089856ull);
    // ...the top 1e-20 percent about 4.6e22, which do not, and a
    // percent whose hundredth underflows to 0 infinitely many.
    for (const double percent : {1e-20, 5e-324}) {
        EXPECT_EQ(requiredSampleSizeIfFits(percent, 0.99), std::nullopt)
            << percent;
        EXPECT_THROW(requiredSampleSize(percent, 0.99),
                     statsched::ContractViolation)
            << percent;
    }
}

TEST(RequiredSampleSize, KnownValues)
{
    // n = ln(0.01)/ln(0.99) = 458.2 -> 459.
    EXPECT_EQ(requiredSampleSize(1.0, 0.99), 459u);
    // For the top 2%: n = ln(0.01)/ln(0.98) = 227.9 -> 228.
    EXPECT_EQ(requiredSampleSize(2.0, 0.99), 228u);
}

TEST(CaptureCurve, LogSpacedAndMonotone)
{
    const auto curve = captureCurve(1.0, 10000, 40);
    ASSERT_GE(curve.size(), 10u);
    EXPECT_EQ(curve.front().first, 1u);
    EXPECT_EQ(curve.back().first, 10000u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].first, curve[i - 1].first);
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    }
}

} // anonymous namespace
