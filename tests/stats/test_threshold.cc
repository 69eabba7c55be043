/**
 * @file
 * POT threshold selection tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hh"
#include "stats/descriptive.hh"
#include "stats/gpd.hh"
#include "stats/mean_excess.hh"
#include "stats/rng.hh"
#include "stats/threshold.hh"

namespace
{

using namespace statsched::stats;

std::vector<double>
normalSample(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> xs;
    for (int i = 0; i < n; ++i)
        xs.push_back(rng.normal(100.0, 10.0));
    return xs;
}

TEST(Threshold, FixedFractionTakesTopFivePercent)
{
    const auto xs = normalSample(2000, 1);
    ThresholdOptions options;
    options.policy = ThresholdPolicy::FixedFraction;
    const auto sel = selectThreshold(xs, options);
    // 5% of 2000 = 100 exceedances (fewer only under ties).
    EXPECT_EQ(sel.exceedances.size(), 100u);
    for (double y : sel.exceedances)
        EXPECT_GT(y, 0.0);
}

TEST(Threshold, PaperExceedanceCounts)
{
    // The paper's samples of 1000 / 2000 / 5000 use at most
    // 50 / 100 / 250 exceedances.
    for (int n : {1000, 2000, 5000}) {
        const auto xs = normalSample(n, 100 + n);
        const auto sel = selectThreshold(xs, {});
        EXPECT_EQ(sel.exceedances.size(),
                  static_cast<std::size_t>(n / 20)) << n;
    }
}

TEST(Threshold, ExceedancesMatchSortedTail)
{
    const auto xs = normalSample(400, 2);
    auto sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    const auto sel = selectThreshold(xs, {});
    ASSERT_EQ(sel.exceedances.size(), 20u);
    // The largest exceedance reconstructs the sample maximum.
    double max_y = 0.0;
    for (double y : sel.exceedances)
        max_y = std::max(max_y, y);
    EXPECT_DOUBLE_EQ(sel.threshold + max_y, sorted.back());
    // The threshold equals the highest excluded order statistic.
    EXPECT_DOUBLE_EQ(sel.threshold, sorted[sorted.size() - 21]);
}

TEST(Threshold, LinearityScanStaysWithinCap)
{
    const auto xs = normalSample(3000, 3);
    ThresholdOptions options;
    options.policy = ThresholdPolicy::LinearityScan;
    options.minExceedances = 30;
    const auto sel = selectThreshold(xs, options);
    EXPECT_GE(sel.exceedances.size(), 30u);
    EXPECT_LE(sel.exceedances.size(), 150u);
    EXPECT_GT(sel.tailLinearity, 0.0);
}

TEST(Threshold, LinearityScanPrefersLinearTail)
{
    // A GPD sample has a linear mean-excess tail, so the scan should
    // report high linearity at its pick.
    Rng rng(4);
    const Gpd gpd(-0.4, 2.0);
    std::vector<double> xs;
    for (int i = 0; i < 4000; ++i)
        xs.push_back(gpd.sampleFromUniform(rng.uniform()));
    ThresholdOptions options;
    options.policy = ThresholdPolicy::LinearityScan;
    const auto sel = selectThreshold(xs, options);
    EXPECT_GT(sel.tailLinearity, 0.85);
}

/**
 * R^2 of the mean-excess plot of the whole sample restricted to
 * thresholds at or above u, from plot() and evaluate() alone.
 */
double
plotLinearity(const MeanExcess &me, double u)
{
    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto &[x, e] : me.plot()) {
        if (x >= u) {
            xs.push_back(x);
            ys.push_back(e);
        }
    }
    return xs.size() < 2 ? 0.0 : linearLeastSquares(xs, ys).rSquared;
}

/**
 * Reference selection over the mean-excess function of the whole
 * sample: the threshold at the highest excluded order statistic, the
 * strict exceedances above it, and the tail linearity read off the
 * full plot of MeanExcess(sample). selectThreshold() must agree with
 * it bit for bit under either policy.
 */
ThresholdSelection
fullSampleOracle(const std::vector<double> &sample,
                 const ThresholdOptions &options)
{
    const MeanExcess me(sample);
    const std::vector<double> &sorted = me.sorted();
    const std::size_t cap = exceedanceCap(sorted.size(), options);
    auto from_count = [&](std::size_t count) {
        ThresholdSelection sel;
        const std::size_t cut = sorted.size() - count;
        sel.threshold = sorted[cut - 1];
        for (std::size_t i = cut; i < sorted.size(); ++i) {
            if (sorted[i] - sel.threshold > 0.0)
                sel.exceedances.push_back(sorted[i] - sel.threshold);
        }
        sel.tailLinearity = plotLinearity(me, sel.threshold);
        return sel;
    };
    if (options.policy == ThresholdPolicy::FixedFraction)
        return from_count(cap);
    ThresholdSelection best;
    bool have_best = false;
    const std::size_t lo = options.minExceedances;
    const std::size_t steps =
        std::max<std::size_t>(2, options.scanCandidates);
    for (std::size_t s = 0; s < steps; ++s) {
        const std::size_t count = lo + (cap - lo) * s / (steps - 1);
        auto sel = from_count(count);
        if (sel.exceedances.size() < options.minExceedances)
            continue;
        if (!have_best || sel.tailLinearity > best.tailLinearity ||
            (sel.tailLinearity == best.tailLinearity &&
             sel.exceedances.size() > best.exceedances.size())) {
            best = std::move(sel);
            have_best = true;
        }
    }
    return have_best ? best : from_count(cap);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

TEST(Threshold, MatchesFullSampleMeanExcessOracleBitwise)
{
    std::vector<std::pair<const char *, std::vector<double>>> samples;

    // Values on a grid of 4: ties straddle the cut, i.e. copies of the
    // lowest threshold either policy can pick sit on both sides of
    // index n - cap - 1 (asserted below).
    for (const int n : {1000, 3000}) {
        auto xs = normalSample(n, 40 + static_cast<std::uint64_t>(n));
        for (double &x : xs)
            x = 4.0 * std::round(x / 4.0);
        samples.emplace_back("ties straddle the cut", std::move(xs));
    }

    // The top 30 values are one tied value: every candidate threshold
    // equals it and no exceedance is strict.
    {
        auto xs = normalSample(400, 41);
        std::sort(xs.begin(), xs.end());
        std::fill(xs.end() - 30, xs.end(), xs[xs.size() - 31] + 1.0);
        std::reverse(xs.begin(), xs.end());
        samples.emplace_back("tied tail", std::move(xs));
    }
    samples.emplace_back("all tied", std::vector<double>(50, 7.25));

    // Sizes at and just above 2 * minExceedances.
    for (const int n : {40, 41, 42, 43})
        samples.emplace_back("n near 2 * minExceedances",
                             normalSample(n, 42 + n));

    // A bounded GPD tail, where the scan has a linear region to find.
    {
        Rng rng(43);
        const Gpd gpd(-0.4, 2.0);
        std::vector<double> xs;
        for (int i = 0; i < 4000; ++i)
            xs.push_back(gpd.sampleFromUniform(rng.uniform()));
        samples.emplace_back("GPD tail", std::move(xs));
    }

    for (const ThresholdPolicy policy :
         {ThresholdPolicy::FixedFraction,
          ThresholdPolicy::LinearityScan}) {
        ThresholdOptions options;
        options.policy = policy;
        for (const auto &[what, xs] : samples) {
            SCOPED_TRACE(std::string(what) + ", n = " +
                         std::to_string(xs.size()) + ", policy " +
                         std::to_string(static_cast<int>(policy)));
            const ThresholdSelection got = selectThreshold(xs, options);
            const ThresholdSelection want =
                fullSampleOracle(xs, options);
            EXPECT_TRUE(sameBits(got.threshold, want.threshold));
            if (policy == ThresholdPolicy::FixedFraction) {
                // Not the fixed fraction's criterion, so not computed;
                // on request it is the oracle's double.
                EXPECT_TRUE(std::isnan(got.tailLinearity));
                EXPECT_TRUE(sameBits(
                    MeanExcess(xs).tailLinearity(got.threshold),
                    want.tailLinearity));
            } else {
                EXPECT_TRUE(
                    sameBits(got.tailLinearity, want.tailLinearity));
            }
            ASSERT_EQ(got.exceedances.size(), want.exceedances.size());
            for (std::size_t i = 0; i < want.exceedances.size(); ++i)
                EXPECT_TRUE(sameBits(got.exceedances[i],
                                     want.exceedances[i])) << i;
        }
    }

    // The tie samples exercise what they claim to.
    for (std::size_t k = 0; k < 2; ++k) {
        auto sorted = samples[k].second;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t cut =
            sorted.size() - exceedanceCap(sorted.size(), {}) - 1;
        EXPECT_EQ(sorted[cut - 1], sorted[cut]) << k;
        EXPECT_EQ(sorted[cut + 1], sorted[cut]) << k;
    }
}

TEST(Threshold, ChecksTheOrderOfTheTailItReads)
{
    // selectThresholdFromSorted() reads sorted[n - cap - 1, n) (the
    // scan from the first copy of its lowest value), and checks the
    // ascending order there. Swapping two values inside that range is
    // a contract violation under either policy, and so is a tail of
    // only cap values.
    auto sorted = normalSample(1000, 6);
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const std::size_t lowest = n - exceedanceCap(n, {}) - 1;
    for (const ThresholdPolicy policy :
         {ThresholdPolicy::FixedFraction,
          ThresholdPolicy::LinearityScan}) {
        ThresholdOptions options;
        options.policy = policy;
        EXPECT_NO_THROW(selectThresholdFromSorted(sorted, n, options));
        for (const std::size_t i : {lowest, n - 2}) {
            auto swapped = sorted;
            std::swap(swapped[i], swapped[i + 1]);
            EXPECT_THROW(selectThresholdFromSorted(swapped, n, options),
                         statsched::ContractViolation)
                << "policy " << static_cast<int>(policy)
                << ", swapped at " << i;
        }
        const std::vector<double> short_tail(
            sorted.begin() + static_cast<std::ptrdiff_t>(lowest + 1),
            sorted.end());
        EXPECT_THROW(selectThresholdFromSorted(short_tail, n, options),
                     statsched::ContractViolation)
            << "policy " << static_cast<int>(policy);
    }

    // The fixed fraction computes no tail linearity.
    EXPECT_TRUE(std::isnan(selectThresholdFromSorted(sorted, n, {})
                               .tailLinearity));
}

TEST(Threshold, RespectsMinimumExceedances)
{
    const auto xs = normalSample(200, 5);
    ThresholdOptions options;
    options.minExceedances = 15;
    const auto sel = selectThreshold(xs, options);
    // 5% of 200 = 10 < minimum, so the floor applies.
    EXPECT_GE(sel.exceedances.size(), 15u);
}

} // anonymous namespace
