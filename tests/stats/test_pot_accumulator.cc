/**
 * @file
 * Identity-contract tests for the incremental POT estimator
 * (stats/pot_accumulator) and the warm-started GPD fit.
 *
 * The fast paths are only admissible because they are provably
 * equivalent to the from-scratch pipeline:
 *
 *  - cold PotAccumulator::estimate() plus addInterval() must be
 *    bit-identical to estimateOptimalPerformance() on the cumulative
 *    sample, round after round, including rounds served by the
 *    tail-unchanged shortcut;
 *  - warm-started fitGpd() must land on the same optimum as the cold
 *    fit to likelihood tolerance;
 *  - the threaded bootstrap must be bitwise equal to the serial one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "stats/bootstrap.hh"
#include "stats/pot.hh"
#include "stats/pot_accumulator.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::stats;

/** Performance-like sample bounded above by `bound` (beta-ish shape). */
std::vector<double>
boundedSample(double bound, std::size_t n, Rng &rng)
{
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        const double v = rng.uniform();
        xs.push_back(bound * (1.0 - 0.25 * (1.0 - u) * (1.0 - v)));
    }
    return xs;
}

/**
 * Sample with a regular GPD tail (xi ~ -0.4) below `bound`: the excess
 * bound - x is s * U^0.4, so P(excess <= w) ~ w^2.5. The MLE is a
 * unique interior optimum here, which the warm-vs-cold comparisons
 * need — for samples whose density diverges at the endpoint (xi <= -1)
 * the GPD likelihood is unbounded and any optimizer's answer is
 * start-dependent by nature.
 */
std::vector<double>
regularTailSample(double bound, std::size_t n, Rng &rng)
{
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(bound -
                     0.3 * bound * std::pow(rng.uniform(), 0.4));
    return xs;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

/** Bitwise equality of every PotEstimate field. */
void
expectBitIdentical(const PotEstimate &a, const PotEstimate &b,
                   std::size_t round)
{
    EXPECT_TRUE(sameBits(a.threshold, b.threshold)) << "round " << round;
    EXPECT_EQ(a.exceedanceCount, b.exceedanceCount) << "round " << round;
    EXPECT_TRUE(sameBits(a.exceedanceRate, b.exceedanceRate))
        << "round " << round;
    EXPECT_TRUE(sameBits(a.tailLinearity, b.tailLinearity))
        << "round " << round;
    EXPECT_TRUE(sameBits(a.maxObserved, b.maxObserved))
        << "round " << round;
    EXPECT_EQ(a.valid, b.valid) << "round " << round;
    EXPECT_EQ(a.fit.converged, b.fit.converged) << "round " << round;
    EXPECT_TRUE(sameBits(a.fit.xi, b.fit.xi)) << "round " << round;
    EXPECT_TRUE(sameBits(a.fit.sigma, b.fit.sigma)) << "round " << round;
    EXPECT_TRUE(sameBits(a.fit.logLikelihood, b.fit.logLikelihood))
        << "round " << round;
    EXPECT_TRUE(sameBits(a.upb, b.upb)) << "round " << round;
    EXPECT_TRUE(sameBits(a.upbLower, b.upbLower)) << "round " << round;
    EXPECT_TRUE(sameBits(a.upbUpper, b.upbUpper)) << "round " << round;
    EXPECT_TRUE(sameBits(a.profileMaxLogLik, b.profileMaxLogLik))
        << "round " << round;
    EXPECT_TRUE(sameBits(a.confidenceLevel, b.confidenceLevel))
        << "round " << round;
}

/**
 * Runs `rounds` extend/estimate cycles and checks the cold accumulator
 * against the from-scratch pipeline after every one. A positive `grid`
 * rounds every value to a multiple of it, so values tie.
 *
 * @return the number of rounds in which copies of sorted[n - cap - 1],
 *         the lowest threshold either policy can pick, sit on both
 *         sides of it.
 */
std::size_t
checkColdIdentity(const PotOptions &options, std::size_t initial,
                  std::size_t extension, std::size_t rounds,
                  std::uint64_t seed, double grid = 0.0)
{
    Rng rng(seed);
    PotAccumulator acc(options, false);
    std::vector<double> cumulative;
    std::size_t straddled = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        auto batch =
            boundedSample(250.0, r == 0 ? initial : extension, rng);
        if (grid > 0.0) {
            for (double &x : batch)
                x = grid * std::round(x / grid);
        }
        cumulative.insert(cumulative.end(), batch.begin(), batch.end());
        acc.extend(batch);
        auto inc = acc.estimate();
        acc.addInterval(inc);
        const auto scratch =
            estimateOptimalPerformance(cumulative, options);
        expectBitIdentical(inc, scratch, r);

        const auto &sorted = acc.sorted();
        const std::size_t n = sorted.size();
        if (n >= 2 * options.threshold.minExceedances) {
            const std::size_t cut =
                n - exceedanceCap(n, options.threshold) - 1;
            if (cut > 0 && sorted[cut - 1] == sorted[cut] &&
                sorted[cut + 1] == sorted[cut])
                ++straddled;
        }
    }
    return straddled;
}

TEST(PotAccumulator, ColdBitIdenticalFixedFraction)
{
    checkColdIdentity({}, 900, 150, 6, 11);
}

TEST(PotAccumulator, ColdBitIdenticalLinearityScan)
{
    PotOptions options;
    options.threshold.policy = ThresholdPolicy::LinearityScan;
    checkColdIdentity(options, 900, 150, 6, 12);
}

TEST(PotAccumulator, ColdBitIdenticalAcrossSmallSampleRounds)
{
    // The first rounds are below 2 * minExceedances, so both pipelines
    // must report invalid estimates, then recover identically.
    checkColdIdentity({}, 15, 15, 8, 13);
}

TEST(PotAccumulator, ColdBitIdenticalWithTiesAtTheCutFixedFraction)
{
    // 1,000 values, then 30 rounds of 100, on a grid of 1/16: in most
    // rounds copies of the lowest candidate threshold sit on both
    // sides of its index n - cap - 1 (24 of 31 at this seed).
    const std::size_t straddled =
        checkColdIdentity({}, 1000, 100, 31, 14, 1.0 / 16.0);
    EXPECT_GE(straddled, 20u);
}

TEST(PotAccumulator, ColdBitIdenticalWithTiesAtTheCutLinearityScan)
{
    PotOptions options;
    options.threshold.policy = ThresholdPolicy::LinearityScan;
    // As above; 25 of 31 rounds straddle at this seed.
    const std::size_t straddled =
        checkColdIdentity(options, 1000, 100, 31, 15, 1.0 / 16.0);
    EXPECT_GE(straddled, 20u);
}

TEST(PotAccumulator, ShortcutFiresAndStaysBitIdentical)
{
    // With minExceedances = 20 and a 5% cap, the cap is pinned at 20
    // for every n <= 400, so extending a 300-value sample with values
    // below the current threshold cannot change the selected tail:
    // the shortcut must serve those rounds, and serve them with the
    // exact estimate the from-scratch pipeline computes.
    const PotOptions options;
    Rng rng(21);
    PotAccumulator acc(options, false);

    std::vector<double> cumulative = boundedSample(250.0, 300, rng);
    acc.extend(cumulative);
    const auto first = acc.estimate();
    ASSERT_TRUE(first.valid);
    EXPECT_EQ(acc.shortcutHits(), 0u);

    for (std::size_t r = 0; r < 4; ++r) {
        // 10 values strictly below the selected threshold.
        std::vector<double> batch;
        for (int i = 0; i < 10; ++i)
            batch.push_back(first.threshold * (0.5 + 0.04 * i));
        cumulative.insert(cumulative.end(), batch.begin(), batch.end());
        acc.extend(batch);
        auto inc = acc.estimate();
        acc.addInterval(inc);
        const auto scratch =
            estimateOptimalPerformance(cumulative, options);
        expectBitIdentical(inc, scratch, r);
    }
    EXPECT_EQ(acc.shortcutHits(), 4u);
}

TEST(PotAccumulator, WarmUpbMatchesColdToStatisticalNoise)
{
    const PotOptions options;
    Rng rng(31);
    PotAccumulator warm(options, true);
    PotAccumulator cold(options, false);
    for (std::size_t r = 0; r < 6; ++r) {
        const auto batch =
            regularTailSample(250.0, r == 0 ? 900 : 150, rng);
        warm.extend(batch);
        cold.extend(batch);
        const auto w = warm.estimate();
        const auto c = cold.estimate();
        ASSERT_EQ(w.valid, c.valid) << "round " << r;
        if (!w.valid)
            continue;
        // Same optimum to Nelder-Mead tolerance: the warm search only
        // starts closer, it does not change the objective.
        EXPECT_NEAR(w.fit.logLikelihood, c.fit.logLikelihood,
                    1e-9 * std::fabs(c.fit.logLikelihood) + 1e-9)
            << "round " << r;
        EXPECT_NEAR(w.upb, c.upb, 1e-5 * c.upb) << "round " << r;
    }
}

TEST(GpdFitWarmStart, MatchesColdLikelihood)
{
    Rng rng(41);
    auto xs = regularTailSample(250.0, 2000, rng);
    PotOptions options;
    auto first = estimateOptimalPerformance(xs, options);
    ASSERT_TRUE(first.valid);

    // Re-select on an extended sample and fit both ways.
    auto extra = regularTailSample(250.0, 400, rng);
    xs.insert(xs.end(), extra.begin(), extra.end());
    const auto selection = selectThreshold(xs, options.threshold);
    ASSERT_GE(selection.exceedances.size(),
              options.threshold.minExceedances);

    const GpdFit cold = fitGpd(selection.exceedances,
                               GpdEstimator::MaximumLikelihood);
    const GpdFit warm = fitGpd(selection.exceedances,
                               GpdEstimator::MaximumLikelihood,
                               &first.fit);
    ASSERT_TRUE(cold.converged);
    ASSERT_TRUE(warm.converged);
    EXPECT_NEAR(warm.logLikelihood, cold.logLikelihood,
                1e-9 * std::fabs(cold.logLikelihood) + 1e-9);
}

TEST(GpdFitWarmStart, UnusableWarmStartFallsBackToCold)
{
    Rng rng(51);
    const auto xs = boundedSample(250.0, 1200, rng);
    const auto selection = selectThreshold(xs);

    GpdFit bogus;          // diverged / zero-sigma previous round
    bogus.converged = false;
    bogus.sigma = 0.0;
    const GpdFit cold = fitGpd(selection.exceedances,
                               GpdEstimator::MaximumLikelihood);
    const GpdFit fallback = fitGpd(selection.exceedances,
                                   GpdEstimator::MaximumLikelihood,
                                   &bogus);
    // An unusable warm start must take the cold path exactly.
    EXPECT_TRUE(sameBits(fallback.xi, cold.xi));
    EXPECT_TRUE(sameBits(fallback.sigma, cold.sigma));
    EXPECT_TRUE(sameBits(fallback.logLikelihood, cold.logLikelihood));
}

TEST(PotAccumulator, RejectsNonFiniteValuesOnExtend)
{
    // Failed measurements leaking through the double channel must not
    // enter the maintained sample — the later estimates must equal
    // those over the finite values alone.
    Rng rng(71);
    auto xs = boundedSample(180.0, 1200, rng);

    PotAccumulator clean(PotOptions{}, false);
    clean.extend(xs);

    auto dirty_batch = xs;
    dirty_batch.insert(dirty_batch.begin() + 100,
                       std::numeric_limits<double>::quiet_NaN());
    dirty_batch.push_back(std::numeric_limits<double>::infinity());
    dirty_batch.push_back(-std::numeric_limits<double>::infinity());
    PotAccumulator dirty(PotOptions{}, false);
    dirty.extend(dirty_batch);

    EXPECT_EQ(dirty.rejectedNonFinite(), 3u);
    EXPECT_EQ(dirty.size(), clean.size());
    EXPECT_EQ(dirty.sorted(), clean.sorted());

    const auto est_clean = clean.estimate();
    const auto est_dirty = dirty.estimate();
    ASSERT_TRUE(est_clean.valid);
    ASSERT_TRUE(est_dirty.valid);
    EXPECT_TRUE(sameBits(est_clean.upb, est_dirty.upb));

    // An all-garbage batch is a no-op.
    dirty.extend({std::numeric_limits<double>::quiet_NaN()});
    EXPECT_EQ(dirty.rejectedNonFinite(), 4u);
    EXPECT_EQ(dirty.size(), clean.size());
}

TEST(PotAccumulator, SortedMatchesMergeOracle)
{
    // After every extend the maintained order must equal, bit for bit,
    // appending the batch, sorting it and std::inplace_merge: with ties,
    // signed zeros, and batches wholly below and wholly above the
    // sample.
    Rng rng(81);
    PotAccumulator acc;
    std::vector<double> oracle;
    auto extend = [&](const std::vector<double> &batch) {
        const auto old_n =
            static_cast<std::vector<double>::difference_type>(
                oracle.size());
        oracle.insert(oracle.end(), batch.begin(), batch.end());
        std::sort(oracle.begin() + old_n, oracle.end());
        std::inplace_merge(oracle.begin(), oracle.begin() + old_n,
                           oracle.end());
        acc.extend(batch);
        ASSERT_EQ(acc.sorted().size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            ASSERT_TRUE(sameBits(acc.sorted()[i], oracle[i]))
                << "index " << i << " of " << oracle.size();
        }
    };
    // Quarters in [-2, 2], so most values tie, and signed zeros.
    auto tied = [&](std::size_t k) {
        std::vector<double> batch;
        for (std::size_t i = 0; i < k; ++i) {
            const double u = rng.uniform();
            if (u < 0.1)
                batch.push_back(u < 0.05 ? -0.0 : 0.0);
            else
                batch.push_back(std::floor(16.0 * rng.uniform()) / 4.0 -
                                2.0);
        }
        return batch;
    };
    for (const std::size_t k : {1, 7, 100, 1000, 7, 1, 100})
        extend(tied(k));
    for (const std::size_t k : {1, 7, 100, 1000}) {
        std::vector<double> below;
        std::vector<double> above;
        for (std::size_t i = 0; i < k; ++i) {
            below.push_back(oracle.front() - 1.0 - rng.uniform());
            above.push_back(oracle.back() + 1.0 + rng.uniform());
        }
        extend(below);
        extend(above);
        extend(tied(k));
    }
}

TEST(Bootstrap, ParallelBitwiseEqualsSerial)
{
    Rng rng(61);
    const auto xs = boundedSample(250.0, 1500, rng);
    const auto serial = bootstrapUpbInterval(xs, {}, 80, 5, 1);
    const auto threaded = bootstrapUpbInterval(xs, {}, 80, 5, 4);
    EXPECT_TRUE(sameBits(serial.lower, threaded.lower));
    EXPECT_TRUE(sameBits(serial.upper, threaded.upper));
    EXPECT_TRUE(sameBits(serial.median, threaded.median));
    EXPECT_EQ(serial.replicates, threaded.replicates);
    EXPECT_EQ(serial.failed, threaded.failed);
}

} // anonymous namespace
