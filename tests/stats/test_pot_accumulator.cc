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
 * Counts the tail's refills and moves to the body across extend()
 * calls. A batch's values at or above the tail's smallest enter the
 * tail (all of them while the body is empty), so the tail grows by
 * exactly that many unless it was refilled (more) or handed runs to
 * the body (fewer).
 */
struct TailWatch
{
    std::size_t refills = 0;
    std::size_t raises = 0;

    void extend(PotAccumulator &acc, const std::vector<double> &batch)
    {
        const std::size_t before = acc.tail().size();
        std::size_t entering = batch.size();
        if (acc.size() > before) {
            const double floor = acc.tail().front();
            entering = static_cast<std::size_t>(
                std::count_if(batch.begin(), batch.end(),
                              [floor](double v) { return v >= floor; }));
        }
        acc.extend(batch);
        const std::size_t after = acc.tail().size();
        refills += after > before + entering;
        raises += after < before + entering;
    }
};

/** What checkColdIdentity() saw besides the identity. */
struct ColdRun
{
    /** Rounds in which copies of sorted[n - cap - 1], the lowest
     *  threshold either policy can pick, sit on both sides of it. */
    std::size_t straddled = 0;
    TailWatch tail;
};

/**
 * Runs one extend/estimate cycle per batch and checks the cold
 * accumulator against the from-scratch pipeline after every one, and
 * its tail against the top of the sorted sample: at least cap + 1
 * values, whole runs of equal values.
 */
ColdRun
checkColdIdentity(const PotOptions &options,
                  const std::vector<std::vector<double>> &batches)
{
    PotAccumulator acc(options, false);
    std::vector<double> cumulative;
    ColdRun run;
    for (std::size_t r = 0; r < batches.size(); ++r) {
        const auto &batch = batches[r];
        cumulative.insert(cumulative.end(), batch.begin(), batch.end());
        run.tail.extend(acc, batch);
        auto inc = acc.estimate();
        acc.addInterval(inc);
        const auto scratch =
            estimateOptimalPerformance(cumulative, options);
        expectBitIdentical(inc, scratch, r);

        auto sorted = cumulative;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        const auto &tail = acc.tail();
        const std::size_t t = tail.size();
        EXPECT_GE(t, std::min(n, exceedanceCap(n, options.threshold) + 1))
            << "round " << r;
        EXPECT_TRUE(t == n || sorted[n - t - 1] < sorted[n - t])
            << "round " << r;
        EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                               sorted.end() -
                                   static_cast<std::ptrdiff_t>(t)))
            << "round " << r;
        if (n >= 2 * options.threshold.minExceedances) {
            const std::size_t cut =
                n - exceedanceCap(n, options.threshold) - 1;
            if (cut > 0 && sorted[cut - 1] == sorted[cut] &&
                sorted[cut + 1] == sorted[cut])
                ++run.straddled;
        }
    }
    return run;
}

/**
 * `initial` values, then rounds - 1 batches of `extension`, from
 * boundedSample(). A positive `grid` rounds every value to a multiple
 * of it, so values tie.
 */
ColdRun
checkColdIdentity(const PotOptions &options, std::size_t initial,
                  std::size_t extension, std::size_t rounds,
                  std::uint64_t seed, double grid = 0.0)
{
    Rng rng(seed);
    std::vector<std::vector<double>> batches;
    for (std::size_t r = 0; r < rounds; ++r) {
        auto batch =
            boundedSample(250.0, r == 0 ? initial : extension, rng);
        if (grid > 0.0) {
            for (double &x : batch)
                x = grid * std::round(x / grid);
        }
        batches.push_back(std::move(batch));
    }
    return checkColdIdentity(options, batches);
}

/**
 * A stream that makes the tail refill and hand runs to the body:
 * 1,000 values, six batches of 1,000 each wholly below the sample (the
 * cap grows while the tail gains nothing), then four wholly above it
 * (the tail outgrows four times the cap). Values sit on a grid of 1/8,
 * so most of them tie.
 */
std::vector<std::vector<double>>
refillStream(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> batches;
    const auto add = [&](double lo) {
        std::vector<double> batch;
        for (int i = 0; i < 1000; ++i)
            batch.push_back(lo + std::floor(400.0 * rng.uniform()) / 8.0);
        batches.push_back(std::move(batch));
    };
    add(200.0);
    for (int r = 1; r <= 6; ++r)
        add(200.0 - 60.0 * r);
    for (int r = 1; r <= 4; ++r)
        add(200.0 + 60.0 * r);
    return batches;
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
        checkColdIdentity({}, 1000, 100, 31, 14, 1.0 / 16.0).straddled;
    EXPECT_GE(straddled, 20u);
}

TEST(PotAccumulator, ColdBitIdenticalWithTiesAtTheCutLinearityScan)
{
    PotOptions options;
    options.threshold.policy = ThresholdPolicy::LinearityScan;
    // As above; 25 of 31 rounds straddle at this seed.
    const std::size_t straddled =
        checkColdIdentity(options, 1000, 100, 31, 15, 1.0 / 16.0)
            .straddled;
    EXPECT_GE(straddled, 20u);
}

TEST(PotAccumulator, ColdBitIdenticalThroughRefillsFixedFraction)
{
    const ColdRun run = checkColdIdentity({}, refillStream(16));
    EXPECT_GE(run.tail.refills, 2u);
    EXPECT_GE(run.tail.raises, 2u);
}

TEST(PotAccumulator, ColdBitIdenticalThroughRefillsLinearityScan)
{
    PotOptions options;
    options.threshold.policy = ThresholdPolicy::LinearityScan;
    const ColdRun run = checkColdIdentity(options, refillStream(17));
    EXPECT_GE(run.tail.refills, 2u);
    EXPECT_GE(run.tail.raises, 2u);
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

TEST(PotAccumulator, CampaignStreamRefinesFewerPoints)
{
    // A campaign-shaped stream: 1,000 values, then rounds of 100 to
    // 10,000, estimated every round with warm fits as a campaign runs
    // them. The search takes the steps it took before the partial-sum
    // bound (METHOD.md section 4), so its likelihood evaluations total
    // exactly what they did then: 6,401. Fewer of them are summed
    // exactly, 218 where the earlier bound took 288; a rise would mean
    // a looser bound. The regular tail keeps the fits in the campaigns'
    // regime: on boundedSample() xi-hat falls below -1, where the
    // likelihood is unbounded and nearly every point is refined.
    Rng rng(19);
    PotAccumulator acc;
    std::size_t evaluations = 0;
    std::size_t exact = 0;
    for (int r = 0; r < 91; ++r) {
        acc.extend(regularTailSample(250.0, r == 0 ? 1000 : 100, rng));
        const PotEstimate est = acc.estimate();
        evaluations += est.fit.evaluations;
        exact += est.fit.exactEvaluations;
    }
    EXPECT_EQ(evaluations, 6401u);
    EXPECT_LE(exact, 218u);
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
    EXPECT_EQ(dirty.tail(), clean.tail());

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
    // After every extend the tail must equal, bit for bit and in
    // order, the top of appending the batch, sorting it and
    // std::inplace_merge: with ties, signed zeros, batches wholly below
    // and wholly above the sample, and, from an empty accumulator, a
    // stream that refills the tail and moves runs of it to the body.
    // The tail holds at least cap + 1 values and whole runs of equal
    // ones.
    Rng rng(81);
    PotAccumulator acc;
    TailWatch watch;
    std::vector<double> oracle;
    auto extend = [&](const std::vector<double> &batch) {
        const auto old_n =
            static_cast<std::vector<double>::difference_type>(
                oracle.size());
        oracle.insert(oracle.end(), batch.begin(), batch.end());
        std::sort(oracle.begin() + old_n, oracle.end());
        std::inplace_merge(oracle.begin(), oracle.begin() + old_n,
                           oracle.end());
        watch.extend(acc, batch);
        const auto &tail = acc.tail();
        const std::size_t n = oracle.size();
        const std::size_t t = tail.size();
        ASSERT_EQ(acc.size(), n);
        ASSERT_GE(t, std::min(n, exceedanceCap(n, {}) + 1));
        ASSERT_LE(t, n);
        ASSERT_TRUE(t == n || oracle[n - t - 1] < oracle[n - t]);
        for (std::size_t i = 0; i < t; ++i) {
            ASSERT_TRUE(sameBits(tail[i], oracle[n - t + i]))
                << "index " << n - t + i << " of " << n;
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
    acc = PotAccumulator();
    oracle.clear();
    for (const auto &batch : refillStream(18))
        extend(batch);
    EXPECT_GE(watch.refills, 2u);
    EXPECT_GE(watch.raises, 2u);

    // Signed zeros through the body: the first batch's lower runs,
    // zeros among them, leave the tail; batches wholly below the
    // sample then refill it from the body, and the last refills bring
    // the zeros back into it in the order the merges gave them.
    acc = PotAccumulator();
    oracle.clear();
    watch = {};
    extend(tied(1000));
    for (int r = 0; r < 16; ++r) {
        std::vector<double> below;
        for (int i = 0; i < 500; ++i)
            below.push_back(-10.0 - rng.uniform());
        extend(below);
    }
    EXPECT_GE(watch.refills, 2u);
    EXPECT_TRUE(std::any_of(acc.tail().begin(), acc.tail().end(),
                            [](double v) {
                                return v == 0.0 && std::signbit(v);
                            }));
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
