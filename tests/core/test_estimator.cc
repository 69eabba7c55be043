/**
 * @file
 * Estimator and iterative-algorithm tests against a synthetic engine
 * with a known optimum.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/estimator.hh"
#include "core/iterative.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::core;

const Topology t2 = Topology::ultraSparcT2();

/**
 * Synthetic engine with a known optimum `peak`: a smooth
 * pseudo-uniform component (flat density up to the endpoint, i.e. a
 * GPD tail with shape about -1) scaled down by pipe crowding, plus
 * small measurement noise. The population maximum is peak (uniform
 * component at its top, no crowding), which is reachable by a
 * non-negligible fraction of random assignments — the bounded,
 * estimable tail shape the paper's method assumes.
 */
class SyntheticEngine : public PerformanceEngine
{
  public:
    explicit SyntheticEngine(double peak, std::uint64_t seed)
        : peak_(peak), rng_(seed)
    {
    }

    double
    measure(const Assignment &assignment) override
    {
        const Topology &topo = assignment.topology();
        std::vector<int> pipe_load(topo.pipes(), 0);
        for (TaskId t = 0; t < assignment.size(); ++t)
            ++pipe_load[assignment.pipeOf(t)];
        double crowd = 0.0;
        for (int load : pipe_load) {
            if (load > 1)
                crowd += 0.03 * (load - 1);
        }

        // Deterministic pseudo-uniform in [0, 1) from the context
        // multiset (order independent).
        std::uint64_t h = 0x9e3779b97f4a7c15ull;
        for (TaskId t = 0; t < assignment.size(); ++t) {
            std::uint64_t x = assignment.contextOf(t) + 0x2545f491ull;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 29;
            h += x * x;
        }
        h *= 0x94d049bb133111ebull;
        h ^= h >> 32;
        const double u =
            static_cast<double>(h >> 11) * 0x1.0p-53;

        const double value =
            peak_ * (1.0 - 0.2 * (1.0 - u)) * (1.0 - crowd);
        return value * (1.0 + 0.001 * rng_.normal());
    }

    std::string name() const override { return "synthetic"; }

    double secondsPerMeasurement() const override { return 1.5; }

  private:
    double peak_;
    statsched::stats::Rng rng_;
};

TEST(Estimator, InvariantsOnSyntheticEngine)
{
    SyntheticEngine engine(1e6, 3);
    OptimalPerformanceEstimator estimator(engine, t2, 12, 7);
    const auto result = estimator.extend(2000);

    EXPECT_EQ(result.sample.size(), 2000u);
    ASSERT_TRUE(result.bestAssignment.has_value());
    EXPECT_DOUBLE_EQ(result.bestObserved,
                     *std::max_element(result.sample.begin(),
                                       result.sample.end()));
    ASSERT_TRUE(result.pot.valid);
    EXPECT_LE(result.bestObserved, result.pot.upb * 1.001);
    // Known optimum ~1e6: the estimate must be in the right band.
    EXPECT_NEAR(result.pot.upb, 1e6, 0.05e6);
    EXPECT_GE(result.estimatedLoss(), 0.0);
    EXPECT_NEAR(result.modeledSeconds, 2000 * 1.5, 1e-9);
}

TEST(Estimator, ExtendGrowsSample)
{
    SyntheticEngine engine(1e6, 4);
    OptimalPerformanceEstimator estimator(engine, t2, 12, 8);
    estimator.extend(500);
    EXPECT_EQ(estimator.sampleSize(), 500u);
    const auto result = estimator.extend(250);
    EXPECT_EQ(estimator.sampleSize(), 750u);
    EXPECT_EQ(result.sample.size(), 750u);
}

TEST(Estimator, ColdIncrementalMatchesClassicPipeline)
{
    // The estimator now runs on the incremental PotAccumulator; with
    // warm starts off its POT result must be bit-for-bit what the
    // from-scratch pipeline computes on the same cumulative sample.
    SyntheticEngine engine(1e6, 14);
    OptimalPerformanceEstimator estimator(engine, t2, 12, 21, {},
                                          false);
    for (int round = 0; round < 4; ++round) {
        const auto result = estimator.extend(round == 0 ? 1000 : 200);
        const auto scratch =
            statsched::stats::estimateOptimalPerformance(result.sample);
        EXPECT_EQ(result.pot.valid, scratch.valid);
        EXPECT_DOUBLE_EQ(result.pot.threshold, scratch.threshold);
        EXPECT_DOUBLE_EQ(result.pot.upb, scratch.upb);
        EXPECT_DOUBLE_EQ(result.pot.upbLower, scratch.upbLower);
        EXPECT_DOUBLE_EQ(result.pot.upbUpper, scratch.upbUpper);
        EXPECT_DOUBLE_EQ(result.pot.fit.xi, scratch.fit.xi);
        EXPECT_DOUBLE_EQ(result.pot.fit.sigma, scratch.fit.sigma);
    }
}

TEST(Estimator, BestObservedNeverDecreases)
{
    SyntheticEngine engine(1e6, 5);
    OptimalPerformanceEstimator estimator(engine, t2, 12, 9);
    double best = 0.0;
    for (int round = 0; round < 5; ++round) {
        const auto result = estimator.extend(200);
        EXPECT_GE(result.bestObserved, best);
        best = result.bestObserved;
    }
}

TEST(Iterative, ConvergesToLooseTarget)
{
    SyntheticEngine engine(1e6, 6);
    IterativeOptions options;
    options.initialSample = 200;
    options.incrementSample = 100;
    options.acceptableLoss = 0.10;
    options.maxSample = 5000;
    const auto result =
        iterativeAssignmentSearch(engine, t2, 12, 10, options);
    EXPECT_TRUE(result.satisfied);
    EXPECT_LE(result.totalSampled, 5000u);
    ASSERT_FALSE(result.steps.empty());
    EXPECT_LE(result.steps.back().loss, 0.10);
}

TEST(Iterative, StepsGrowByIncrement)
{
    SyntheticEngine engine(1e6, 7);
    IterativeOptions options;
    options.initialSample = 150;
    options.incrementSample = 50;
    options.acceptableLoss = 0.001;   // hard target forces loops
    options.maxSample = 600;
    const auto result =
        iterativeAssignmentSearch(engine, t2, 12, 11, options);
    ASSERT_GE(result.steps.size(), 2u);
    EXPECT_EQ(result.steps[0].sampleSize, 150u);
    for (std::size_t i = 1; i < result.steps.size(); ++i) {
        EXPECT_EQ(result.steps[i].sampleSize,
                  result.steps[i - 1].sampleSize + 50u);
    }
}

TEST(Iterative, RespectsSampleCap)
{
    SyntheticEngine engine(1e6, 8);
    IterativeOptions options;
    options.initialSample = 100;
    options.incrementSample = 100;
    options.acceptableLoss = 1e-9;    // unreachable
    options.maxSample = 700;
    const auto result =
        iterativeAssignmentSearch(engine, t2, 12, 12, options);
    EXPECT_FALSE(result.satisfied);
    EXPECT_GE(result.totalSampled, 700u);
    EXPECT_LE(result.totalSampled, 800u);
}

TEST(Iterative, TighterTargetNeedsMoreSamples)
{
    IterativeOptions loose;
    loose.initialSample = 200;
    loose.incrementSample = 100;
    loose.acceptableLoss = 0.20;
    loose.maxSample = 20000;

    IterativeOptions tight = loose;
    tight.acceptableLoss = 0.02;

    SyntheticEngine engine_a(1e6, 9);
    SyntheticEngine engine_b(1e6, 9);
    const auto r_loose =
        iterativeAssignmentSearch(engine_a, t2, 12, 13, loose);
    const auto r_tight =
        iterativeAssignmentSearch(engine_b, t2, 12, 13, tight);
    EXPECT_LE(r_loose.totalSampled, r_tight.totalSampled);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

/**
 * With cold fits the loop's estimates are the from-scratch pipeline's:
 * the final estimate, interval included, equals
 * estimateOptimalPerformance() on the sample the loop stopped at, and
 * every step's stopping target equals the one that pipeline gives on
 * the step's sample prefix. Checked for a loop that runs to its cap,
 * one that meets its target, one that stops against the upper end of
 * the interval, and one that stopCheck aborts.
 */
TEST(Iterative, ColdEstimatesMatchFromScratchPipeline)
{
    IterativeOptions base;
    base.initialSample = 200;
    base.incrementSample = 100;
    base.warmStartFits = false;

    IterativeOptions to_cap = base;
    to_cap.acceptableLoss = 1e-9;
    to_cap.maxSample = 700;

    IterativeOptions met = base;
    met.acceptableLoss = 0.02;
    met.maxSample = 5000;

    IterativeOptions confident = base;
    confident.acceptableLoss = 0.10;
    confident.maxSample = 1500;
    confident.useUpperConfidenceBound = true;

    IterativeOptions aborted = base;
    aborted.acceptableLoss = 1e-9;
    aborted.maxSample = 5000;
    aborted.stopCheck = [](std::size_t round) {
        IterativeStop stop;
        if (round == 3)
            stop.kind = AbortKind::RoundLimit;
        return stop;
    };

    struct Mode
    {
        const char *name;
        IterativeOptions options;
        bool satisfied;
        AbortKind abort;
    };
    const Mode modes[] = {
        {"sample cap", to_cap, false, AbortKind::None},
        {"met target", met, true, AbortKind::None},
        {"upper confidence bound", confident, false, AbortKind::None},
        {"stopCheck abort", aborted, false, AbortKind::RoundLimit},
    };
    for (const auto &[name, options, satisfied, abort] : modes) {
        SCOPED_TRACE(name);
        SyntheticEngine engine(1e6, 31);
        const IterativeResult run =
            iterativeAssignmentSearch(engine, t2, 12, 17, options);
        EXPECT_EQ(run.satisfied, satisfied);
        EXPECT_EQ(run.abortKind, abort);
        ASSERT_GE(run.steps.size(), 3u);
        const std::vector<double> &sample = run.final.sample;
        auto prefix = [&sample](std::size_t n) {
            return statsched::stats::estimateOptimalPerformance(
                std::vector<double>(
                    sample.begin(),
                    sample.begin() + static_cast<std::ptrdiff_t>(n)));
        };

        const auto want = prefix(run.steps.back().sampleSize);
        const auto &got = run.final.pot;
        EXPECT_TRUE(sameBits(got.threshold, want.threshold));
        EXPECT_EQ(got.fit.converged, want.fit.converged);
        EXPECT_TRUE(sameBits(got.fit.xi, want.fit.xi));
        EXPECT_TRUE(sameBits(got.fit.sigma, want.fit.sigma));
        EXPECT_TRUE(sameBits(got.fit.logLikelihood,
                             want.fit.logLikelihood));
        EXPECT_TRUE(sameBits(got.upb, want.upb));
        EXPECT_TRUE(sameBits(got.upbLower, want.upbLower));
        EXPECT_TRUE(sameBits(got.upbUpper, want.upbUpper));
        EXPECT_TRUE(sameBits(got.profileMaxLogLik,
                             want.profileMaxLogLik));
        EXPECT_EQ(got.status, want.status);

        for (std::size_t i = 0; i < run.steps.size(); ++i) {
            const auto scratch = prefix(run.steps[i].sampleSize);
            double target = options.useUpperConfidenceBound
                ? scratch.upbUpper : scratch.upb;
            if (!scratch.valid || !std::isfinite(target))
                target = std::numeric_limits<double>::infinity();
            EXPECT_TRUE(sameBits(run.steps[i].lossTarget, target))
                << "step " << i;
        }
    }
}

} // anonymous namespace
