/**
 * @file
 * GPD parameter estimation tests: recovery on synthetic data for all
 * three estimators (the paper's MLE plus the moment/PWM ablation
 * alternatives), and a bit pin of the MLE search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/gpd.hh"
#include "stats/gpd_fit.hh"
#include "stats/pot_accumulator.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::stats;

std::vector<double>
synthetic(double xi, double sigma, int n, std::uint64_t seed)
{
    Rng rng(seed);
    const Gpd gpd(xi, sigma);
    std::vector<double> ys;
    ys.reserve(n);
    for (int i = 0; i < n; ++i) {
        double y = gpd.sampleFromUniform(rng.uniform());
        if (y <= 0.0)
            y = 1e-12;
        ys.push_back(y);
    }
    return ys;
}

/** Parameter grid for recovery tests: (xi, sigma). */
class GpdRecovery
    : public ::testing::TestWithParam<std::pair<double, double>>
{
};

TEST_P(GpdRecovery, MaximumLikelihoodRecoversParameters)
{
    const auto [xi, sigma] = GetParam();
    const auto ys = synthetic(xi, sigma, 4000, 42);
    const GpdFit fit = fitGpd(ys, GpdEstimator::MaximumLikelihood);
    EXPECT_TRUE(fit.converged);
    EXPECT_NEAR(fit.xi, xi, 0.08) << "sigma-hat=" << fit.sigma;
    EXPECT_NEAR(fit.sigma, sigma, 0.12 * sigma);
}

TEST_P(GpdRecovery, MethodOfMomentsRecoversParameters)
{
    const auto [xi, sigma] = GetParam();
    // Moments need xi < 1/2 for finite variance; grid satisfies it.
    const auto ys = synthetic(xi, sigma, 4000, 43);
    const GpdFit fit = fitGpd(ys, GpdEstimator::MethodOfMoments);
    EXPECT_TRUE(fit.converged);
    EXPECT_NEAR(fit.xi, xi, 0.12);
    EXPECT_NEAR(fit.sigma, sigma, 0.15 * sigma);
}

TEST_P(GpdRecovery, PwmRecoversParameters)
{
    const auto [xi, sigma] = GetParam();
    const auto ys = synthetic(xi, sigma, 4000, 44);
    const GpdFit fit =
        fitGpd(ys, GpdEstimator::ProbabilityWeightedMoments);
    EXPECT_TRUE(fit.converged);
    EXPECT_NEAR(fit.xi, xi, 0.1);
    EXPECT_NEAR(fit.sigma, sigma, 0.12 * sigma);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, GpdRecovery,
    ::testing::Values(std::make_pair(-0.6, 1.0),
                      std::make_pair(-0.4, 2.0),
                      std::make_pair(-0.25, 0.5),
                      std::make_pair(-0.1, 3.0),
                      std::make_pair(0.2, 1.0)));

TEST(GpdFit, NegativeLogLikelihoodInfeasibleRegions)
{
    const std::vector<double> ys = {0.5, 1.0, 2.0};
    EXPECT_TRUE(std::isinf(gpdNegativeLogLikelihood(-0.1, -1.0, ys)));
    EXPECT_TRUE(std::isinf(gpdNegativeLogLikelihood(-0.1, 0.0, ys)));
    // xi=-1, sigma=1 -> support [0,1] excludes y=2.
    EXPECT_TRUE(std::isinf(gpdNegativeLogLikelihood(-1.0, 1.0, ys)));
    // Feasible point is finite.
    EXPECT_TRUE(std::isfinite(
        gpdNegativeLogLikelihood(-0.1, 2.0, ys)));
}

TEST(GpdFit, MleBeatsOrMatchesOthersInLikelihood)
{
    const auto ys = synthetic(-0.3, 1.0, 1500, 77);
    const GpdFit mle = fitGpd(ys, GpdEstimator::MaximumLikelihood);
    const GpdFit mom = fitGpd(ys, GpdEstimator::MethodOfMoments);
    const GpdFit pwm =
        fitGpd(ys, GpdEstimator::ProbabilityWeightedMoments);
    const double ll_mom =
        -gpdNegativeLogLikelihood(mom.xi, mom.sigma, ys);
    const double ll_pwm =
        -gpdNegativeLogLikelihood(pwm.xi, pwm.sigma, ys);
    EXPECT_GE(mle.logLikelihood, ll_mom - 1e-6);
    EXPECT_GE(mle.logLikelihood, ll_pwm - 1e-6);
}

TEST(GpdFit, ExponentialDataGivesNearZeroShape)
{
    Rng rng(5);
    std::vector<double> ys;
    for (int i = 0; i < 5000; ++i)
        ys.push_back(-2.0 * std::log(1.0 - rng.uniform()));
    const GpdFit fit = fitGpd(ys);
    EXPECT_NEAR(fit.xi, 0.0, 0.06);
    EXPECT_NEAR(fit.sigma, 2.0, 0.15);
}

TEST(GpdFit, UniformDataGivesMinusOneShape)
{
    // Uniform(0, b) is GPD with xi = -1, sigma = b.
    Rng rng(6);
    std::vector<double> ys;
    for (int i = 0; i < 5000; ++i)
        ys.push_back(3.0 * rng.uniform() + 1e-9);
    const GpdFit fit = fitGpd(ys);
    EXPECT_NEAR(fit.xi, -1.0, 0.1);
    EXPECT_NEAR(fit.sigma, 3.0, 0.3);
}

TEST(GpdFit, SmallSampleStillConverges)
{
    const auto ys = synthetic(-0.4, 1.0, 30, 9);
    const GpdFit fit = fitGpd(ys);
    EXPECT_TRUE(std::isfinite(fit.xi));
    EXPECT_GT(fit.sigma, 0.0);
}

TEST(GpdFit, BoundedLikelihoodHoldsItsBound)
{
    // The estimate the search decides on must lie within its bound of
    // the exact likelihood, and a bound of 0 must come with the exact
    // bits. Probe points scatter around each fit, where the search
    // spends its evaluations, over counts around the 64- and 128-value
    // blocks and up to 20,000, both signs of xi, the exponential branch
    // and scales far from 1. More probes sit at the feasibility
    // boundary, where the smallest z is 10^-k. Every probe runs on the
    // sample as drawn, in descending order (the largest |log z| first,
    // so the exact loop's partial sums are near their largest from the
    // first block on) and rounded up to sixteenths of the scale (most
    // values tied, in ascending order).
    Rng rng(23);
    std::size_t bounded = 0;
    std::size_t probes = 0;
    for (const std::size_t m :
         {5, 20, 63, 64, 65, 127, 128, 129, 200, 1500, 3000, 20000}) {
        for (const double xi : {-0.9, -0.5, -0.2, -1e-10, 0.2, 0.4}) {
            const double scale = m % 2 == 0 ? 1e-4 : 1e6;
            auto drawn = synthetic(xi, scale, static_cast<int>(m),
                                   1000 + m);
            auto descending = drawn;
            std::sort(descending.begin(), descending.end(),
                      [](double a, double b) { return a > b; });
            auto tied = drawn;
            for (double &y : tied)
                y = scale * std::ceil(y / scale * 16.0) / 16.0;
            std::sort(tied.begin(), tied.end());
            std::vector<double> flat(m, descending.front());

            // Checks one probe on each sample; returns whether it came
            // back bounded on the drawn one.
            const auto holds = [&](double px, double ps) {
                bool drawn_bounded = false;
                for (const auto *ys : {&drawn, &descending, &tied, &flat}) {
                    const double y_max =
                        *std::max_element(ys->begin(), ys->end());
                    const BoundedValue b = gpdNegativeLogLikelihoodBounded(
                        px, ps, *ys, y_max);
                    const double exact =
                        gpdNegativeLogLikelihood(px, ps, *ys);
                    if (b.bound == 0.0) {
                        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.value),
                                  std::bit_cast<std::uint64_t>(exact))
                            << "m=" << m << " xi=" << px
                            << " sigma=" << ps;
                        continue;
                    }
                    EXPECT_LE(std::fabs(b.value - exact), b.bound)
                        << "m=" << m << " xi=" << px << " sigma=" << ps
                        << (ys == &drawn ? ""
                            : ys == &descending ? " descending"
                            : ys == &tied ? " tied" : " flat");
                    drawn_bounded = drawn_bounded || ys == &drawn;
                }
                return drawn_bounded;
            };
            const GpdFit fit = fitGpd(drawn);
            for (int k = 0; k < 63; ++k) {
                // The last three probes sit on the exponential branch.
                const double px = k < 60
                    ? fit.xi + 0.05 * (2.0 * rng.uniform() - 1.0)
                    : (k - 61) * 1e-10;
                const double ps =
                    fit.sigma * (1.0 + 0.05 * (2.0 * rng.uniform() - 1.0));
                ++probes;
                if (holds(px, ps))
                    ++bounded;
            }
            for (const auto *ys : {&drawn, &tied}) {
                const double y_max =
                    *std::max_element(ys->begin(), ys->end());
                for (const double px : {-0.9, -0.5, -0.2}) {
                    for (int k = 4; k <= 15; ++k)
                        holds(px, -px * y_max * (1.0 + std::pow(10.0, -k)));
                }
            }
        }
    }
    EXPECT_GT(2 * bounded, probes);
}

TEST(GpdFit, MostEvaluationsStayBounded)
{
    // The fit sums the exact likelihood only where the bounded
    // estimates cannot decide a comparison. An all-exact search gives
    // the same bits, so only this count shows that it is not one.
    const auto ys = synthetic(-0.3, 1.0, 1500, 91);
    const GpdFit cold = fitGpd(ys);
    ASSERT_TRUE(cold.converged);
    EXPECT_GT(cold.evaluations, 0u);
    EXPECT_LT(4 * cold.exactEvaluations, cold.evaluations);

    GpdFit start = cold;
    start.xi += 0.02;
    const GpdFit warm =
        fitGpd(ys, GpdEstimator::MaximumLikelihood, &start);
    ASSERT_TRUE(warm.converged);
    EXPECT_LT(4 * warm.exactEvaluations, warm.evaluations);

    // The closed-form estimators run no search.
    const GpdFit mom = fitGpd(ys, GpdEstimator::MethodOfMoments);
    EXPECT_EQ(mom.evaluations, 0u);
    EXPECT_EQ(mom.exactEvaluations, 0u);
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
class Digest
{
  public:
    void add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            h_ ^= (word >> (8 * b)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(const GpdFit &fit)
    {
        add(fit.xi);
        add(fit.sigma);
        add(fit.logLikelihood);
        add(std::uint64_t{fit.converged});
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Exceedances for the pin grid: GPD(xi, 1) draws times `scale`, in
 * ascending order (order 0), as drawn (1), or rounded up to eighths of
 * `scale` so that most values are tied (2).
 */
std::vector<double>
pinSample(std::size_t m, double xi, double scale, int order, Rng &rng)
{
    const Gpd gpd(xi, 1.0);
    std::vector<double> ys(m);
    for (double &y : ys)
        y = std::max(gpd.sampleFromUniform(rng.uniform()), 1e-9);
    if (order == 0)
        std::sort(ys.begin(), ys.end());
    for (double &y : ys)
        y = scale * (order == 2 ? std::ceil(y * 8.0) / 8.0 : y);
    return ys;
}

TEST(GpdFit, FitBitsArePinned)
{
    // Every bit of the MLE search's answers: cold fits and fits warm
    // started off the optimum, over exceedance counts around the
    // 64-value blocks and up to 3,000, shapes from a likelihood that
    // is unbounded (xi < -1) through the exponential branch
    // (|xi| < 1e-9) to heavy tails, and scales across 18 decades.
    const std::size_t ms[] = {5, 6, 17, 63, 64, 65, 200, 1000, 1500,
                              3000};
    const double xis[] = {-1.6, -0.9, -0.5, -0.25, -1e-10, 0.0, 1e-10,
                          0.2, 0.4};
    const double scales[] = {1e-6, 1e-2, 1.0, 1e3, 1e7, 1e12};
    Rng rng(20);
    Digest grid;
    std::size_t k = 0;
    for (const std::size_t m : ms) {
        for (const double xi : xis) {
            // Near and below xi = -1 the likelihood is unbounded, and
            // most searches run to the 4,000-iteration cap: keep those
            // to m <= 1,000 for time.
            if (xi <= -0.9 && m > 1000)
                continue;
            for (int order = 0; order < 3; ++order) {
                const auto ys =
                    pinSample(m, xi, scales[k++ % 6], order, rng);
                const GpdFit cold = fitGpd(ys);
                GpdFit start = cold;
                start.xi += 0.05;
                start.sigma *= 1.1;
                start.converged = true;
                grid.add(cold);
                grid.add(fitGpd(ys, GpdEstimator::MaximumLikelihood,
                                &start));
            }
        }
    }
    EXPECT_EQ(grid.value(), 0x423ee1275c1130b0ull);

    // A campaign-like stream: 1,000 bounded performance values, then
    // rounds of 100, estimated every round with warm and cold fits.
    PotAccumulator warm;
    PotAccumulator cold(PotOptions{}, false);
    Digest rounds;
    for (int r = 0; r < 400; ++r) {
        std::vector<double> batch(r == 0 ? 1000 : 100);
        for (double &x : batch) {
            const double u = rng.uniform();
            const double v = rng.uniform();
            x = 1.9e6 * (1.0 - 0.2 * std::sqrt(u) * (0.5 + 0.5 * v));
        }
        warm.extend(batch);
        cold.extend(batch);
        for (PotAccumulator *acc : {&warm, &cold}) {
            const PotEstimate est = acc->estimate();
            rounds.add(est.fit);
            rounds.add(est.threshold);
            rounds.add(est.upb);
            rounds.add(std::uint64_t{est.exceedanceCount});
        }
    }
    EXPECT_EQ(rounds.value(), 0xf0c2674e333465f8ull);
}

} // anonymous namespace
