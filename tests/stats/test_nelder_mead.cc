/**
 * @file
 * Nelder-Mead optimizer tests.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "stats/nelder_mead.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::stats;

TEST(NelderMead, QuadraticBowl1D)
{
    auto f = [](const std::vector<double> &x) {
        return (x[0] - 3.0) * (x[0] - 3.0) + 1.0;
    };
    const auto result = nelderMeadMinimize(f, {0.0});
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.point[0], 3.0, 1e-6);
    EXPECT_NEAR(result.value, 1.0, 1e-9);
}

TEST(NelderMead, QuadraticBowl4D)
{
    auto f = [](const std::vector<double> &x) {
        double s = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double d = x[i] - static_cast<double>(i);
            s += (i + 1) * d * d;
        }
        return s;
    };
    const auto result = nelderMeadMinimize(f, {5.0, 5.0, 5.0, 5.0});
    EXPECT_TRUE(result.converged);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(result.point[i], static_cast<double>(i), 1e-4);
}

TEST(NelderMead, Rosenbrock)
{
    auto f = [](const std::vector<double> &x) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    NelderMeadOptions options;
    options.maxIterations = 10000;
    const auto result = nelderMeadMinimize(f, {-1.2, 1.0}, options);
    EXPECT_NEAR(result.point[0], 1.0, 1e-4);
    EXPECT_NEAR(result.point[1], 1.0, 1e-4);
}

TEST(NelderMead, HandlesInfiniteRegions)
{
    // Constrained bowl: +inf outside x > 0.5; minimum at the
    // boundary-interior point 1.0.
    auto f = [](const std::vector<double> &x) {
        if (x[0] <= 0.5)
            return std::numeric_limits<double>::infinity();
        return (x[0] - 1.0) * (x[0] - 1.0);
    };
    const auto result = nelderMeadMinimize(f, {2.0});
    EXPECT_NEAR(result.point[0], 1.0, 1e-6);
}

TEST(NelderMead, StartingAtZeroUsesAbsolutePerturbation)
{
    auto f = [](const std::vector<double> &x) {
        return x[0] * x[0] + (x[1] - 0.001) * (x[1] - 0.001);
    };
    const auto result = nelderMeadMinimize(f, {0.0, 0.0});
    EXPECT_NEAR(result.point[0], 0.0, 1e-6);
    EXPECT_NEAR(result.point[1], 0.001, 1e-6);
}

TEST(NelderMead, RespectsIterationBudget)
{
    auto f = [](const std::vector<double> &x) {
        return std::sin(x[0]) + 0.01 * x[0] * x[0];
    };
    NelderMeadOptions options;
    options.maxIterations = 3;
    const auto result = nelderMeadMinimize(f, {10.0}, options);
    EXPECT_FALSE(result.converged);
    EXPECT_LE(result.iterations, 3u);
}

TEST(NelderMead, MatlabStyleAbsoluteValue)
{
    // Non-smooth objective still converges to the kink.
    auto f = [](const std::vector<double> &x) {
        return std::fabs(x[0] - 2.5) + std::fabs(x[1] + 1.5);
    };
    const auto result = nelderMeadMinimize(f, {0.0, 0.0});
    EXPECT_NEAR(result.point[0], 2.5, 1e-5);
    EXPECT_NEAR(result.point[1], -1.5, 1e-5);
}

using Objective = std::function<double(const std::vector<double> &)>;

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

/**
 * `exact` behind an estimate off by seeded noise of up to 0.999 of the
 * bound `bound_of(exact)`, so each rounded estimate stays within it.
 */
BoundedObjective
noisy(const Objective &exact, std::function<double(double)> bound_of,
      Rng &rng)
{
    return {[exact, bound_of, &rng](const std::vector<double> &x) {
                const double f = exact(x);
                const double bound = std::isfinite(f) ? bound_of(f) : 1.0;
                const double noise =
                    0.999 * bound * (2.0 * rng.uniform() - 1.0);
                return BoundedValue{f + noise, bound};
            },
            exact};
}

TEST(NelderMead, BoundedObjectiveDecidesLikeExact)
{
    struct Case
    {
        const char *name;
        Objective f;
        std::vector<double> start;
    };
    const Case cases[] = {
        {"rosenbrock",
         [](const std::vector<double> &x) {
             const double a = 1.0 - x[0];
             const double b = x[1] - x[0] * x[0];
             return a * a + 100.0 * b * b;
         },
         {-1.2, 1.0}},
        {"bowl4d",
         [](const std::vector<double> &x) {
             double s = 0.0;
             for (std::size_t i = 0; i < x.size(); ++i) {
                 const double d = x[i] - static_cast<double>(i);
                 s += static_cast<double>(i + 1) * d * d;
             }
             return s;
         },
         {5.0, 5.0, 5.0, 5.0}},
        {"infinite-regions",
         [](const std::vector<double> &x) {
             if (x[0] <= 0.5 || x[1] > 3.0)
                 return std::numeric_limits<double>::infinity();
             return (x[0] - 1.0) * (x[0] - 1.0) +
                 (x[1] - 2.9) * (x[1] - 2.9);
         },
         {2.0, 2.0}},
    };
    // Bounds of 0, a small relative one, and one far beyond every
    // value spread the searches meet.
    const std::function<double(double)> bounds[] = {
        [](double) { return 0.0; },
        [](double f) { return 1e-6 * std::fabs(f) + 1e-12; },
        [](double) { return 1e6; },
    };
    NelderMeadOptions options;
    options.maxIterations = 3000;
    // A search cut off after a few iterations returns its best vertex
    // unconverged, before any tolF test has refined it.
    NelderMeadOptions cut = options;
    cut.maxIterations = 6;
    Rng rng(17);
    for (const Case &c : cases) {
        const auto plain = nelderMeadMinimize(c.f, c.start, options);
        EXPECT_EQ(plain.exactEvaluations, plain.evaluations) << c.name;
        const auto plain_cut = nelderMeadMinimize(c.f, c.start, cut);
        EXPECT_FALSE(plain_cut.converged) << c.name;
        for (std::size_t b = 0; b < 3; ++b) {
            const auto bounded_cut = nelderMeadMinimize(
                noisy(c.f, bounds[b], rng), c.start, cut);
            EXPECT_TRUE(sameBits(bounded_cut.value, plain_cut.value))
                << c.name << " bound " << b << " (cut off)";
            EXPECT_EQ(bounded_cut.iterations, plain_cut.iterations)
                << c.name << " bound " << b << " (cut off)";
        }
        for (std::size_t b = 0; b < 3; ++b) {
            const auto bounded =
                nelderMeadMinimize(noisy(c.f, bounds[b], rng), c.start,
                                   options);
            ASSERT_EQ(bounded.point.size(), plain.point.size());
            for (std::size_t i = 0; i < plain.point.size(); ++i) {
                EXPECT_TRUE(sameBits(bounded.point[i], plain.point[i]))
                    << c.name << " bound " << b << " coordinate " << i;
            }
            EXPECT_TRUE(sameBits(bounded.value, plain.value))
                << c.name << " bound " << b;
            EXPECT_EQ(bounded.iterations, plain.iterations)
                << c.name << " bound " << b;
            EXPECT_EQ(bounded.converged, plain.converged)
                << c.name << " bound " << b;
            EXPECT_EQ(bounded.evaluations, plain.evaluations)
                << c.name << " bound " << b;
            EXPECT_LE(bounded.exactEvaluations, bounded.evaluations);
            if (b == 0) {
                EXPECT_EQ(bounded.exactEvaluations, plain.evaluations);
            }
            // A small bound settles most comparisons on the estimates.
            if (b == 1) {
                EXPECT_LT(bounded.exactEvaluations, plain.evaluations / 2)
                    << c.name;
            }
        }
    }
}

} // anonymous namespace
