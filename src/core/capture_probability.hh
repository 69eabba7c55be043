/**
 * @file
 * Probability that a random sample captures a top assignment
 * (Section 3.1, Figure 2 of the paper).
 *
 * With sampling-with-replacement from a large population, the
 * probability that a sample of n assignments contains at least one of
 * the best-performing P% is
 *
 *     P(A) = 1 - ((100 - P) / 100)^n,
 *
 * independent of the population size. These helpers compute the
 * probability, its inverse (the sample size needed for a target
 * probability), and the Figure 2 curves.
 */

#ifndef STATSCHED_CORE_CAPTURE_PROBABILITY_HH
#define STATSCHED_CORE_CAPTURE_PROBABILITY_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace statsched
{
namespace core
{

/**
 * P(A): probability that n iid draws include at least one of the top
 * `percent`% of the population.
 *
 * @param percent Top fraction in percent, 0 < percent < 100.
 * @param n       Sample size, n >= 0.
 */
double captureProbability(double percent, std::uint64_t n);

/**
 * Smallest sample size n with captureProbability(percent, n) >=
 * target, or nothing when n does not fit in 64 bits (at target 0.99,
 * for a `percent` below about 2.5e-17).
 *
 * @param percent Top fraction in percent, 0 < percent < 100.
 * @param target  Target probability in (0, 1).
 */
std::optional<std::uint64_t> requiredSampleSizeIfFits(double percent,
                                                      double target);

/** requiredSampleSizeIfFits(percent, target), which must exist. */
std::uint64_t requiredSampleSize(double percent, double target);

/**
 * The Figure 2 curve for one P value: points (n, P(A)).
 *
 * @param percent Top fraction in percent.
 * @param max_n   Largest sample size on the curve.
 * @param points  Number of (log-spaced) points, >= 2.
 */
std::vector<std::pair<std::uint64_t, double>>
captureCurve(double percent, std::uint64_t max_n, std::size_t points);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_CAPTURE_PROBABILITY_HH
