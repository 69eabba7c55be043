/**
 * @file
 * POT threshold selection (Section 3.3.2, Step 2 of the paper).
 *
 * Two policies are provided:
 *
 *  - FixedFraction: take exactly the top `fraction` of the sample as
 *    exceedances (the paper's 5% rule: 50/100/250 exceedances for
 *    samples of 1000/2000/5000).
 *  - LinearityScan: automate the Gilli-Kellezi graphical method — scan
 *    candidate thresholds whose exceedance count stays within the 5%
 *    cap and pick the one whose tail mean-excess plot is most linear
 *    (highest least-squares R^2), subject to a minimum exceedance
 *    count so the fit remains stable.
 */

#ifndef STATSCHED_STATS_THRESHOLD_HH
#define STATSCHED_STATS_THRESHOLD_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace statsched
{
namespace stats
{

/**
 * Threshold selection policy.
 */
enum class ThresholdPolicy
{
    FixedFraction,  //!< top `maxExceedanceFraction` of the sample
    LinearityScan   //!< most linear tail within the 5% cap
};

/**
 * Configuration of the threshold selection.
 */
struct ThresholdOptions
{
    ThresholdPolicy policy = ThresholdPolicy::FixedFraction;
    /** Upper limit on exceedances as a fraction of the sample (the
     *  "no more than 5%" rule of the paper). */
    double maxExceedanceFraction = 0.05;
    /** Minimum number of exceedances a candidate must keep (scan
     *  mode); also the floor for fixed-fraction mode. */
    std::size_t minExceedances = 20;
    /** Number of candidate thresholds evaluated in scan mode. */
    std::size_t scanCandidates = 25;
};

/**
 * A selected threshold and the exceedances above it.
 */
struct ThresholdSelection
{
    double threshold = 0.0;            //!< u
    std::vector<double> exceedances;   //!< y_i = x_i - u, all > 0
    /** Mean-excess R^2 above u: the LinearityScan's criterion, NaN
     *  (not computed) under FixedFraction. A reader that wants it for
     *  a fixed-fraction pick asks MeanExcess::tailLinearity(). */
    double tailLinearity = std::numeric_limits<double>::quiet_NaN();
};

/**
 * Selects the POT threshold for a sample of performance observations.
 *
 * @param sample  Raw observations (any order); must contain at least
 *                2 * minExceedances values.
 * @param options Selection policy and limits.
 */
ThresholdSelection
selectThreshold(const std::vector<double> &sample,
                const ThresholdOptions &options = {});

/**
 * Same selection as selectThreshold(), from the top of a sample that
 * is already in ascending order, skipping the O(n log n) sort. Callers
 * that keep the sample's top sorted incrementally use this;
 * selectThreshold() sorts a copy and passes all of it, so the two are
 * one implementation.
 *
 * Every candidate threshold either policy can pick is an order
 * statistic at or above the sample's order statistic n - cap - 1
 * (cap = exceedanceCap(n)), so the selection reads only the top cap + 1
 * values and the copies of the lowest of them: FixedFraction reads
 * tail[t - cap - 1, t), and LinearityScan builds its mean-excess
 * function from the first copy of tail[t - cap - 1] up. The order
 * precondition is checked over the range read, O(cap); the caller
 * keeps the rest in order (PotAccumulator::extend() checks each value
 * it places).
 *
 * @param tail    The top t of the sample in ascending order, with
 *                cap < t <= n, holding every copy of its smallest
 *                value.
 * @param n       The sample size; at least 2 * minExceedances.
 * @param options Selection policy and limits.
 */
ThresholdSelection
selectThresholdFromSorted(const std::vector<double> &tail, std::size_t n,
                          const ThresholdOptions &options = {});

/**
 * Exceedance-count cap the selection applies for a sample of size n:
 * max(minExceedances, floor(maxExceedanceFraction * n)). Exposed so
 * incremental callers can detect that growing the sample cannot change
 * the selected tail.
 */
std::size_t exceedanceCap(std::size_t sample_size,
                          const ThresholdOptions &options);

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_THRESHOLD_HH
