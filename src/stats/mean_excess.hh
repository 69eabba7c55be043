/**
 * @file
 * Sample mean-excess function (Section 3.3.2, Step 2 of the paper).
 *
 * For a sorted sample x_1 <= ... <= x_n and a candidate threshold u, the
 * sample mean excess is
 *
 *     e_n(u) = sum_{i>=k} (x_i - u) / (n - k + 1),
 *     k = min{ i | x_i > u },
 *
 * i.e. the average overshoot of the observations above u. A Generalized
 * Pareto upper tail with shape xi < 0 has a *linear decreasing* mean
 * excess function, so the threshold is chosen where the plot turns
 * roughly linear (Gilli & Kellezi's graphical method), and linearity of
 * the tail doubles as a GPD goodness-of-fit check.
 */

#ifndef STATSCHED_STATS_MEAN_EXCESS_HH
#define STATSCHED_STATS_MEAN_EXCESS_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace statsched
{
namespace stats
{

/**
 * Sample mean-excess function over a sorted sample.
 */
class MeanExcess
{
  public:
    /**
     * @param sample Observations; copied and sorted internally.
     */
    explicit MeanExcess(std::vector<double> sample);

    /**
     * Builds the mean-excess function from an already ascending-sorted
     * sample, skipping the O(n log n) sort. The LinearityScan threshold
     * policy builds it over the upper tail of a sorted sample only (see
     * selectThresholdFromSorted()); suffix sums accumulate from the
     * top, so e_n(u) and tailLinearity(u) at or above the tail's first
     * value are the doubles the whole sample would give. A
     * fixed-fraction selection builds none; its readers ask
     * tailLinearity(u) of the whole sample's function, which gives the
     * same double.
     *
     * @param sorted Observations in ascending order.
     */
    static MeanExcess fromSorted(std::vector<double> sorted);

    /** @return the sorted underlying sample. */
    const std::vector<double> &sorted() const { return sorted_; }

    /**
     * Evaluates e_n(u). Returns 0 when no observation exceeds u.
     */
    double evaluate(double u) const;

    /**
     * The mean-excess plot: points (x_i, e_n(x_i)) for every distinct
     * sample value except the maximum (above which no exceedances
     * exist).
     */
    std::vector<std::pair<double, double>> plot() const;

    /**
     * Plot restricted to thresholds at or above the q-th sample
     * quantile — the upper-tail region inspected for linearity.
     *
     * @param q Quantile level in [0, 1).
     */
    std::vector<std::pair<double, double>> upperPlot(double q) const;

    /**
     * R-squared of a straight line fitted through the mean-excess plot
     * restricted to thresholds in [u, max). Values near 1 indicate the
     * tail above u is GPD-like.
     *
     * @param u Threshold; at least two plot points must lie above it.
     * @return R-squared in [0, 1], or 0 when fewer than two points
     *         remain.
     */
    double tailLinearity(double u) const;

  private:
    MeanExcess() = default;

    /** Fills suffixSum_ from sorted_. */
    void buildSuffixSums();

    std::vector<double> sorted_;
    /** Suffix sums of the sorted sample, for O(log n) evaluation. */
    std::vector<double> suffixSum_;
};

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_MEAN_EXCESS_HH
