/**
 * @file
 * Incremental Peaks-Over-Threshold estimation over a growing sample.
 *
 * The paper's iterative algorithm (Section 4) repeatedly extends the
 * measurement sample and re-estimates the UPB. Re-running
 * estimateOptimalPerformance() from scratch on every round costs an
 * O(n log n) sort plus a cold GPD fit each time, even though each
 * round only appends a small batch. PotAccumulator maintains the
 * sorted sample across extensions (a batch of k is sorted and merged
 * in from the back, one memmove per block of old values), reuses the
 * previous round's estimate outright when the new batch provably
 * cannot change the selected tail, and can warm-start the MLE search
 * from the previous round's fit.
 *
 * A round's estimate() is the point estimate, which is all the paper's
 * stopping rule reads; its interval fields stay NaN. addInterval()
 * adds the profile-likelihood interval from the exceedances of the
 * last estimate(), which the accumulator keeps (O(cap) memory), so a
 * caller pays for the interval only on the rounds that read it.
 *
 * Identity contract (exercised by tests/stats/test_pot_accumulator):
 *
 *  - With warm starts disabled, estimate() followed by addInterval()
 *    is bit-identical to estimateOptimalPerformance() on the same
 *    cumulative sample: the two run the same threshold selection and
 *    the shared detail::fitPotEstimate() and
 *    detail::addProfileInterval() pipeline on the same sorted data.
 *  - With warm starts enabled (the default), the fitted likelihood
 *    matches the cold fit to ~1e-9; the Nelder-Mead search simply
 *    starts closer to the optimum.
 */

#ifndef STATSCHED_STATS_POT_ACCUMULATOR_HH
#define STATSCHED_STATS_POT_ACCUMULATOR_HH

#include <cstddef>
#include <vector>

#include "stats/pot.hh"

namespace statsched
{
namespace stats
{

/**
 * Incrementally maintained POT estimator state.
 */
class PotAccumulator
{
  public:
    /**
     * @param options       POT configuration (threshold, estimator,
     *                      confidence level).
     * @param warmStartFits Seed each round's MLE search from the
     *                      previous round's fit. Disable to make
     *                      estimate() bit-identical to the from-scratch
     *                      pipeline.
     */
    explicit PotAccumulator(const PotOptions &options = {},
                            bool warmStartFits = true);

    /**
     * Appends a batch of measurements, keeping the internal sample
     * sorted (O(k log k + k log n) comparisons and one move of each
     * value above the batch's smallest, for a batch of k into a sample
     * of n). The order is the one std::inplace_merge of the sorted
     * batch gives: an old value ahead of an equal new one. Each value
     * placed is checked against its two neighbours, so the sample's
     * order is checked once, where values enter, and estimate()'s
     * threshold selection checks only the tail it reads.
     */
    void extend(const std::vector<double> &values);

    /**
     * POT point estimate over everything extended so far: equal to
     * estimateOptimalPerformance(cumulative sample, options) in every
     * field but the interval, which stays NaN (intervalPending()) on
     * an Ok estimate until addInterval() — see the identity contract
     * above.
     */
    PotEstimate estimate();

    /**
     * Adds the profile-likelihood interval to `est`, the estimate the
     * last estimate() call returned (a contract violation otherwise),
     * from the exceedances that call selected. May mark `est`
     * Degraded, as estimateOptimalPerformance() would. No-op when
     * `est` has no interval pending. A later estimate() served by the
     * tail-unchanged shortcut returns the estimate with its interval.
     */
    void addInterval(PotEstimate &est);

    /** @return the cumulative sample in ascending order. */
    const std::vector<double> &sorted() const { return sorted_; }

    /** @return total measurements accumulated. */
    std::size_t size() const { return sorted_.size(); }

    /**
     * @return number of estimate() calls served by the tail-unchanged
     *         shortcut (no re-selection, no re-fit).
     */
    std::size_t shortcutHits() const { return shortcutHits_; }

    /** @return non-finite values rejected by extend(). */
    std::size_t rejectedNonFinite() const { return rejectedNonFinite_; }

  private:
    PotOptions options_;
    bool warmStartFits_;

    std::vector<double> sorted_;

    /** State of the last full estimate, for the shortcut, the warm
     *  start and addInterval(). */
    bool havePrevious_ = false;
    PotEstimate previous_;
    /** Exceedances of previous_ (its interval's input). */
    std::vector<double> exceedances_;
    std::size_t previousCap_ = 0;
    GpdFit lastFit_;
    bool haveLastFit_ = false;

    /** Largest value appended since the last estimate() call. */
    double pendingMax_ = 0.0;
    bool havePending_ = false;

    std::size_t shortcutHits_ = 0;
    /** Non-finite values rejected by extend(). */
    std::size_t rejectedNonFinite_ = 0;
};

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_POT_ACCUMULATOR_HH
