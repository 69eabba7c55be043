/**
 * @file
 * Incremental Peaks-Over-Threshold estimation over a growing sample.
 *
 * The paper's iterative algorithm (Section 4) repeatedly extends the
 * measurement sample and re-estimates the UPB. Re-running
 * estimateOptimalPerformance() from scratch on every round costs an
 * O(n log n) sort plus a cold GPD fit each time, even though each
 * round only appends a small batch, and the threshold selection reads
 * only the top cap + 1 order statistics (cap = exceedanceCap(n)).
 * PotAccumulator keeps sorted only a tail: every value at or above a
 * floor, at least cap + 1 of them, so it holds every copy of the
 * lowest threshold either policy can pick. The rest of the sample
 * waits below the floor in an unsorted body, in arrival order. A batch
 * of k is sorted; its values below the floor join the body, and the
 * others merge into the tail from the back. When the cap outgrows the
 * tail, the whole body sorts back into it; when the tail grows past
 * four times cap + 1, its lowest runs of equal values move to the
 * body. PotAccumulator also reuses the previous round's estimate
 * outright when the new batch provably cannot change the selected
 * tail, and can warm-start the MLE search from the previous round's
 * fit.
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
 *    detail::addProfileInterval() pipeline on the same sorted values:
 *    the tail is, bit for bit, the top of the sorted sample.
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
     * Appends a batch of measurements, keeping the tail sorted
     * (O(k log k + k log t) comparisons and one move of each tail value
     * above the smallest one merged, for a batch of k into a tail of
     * t). The order is the one std::inplace_merge of the sorted batch
     * into the whole sorted sample gives: an old value ahead of an
     * equal new one. Each value placed in the tail is checked against
     * its two neighbours, so the tail's order is checked once, where
     * values enter, and estimate()'s threshold selection checks only
     * the part it reads. A refill of the tail sorts the body,
     * O(n log n), and a move to the body costs O(t). Neither recurs on
     * an iid stream: the e2e workloads' campaigns make one move, in
     * their first round, and no refill (METHOD.md section 8).
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

    /**
     * @return the top of the cumulative sample in ascending order:
     *         every value at or above the smallest, and at least
     *         min(n, exceedanceCap(n) + 1) values.
     */
    const std::vector<double> &tail() const { return tail_; }

    /** @return total measurements accumulated. */
    std::size_t size() const { return body_.size() + tail_.size(); }

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

    /** Values below tail_.front(), in arrival order. */
    std::vector<double> body_;
    /** Every other value, in ascending order. */
    std::vector<double> tail_;

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
