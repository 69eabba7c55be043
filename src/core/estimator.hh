/**
 * @file
 * Optimal-performance estimation over a measurement engine
 * (Sections 3.3 and 5.2 of the paper).
 *
 * OptimalPerformanceEstimator drives the full method: draw a sample
 * of iid random task assignments, measure each on the engine, then
 * run the POT/EVT analysis to estimate the optimal system performance
 * (UPB) with a confidence interval. It keeps the best observed
 * assignment so callers can deploy it, and exposes the raw sample for
 * diagnostics and the figure harnesses.
 */

#ifndef STATSCHED_CORE_ESTIMATOR_HH
#define STATSCHED_CORE_ESTIMATOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/performance_engine.hh"
#include "core/sampler.hh"
#include "stats/pot.hh"
#include "stats/pot_accumulator.hh"

namespace statsched
{
namespace core
{

/**
 * Outcome of an estimation run.
 */
struct EstimationResult
{
    /**
     * Measured performance of every *valid* sampled assignment, in
     * collection order. Filled by extend() and on the result the
     * iterative loop returns; extendPoint() leaves it empty rather
     * than copy the whole sample every round.
     */
    std::vector<double> sample;
    /** The best assignment observed in the sample. */
    std::optional<Assignment> bestAssignment;
    /** Performance of the best observed assignment. */
    double bestObserved = 0.0;
    /** The POT estimate of the optimal system performance. */
    stats::PotEstimate pot;
    /** Modeled experimentation time in seconds (failed measurements
     *  occupy the testbed too, so this counts attempts). */
    double modeledSeconds = 0.0;
    /** Cumulative measurements attempted, including failed ones. */
    std::size_t attempted = 0;
    /** Cumulative attempts that failed and were excluded from the
     *  sample (see the engine failure channel in
     *  performance_engine.hh). */
    std::size_t failed = 0;

    /**
     * Performance loss of the best observed assignment relative to
     * the estimated optimum: (UPB - best) / UPB (Figure 12).
     */
    double
    estimatedLoss() const
    {
        return pot.upb > 0.0 ? (pot.upb - bestObserved) / pot.upb : 0.0;
    }
};

/**
 * Runs the sampling + EVT estimation pipeline.
 */
class OptimalPerformanceEstimator
{
  public:
    /**
     * @param engine        Measurement engine (not owned).
     * @param topology      Processor shape.
     * @param tasks         Workload size.
     * @param seed          Sampler seed.
     * @param options       POT configuration (threshold, estimator,
     *                      confidence level).
     * @param warmStartFits Seed each round's GPD fit from the previous
     *                      round's (faster; likelihood agrees with the
     *                      cold fit to ~1e-9). Disable for results
     *                      bit-identical to the from-scratch
     *                      estimateOptimalPerformance() pipeline.
     * @param pool          Pool the sampler draws on (not owned);
     *                      nullptr draws serially. The sample is the
     *                      same either way.
     */
    OptimalPerformanceEstimator(PerformanceEngine &engine,
                                const Topology &topology,
                                std::uint32_t tasks, std::uint64_t seed,
                                const stats::PotOptions &options = {},
                                bool warmStartFits = true,
                                base::WorkerPool *pool = nullptr);

    /**
     * Draws and measures `n` fresh assignments, then estimates the
     * UPB from everything measured so far. Can be called repeatedly
     * to grow the sample (the iterative algorithm does).
     *
     * Failed measurements (engine outcome not ok) are excluded from
     * the sample rather than poisoning the fit; the result reports
     * them through `attempted` / `failed`. When every measurement so
     * far has failed the estimate comes back invalid with a
     * structured reason instead of asserting.
     *
     * @param n Assignments to add to the sample.
     */
    EstimationResult extend(std::size_t n);

    /**
     * extend() without the profile-likelihood interval: an Ok
     * estimate comes back with its interval pending (NaN bounds, see
     * stats::PotEstimate::intervalPending()), and without the sample,
     * which sample() views. The iterative loop reads only the point
     * estimate on most rounds.
     *
     * @param n Assignments to add to the sample.
     */
    EstimationResult extendPoint(std::size_t n);

    /**
     * Adds the interval to the result of the last extendPoint() call,
     * which makes it what extend() would have returned. No-op when no
     * interval is pending.
     */
    void addInterval(EstimationResult &result);

    /** @return valid measurements collected so far. */
    const std::vector<double> &sample() const { return sample_; }

    /** @return valid measurements accumulated so far. */
    std::size_t sampleSize() const { return sample_.size(); }

    /** @return measurements attempted, including failed ones. */
    std::size_t attempted() const { return attempted_; }

    /** @return attempts that failed and were excluded. */
    std::size_t failedCount() const { return failed_; }

  private:
    PerformanceEngine &engine_;
    RandomAssignmentSampler sampler_;
    base::WorkerPool *pool_;
    stats::PotOptions options_;
    /** Valid measurements in collection order (the sample() view). */
    std::vector<double> sample_;
    /** Incremental POT state over the same measurements. */
    stats::PotAccumulator accumulator_;
    std::optional<Assignment> best_;
    double bestValue_ = 0.0;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_ESTIMATOR_HH
