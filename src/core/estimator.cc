/**
 * @file
 * OptimalPerformanceEstimator implementation.
 */

#include "core/estimator.hh"

#include "base/check.hh"
#include "base/logging.hh"

namespace statsched
{
namespace core
{

OptimalPerformanceEstimator::OptimalPerformanceEstimator(
    PerformanceEngine &engine, const Topology &topology,
    std::uint32_t tasks, std::uint64_t seed,
    const stats::PotOptions &options, bool warmStartFits,
    base::WorkerPool *pool)
    : engine_(engine), sampler_(topology, tasks, seed), pool_(pool),
      options_(options), accumulator_(options, warmStartFits)
{
}

namespace
{

/**
 * A contract trip inside the tail machinery (degenerate exceedance
 * set, pathological fit input) must not kill a campaign thousands of
 * measurements in. Degrades the estimate to the best-observed
 * fallback; the next round's larger sample usually regularizes the
 * fit.
 */
void
degradeOnViolation(EstimationResult &result, double confidence,
                   const ContractViolation &violation)
{
    warn(std::string("estimator: tail estimation failed (") +
         violation.what() + "); degrading to best-observed fallback");
    result.pot = stats::PotEstimate();
    result.pot.confidenceLevel = confidence;
    result.pot.maxObserved = result.bestObserved;
    stats::detail::markPotEstimateDegraded(
        result.pot, "tail estimation raised a contract violation");
}

} // anonymous namespace

EstimationResult
OptimalPerformanceEstimator::extend(std::size_t n)
{
    EstimationResult result = extendPoint(n);
    addInterval(result);
    result.sample = sample_;
    return result;
}

void
OptimalPerformanceEstimator::addInterval(EstimationResult &result)
{
    try {
        accumulator_.addInterval(result.pot);
    } catch (const ContractViolation &violation) {
        degradeOnViolation(result, options_.confidenceLevel, violation);
    }
}

EstimationResult
OptimalPerformanceEstimator::extendPoint(std::size_t n)
{
    // Generate-then-batch: draw the whole extension first (the
    // sampler stream is identical to the interleaved path), then hand
    // the engine one batch it can parallelize or deduplicate.
    std::vector<Assignment> batch = sampler_.drawSample(n, pool_);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    engine_.measureBatchOutcome(batch, outcomes);

    // Only valid readings enter the sample; a failed measurement says
    // nothing about where the assignment sits in the performance
    // distribution, so excluding it leaves the sample iid.
    std::vector<double> values;
    values.reserve(batch.size());
    attempted_ += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!outcomes[i].ok()) {
            ++failed_;
            continue;
        }
        const double v = outcomes[i].value;
        values.push_back(v);
        sample_.push_back(v);
        if (!best_ || v > bestValue_) {
            best_ = std::move(batch[i]);
            bestValue_ = v;
        }
    }
    accumulator_.extend(values);

    EstimationResult result;
    result.bestAssignment = best_;
    result.bestObserved = bestValue_;
    result.attempted = attempted_;
    result.failed = failed_;
    if (accumulator_.size() == 0) {
        // Everything failed so far; report an invalid estimate with a
        // structured reason rather than asserting on an empty sample.
        result.pot.confidenceLevel = options_.confidenceLevel;
        stats::detail::markPotEstimateInvalid(
            result.pot, "no valid measurements");
    } else {
        try {
            result.pot = accumulator_.estimate();
        } catch (const ContractViolation &violation) {
            degradeOnViolation(result, options_.confidenceLevel,
                               violation);
        }
    }
    result.modeledSeconds = static_cast<double>(attempted_) *
        engine_.secondsPerMeasurement();
    return result;
}

} // namespace core
} // namespace statsched
