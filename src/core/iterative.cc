/**
 * @file
 * Iterative algorithm implementation.
 */

#include "core/iterative.hh"

#include <cmath>
#include <limits>

#include "base/check.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Batches a round may draw to replace failed measurements. */
constexpr std::size_t kMaxTopUpRounds = 3;

/**
 * Step 3's comparison for one estimate: the loss target (the UPB
 * point estimate, or the upper end of its interval under
 * `upper_bound`; infinite when the estimate is unusable) and the loss
 * of the best observed assignment against it.
 */
void
scoreStep(IterativeStep &step, const EstimationResult &estimate,
          bool upper_bound)
{
    double target = upper_bound ? estimate.pot.upbUpper
                                : estimate.pot.upb;
    if (!estimate.pot.valid || !std::isfinite(target)) {
        // The tail estimate is unusable (e.g. xi >= 0 or an
        // unbounded CI); keep sampling, more data regularizes the
        // fit.
        target = std::numeric_limits<double>::infinity();
    }
    step.upb = estimate.pot.upb;
    step.lossTarget = target;
    step.loss = std::isfinite(target) && target > 0.0
        ? (target - estimate.bestObserved) / target : 1.0;
}

} // anonymous namespace

IterativeResult
iterativeAssignmentSearch(PerformanceEngine &engine,
                          const Topology &topology, std::uint32_t tasks,
                          std::uint64_t seed,
                          const IterativeOptions &options)
{
    SCHED_REQUIRE(options.acceptableLoss > 0.0 &&
                  options.acceptableLoss < 1.0,
                  "acceptable loss out of (0,1)");
    SCHED_REQUIRE(options.initialSample >= 1 &&
                  options.incrementSample >= 1,
                  "sample sizes must be positive");

    OptimalPerformanceEstimator estimator(engine, topology, tasks, seed,
                                          options.pot,
                                          options.warmStartFits,
                                          options.pool);

    IterativeResult result;
    std::size_t to_draw = options.initialSample;
    std::size_t round = 0;

    for (;; ++round) {
        // External stop conditions (shutdown, deadline, budgets) are
        // probed at round boundaries only: a round's batches always
        // drain, so stopping never tears a batch and a journaled run
        // resumes on a group boundary.
        if (options.stopCheck) {
            IterativeStop stop = options.stopCheck(round);
            if (stop.kind != AbortKind::None) {
                // The previous round's estimate is the result; it
                // carries its interval like every final estimate, and
                // its step is scored against it.
                estimator.addInterval(result.final);
                if (!result.steps.empty())
                    scoreStep(result.steps.back(), result.final,
                              options.useUpperConfidenceBound);
                result.abortKind = stop.kind;
                result.abortReason = stop.reason.empty()
                    ? abortKindName(stop.kind) : stop.reason;
                break;
            }
        }

        const std::size_t valid_before = estimator.sampleSize();
        const std::size_t attempted_before = estimator.attempted();
        const std::size_t failed_before = estimator.failedCount();

        result.final = estimator.extendPoint(to_draw);

        // Top the round back up to its quota of *valid* points: a
        // failed measurement carries no information, so without
        // replacement draws a faulty testbed would silently shrink
        // Ndelta and slow convergence. Bounded rounds keep a
        // mostly-dead engine from retrying forever.
        std::size_t top_ups = 0;
        for (std::size_t topUp = 0; topUp < kMaxTopUpRounds; ++topUp) {
            const std::size_t gained =
                estimator.sampleSize() - valid_before;
            if (gained >= to_draw)
                break;
            const std::size_t deficit = to_draw - gained;
            top_ups += deficit;
            result.final = estimator.extendPoint(deficit);
        }

        result.totalSampled = estimator.sampleSize();
        result.totalAttempted = estimator.attempted();
        result.totalFailed = estimator.failedCount();

        // A round in which every attempt (top-ups included) failed
        // ends the loop, since more rounds would spin against a dead
        // engine; so does the safety cap, which counts attempts:
        // failed measurements consume testbed time too, and a high
        // fault rate must not extend the experiment unboundedly.
        const bool dead_round = estimator.sampleSize() == valid_before;
        const bool capped = result.totalAttempted >= options.maxSample;

        // Step 3: compare the best observed assignment with the
        // estimated optimal performance. The comparison reads the
        // point estimate unless useUpperConfidenceBound asks for the
        // interval's upper end, so the interval is added only where
        // it is read: every round under that option, and a round that
        // may stop the loop, whose estimate becomes the result.
        // Adding it may degrade the estimate, so the step is scored
        // again.
        IterativeStep step;
        scoreStep(step, result.final, options.useUpperConfidenceBound);
        if (options.useUpperConfidenceBound || dead_round || capped ||
            step.loss <= options.acceptableLoss) {
            estimator.addInterval(result.final);
            scoreStep(step, result.final,
                      options.useUpperConfidenceBound);
        }
        step.sampleSize = result.totalSampled;
        step.bestObserved = result.final.bestObserved;
        step.attempted = estimator.attempted() - attempted_before;
        step.failed = estimator.failedCount() - failed_before;
        step.topUps = top_ups;
        result.steps.push_back(step);

        if (step.loss <= options.acceptableLoss &&
            result.totalSampled > 0) {
            result.satisfied = true;
            break;
        }
        if (dead_round) {
            result.abortKind = AbortKind::EngineFailure;
            result.abortReason =
                "every measurement in a full round failed";
            break;
        }
        if (capped)
            break;

        to_draw = options.incrementSample;
    }

    // Rounds return their estimates without the sample; the final one
    // carries it, as extend() would have returned it.
    result.final.sample = estimator.sample();
    return result;
}

} // namespace core
} // namespace statsched
