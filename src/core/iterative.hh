/**
 * @file
 * Iterative task-assignment algorithm (Section 5.3, Figure 13 of the
 * paper).
 *
 * The customer specifies the acceptable performance loss X% of the
 * deployed assignment relative to the optimal one. The algorithm:
 *
 *   Step 1: run Ninit random assignments and measure each;
 *   Step 2: estimate the optimal system performance (POT method);
 *   Step 3: if (UPB - best)/UPB <= X%, stop and return the best
 *           observed assignment;
 *   Step 4: otherwise run Ndelta more random assignments, merge them
 *           into the sample, and repeat from Step 2.
 *
 * Growing the sample both improves the captured best assignment and
 * tightens the UPB estimate, so the loop converges (a safety cap on
 * the total sample size guards pathological engines).
 *
 * Failure awareness: measurements that fail (see the engine failure
 * channel in performance_engine.hh) are excluded from the sample, and
 * each round tops itself back up with up to three replacement batches so
 * Ninit / Ndelta count valid points. A round in which *every* attempt
 * fails aborts the loop with IterativeResult::abortReason instead of
 * spinning forever; the safety cap counts attempts, so a mostly-broken
 * testbed still terminates.
 */

#ifndef STATSCHED_CORE_ITERATIVE_HH
#define STATSCHED_CORE_ITERATIVE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/estimator.hh"

namespace statsched
{

namespace base
{
class WorkerPool;
} // namespace base

namespace core
{

/**
 * Why an iterative run stopped before reaching its loss target.
 */
enum class AbortKind : std::uint8_t
{
    None = 0,         //!< no abort (converged, or hit the sample cap)
    EngineFailure,    //!< every measurement in a full round failed
    Interrupted,      //!< shutdown requested (SIGINT/SIGTERM)
    DeadlineExceeded, //!< wall-clock deadline passed
    BudgetExhausted,  //!< measurement budget consumed
    RoundLimit,       //!< round budget consumed
};

/** @return a short kebab-case name for reports and exit-code maps. */
inline const char *
abortKindName(AbortKind kind)
{
    switch (kind) {
      case AbortKind::None:             return "none";
      case AbortKind::EngineFailure:    return "engine-failure";
      case AbortKind::Interrupted:      return "interrupted";
      case AbortKind::DeadlineExceeded: return "deadline-exceeded";
      case AbortKind::BudgetExhausted:  return "budget-exhausted";
      case AbortKind::RoundLimit:       return "round-limit";
    }
    return "unknown";
}

/**
 * Verdict of an IterativeOptions::stopCheck probe: kind None means
 * keep going, anything else stops the loop with that abort kind and
 * human-readable reason.
 */
struct IterativeStop
{
    AbortKind kind = AbortKind::None;
    std::string reason;
};

/**
 * Parameters of the iterative algorithm.
 */
struct IterativeOptions
{
    std::size_t initialSample = 1000;   //!< Ninit (paper: 1000)
    std::size_t incrementSample = 100;  //!< Ndelta (paper: 100)
    /** Acceptable performance loss, e.g. 0.025 for 2.5%. */
    double acceptableLoss = 0.025;
    /** Safety cap on the total sample size. */
    std::size_t maxSample = 100000;
    /** POT configuration used in Step 2. */
    stats::PotOptions pot;
    /**
     * When true, the loss is computed against the upper end of the
     * UPB confidence interval instead of the point estimate
     * (more conservative stopping). Every round then computes the
     * profile-likelihood interval, which costs about as much as the
     * GPD fit; otherwise only the final round does.
     */
    bool useUpperConfidenceBound = false;
    /**
     * Seed each round's GPD fit from the previous round's (fast path;
     * likelihoods agree with cold fits to ~1e-9). Disable to make each
     * Step 2 bit-identical to from-scratch estimation.
     */
    bool warmStartFits = true;
    /**
     * Probed at the top of every round — before the round's
     * measurements — with the zero-based round index. Returning a
     * kind other than None stops the loop gracefully: in-flight
     * batches have drained (rounds are the drain unit), the result
     * carries the abort kind and reason, and everything sampled so
     * far is preserved. The campaign runner (core/campaign.hh) hooks
     * shutdown requests, wall-clock deadlines and budgets in here so
     * the search loop itself stays free of clocks and signals.
     */
    std::function<IterativeStop(std::size_t round)> stopCheck;
    /**
     * Pool the sampler draws each round's assignments on (see
     * RandomAssignmentSampler::drawSample); not owned. nullptr draws
     * serially, and every pool draws the same assignments. The
     * campaign runner hands the same pool to its memo.
     */
    base::WorkerPool *pool = nullptr;
};

/**
 * One Step 2/3 evaluation in the run record.
 *
 * `upb` is always the POT *point estimate* of the optimum, never the
 * confidence bound. The stopping rule compares against `lossTarget`,
 * which is `upb` normally and the upper end of the UPB's confidence
 * interval when IterativeOptions::useUpperConfidenceBound is set.
 *
 * The loop computes the interval only where it is read: on every round
 * under useUpperConfidenceBound, and on the round whose estimate
 * becomes IterativeResult::final. A round that skips it records its
 * point estimate even where the interval would have degraded it; the
 * stop decision is the same either way, since a Degraded estimate
 * never meets the target.
 */
struct IterativeStep
{
    std::size_t sampleSize = 0;   //!< sample size at this evaluation
    double bestObserved = 0.0;    //!< best assignment so far
    double upb = 0.0;             //!< UPB point estimate
    /** Denominator of the stopping rule: upb, or the interval's upper
     *  end under useUpperConfidenceBound (infinite when the fit is
     *  unusable). */
    double lossTarget = 0.0;
    double loss = 0.0;            //!< (lossTarget - best) / lossTarget
    std::size_t attempted = 0;    //!< measurements attempted this round
    std::size_t failed = 0;       //!< attempts that failed this round
    std::size_t topUps = 0;       //!< replacement draws this round
};

/**
 * Outcome of a full run of the iterative algorithm.
 */
struct IterativeResult
{
    /** Last estimation, interval and sample included (what
     *  OptimalPerformanceEstimator::extend() returns). */
    EstimationResult final;
    std::vector<IterativeStep> steps;  //!< per-iteration record
    bool satisfied = false;            //!< loss target reached
    std::size_t totalSampled = 0;      //!< valid measurements kept
    std::size_t totalAttempted = 0;    //!< measurements attempted
    std::size_t totalFailed = 0;       //!< attempts that failed
    /** Non-empty when the loop gave up rather than converged, e.g.
     *  "every measurement in a full round failed". */
    std::string abortReason;
    /** Structured counterpart of abortReason; None when the loop
     *  converged or ran into its sample cap. */
    AbortKind abortKind = AbortKind::None;
};

/**
 * Runs the iterative algorithm to completion.
 *
 * @param engine   Measurement engine.
 * @param topology Processor shape.
 * @param tasks    Workload size.
 * @param seed     Sampler seed.
 * @param options  Algorithm parameters.
 */
IterativeResult
iterativeAssignmentSearch(PerformanceEngine &engine,
                          const Topology &topology, std::uint32_t tasks,
                          std::uint64_t seed,
                          const IterativeOptions &options = {});

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_ITERATIVE_HH
