/**
 * @file
 * Peaks-Over-Threshold estimation of the optimal system performance
 * (Section 3.3 of the paper).
 *
 * Given the measured performance of a sample of iid random task
 * assignments, the four steps of the paper are:
 *
 *  1. (Done by the caller / core::Sampler) collect the sample.
 *  2. Select a threshold u — see stats/threshold.hh.
 *  3. Fit a GPD to the exceedances y_i = x_i - u by maximum
 *     likelihood — see stats/gpd_fit.hh.
 *  4. Estimate the Upper Performance Bound UPB = u - sigma/xi (valid
 *     for xi < 0) and its confidence interval via the likelihood-ratio
 *     test: reparametrize the GPD in (xi, UPB), profile the
 *     log-likelihood over xi, and apply Wilks' theorem — the interval
 *     is { UPB : L*(UPB) > Lmax - chi2(1-alpha, 1)/2 }.
 *
 * The inner profile maximization has the closed form
 * xi*(UPB) = mean_i log(1 - y_i/(UPB - u)), clamped to [-1, 0) where
 * the GPD likelihood is bounded; the outer maximization and the two
 * CI roots are found numerically (golden section + bisection), which
 * mirrors the paper's iterative fminsearch procedure.
 *
 * Step 4 is two stages: the point estimate, which is all the paper's
 * stopping rule reads, and the interval, which costs about as much as
 * the fit. estimateOptimalPerformance() runs both; the iterative loop
 * runs the second only on rounds that read it (see
 * stats::PotAccumulator::addInterval()).
 */

#ifndef STATSCHED_STATS_POT_HH
#define STATSCHED_STATS_POT_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stats/gpd_fit.hh"
#include "stats/threshold.hh"

namespace statsched
{
namespace stats
{

/**
 * Options for the POT estimation.
 */
struct PotOptions
{
    ThresholdOptions threshold;
    GpdEstimator estimator = GpdEstimator::MaximumLikelihood;
    /** Confidence level for the UPB interval, e.g. 0.95. */
    double confidenceLevel = 0.95;
};

/**
 * Usability grade of a POT estimate.
 *
 * The split matters to long campaigns: an Invalid estimate carries no
 * tail information (keep sampling against an infinite target), while a
 * Degraded one fell back to the best-observed performance as the UPB
 * point estimate with the sample maximum as the only lower bound —
 * usable for reporting, deliberately useless as a stopping target.
 */
enum class EstimateStatus : std::uint8_t
{
    Ok = 0,   //!< bounded tail, converged fit, trustworthy CI
    Degraded, //!< fit/CI failed; best-observed + sample-max fallback
    Invalid,  //!< no tail estimate at all (too few points, xi >= 0...)
};

/** @return a short lowercase name ("ok", "degraded", "invalid"). */
inline const char *
estimateStatusName(EstimateStatus status)
{
    switch (status) {
      case EstimateStatus::Ok:       return "ok";
      case EstimateStatus::Degraded: return "degraded";
      case EstimateStatus::Invalid:  return "invalid";
    }
    return "unknown";
}

/**
 * Result of the POT estimation of the optimal performance.
 */
struct PotEstimate
{
    double threshold = 0.0;        //!< selected u
    std::size_t exceedanceCount = 0;
    GpdFit fit;                    //!< fitted (xi, sigma)
    double maxObserved = 0.0;      //!< best assignment in the sample

    double upb = 0.0;              //!< point estimate u - sigma/xi
    double upbLower = 0.0;         //!< CI lower bound (>= maxObserved)
    double upbUpper = 0.0;         //!< CI upper bound (may be +inf)
    double confidenceLevel = 0.95;

    double profileMaxLogLik = 0.0; //!< L(xi-hat, UPB-hat)
    /** Mean-excess R^2 above u as the threshold selection computed
     *  it: NaN (not computed) unless the LinearityScan policy picked
     *  u, for which it is the criterion. */
    double tailLinearity = std::numeric_limits<double>::quiet_NaN();
    bool valid = false;            //!< xi-hat < 0 and fit converged
    /** Structured grade of the estimate; valid iff status == Ok. */
    EstimateStatus status = EstimateStatus::Invalid;
    /** Structured reason when !valid ("sample too small", "tail not
     *  bounded (xi >= 0)", "non-finite sample values", ...); empty
     *  for valid estimates. */
    std::string invalidReason;

    /**
     * True for an Ok point estimate whose interval has not been added
     * yet: upbLower, upbUpper and profileMaxLogLik are NaN. Invalid
     * and Degraded estimates carry their fallback bounds and are never
     * pending.
     */
    bool intervalPending() const
    {
        return status == EstimateStatus::Ok &&
            std::isnan(profileMaxLogLik);
    }

    /**
     * Relative headroom of the best observed assignment:
     * (upb - maxObserved) / upb. This is the "estimated possible
     * performance improvement" of Figure 12.
     */
    double improvementHeadroom() const
    { return upb > 0.0 ? (upb - maxObserved) / upb : 0.0; }

    /** Fraction of the sample above the threshold (zeta_u). */
    double exceedanceRate = 0.0;

    /**
     * Estimated performance of the best `population_fraction` of all
     * assignments (e.g. 0.01 = the top 1% boundary), from the fitted
     * tail: the (1 - fraction) population quantile
     *
     *   x_f = u + (sigma/xi) ((fraction/zeta_u)^(-xi) - 1) .
     *
     * Section 3.2 of the paper derives these boundaries from the
     * exhaustive CDF; the fitted tail provides them from a sample.
     *
     * @param population_fraction Tail fraction in (0, exceedanceRate].
     */
    double tailQuantile(double population_fraction) const;
};

/**
 * Log-likelihood of exceedances in the (xi, UPB) parametrization of
 * the paper (Step 4(iii)):
 *
 *   L(xi, UPB | y) = -m log(-xi (UPB - u))
 *                    - (1 + 1/xi) sum log(1 - y_i / (UPB - u))
 *
 * Returns -infinity outside the feasible region (xi >= 0 or
 * UPB - u <= max y).
 *
 * @param xi          Shape, must be < 0 for a finite result.
 * @param upb_minus_u UPB - u, must exceed every exceedance.
 * @param ys          Exceedances.
 */
double gpdLogLikelihoodUpb(double xi, double upb_minus_u,
                           const std::vector<double> &ys);

/**
 * Profile log-likelihood L*(UPB) = max_xi L(xi, UPB | y), with xi
 * restricted to [-1, 0) where the likelihood is bounded.
 *
 * @param upb_minus_u UPB - u, must exceed every exceedance.
 * @param ys          Exceedances.
 * @return the pair (L*, argmax xi).
 */
std::pair<double, double>
profileLogLikelihoodUpb(double upb_minus_u, const std::vector<double> &ys);

/**
 * Runs steps 2-4 of the POT method on a raw performance sample.
 *
 * @param sample  Measured performance of the random task assignments.
 * @param options Threshold / estimator / confidence configuration.
 */
PotEstimate estimateOptimalPerformance(const std::vector<double> &sample,
                                       const PotOptions &options = {});

namespace detail
{

/**
 * Marks an estimate as unusable (no bounded tail): valid = false, the
 * point estimate and upper bound become +inf and the lower bound falls
 * back to the best observation. maxObserved must already be set.
 *
 * @param reason Short structured diagnostic recorded in
 *               PotEstimate::invalidReason.
 */
void markPotEstimateInvalid(PotEstimate &est,
                            const char *reason = "tail estimate "
                                                 "unusable");

/**
 * Marks an estimate as degraded: the tail machinery ran but its output
 * cannot be trusted (non-converged fit, non-finite parameters, failed
 * CI bracketing). The estimate falls back to the only numbers the raw
 * sample guarantees — the best observed performance as the UPB point
 * estimate and lower bound, an unbounded upper bound — so a campaign
 * can keep reporting and sampling instead of dying on a contract
 * violation mid-run. maxObserved must already be set.
 *
 * @param reason Short structured diagnostic recorded in
 *               PotEstimate::invalidReason.
 */
void markPotEstimateDegraded(PotEstimate &est, const char *reason);

/**
 * Step 3 and the point estimate of step 4 on an already selected
 * exceedance set: the GPD fit, the fit-based validity checks and
 * UPB = u - sigma/xi. An Ok result is a point estimate whose interval
 * fields are NaN (intervalPending()); addProfileInterval() fills them.
 * Shared between estimateOptimalPerformance() and the incremental
 * PotAccumulator so the two paths cannot drift: given the same
 * exceedances and options they produce bit-identical estimates.
 *
 * @param est        In/out: threshold, exceedance counts, maxObserved
 *                   and confidenceLevel must already be filled in.
 * @param ys         Exceedances over est.threshold (>= 5).
 * @param options    POT configuration.
 * @param warm_start Optional previous-round fit to seed the MLE search
 *                   (nullptr = cold start from the moment estimate).
 */
void fitPotEstimate(PotEstimate &est, const std::vector<double> &ys,
                    const PotOptions &options, const GpdFit *warm_start);

/**
 * The rest of step 4: the profile-likelihood maximum and the two
 * Wilks roots of the UPB interval. Marks the estimate Degraded when
 * the profile has no finite maximum. Does nothing unless
 * est.intervalPending().
 *
 * @param est     In/out: the point estimate fitPotEstimate() made
 *                from `ys`.
 * @param ys      The exceedances of that estimate.
 * @param options POT configuration (its confidence level).
 */
void addProfileInterval(PotEstimate &est, const std::vector<double> &ys,
                        const PotOptions &options);

} // namespace detail

/**
 * Points of the profile log-likelihood curve (Figure 7): pairs
 * (UPB, L*(UPB)) over [lo, hi].
 *
 * @param estimate A previously computed POT estimate (for u and ys).
 * @param ys       The exceedances used in the estimate.
 * @param lo       Lowest UPB to evaluate (> max observed).
 * @param hi       Highest UPB to evaluate.
 * @param points   Number of curve points (>= 2).
 */
std::vector<std::pair<double, double>>
profileCurve(const PotEstimate &estimate, const std::vector<double> &ys,
             double lo, double hi, std::size_t points);

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_POT_HH
