/**
 * @file
 * Parameter estimation for the Generalized Pareto Distribution
 * (Section 3.3.2, Step 3 of the paper).
 *
 * The paper estimates (xi, sigma) by maximizing the joint
 * log-likelihood of the exceedances with a Nelder-Mead search
 * (Matlab fminsearch). That estimator is implemented here, together
 * with two classic alternatives used by the estimator-comparison
 * ablation: the method of moments and probability-weighted moments
 * (Hosking & Wallis 1987).
 *
 * The search compares likelihoods on a bounded estimate that takes
 * no division per exceedance and one log per evaluation, and sums the
 * exact likelihood only for points whose bounds overlap in a
 * comparison (about one in sixteen on the iterative campaigns). It
 * takes the steps, and returns the bits, of a search on the exact
 * likelihood.
 */

#ifndef STATSCHED_STATS_GPD_FIT_HH
#define STATSCHED_STATS_GPD_FIT_HH

#include <cstddef>
#include <vector>

#include "stats/gpd.hh"
#include "stats/nelder_mead.hh"

namespace statsched
{
namespace stats
{

/**
 * Estimation method selector.
 */
enum class GpdEstimator
{
    MaximumLikelihood,          //!< Nelder-Mead MLE (the paper's choice)
    MethodOfMoments,            //!< matches sample mean and variance
    ProbabilityWeightedMoments  //!< Hosking-Wallis PWM
};

/**
 * Result of fitting a GPD to a set of exceedances.
 */
struct GpdFit
{
    double xi = 0.0;            //!< estimated shape
    double sigma = 1.0;         //!< estimated scale
    double logLikelihood = 0.0; //!< log-likelihood at the estimate
    bool converged = false;     //!< optimizer / estimator succeeded
    /** Likelihood evaluations of the MLE search (0 for the closed-form
     *  estimators), and those summed exactly (NelderMeadResult). */
    std::size_t evaluations = 0;
    std::size_t exactEvaluations = 0;

    /** @return the fitted distribution object. */
    Gpd distribution() const { return Gpd(xi, sigma); }
};

/**
 * Negative joint log-likelihood of exceedances under GPD(xi, sigma);
 * +infinity outside the feasible region: the exact objective of the
 * MLE search, one log per exceedance.
 */
double gpdNegativeLogLikelihood(double xi, double sigma,
                                const std::vector<double> &exceedances);

/**
 * gpdNegativeLogLikelihood() within a proven bound (METHOD.md section
 * 4), at about a twentieth of its cost at 1,500 exceedances:
 * z = 1 + (xi / sigma) y without a division per value, multiplied in
 * eight renormalized lanes, and one log per evaluation instead of one
 * per value. The MLE search decides its comparisons on this estimate.
 *
 * The exact value comes back, with bound 0, for an infeasible point,
 * in the exponential branch (|xi| < 1e-9), within about 4e-13 of the
 * feasibility boundary, for sigma outside [2^-900, 2^900], when z at
 * yMax exceeds 2^63, from 2^32 exceedances, and when the estimate or
 * its bound is not finite.
 *
 * @param exceedances Positive values, as fitGpd() requires.
 * @param yMax        The largest of them.
 */
BoundedValue
gpdNegativeLogLikelihoodBounded(double xi, double sigma,
                                const std::vector<double> &exceedances,
                                double yMax);

/**
 * Fits a GPD to positive exceedances over a threshold.
 *
 * @param exceedances Values y_i = x_i - u > 0; at least 5 required.
 * @param method      Estimation method.
 * @param warmStart   Optional starting point for the MLE search,
 *                    typically the previous round's fit when the sample
 *                    is grown iteratively. Only used when it converged
 *                    with finite parameters and sigma > 0; the search
 *                    then starts from a smaller simplex than the cold
 *                    moment-estimate start. Ignored by the closed-form
 *                    estimators.
 * @return the fit; `converged` is false when the search failed (e.g.
 *         degenerate data), in which case the parameters hold the best
 *         point found.
 */
GpdFit fitGpd(const std::vector<double> &exceedances,
              GpdEstimator method = GpdEstimator::MaximumLikelihood,
              const GpdFit *warmStart = nullptr);

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_GPD_FIT_HH
