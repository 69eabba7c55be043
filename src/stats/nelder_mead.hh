/**
 * @file
 * Nelder-Mead downhill simplex minimizer.
 *
 * The paper estimates the GPD parameters and the UPB confidence
 * interval with Matlab R2007a's fminsearch(), which is a Nelder-Mead
 * simplex search. This is a faithful re-implementation with the same
 * default coefficients (reflection 1, expansion 2, contraction 0.5,
 * shrink 0.5) and fminsearch's initial simplex construction (5%
 * perturbation per coordinate, 0.00025 for zero coordinates).
 *
 * The search reads the objective only through comparisons, so it can
 * run on a cheap estimate that carries an error bound
 * (BoundedObjective): a comparison the bounds settle costs nothing
 * more, and a vertex whose bound overlaps another's in a comparison
 * is evaluated exactly once and keeps that value. Every decision
 * reads exact values, so the search takes the same steps, and returns
 * the same bits, as it does on the exact objective.
 */

#ifndef STATSCHED_STATS_NELDER_MEAD_HH
#define STATSCHED_STATS_NELDER_MEAD_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace statsched
{
namespace stats
{

/**
 * Options controlling the simplex search. Its coefficients are
 * fminsearch's constants (see the file comment).
 */
struct NelderMeadOptions
{
    double tolX = 1e-10;          //!< simplex size tolerance
    double tolF = 1e-10;          //!< function value spread tolerance
    std::size_t maxIterations = 2000;
    /** Relative per-coordinate perturbation of the initial simplex
     *  (fminsearch uses 5%). Warm-started searches that begin near the
     *  optimum shrink this so iterations go into contraction instead
     *  of re-walking a too-large simplex. */
    double initialPerturbation = 0.05;
};

/**
 * Result of a minimization run.
 */
struct NelderMeadResult
{
    std::vector<double> point;    //!< best point found
    double value = 0.0;           //!< exact objective at the best point
    std::size_t iterations = 0;   //!< iterations performed
    bool converged = false;       //!< tolerances reached before maxIter
    std::size_t evaluations = 0;  //!< points evaluated
    /** Points whose exact value the search took: estimates that came
     *  with bound 0 and points refined through the exact objective
     *  (every point, for a plain objective). */
    std::size_t exactEvaluations = 0;
};

/** An objective value known to within `bound`: |value - exact| <= bound. */
struct BoundedValue
{
    double value;
    double bound;
};

/**
 * An objective with a cheap estimate that carries an error bound, and
 * the exact value it bounds. `estimate` returns a bound >= 0, and a
 * bound of 0 marks the exact value. An estimate or bound that is not
 * finite is replaced by the exact value at once.
 */
struct BoundedObjective
{
    std::function<BoundedValue(const std::vector<double> &)> estimate;
    std::function<double(const std::vector<double> &)> exact;
};

/**
 * Minimizes an objective over R^n with the Nelder-Mead simplex.
 *
 * The objective may return +infinity to signal an infeasible point;
 * the simplex then contracts away from it, which is how the GPD
 * likelihood enforces its domain constraints.
 *
 * Each vertex holds its estimate until a comparison cannot be decided
 * on the bounds; then it is evaluated exactly. The per-iteration sort,
 * the reflect, expand and contract tests, the tolF test (read only
 * once the simplex spread is within tolX) and the returned value all
 * read exact values, so the steps, point, value and iteration count
 * equal those of a search on `exact` alone.
 *
 * @param objective Estimate and exact value, R^n -> R (may be +inf).
 * @param start     Starting point (defines n; n >= 1).
 * @param options   Tolerances and initial simplex size.
 */
NelderMeadResult
nelderMeadMinimize(const BoundedObjective &objective,
                   const std::vector<double> &start,
                   const NelderMeadOptions &options = {});

/**
 * The search above on an exact objective (every bound 0).
 *
 * @param objective Function R^n -> R (may return +inf).
 * @param start     Starting point (defines n; n >= 1).
 * @param options   Tolerances and initial simplex size.
 */
NelderMeadResult
nelderMeadMinimize(const std::function<double(
                       const std::vector<double> &)> &objective,
                   const std::vector<double> &start,
                   const NelderMeadOptions &options = {});

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_NELDER_MEAD_HH
