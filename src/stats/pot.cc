/**
 * @file
 * POT estimation implementation.
 *
 * The post-selection pipeline (GPD fit + point estimate, then the
 * profile-likelihood CI) is shared between the from-scratch entry
 * point estimateOptimalPerformance() and the incremental
 * PotAccumulator (stats/pot_accumulator), so the two are bit-identical
 * by construction on the same exceedance set.
 */

#include "stats/pot.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"
#include "stats/descriptive.hh"
#include "stats/profile_eval.hh"
#include "stats/special_functions.hh"

namespace statsched
{
namespace stats
{

namespace
{

constexpr double infinity = std::numeric_limits<double>::infinity();
constexpr double xiFloor = profileXiFloor;
constexpr double xiCeil = profileXiCeil;

/**
 * Numerical tolerances of the CI construction, relative to the largest
 * exceedance. The statistical error of the UPB interval is O(1/sqrt(m))
 * — percent scale, and the interval itself is O(y_max) wide — so
 * locating the profile maximizer and the Wilks roots to 1e-5 relative
 * leaves the numerical error three-plus orders of magnitude below the
 * statistical one (the likelihood is locally quadratic, so the induced
 * error in L* is ~1e-9) while roughly halving the number of O(m)
 * profile evaluations per estimate compared to the original
 * 1e-12/1e-10/1e-9 settings.
 */
constexpr double branchTol = 1e-7;  //!< xi = -1 branch-switch bisection
constexpr double goldenTol = 1e-5;  //!< golden-section bracket width
constexpr double rootTol = 1e-5;    //!< Wilks-cut root bisections

/**
 * Golden-section maximization of a unimodal function on [lo, hi].
 */
template <typename F>
double
goldenSectionMax(F f, double lo, double hi, double tol, int max_iter)
{
    const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
    double a = lo;
    double b = hi;
    double c = b - phi * (b - a);
    double d = a + phi * (b - a);
    double fc = f(c);
    double fd = f(d);
    for (int i = 0; i < max_iter && (b - a) > tol; ++i) {
        if (fc > fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
    }
    return 0.5 * (a + b);
}

/**
 * Illinois-accelerated false position for f(x) = 0 on [lo, hi] with
 * f(lo), f(hi) of opposite sign. On the smooth likelihood crossings
 * this pipeline solves, the secant proposal converges in a handful of
 * O(m) evaluations where plain bisection needs ~20 to reach a 1e-5
 * relative tolerance; the maintained bracket and the half-weighting of
 * the retained endpoint keep bisection's robustness (a degenerate or
 * non-finite proposal falls back to the midpoint).
 */
template <typename F>
double
illinoisRoot(F f, double lo, double hi, double tol, int max_iter)
{
    double flo = f(lo);
    double fhi = f(hi);
    for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
        double mid = (lo * fhi - hi * flo) / (fhi - flo);
        if (!(mid > lo && mid < hi))
            mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if ((flo <= 0.0) == (fmid <= 0.0)) {
            lo = mid;
            flo = fmid;
            fhi *= 0.5;
        } else {
            hi = mid;
            fhi = fmid;
            flo *= 0.5;
        }
    }
    return 0.5 * (lo + hi);
}

} // anonymous namespace

namespace detail
{

void
markPotEstimateInvalid(PotEstimate &est, const char *reason)
{
    est.valid = false;
    est.status = EstimateStatus::Invalid;
    est.invalidReason = reason;
    est.upb = infinity;
    est.upbLower = est.maxObserved;
    est.upbUpper = infinity;
}

void
markPotEstimateDegraded(PotEstimate &est, const char *reason)
{
    est.valid = false;
    est.status = EstimateStatus::Degraded;
    est.invalidReason = reason;
    // Best-observed fallback: the sample maximum is the one bound the
    // data guarantees without any tail model.
    est.upb = est.maxObserved;
    est.upbLower = est.maxObserved;
    est.upbUpper = infinity;
}

} // namespace detail

double
gpdLogLikelihoodUpb(double xi, double upb_minus_u,
                    const std::vector<double> &ys)
{
    if (xi >= 0.0 || upb_minus_u <= 0.0)
        return -infinity;
    const double m = static_cast<double>(ys.size());
    double sum_log = 0.0;
    for (double y : ys) {
        const double z = 1.0 - y / upb_minus_u;
        if (z <= 0.0)
            return -infinity;
        sum_log += std::log(z);
    }
    return -m * std::log(-xi * upb_minus_u)
        - (1.0 + 1.0 / xi) * sum_log;
}

std::pair<double, double>
profileLogLikelihoodUpb(double upb_minus_u, const std::vector<double> &ys)
{
    const double m = static_cast<double>(ys.size());
    double sum_log = 0.0;
    for (double y : ys) {
        const double z = 1.0 - y / upb_minus_u;
        if (z <= 0.0)
            return {-infinity, xiFloor};
        sum_log += std::log(z);
    }
    // Unconstrained inner maximizer: xi* = mean log(1 - y_i/b).
    double xi_star = sum_log / m;
    xi_star = std::clamp(xi_star, xiFloor, xiCeil);
    const double ll = -m * std::log(-xi_star * upb_minus_u)
        - (1.0 + 1.0 / xi_star) * sum_log;
    return {ll, xi_star};
}

double
PotEstimate::tailQuantile(double population_fraction) const
{
    SCHED_REQUIRE(population_fraction > 0.0 &&
                  population_fraction <= exceedanceRate,
                  "fraction must be within the fitted tail");
    SCHED_REQUIRE(valid, "no valid tail fit");
    const double ratio = population_fraction / exceedanceRate;
    return threshold + fit.sigma / fit.xi *
        (std::pow(ratio, -fit.xi) - 1.0);
}

namespace detail
{

void
fitPotEstimate(PotEstimate &est, const std::vector<double> &ys,
               const PotOptions &options, const GpdFit *warm_start)
{
    // Step 3: GPD fit.
    est.fit = fitGpd(ys, options.estimator, warm_start);

    // A fit that did not converge, or converged to unusable
    // parameters, cannot support the UPB algebra below: report a
    // degraded estimate (best-observed fallback) instead of computing
    // garbage or tripping a contract check mid-campaign.
    if (!est.fit.converged || !std::isfinite(est.fit.xi) ||
        !std::isfinite(est.fit.sigma) || est.fit.sigma <= 0.0) {
        markPotEstimateDegraded(est, "GPD fit did not converge");
        return;
    }

    if (est.fit.xi >= 0.0) {
        // The performance of a real system is bounded; a non-negative
        // shape means the tail did not look bounded to the estimator.
        // Report the estimate as invalid; the caller may enlarge the
        // sample or change the threshold.
        markPotEstimateInvalid(est, "tail not bounded (xi >= 0)");
        return;
    }

    // Step 4: UPB point estimate.
    est.upb = est.threshold - est.fit.sigma / est.fit.xi;
    if (!std::isfinite(est.upb) || est.upb <= est.threshold) {
        markPotEstimateDegraded(est, "UPB point estimate not finite");
        return;
    }
    est.valid = true;
    est.status = EstimateStatus::Ok;
    est.upbLower = std::numeric_limits<double>::quiet_NaN();
    est.upbUpper = std::numeric_limits<double>::quiet_NaN();
    est.profileMaxLogLik = std::numeric_limits<double>::quiet_NaN();
}

void
addProfileInterval(PotEstimate &est, const std::vector<double> &ys,
                   const PotOptions &options)
{
    if (!est.intervalPending())
        return;
    const double y_max = maximum(ys);

    // Profile maximization over b = UPB - u. The profile consists of a
    // clamped branch near b = y_max (inner xi pinned at -1, where
    // L* = -m log b decreases) followed by the interior stationary
    // branch that carries the regular maximum, so the search is
    // restricted to the interior branch: first locate the branch
    // switch b0 where the unconstrained inner maximizer
    // xi*(b) = mean log(1 - y_i/b) crosses -1 (xi* increases with b),
    // then golden-section on [b0, b_hi]. One fused pass per distinct b
    // serves the branch check, the search and the root bisections.
    ProfileEvaluator prof(ys);
    auto profile = [&prof](double b) { return prof.profile(b); };
    const double b_point = est.upb - est.threshold;
    const double b_lo = y_max * (1.0 + 1e-9);
    const double b_hi = std::max(b_point * 8.0, y_max * 16.0);

    double b_interior = b_lo;
    if (prof.xiRaw(b_lo) < xiFloor) {
        b_interior = illinoisRoot(
            [&prof](double b) { return prof.xiRaw(b) - xiFloor; },
            b_lo, b_hi, y_max * branchTol, 200);
    }
    const double b_hat = goldenSectionMax(profile, b_interior, b_hi,
                                          y_max * goldenTol, 400);
    est.profileMaxLogLik = profile(b_hat);
    if (!std::isfinite(est.profileMaxLogLik)) {
        // The bracketing never found a finite profile maximum; the CI
        // roots below would chase -inf. Keep the run alive instead.
        markPotEstimateDegraded(
            est, "profile-likelihood bracketing failed");
        return;
    }

    // Wilks cut: L*(UPB) >= Lmax - chi2(1-alpha, 1) / 2.
    const double cut = est.profileMaxLogLik -
        0.5 * chiSquaredQuantile(options.confidenceLevel, 1.0);
    auto above_cut = [&profile, cut](double b) {
        return profile(b) - cut;
    };

    // Lower bound: between the best observation and b_hat. The UPB can
    // never undershoot the best observed assignment.
    if (above_cut(b_lo) >= 0.0) {
        est.upbLower = est.maxObserved;
    } else {
        const double b_root = illinoisRoot(above_cut, b_lo, b_hat,
                                           y_max * rootTol, 200);
        est.upbLower = std::max(est.threshold + b_root,
                                est.maxObserved);
    }

    // Upper bound: expand geometrically until the profile drops below
    // the cut; it converges to the exponential-model likelihood, so it
    // may stay above the cut forever (unbounded CI).
    double b_up = std::max(b_hat * 2.0, y_max * 2.0);
    bool bounded = false;
    for (int i = 0; i < 60; ++i) {
        if (above_cut(b_up) < 0.0) {
            bounded = true;
            break;
        }
        b_up *= 2.0;
    }
    if (bounded) {
        const double b_root = illinoisRoot(above_cut, b_hat, b_up,
                                           y_max * rootTol, 200);
        est.upbUpper = est.threshold + b_root;
    } else {
        est.upbUpper = infinity;
    }
}

} // namespace detail

PotEstimate
estimateOptimalPerformance(const std::vector<double> &sample,
                           const PotOptions &options)
{
    SCHED_REQUIRE(options.confidenceLevel > 0.0 &&
                  options.confidenceLevel < 1.0,
                  "confidence level out of (0,1)");

    PotEstimate est;
    est.confidenceLevel = options.confidenceLevel;

    // Non-finite values (a failed measurement leaking through as NaN
    // or inf) would poison the sort, the threshold selection and the
    // likelihood; report a structured failure instead of propagating.
    for (const double x : sample) {
        if (!std::isfinite(x)) {
            warn("estimateOptimalPerformance: non-finite sample "
                 "value; use the engine outcome channel to exclude "
                 "failed measurements");
            detail::markPotEstimateInvalid(
                est, "non-finite sample values");
            return est;
        }
    }
    est.maxObserved = maximum(sample);

    // A sample too small for threshold selection cannot support a
    // tail estimate; report it as invalid instead of failing, so
    // iterative callers can simply keep sampling.
    if (sample.size() < 2 * options.threshold.minExceedances) {
        detail::markPotEstimateInvalid(
            est, "sample too small for threshold selection");
        return est;
    }

    // Step 2: threshold.
    auto selection = selectThreshold(sample, options.threshold);
    est.threshold = selection.threshold;
    est.exceedanceCount = selection.exceedances.size();
    est.exceedanceRate = static_cast<double>(
        selection.exceedances.size()) /
        static_cast<double>(sample.size());
    est.tailLinearity = selection.tailLinearity;
    const std::vector<double> &ys = selection.exceedances;

    // Ties at the threshold (e.g. a memoized engine replaying cached
    // values over a tiny assignment space) can leave fewer strict
    // exceedances than the count the threshold targeted; too few
    // cannot support a fit, so report invalid rather than fail.
    if (ys.size() < options.threshold.minExceedances) {
        detail::markPotEstimateInvalid(
            est, "too few strict exceedances above the threshold");
        return est;
    }

    detail::fitPotEstimate(est, ys, options, nullptr);
    detail::addProfileInterval(est, ys, options);
    return est;
}

std::vector<std::pair<double, double>>
profileCurve(const PotEstimate &estimate, const std::vector<double> &ys,
             double lo, double hi, std::size_t points)
{
    SCHED_REQUIRE(points >= 2, "need at least two curve points");
    SCHED_REQUIRE(hi > lo, "empty curve range");
    std::vector<std::pair<double, double>> out;
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double upb = lo + (hi - lo) * static_cast<double>(i) /
            static_cast<double>(points - 1);
        const double b = upb - estimate.threshold;
        out.emplace_back(upb, profileLogLikelihoodUpb(b, ys).first);
    }
    return out;
}

} // namespace stats
} // namespace statsched
