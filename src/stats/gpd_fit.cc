/**
 * @file
 * GPD fitting implementation.
 */

#include "stats/gpd_fit.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "base/check.hh"
#include "stats/descriptive.hh"
#include "stats/nelder_mead.hh"

namespace statsched
{
namespace stats
{

namespace
{

constexpr double infinity = std::numeric_limits<double>::infinity();

/** z = 1 + xi y / sigma: the one expression both likelihood paths use,
 *  so they see the same z bits. */
inline double
gpdZ(double xi, double y, double sigma)
{
    return 1.0 + xi * y / sigma;
}

/**
 * Moment-based starting point for the MLE search; also the method-of-
 * moments estimator itself. Matching mean m and variance v of
 * GPD(xi, sigma):
 *     xi    = (1 - m^2 / v) / 2
 *     sigma = m (1 + m^2 / v) / 2
 */
GpdFit
momentEstimate(const std::vector<double> &ys)
{
    GpdFit fit;
    const double m = mean(ys);
    const double v = variance(ys);
    if (m <= 0.0 || v <= 0.0) {
        fit.converged = false;
        fit.xi = -0.1;
        fit.sigma = std::max(m, 1e-12);
        return fit;
    }
    const double ratio = m * m / v;
    fit.xi = 0.5 * (1.0 - ratio);
    fit.sigma = 0.5 * m * (1.0 + ratio);
    fit.converged = fit.sigma > 0.0;
    return fit;
}

/**
 * Probability-weighted moments estimator (Hosking & Wallis 1987).
 * With b0 the sample mean and b1 = sum (1 - p_i) y_(i) / n using
 * plotting positions p_i = (i - 0.35) / n over the ascending order
 * statistics:
 *     xi    = 2 - b0 / (b0 - 2 b1)    ... in the (paper's) sign
 *     sigma = 2 b0 b1 / (b0 - 2 b1)
 *
 * Hosking & Wallis use the k = -xi convention; the formulas below are
 * already translated to the xi convention used throughout this library.
 */
GpdFit
pwmEstimate(const std::vector<double> &ys)
{
    GpdFit fit;
    std::vector<double> sorted = sortedCopy(ys);
    const double n = static_cast<double>(sorted.size());
    double b0 = 0.0;
    double b1 = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const double p = (static_cast<double>(i) + 1.0 - 0.35) / n;
        b0 += sorted[i];
        b1 += (1.0 - p) * sorted[i];
    }
    b0 /= n;
    b1 /= n;
    const double denom = b0 - 2.0 * b1;
    if (denom <= 0.0 || b0 <= 0.0) {
        fit.converged = false;
        fit.xi = -0.1;
        fit.sigma = std::max(b0, 1e-12);
        return fit;
    }
    fit.xi = 2.0 - b0 / denom;
    fit.sigma = 2.0 * b0 * b1 / denom;
    fit.converged = fit.sigma > 0.0;
    return fit;
}

} // anonymous namespace

double
gpdNegativeLogLikelihood(double xi, double sigma,
                         const std::vector<double> &exceedances)
{
    if (sigma <= 0.0 || !std::isfinite(xi) || !std::isfinite(sigma))
        return infinity;

    // Fused single-log form of -sum log pdf: the -log(sigma) term is
    // loop invariant, so the per-observation work is one log instead
    // of the two Gpd::logPdf pays. This is the innermost loop of the
    // MLE search. The |xi| < 1e-9 exponential fallback matches Gpd's.
    const double m = static_cast<double>(exceedances.size());
    if (std::fabs(xi) < 1e-9) {
        double sum_y = 0.0;
        for (double y : exceedances) {
            if (y < 0.0)
                return infinity;
            sum_y += y;
        }
        return m * std::log(sigma) + sum_y / sigma;
    }
    const double shape_term = 1.0 / xi + 1.0;
    double sum_log = 0.0;
    for (double y : exceedances) {
        if (y < 0.0)
            return infinity;
        const double z = gpdZ(xi, y, sigma);
        if (z <= 0.0)
            return infinity;
        sum_log += std::log(z);
    }
    return m * std::log(sigma) + shape_term * sum_log;
}

BoundedValue
gpdNegativeLogLikelihoodBounded(double xi, double sigma,
                                const std::vector<double> &ys,
                                double y_max)
{
    const auto exact = [&] {
        return BoundedValue{gpdNegativeLogLikelihood(xi, sigma, ys), 0.0};
    };
    if (sigma <= 0.0 || !std::isfinite(xi) || !std::isfinite(sigma) ||
        std::fabs(xi) < 1e-9)
        return exact();

    // Feasible exactly when the smallest z is positive. For xi > 0
    // every z >= 1. For xi < 0 each rounded step of gpdZ is monotone,
    // so z falls as y grows and the smallest z is y_max's.
    const double z_end = gpdZ(xi, y_max, sigma);
    if (xi < 0.0 && z_end <= 0.0)
        return {infinity, 0.0};

    // The estimate takes z' = 1 + c y with c = xi / sigma, without a
    // division per value. Its t = c y and gpdZ's t = xi y / sigma each
    // carry a relative 2u + u^2, so per value |log z' - log z| is at
    // most x / (1 - x) + 2u (1 + u) with x = 2 (2u + u^2) K, where
    // K = (1 + 4u) / z_end for xi < 0 and 1 + 4u for xi > 0 (METHOD.md
    // section 4). The exact value comes back where that is no bound
    // (x >= 1e-3: the smallest z within about 4e-13 of 0), where sigma
    // could let a product or quotient of z leave the normal range,
    // where z' at y_max could change a product's sign or let 16
    // factors overflow, and from 2^32 values, where the block exponent
    // sums below could overflow.
    constexpr double u = 0x1p-53;
    const double x = 2.0 * (2.0 * u + u * u) * (1.0 + 4.0 * u) /
        (xi < 0.0 ? z_end : 1.0);
    const double c = xi / sigma;
    const double z_far = 1.0 + c * y_max;
    if (x >= 1e-3 || sigma < 0x1p-900 || sigma > 0x1p900 ||
        !(z_far > 0.0 && z_far <= 0x1p63) ||
        ys.size() >= (std::size_t{1} << 32))
        return exact();

    // Eight lane products in flight. Every 16 factors a lane moves its
    // binary exponent into an integer sum and restarts in [1, 2), which
    // is exact; 16 factors in [4e-13, 2^63] cannot leave the normal
    // range from there, so each multiply rounds within a relative u.
    // block_exponents sums the lanes' exponents over the block ends,
    // for the exact loop's partial sums below.
    constexpr std::size_t lanes = 8;
    constexpr std::size_t block = 16 * lanes;
    double p[lanes] = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    std::int64_t e[lanes] = {};
    std::int64_t block_exponents = 0;
    const auto renormalize = [&p, &e](std::size_t k) {
        constexpr std::uint64_t fraction = (std::uint64_t{1} << 52) - 1;
        constexpr std::uint64_t one = std::bit_cast<std::uint64_t>(1.0);
        const auto bits = std::bit_cast<std::uint64_t>(p[k]);
        e[k] += static_cast<std::int64_t>(bits >> 52) - 1023;
        p[k] = std::bit_cast<double>((bits & fraction) | one);
    };
    const std::size_t m = ys.size();
    const double *y = ys.data();
    std::size_t i = 0;
    for (; i + block <= m; i += block) {
        for (std::size_t j = i; j < i + block; j += lanes) {
            for (std::size_t k = 0; k < lanes; ++k)
                p[k] *= 1.0 + c * y[j + k];
        }
        for (std::size_t k = 0; k < lanes; ++k) {
            renormalize(k);
            block_exponents += e[k];
        }
    }
    const std::size_t blocks = i / block;
    for (std::size_t k = 0; i < m; ++i, ++k)
        p[k % lanes] *= 1.0 + c * y[i];

    // The lanes, renormalized once more, multiply into one fraction in
    // [1, 256): one log, and the exponents' sum times ln 2.
    double fraction_product = 1.0;
    std::int64_t exponent = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
        renormalize(k);
        fraction_product *= p[k];
        exponent += e[k];
    }
    const double log_fraction = std::log(fraction_product);
    const double exponent_term =
        static_cast<double>(exponent) * std::numbers::ln2;
    const double sum_log = log_fraction + exponent_term;

    // The same final combination as the exact path, on the same
    // m log(sigma) and shape bits.
    const double count = static_cast<double>(m);
    const double shape_term = 1.0 / xi + 1.0;
    const double log_sigma_term = count * std::log(sigma);
    const double shape_sum = shape_term * sum_log;
    const double value = log_sigma_term + shape_sum;

    // The exact loop's sequential sum rounds each partial sum by u of
    // its size. Its log terms have one sign, so the partial sums grow
    // in magnitude and |sum_log| stands for the sum of the terms'. At
    // the end of block b a partial sum is near the lanes' partial
    // product, whose log has magnitude at most -E_b ln 2 for xi < 0 and
    // (E_b + 8) ln 2 for xi > 0 (lanes in [1, 2)). So the 128 partial
    // sums of block b count at that, those after the last block at
    // |sum_log|, and none above (m - 1) |sum_log| in all.
    const double length = std::fabs(sum_log);
    const double block_magnitudes = std::numbers::ln2 *
        static_cast<double>(xi < 0.0 ? -block_exponents
                                     : block_exponents +
                                 static_cast<std::int64_t>(8 * blocks));
    const double partial_sums = std::min(
        static_cast<double>(block) * block_magnitudes +
            static_cast<double>(m - block * blocks) * length,
        (count - 1.0) * length);

    // The two sums differ by at most u times: the partial sums; 3
    // |sum_log| for the exact loop's logs (1 ulp each; glibc documents
    // its log within 0.52 ulp since 2.28) and the estimate's final
    // add; 2 (log_fraction + |exponent_term|) for the one log and the
    // ln 2 product, whose signs can differ; and m + lanes - 1 for the
    // rounding of the products. Add m times the per-value bound above.
    // The final multiply and add round each value by u of its size.
    // The factor 1 + 8u (m + 64) covers the second-order terms and the
    // rounding of the bound itself (METHOD.md section 4).
    const double sum_error =
        u * (partial_sums + 3.0 * length +
             2.0 * (log_fraction + std::fabs(exponent_term)) + count +
             static_cast<double>(lanes - 1)) +
        count * (x / (1.0 - x) + 2.0 * u * (1.0 + u));
    const double bound = (1.0 + 8.0 * u * (count + 64.0)) *
        (std::fabs(shape_term) * sum_error +
         2.0 * u * (std::fabs(value) + std::fabs(shape_sum)));
    if (!std::isfinite(value) || !std::isfinite(bound))
        return exact();
    return {value, bound};
}

GpdFit
fitGpd(const std::vector<double> &exceedances, GpdEstimator method,
       const GpdFit *warm_start)
{
    SCHED_REQUIRE(exceedances.size() >= 5,
                  "GPD fit needs at least 5 exceedances");
    for (double y : exceedances)
        SCHED_REQUIRE(y > 0.0, "exceedances must be positive");

    if (method == GpdEstimator::MethodOfMoments)
        return momentEstimate(exceedances);
    if (method == GpdEstimator::ProbabilityWeightedMoments)
        return pwmEstimate(exceedances);

    // Maximum likelihood: Nelder-Mead from the moment starting point,
    // or from a caller-provided warm start (typically the previous
    // round's fit in the iterative algorithm). The feasibility
    // constraints (sigma > 0 and, for xi < 0, all observations below
    // -sigma/xi) are enforced by returning +inf.
    NelderMeadOptions options;
    options.maxIterations = 4000;
    // The search runs in nondimensional coordinates (xi, sigma/y_max)
    // — see below — so both are O(1) and the absolute simplex-spread
    // tolerance is effectively relative. The statistical error of the
    // fitted (xi, sigma) is O(1/sqrt(m)) — percent scale for realistic
    // exceedance counts — and the likelihood is locally quadratic with
    // curvature O(m), so stopping at a 1e-6 spread leaves the
    // log-likelihood within ~1e-9 of the optimum while saving the long
    // final contraction phase a tighter tolerance would spend.
    options.tolX = 1e-6;
    options.tolF = 1e-9;

    GpdFit start;
    const bool warm = warm_start != nullptr &&
        warm_start->converged &&
        std::isfinite(warm_start->xi) &&
        std::isfinite(warm_start->sigma) && warm_start->sigma > 0.0;
    if (warm) {
        start = *warm_start;
        // A converged previous-round fit is within sampling drift of
        // the new optimum. The simplex must still be large enough to
        // step across that drift (O(1/sqrt(m)) relative) in a few
        // reflections — a near-zero simplex would crawl — so use 2%
        // instead of the cold 5%.
        options.initialPerturbation = 0.02;
    } else {
        start = momentEstimate(exceedances);
    }

    const double y_max = maximum(exceedances);
    // Ensure the starting point is feasible: for xi < 0 we need
    // -sigma/xi > y_max.
    if (start.xi < 0.0 && -start.sigma / start.xi <= y_max)
        start.sigma = -start.xi * y_max * 1.05;
    if (start.sigma <= 0.0)
        start.sigma = y_max;

    // Nondimensionalize: sigma is O(y_max) while xi is O(1), and the
    // optimizer's convergence test uses one absolute spread across
    // both coordinates, so searching (xi, sigma) directly would force
    // the simplex to contract to a tolerance that is relative ~1e-12
    // on sigma for large-magnitude samples. Searching (xi, sigma/y_max)
    // makes both coordinates the same scale.
    //
    // The search decides its comparisons on the bounded estimate and
    // sums the exact likelihood only where bounds overlap, so it takes
    // the steps it would take on the exact likelihood alone.
    const BoundedObjective objective{
        [&exceedances, y_max](const std::vector<double> &p) {
            return gpdNegativeLogLikelihoodBounded(p[0], p[1] * y_max,
                                                   exceedances, y_max);
        },
        [&exceedances, y_max](const std::vector<double> &p) {
            return gpdNegativeLogLikelihood(p[0], p[1] * y_max,
                                            exceedances);
        }};

    auto result = nelderMeadMinimize(
        objective, {start.xi, start.sigma / y_max}, options);

    GpdFit fit;
    fit.xi = result.point[0];
    fit.sigma = result.point[1] * y_max;
    fit.logLikelihood = -result.value;
    fit.converged = result.converged && std::isfinite(result.value);
    fit.evaluations = result.evaluations;
    fit.exactEvaluations = result.exactEvaluations;
    return fit;
}

} // namespace stats
} // namespace statsched
