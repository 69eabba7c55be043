/**
 * @file
 * Wall-clock cost of the POT estimation hot path.
 *
 * The iterative algorithm (Section 4) re-estimates the UPB after every
 * sample extension, so the estimation pipeline itself — sort, threshold
 * selection, GPD fit, profile-likelihood CI — is on the critical path
 * of every experiment. This harness times the 10-round iterative
 * scenario (1000 initial measurements, nine +100 extensions) under
 * three pipelines:
 *
 *  - legacy:    a bench-local replica of the pre-optimization pipeline
 *               (full re-sort per round, cold two-log-per-observation
 *               MLE objective, unfused profile evaluations, tolerances
 *               1e-12/1e-10/1e-9);
 *  - fast-cold: PotAccumulator (estimate() + addInterval()) with warm
 *               starts disabled — verified here to be bit-identical to
 *               the from-scratch estimateOptimalPerformance() on
 *               every round;
 *  - fast-warm: PotAccumulator as shipped (warm-started fits).
 *
 * It also reports GPD fits/sec (cold vs warm), the share of likelihood
 * evaluations the fit sums exactly, ns per exceedance of one bounded
 * likelihood estimate and of one exact likelihood sum at the fitted
 * point (the two passes the search chooses between), and ns per fused
 * profile evaluation for exceedance counts m in {20, 100, 500, 1500},
 * and writes the results to BENCH_estimator.json in the working
 * directory.
 *
 * Its verification pass is also a gate: every fit of the scenario and
 * of the throughput rows, cold and warm, must equal bit for bit a fit
 * whose search reads the exact likelihood alone (the plain-objective
 * nelderMeadMinimize overload). The binary exits 1 otherwise, so the
 * --quick smoke run enforces it.
 *
 * Usage: bench_estimator_hotpath [--quick]
 */

#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "stats/descriptive.hh"
#include "stats/gpd.hh"
#include "stats/gpd_fit.hh"
#include "stats/mean_excess.hh"
#include "stats/nelder_mead.hh"
#include "stats/pot.hh"
#include "stats/pot_accumulator.hh"
#include "stats/profile_eval.hh"
#include "stats/rng.hh"
#include "stats/special_functions.hh"
#include "stats/threshold.hh"

namespace
{

using namespace statsched;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Bounded sample with survival (1 - x/cap)^2, i.e. a xi = -0.5 tail. */
std::vector<double>
boundedSample(double cap, std::size_t n, stats::Rng &rng)
{
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(cap * (1.0 - std::sqrt(1.0 - rng.uniform())));
    return xs;
}

/** GPD(xi, sigma) exceedances by inverse-CDF sampling. */
std::vector<double>
gpdSample(double xi, double sigma, std::size_t m, stats::Rng &rng)
{
    std::vector<double> ys;
    ys.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double u = rng.uniform();
        ys.push_back(sigma / xi * (std::pow(1.0 - u, -xi) - 1.0));
    }
    return ys;
}

// ---------------------------------------------------------------------
// Bench-local replica of the pre-optimization pipeline. Uses only the
// library's public API so it stays a faithful record of the old cost
// profile even as the library changes underneath.
// ---------------------------------------------------------------------

template <typename F>
double
legacyGoldenMax(F f, double lo, double hi, double tol, int max_iter)
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

template <typename F>
double
legacyBisect(F f, double lo, double hi, double tol, int max_iter)
{
    double flo = f(lo);
    for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        if ((flo <= 0.0) == (fmid <= 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/** Pre-optimization tail linearity: materialize the full mean-excess
 *  plot, then filter — the cost profile of the original
 *  MeanExcess::tailLinearity(). */
double
legacyTailLinearity(const stats::MeanExcess &me, double u)
{
    auto full = me.plot();
    std::vector<double> xs;
    std::vector<double> es;
    for (const auto &p : full) {
        if (p.first >= u) {
            xs.push_back(p.first);
            es.push_back(p.second);
        }
    }
    if (xs.size() < 2)
        return 0.0;
    return stats::linearLeastSquares(xs, es).rSquared;
}

/** Pre-optimization fixed-fraction selection: full re-sort of the
 *  cumulative sample plus the full-plot linearity diagnostic. */
stats::ThresholdSelection
legacySelect(const std::vector<double> &sample,
             const stats::ThresholdOptions &options)
{
    stats::MeanExcess me{sample};
    const auto &sorted = me.sorted();
    const std::size_t cap = std::max<std::size_t>(
        options.minExceedances,
        static_cast<std::size_t>(
            std::floor(options.maxExceedanceFraction *
                       static_cast<double>(sorted.size()))));
    stats::ThresholdSelection sel;
    const std::size_t cut = sorted.size() - cap;
    sel.threshold = sorted[cut - 1];
    for (std::size_t i = cut; i < sorted.size(); ++i) {
        const double y = sorted[i] - sel.threshold;
        if (y > 0.0)
            sel.exceedances.push_back(y);
    }
    sel.tailLinearity = legacyTailLinearity(me, sel.threshold);
    return sel;
}

/** Pre-optimization MLE: moment start, two-log Gpd::logLikelihood
 *  objective, default 5% simplex, 1e-10 simplex tolerances. */
stats::GpdFit
legacyFitGpd(const std::vector<double> &ys)
{
    stats::GpdFit start;
    const double m = stats::mean(ys);
    const double v = stats::variance(ys);
    const double ratio = m * m / v;
    start.xi = 0.5 * (1.0 - ratio);
    start.sigma = 0.5 * m * (1.0 + ratio);

    const double y_max = stats::maximum(ys);
    if (start.xi < 0.0 && -start.sigma / start.xi <= y_max)
        start.sigma = -start.xi * y_max * 1.05;
    if (start.sigma <= 0.0)
        start.sigma = y_max;

    auto objective = [&ys](const std::vector<double> &p) {
        if (p[1] <= 0.0)
            return std::numeric_limits<double>::infinity();
        const double ll = stats::Gpd(p[0], p[1]).logLikelihood(ys);
        if (!std::isfinite(ll))
            return std::numeric_limits<double>::infinity();
        return -ll;
    };

    stats::NelderMeadOptions options;
    options.maxIterations = 4000;
    auto result = stats::nelderMeadMinimize(
        objective, {start.xi, start.sigma}, options);

    stats::GpdFit fit;
    fit.xi = result.point[0];
    fit.sigma = result.point[1];
    fit.logLikelihood = -result.value;
    fit.converged = result.converged && std::isfinite(result.value);
    return fit;
}

/** Pre-optimization estimate: sort + select + cold fit + unfused CI
 *  with the original 1e-12 / 1e-10 / 1e-9 tolerances. */
stats::PotEstimate
legacyEstimate(const std::vector<double> &sample,
               const stats::PotOptions &options)
{
    constexpr double infinity =
        std::numeric_limits<double>::infinity();
    stats::PotEstimate est;
    est.confidenceLevel = options.confidenceLevel;
    est.maxObserved = stats::maximum(sample);

    auto selection = legacySelect(sample, options.threshold);
    est.threshold = selection.threshold;
    est.exceedanceCount = selection.exceedances.size();
    est.exceedanceRate =
        static_cast<double>(selection.exceedances.size()) /
        static_cast<double>(sample.size());
    est.tailLinearity = selection.tailLinearity;
    const std::vector<double> &ys = selection.exceedances;

    est.fit = legacyFitGpd(ys);
    const double y_max = stats::maximum(ys);
    if (est.fit.xi >= 0.0) {
        est.valid = false;
        est.upb = infinity;
        est.upbLower = est.maxObserved;
        est.upbUpper = infinity;
        return est;
    }
    est.upb = est.threshold - est.fit.sigma / est.fit.xi;
    est.valid = true;

    auto profile = [&ys](double b) {
        return stats::profileLogLikelihoodUpb(b, ys).first;
    };
    auto xi_unconstrained = [&ys](double b) {
        double s = 0.0;
        for (double y : ys)
            s += std::log(1.0 - y / b);
        return s / static_cast<double>(ys.size());
    };
    const double b_point = est.upb - est.threshold;
    const double b_lo = y_max * (1.0 + 1e-9);
    const double b_hi = std::max(b_point * 8.0, y_max * 16.0);

    double b_interior = b_lo;
    if (xi_unconstrained(b_lo) < -1.0) {
        b_interior = legacyBisect(
            [&xi_unconstrained](double b) {
                return xi_unconstrained(b) + 1.0;
            },
            b_lo, b_hi, y_max * 1e-12, 200);
    }
    const double b_hat = legacyGoldenMax(profile, b_interior, b_hi,
                                         y_max * 1e-10, 400);
    est.profileMaxLogLik = profile(b_hat);

    const double cut = est.profileMaxLogLik -
        0.5 * stats::chiSquaredQuantile(options.confidenceLevel, 1.0);
    auto above_cut = [&profile, cut](double b) {
        return profile(b) - cut;
    };

    if (above_cut(b_lo) >= 0.0) {
        est.upbLower = est.maxObserved;
    } else {
        const double b_root = legacyBisect(above_cut, b_lo, b_hat,
                                           y_max * 1e-9, 200);
        est.upbLower = std::max(est.threshold + b_root,
                                est.maxObserved);
    }

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
        const double b_root = legacyBisect(above_cut, b_hat, b_up,
                                           y_max * 1e-9, 200);
        est.upbUpper = est.threshold + b_root;
    } else {
        est.upbUpper = infinity;
    }
    return est;
}

// ---------------------------------------------------------------------

/**
 * fitGpd()'s maximum-likelihood search on the exact likelihood alone:
 * the same start, options and coordinates, through the plain-objective
 * overload, so every comparison reads gpdNegativeLogLikelihood().
 */
stats::GpdFit
exactFitGpd(const std::vector<double> &ys, const stats::GpdFit *warm_start)
{
    stats::NelderMeadOptions options;
    options.maxIterations = 4000;
    options.tolX = 1e-6;
    options.tolF = 1e-9;

    stats::GpdFit start;
    if (warm_start != nullptr && warm_start->converged &&
        std::isfinite(warm_start->xi) &&
        std::isfinite(warm_start->sigma) && warm_start->sigma > 0.0) {
        start = *warm_start;
        options.initialPerturbation = 0.02;
    } else {
        start = stats::fitGpd(ys, stats::GpdEstimator::MethodOfMoments);
    }
    const double y_max = stats::maximum(ys);
    if (start.xi < 0.0 && -start.sigma / start.xi <= y_max)
        start.sigma = -start.xi * y_max * 1.05;
    if (start.sigma <= 0.0)
        start.sigma = y_max;

    auto objective = [&ys, y_max](const std::vector<double> &p) {
        return stats::gpdNegativeLogLikelihood(p[0], p[1] * y_max, ys);
    };
    auto result = stats::nelderMeadMinimize(
        objective, {start.xi, start.sigma / y_max}, options);

    stats::GpdFit fit;
    fit.xi = result.point[0];
    fit.sigma = result.point[1] * y_max;
    fit.logLikelihood = -result.value;
    fit.converged = result.converged && std::isfinite(result.value);
    return fit;
}

bool
bitEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

bool
bitIdentical(const stats::GpdFit &a, const stats::GpdFit &b)
{
    return bitEqual(a.xi, b.xi) && bitEqual(a.sigma, b.sigma) &&
        bitEqual(a.logLikelihood, b.logLikelihood) &&
        a.converged == b.converged;
}

/** The bounded-versus-exact fit comparisons of a run. */
struct FitGate
{
    std::size_t compared = 0;
    std::size_t differing = 0;

    /** Fits `ys` from `warm` both ways; returns the bounded fit. */
    stats::GpdFit check(const std::vector<double> &ys,
                        const stats::GpdFit *warm)
    {
        const auto bounded = stats::fitGpd(
            ys, stats::GpdEstimator::MaximumLikelihood, warm);
        ++compared;
        if (!bitIdentical(bounded, exactFitGpd(ys, warm)))
            ++differing;
        return bounded;
    }
};

bool
bitIdentical(const stats::PotEstimate &a, const stats::PotEstimate &b)
{
    return bitEqual(a.threshold, b.threshold) &&
        a.exceedanceCount == b.exceedanceCount &&
        bitEqual(a.fit.xi, b.fit.xi) &&
        bitEqual(a.fit.sigma, b.fit.sigma) &&
        bitEqual(a.fit.logLikelihood, b.fit.logLikelihood) &&
        a.fit.converged == b.fit.converged &&
        bitEqual(a.maxObserved, b.maxObserved) &&
        bitEqual(a.upb, b.upb) &&
        bitEqual(a.upbLower, b.upbLower) &&
        bitEqual(a.upbUpper, b.upbUpper) &&
        bitEqual(a.confidenceLevel, b.confidenceLevel) &&
        bitEqual(a.profileMaxLogLik, b.profileMaxLogLik) &&
        bitEqual(a.tailLinearity, b.tailLinearity) &&
        bitEqual(a.exceedanceRate, b.exceedanceRate) &&
        a.valid == b.valid;
}

struct ScenarioResult
{
    double legacySeconds = 0.0;
    double fastColdSeconds = 0.0;
    double fastWarmSeconds = 0.0;
    bool coldBitIdentical = true;
    double maxWarmUpbDelta = 0.0;
    std::size_t shortcutHits = 0;
    FitGate gate;
};

/**
 * The 10-round iterative scenario under all three pipelines. Each
 * repeat times each pipeline once on the same measurement stream; the
 * reported time is the minimum over repeats (the standard way to strip
 * scheduler noise from a deterministic workload).
 */
ScenarioResult
runScenario(std::size_t initial, std::size_t extension,
            std::size_t rounds, int repeats)
{
    const stats::PotOptions options;
    ScenarioResult out;
    out.legacySeconds = std::numeric_limits<double>::infinity();
    out.fastColdSeconds = std::numeric_limits<double>::infinity();
    out.fastWarmSeconds = std::numeric_limits<double>::infinity();

    // One measurement stream shared by every pipeline and repeat.
    stats::Rng rng(1234);
    std::vector<std::vector<double>> batches;
    batches.push_back(boundedSample(100.0, initial, rng));
    for (std::size_t r = 1; r < rounds; ++r)
        batches.push_back(boundedSample(100.0, extension, rng));

    for (int rep = 0; rep < repeats; ++rep) {
        // Legacy: from-scratch estimate per round.
        {
            std::vector<double> cumulative;
            const auto start = Clock::now();
            for (const auto &batch : batches) {
                cumulative.insert(cumulative.end(), batch.begin(),
                                  batch.end());
                auto est = legacyEstimate(cumulative, options);
                (void)est;
            }
            out.legacySeconds = std::min(
                out.legacySeconds, seconds(start, Clock::now()));
        }

        // Fast, cold fits.
        {
            stats::PotAccumulator acc(options, false);
            const auto start = Clock::now();
            for (const auto &batch : batches) {
                acc.extend(batch);
                auto est = acc.estimate();
                acc.addInterval(est);
            }
            out.fastColdSeconds = std::min(
                out.fastColdSeconds, seconds(start, Clock::now()));
        }

        // Fast, warm fits (the shipped default).
        {
            stats::PotAccumulator acc(options, true);
            const auto start = Clock::now();
            for (const auto &batch : batches) {
                acc.extend(batch);
                auto est = acc.estimate();
                acc.addInterval(est);
            }
            out.fastWarmSeconds = std::min(
                out.fastWarmSeconds, seconds(start, Clock::now()));
        }
    }

    // Verification passes (untimed): the cold incremental estimate
    // must match the from-scratch pipeline bit for bit on every round,
    // warm point estimates must agree with cold to CI-noise level, and
    // every round's cold and warm fits must equal the exact-objective
    // search's.
    {
        std::vector<double> cumulative;
        stats::PotAccumulator check(options, false);
        stats::PotAccumulator warm(options, true);
        stats::GpdFit warmFit;
        bool haveWarmFit = false;
        for (const auto &batch : batches) {
            cumulative.insert(cumulative.end(), batch.begin(),
                              batch.end());
            check.extend(batch);
            warm.extend(batch);
            auto inc = check.estimate();
            check.addInterval(inc);
            const auto scratch =
                stats::estimateOptimalPerformance(cumulative, options);
            if (!bitIdentical(inc, scratch))
                out.coldBitIdentical = false;
            auto w = warm.estimate();
            warm.addInterval(w);
            if (w.valid && inc.valid) {
                out.maxWarmUpbDelta =
                    std::max(out.maxWarmUpbDelta,
                             std::fabs(w.upb - inc.upb));
            }

            // The round's fits through the gate: cold, and warm from
            // the last converged fit, as PotAccumulator starts it.
            const auto selection = stats::selectThresholdFromSorted(
                check.tail(), check.size(), options.threshold);
            const auto &ys = selection.exceedances;
            if (ys.size() < options.threshold.minExceedances)
                continue;
            out.gate.check(ys, nullptr);
            const auto warm_fit = out.gate.check(
                ys, haveWarmFit ? &warmFit : nullptr);
            if (warm_fit.converged) {
                warmFit = warm_fit;
                haveWarmFit = true;
            }
        }
        out.shortcutHits = check.shortcutHits();
    }
    return out;
}

struct FitRates
{
    double coldPerSec = 0.0;
    double warmPerSec = 0.0;
    double coldExactShare = 0.0;   //!< exact / all likelihood evaluations
    double warmExactShare = 0.0;
    double boundedNsPerValue = 0.0; //!< one bounded estimate, per y
    double exactNsPerValue = 0.0;   //!< one exact sum, per y
    double profileEvalNs = 0.0;
};

double
exactShare(const stats::GpdFit &fit)
{
    return static_cast<double>(fit.exactEvaluations) /
        static_cast<double>(fit.evaluations);
}

FitRates
fitThroughput(std::size_t m, int iters, FitGate &gate)
{
    stats::Rng rng(99 + m);
    const auto ys = gpdSample(-0.3, 1.0, m, rng);

    FitRates out;
    {
        const auto cold = gate.check(ys, nullptr);
        out.coldExactShare = exactShare(cold);
        out.warmExactShare = exactShare(gate.check(ys, &cold));
    }
    {
        const auto start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            auto fit = stats::fitGpd(ys);
            (void)fit;
        }
        out.coldPerSec = iters / seconds(start, Clock::now());
    }
    {
        const auto warm = stats::fitGpd(ys);
        const auto start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            auto fit = stats::fitGpd(
                ys, stats::GpdEstimator::MaximumLikelihood, &warm);
            (void)fit;
        }
        out.warmPerSec = iters / seconds(start, Clock::now());
    }
    {
        // Both likelihood passes at the fitted point, where the search
        // spends its evaluations.
        const auto fit = stats::fitGpd(ys);
        const double y_max = stats::maximum(ys);
        const int evals = iters * 50;
        const double values = static_cast<double>(evals) *
            static_cast<double>(m);
        double sink = 0.0;
        auto start = Clock::now();
        for (int i = 0; i < evals; ++i) {
            sink += stats::gpdNegativeLogLikelihoodBounded(
                        fit.xi, fit.sigma, ys, y_max)
                        .value;
        }
        out.boundedNsPerValue =
            seconds(start, Clock::now()) * 1e9 / values;
        start = Clock::now();
        for (int i = 0; i < evals; ++i)
            sink += stats::gpdNegativeLogLikelihood(fit.xi, fit.sigma, ys);
        out.exactNsPerValue = seconds(start, Clock::now()) * 1e9 / values;
        if (!std::isfinite(sink))
            std::printf("unexpected non-finite likelihood sum\n");
    }
    {
        // Distinct b per evaluation so the memo never hits: this is
        // the cost of one fused exceedance pass.
        const double y_max = stats::maximum(ys);
        stats::ProfileEvaluator prof(ys);
        const int evals = iters * 50;
        double sink = 0.0;
        const auto start = Clock::now();
        for (int i = 0; i < evals; ++i)
            sink += prof.profile(y_max * (1.001 + 1e-7 * i));
        out.profileEvalNs =
            seconds(start, Clock::now()) * 1e9 / evals;
        if (!std::isfinite(sink))
            std::printf("unexpected non-finite profile sum\n");
    }
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const bool quick =
        argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const int repeats = quick ? 1 : 5;
    const int fit_iters = quick ? 20 : 200;

    bench::banner("estimator hot path",
                  "incremental + fused + warm-started POT estimation "
                  "vs the pre-optimization pipeline");
    std::printf("scenario: 1000 initial + 9 x 100 extensions, "
                "%d repeat(s)%s\n", repeats, quick ? " [quick]" : "");

    bench::section("iterative 10-round scenario");
    const auto sc = runScenario(1000, 100, 10, repeats);
    const double speedup_cold = sc.legacySeconds / sc.fastColdSeconds;
    const double speedup_warm = sc.legacySeconds / sc.fastWarmSeconds;
    std::printf("legacy     %8.1f ms\n", sc.legacySeconds * 1e3);
    std::printf("fast cold  %8.1f ms   (%.2fx, bit-identical to "
                "from-scratch: %s)\n",
                sc.fastColdSeconds * 1e3, speedup_cold,
                sc.coldBitIdentical ? "yes" : "NO");
    std::printf("fast warm  %8.1f ms   (%.2fx, max |UPB - cold UPB| "
                "= %.3g, shortcut hits %zu/10)\n",
                sc.fastWarmSeconds * 1e3, speedup_warm,
                sc.maxWarmUpbDelta, sc.shortcutHits);

    bench::section("fit throughput, likelihood passes and profile "
                   "evaluation");
    std::printf("%6s %12s %12s %11s %11s %11s %11s %16s\n", "m",
                "cold fits/s", "warm fits/s", "cold exact", "warm exact",
                "bounded/y", "exact/y", "profile eval ns");
    // 1500 is about paper-stateful12's mean exceedance count.
    constexpr int rows = 4;
    const std::size_t ms[rows] = {20, 100, 500, 1500};
    FitRates rates[rows];
    FitGate gate = sc.gate;
    for (int i = 0; i < rows; ++i) {
        rates[i] = fitThroughput(ms[i], fit_iters, gate);
        std::printf("%6zu %12.0f %12.0f %10.1f%% %10.1f%% %8.2f ns "
                    "%8.2f ns %16.1f\n",
                    ms[i], rates[i].coldPerSec, rates[i].warmPerSec,
                    100.0 * rates[i].coldExactShare,
                    100.0 * rates[i].warmExactShare,
                    rates[i].boundedNsPerValue, rates[i].exactNsPerValue,
                    rates[i].profileEvalNs);
    }
    const bool fits_identical = gate.differing == 0;
    std::printf("\nbounded fits bit-identical to the exact-objective "
                "search: %s (%zu fits)\n",
                fits_identical ? "yes" : "NO", gate.compared);

    // Machine-readable record of this run.
    FILE *json = std::fopen("BENCH_estimator.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"benchmark\": \"estimator_hotpath\",\n");
        std::fprintf(json,
                     "  \"command\": \"build/bench/bench_estimator_hotpath"
                     "%s\",\n", quick ? " --quick" : "");
        std::fprintf(json, "  \"quick\": %s,\n",
                     quick ? "true" : "false");
        std::fprintf(json,
                     "  \"scenario\": {\"initial\": 1000, "
                     "\"extension\": 100, \"rounds\": 10, "
                     "\"repeats\": %d},\n", repeats);
        std::fprintf(json, "  \"pipelines\": {\n");
        std::fprintf(json, "    \"legacy_seconds\": %.6f,\n",
                     sc.legacySeconds);
        std::fprintf(json, "    \"fast_cold_seconds\": %.6f,\n",
                     sc.fastColdSeconds);
        std::fprintf(json, "    \"fast_warm_seconds\": %.6f,\n",
                     sc.fastWarmSeconds);
        std::fprintf(json, "    \"speedup_cold\": %.3f,\n",
                     speedup_cold);
        std::fprintf(json, "    \"speedup_warm\": %.3f,\n",
                     speedup_warm);
        std::fprintf(json, "    \"cold_bit_identical\": %s,\n",
                     sc.coldBitIdentical ? "true" : "false");
        std::fprintf(json, "    \"max_warm_upb_delta\": %.3g,\n",
                     sc.maxWarmUpbDelta);
        std::fprintf(json, "    \"shortcut_hits\": %zu\n",
                     sc.shortcutHits);
        std::fprintf(json, "  },\n");
        std::fprintf(json, "  \"fit_throughput\": [\n");
        for (int i = 0; i < rows; ++i) {
            std::fprintf(json,
                         "    {\"m\": %zu, \"cold_fits_per_sec\": "
                         "%.0f, \"warm_fits_per_sec\": %.0f, "
                         "\"cold_exact_share\": %.3f, "
                         "\"warm_exact_share\": %.3f, "
                         "\"bounded_ns_per_value\": %.2f, "
                         "\"exact_ns_per_value\": %.2f, "
                         "\"profile_eval_ns\": %.1f}%s\n",
                         ms[i], rates[i].coldPerSec,
                         rates[i].warmPerSec, rates[i].coldExactShare,
                         rates[i].warmExactShare,
                         rates[i].boundedNsPerValue,
                         rates[i].exactNsPerValue, rates[i].profileEvalNs,
                         i + 1 < rows ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        std::fprintf(json,
                     "  \"fits_compared\": %zu,\n"
                     "  \"fits_bit_identical\": %s\n}\n",
                     gate.compared, fits_identical ? "true" : "false");
        std::fclose(json);
        std::printf("\nwrote BENCH_estimator.json\n");
    }

    if (!sc.coldBitIdentical) {
        std::printf("FAIL: cold incremental estimate diverged from "
                    "the from-scratch pipeline\n");
        return 1;
    }
    if (!fits_identical) {
        std::printf("FAIL: %zu of %zu bounded fits differ from the "
                    "exact-objective search\n",
                    gate.differing, gate.compared);
        return 1;
    }
    return 0;
}
