/**
 * @file
 * Nelder-Mead implementation (Lagarias et al. 1998 formulation, the
 * algorithm behind Matlab's fminsearch).
 */

#include "stats/nelder_mead.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "base/check.hh"

namespace statsched
{
namespace stats
{

namespace
{

/** fminsearch's coefficients, and its perturbation of a zero
 *  coordinate of the initial simplex. */
constexpr double kReflection = 1.0;
constexpr double kExpansion = 2.0;
constexpr double kContraction = 0.5;
constexpr double kShrink = 0.5;
constexpr double kZeroPerturbation = 0.00025;

/**
 * A simplex vertex: a point, its objective value and the bound on that
 * value's distance from the exact objective (0 once exact). `f` and
 * `bound` cache the exact value: comparisons, the sort's among them,
 * replace an estimate by it when the bounds cannot decide.
 */
struct Vertex
{
    std::vector<double> x;
    mutable double f;
    mutable double bound;
};

/** Slack for the rounding of a bound interval's ends, relative to the
 *  values and bounds that form them. */
constexpr double endSlack = 4.0 * std::numeric_limits<double>::epsilon();

/**
 * Whether exact(a) < exact(b) is certain from the bounds: a's interval
 * ends below b's. Its ends are rounded, so the gap must clear a few
 * ulps of the values as well. An infinite value carries bound 0 and
 * settles the comparison by itself.
 */
bool
surelyBelow(const Vertex &a, const Vertex &b)
{
    const double gap = (b.f - b.bound) - (a.f + a.bound);
    if (!std::isfinite(gap))
        return gap > 0.0;
    return gap > endSlack * (std::fabs(a.f) + std::fabs(b.f) + a.bound +
                             b.bound);
}

/** Evaluates points and decides comparisons, counting evaluations. */
class Evaluator
{
  public:
    explicit Evaluator(const BoundedObjective &objective)
        : objective_(objective)
    {
    }

    /** The vertex at `x`, holding its estimate. */
    Vertex at(std::vector<double> x)
    {
        ++evaluations;
        const BoundedValue e = objective_.estimate(x);
        SCHED_REQUIRE(!(e.bound < 0.0), "negative objective bound");
        Vertex v{std::move(x), e.value, e.bound};
        if (v.bound == 0.0)
            ++exactEvaluations;
        else if (!std::isfinite(v.f) || !std::isfinite(v.bound))
            refine(v);
        return v;
    }

    /** Replaces `v`'s estimate by its exact value, once. */
    void refine(const Vertex &v)
    {
        if (v.bound == 0.0)
            return;
        v.f = objective_.exact(v.x);
        v.bound = 0.0;
        ++exactEvaluations;
    }

    /** exact(a) < exact(b). */
    bool less(const Vertex &a, const Vertex &b)
    {
        return decide(a, b, std::less<>());
    }

    /** exact(a) <= exact(b). */
    bool lessEqual(const Vertex &a, const Vertex &b)
    {
        return decide(a, b, std::less_equal<>());
    }

    std::size_t evaluations = 0;
    std::size_t exactEvaluations = 0;

  private:
    /** Decides on the bounds when they are apart; refines the vertex
     *  with the wider bound while they overlap. */
    template <typename Compare>
    bool decide(const Vertex &a, const Vertex &b, Compare compare)
    {
        while (a.bound != 0.0 || b.bound != 0.0) {
            if (surelyBelow(a, b))
                return true;
            if (surelyBelow(b, a))
                return false;
            refine(a.bound >= b.bound ? a : b);
        }
        return compare(a.f, b.f);
    }

    const BoundedObjective &objective_;
};

std::vector<double>
centroidExcludingWorst(const std::vector<Vertex> &simplex)
{
    const std::size_t n = simplex[0].x.size();
    std::vector<double> c(n, 0.0);
    for (std::size_t v = 0; v + 1 < simplex.size(); ++v) {
        for (std::size_t i = 0; i < n; ++i)
            c[i] += simplex[v].x[i];
    }
    for (std::size_t i = 0; i < n; ++i)
        c[i] /= static_cast<double>(simplex.size() - 1);
    return c;
}

std::vector<double>
affine(const std::vector<double> &base, const std::vector<double> &dir,
       double t)
{
    std::vector<double> out(base.size());
    for (std::size_t i = 0; i < base.size(); ++i)
        out[i] = base[i] + t * (dir[i] - base[i]);
    return out;
}

} // anonymous namespace

NelderMeadResult
nelderMeadMinimize(const BoundedObjective &objective,
                   const std::vector<double> &start,
                   const NelderMeadOptions &options)
{
    SCHED_REQUIRE(!start.empty(), "empty starting point");
    const std::size_t n = start.size();
    Evaluator eval(objective);

    // fminsearch-style initial simplex: perturb each coordinate by
    // initialPerturbation (5% by default), or set it to
    // kZeroPerturbation when it is zero.
    std::vector<Vertex> simplex;
    simplex.reserve(n + 1);
    simplex.push_back(eval.at(start));
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> p(start);
        if (p[i] != 0.0)
            p[i] *= 1.0 + options.initialPerturbation;
        else
            p[i] = kZeroPerturbation;
        simplex.push_back(eval.at(std::move(p)));
    }

    // Answers exactly as a comparison of exact values would, so the
    // sort's permutation is the exact objective's.
    auto by_value = [&eval](const Vertex &a, const Vertex &b) {
        return eval.less(a, b);
    };

    NelderMeadResult result;
    for (std::size_t iter = 0; iter < options.maxIterations; ++iter) {
        std::sort(simplex.begin(), simplex.end(), by_value);

        // Convergence: max coordinate spread, then value spread.
        double max_dx = 0.0;
        for (std::size_t v = 1; v < simplex.size(); ++v) {
            for (std::size_t i = 0; i < n; ++i) {
                max_dx = std::max(
                    max_dx,
                    std::fabs(simplex[v].x[i] - simplex[0].x[i]));
            }
        }
        if (max_dx <= options.tolX) {
            eval.refine(simplex.front());
            eval.refine(simplex.back());
            if (std::fabs(simplex.back().f - simplex.front().f) <=
                options.tolF) {
                result.converged = true;
                result.iterations = iter;
                break;
            }
        }
        result.iterations = iter + 1;

        const auto centroid = centroidExcludingWorst(simplex);
        Vertex &worst = simplex.back();
        const Vertex &best = simplex.front();
        const Vertex &second_worst = simplex[simplex.size() - 2];

        // Reflection.
        Vertex r = eval.at(affine(centroid, worst.x, -kReflection));

        if (eval.less(r, best)) {
            // Expansion.
            Vertex e = eval.at(
                affine(centroid, worst.x, -kReflection * kExpansion));
            worst = eval.less(e, r) ? std::move(e) : std::move(r);
            continue;
        }
        if (eval.less(r, second_worst)) {
            worst = std::move(r);
            continue;
        }

        // Contraction (outside if the reflected point improved on the
        // worst vertex, inside otherwise).
        if (eval.less(r, worst)) {
            Vertex c = eval.at(affine(centroid, r.x, kContraction));
            if (eval.lessEqual(c, r)) {
                worst = std::move(c);
                continue;
            }
        } else {
            Vertex c = eval.at(affine(centroid, worst.x, kContraction));
            if (eval.less(c, worst)) {
                worst = std::move(c);
                continue;
            }
        }

        // Shrink towards the best vertex.
        for (std::size_t v = 1; v < simplex.size(); ++v) {
            simplex[v] =
                eval.at(affine(simplex[0].x, simplex[v].x, kShrink));
        }
    }

    std::sort(simplex.begin(), simplex.end(), by_value);
    eval.refine(simplex.front());
    result.point = simplex.front().x;
    result.value = simplex.front().f;
    result.evaluations = eval.evaluations;
    result.exactEvaluations = eval.exactEvaluations;
    return result;
}

NelderMeadResult
nelderMeadMinimize(const std::function<double(
                       const std::vector<double> &)> &objective,
                   const std::vector<double> &start,
                   const NelderMeadOptions &options)
{
    const BoundedObjective exact{
        [&objective](const std::vector<double> &x) {
            return BoundedValue{objective(x), 0.0};
        },
        objective};
    return nelderMeadMinimize(exact, start, options);
}

} // namespace stats
} // namespace statsched
