/**
 * @file
 * Threshold selection implementation.
 */

#include "stats/threshold.hh"

#include <algorithm>
#include <cmath>

#include "base/check.hh"
#include "stats/mean_excess.hh"

namespace statsched
{
namespace stats
{

namespace
{

/**
 * Builds a selection whose exceedances are the top `count` order
 * statistics; the threshold is placed at the highest excluded value so
 * exactly `count` observations lie strictly above it (ties reduce the
 * count, which keeps the iid exceedance definition exact).
 */
ThresholdSelection
selectionFromCount(const std::vector<double> &sorted, std::size_t count,
                   const MeanExcess &me)
{
    ThresholdSelection sel;
    SCHED_REQUIRE(count >= 1 && count < sorted.size(),
                  "invalid exceedance count");
    const std::size_t cut = sorted.size() - count;
    sel.threshold = sorted[cut - 1];
    for (std::size_t i = cut; i < sorted.size(); ++i) {
        const double y = sorted[i] - sel.threshold;
        if (y > 0.0)
            sel.exceedances.push_back(y);
    }
    sel.tailLinearity = me.tailLinearity(sel.threshold);
    return sel;
}

} // anonymous namespace

std::size_t
exceedanceCap(std::size_t sample_size, const ThresholdOptions &options)
{
    return std::max<std::size_t>(
        options.minExceedances,
        static_cast<std::size_t>(
            std::floor(options.maxExceedanceFraction *
                       static_cast<double>(sample_size))));
}

ThresholdSelection
selectThreshold(const std::vector<double> &sample,
                const ThresholdOptions &options)
{
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    return selectThresholdFromSorted(sorted, options);
}

ThresholdSelection
selectThresholdFromSorted(const std::vector<double> &sorted,
                          const ThresholdOptions &options)
{
    SCHED_REQUIRE(options.maxExceedanceFraction > 0.0 &&
                  options.maxExceedanceFraction < 1.0,
                  "exceedance fraction out of (0,1)");
    SCHED_REQUIRE(options.minExceedances >= 5,
                  "need at least 5 exceedances for a GPD fit");
    SCHED_REQUIRE(sorted.size() >= 2 * options.minExceedances,
                  "sample too small for threshold selection");
    SCHED_REQUIRE(std::is_sorted(sorted.begin(), sorted.end()),
                  "threshold selection requires ascending order");

    const std::size_t cap = exceedanceCap(sorted.size(), options);

    // The lowest threshold either policy can pick is
    // sorted[n - cap - 1]. Mean excesses and linearity at or above it
    // read only the values from its first copy up, and the suffix sums
    // accumulate from the top, so this tail gives every double the
    // whole sample would.
    const auto tail = std::lower_bound(
        sorted.begin(), sorted.end(), sorted[sorted.size() - cap - 1]);
    const MeanExcess me =
        MeanExcess::fromSorted(std::vector<double>(tail, sorted.end()));

    if (options.policy == ThresholdPolicy::FixedFraction)
        return selectionFromCount(sorted, cap, me);

    // Linearity scan: evaluate candidate exceedance counts between the
    // minimum and the cap, keep the most linear tail. Ties favour more
    // exceedances (tighter estimates).
    ThresholdSelection best;
    bool have_best = false;
    const std::size_t lo = options.minExceedances;
    const std::size_t hi = cap;
    const std::size_t steps =
        std::max<std::size_t>(2, options.scanCandidates);
    for (std::size_t s = 0; s < steps; ++s) {
        const std::size_t count = lo +
            (hi - lo) * s / (steps - 1);
        if (count < options.minExceedances || count > cap)
            continue;
        auto sel = selectionFromCount(sorted, count, me);
        if (sel.exceedances.size() < options.minExceedances)
            continue;
        if (!have_best || sel.tailLinearity > best.tailLinearity ||
            (sel.tailLinearity == best.tailLinearity &&
             sel.exceedances.size() > best.exceedances.size())) {
            best = std::move(sel);
            have_best = true;
        }
    }
    if (!have_best)
        return selectionFromCount(sorted, cap, me);
    return best;
}

} // namespace stats
} // namespace statsched
