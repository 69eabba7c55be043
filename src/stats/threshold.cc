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
 * count, which keeps the iid exceedance definition exact). Reads
 * tail[t - count - 1, t) only; tailLinearity stays NaN.
 */
ThresholdSelection
selectionFromCount(const std::vector<double> &tail, std::size_t count)
{
    ThresholdSelection sel;
    SCHED_REQUIRE(count >= 1 && count < tail.size(),
                  "invalid exceedance count");
    const std::size_t cut = tail.size() - count;
    sel.threshold = tail[cut - 1];
    sel.exceedances.reserve(count);
    for (std::size_t i = cut; i < tail.size(); ++i) {
        const double y = tail[i] - sel.threshold;
        if (y > 0.0)
            sel.exceedances.push_back(y);
    }
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
    return selectThresholdFromSorted(sorted, sorted.size(), options);
}

ThresholdSelection
selectThresholdFromSorted(const std::vector<double> &tail, std::size_t n,
                          const ThresholdOptions &options)
{
    SCHED_REQUIRE(options.maxExceedanceFraction > 0.0 &&
                  options.maxExceedanceFraction < 1.0,
                  "exceedance fraction out of (0,1)");
    SCHED_REQUIRE(options.minExceedances >= 5,
                  "need at least 5 exceedances for a GPD fit");
    SCHED_REQUIRE(n >= 2 * options.minExceedances,
                  "sample too small for threshold selection");

    const std::size_t cap = exceedanceCap(n, options);
    SCHED_REQUIRE(tail.size() > cap && tail.size() <= n,
                  "threshold selection needs the top cap + 1 values");

    // The lowest threshold either policy can pick is the sample's
    // order statistic n - cap - 1. The fixed fraction reads from it
    // up. The scan's mean excesses and linearity read the values from
    // its first copy up, which the tail holds, and the suffix sums
    // accumulate from the top, so this range gives every double the
    // whole sample would. The order check covers the range read:
    // O(cap), not O(n).
    const auto lowest =
        tail.end() - static_cast<std::ptrdiff_t>(cap + 1);
    const auto read =
        options.policy == ThresholdPolicy::FixedFraction
            ? lowest
            : std::lower_bound(tail.begin(), lowest, *lowest);
    SCHED_REQUIRE(std::is_sorted(read, tail.end()),
                  "threshold selection requires ascending order");

    if (options.policy == ThresholdPolicy::FixedFraction)
        return selectionFromCount(tail, cap);

    const MeanExcess me =
        MeanExcess::fromSorted(std::vector<double>(read, tail.end()));
    auto scored = [&](std::size_t count) {
        ThresholdSelection sel = selectionFromCount(tail, count);
        sel.tailLinearity = me.tailLinearity(sel.threshold);
        return sel;
    };

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
        auto sel = scored(count);
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
        return scored(cap);
    return best;
}

} // namespace stats
} // namespace statsched
