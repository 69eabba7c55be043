/**
 * @file
 * MeanExcess implementation.
 */

#include "stats/mean_excess.hh"

#include <algorithm>

#include "base/check.hh"
#include "stats/descriptive.hh"

namespace statsched
{
namespace stats
{

MeanExcess::MeanExcess(std::vector<double> sample)
    : sorted_(std::move(sample))
{
    SCHED_REQUIRE(!sorted_.empty(), "mean excess of empty sample");
    std::sort(sorted_.begin(), sorted_.end());
    buildSuffixSums();
}

MeanExcess
MeanExcess::fromSorted(std::vector<double> sorted)
{
    SCHED_REQUIRE(!sorted.empty(), "mean excess of empty sample");
    SCHED_REQUIRE(std::is_sorted(sorted.begin(), sorted.end()),
                  "fromSorted() requires ascending order");
    MeanExcess me;
    me.sorted_ = std::move(sorted);
    me.buildSuffixSums();
    return me;
}

void
MeanExcess::buildSuffixSums()
{
    suffixSum_.assign(sorted_.size() + 1, 0.0);
    for (std::size_t i = sorted_.size(); i-- > 0;)
        suffixSum_[i] = suffixSum_[i + 1] + sorted_[i];
}

double
MeanExcess::evaluate(double u) const
{
    // k = index of the first observation strictly above u.
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), u);
    const std::size_t k = static_cast<std::size_t>(it - sorted_.begin());
    const std::size_t m = sorted_.size() - k;
    if (m == 0)
        return 0.0;
    const double excess_sum =
        suffixSum_[k] - u * static_cast<double>(m);
    return excess_sum / static_cast<double>(m);
}

std::vector<std::pair<double, double>>
MeanExcess::plot() const
{
    std::vector<std::pair<double, double>> out;
    out.reserve(sorted_.size());
    for (std::size_t i = 0; i + 1 < sorted_.size(); ++i) {
        // Skip duplicate thresholds: e_n is a function of the value.
        if (i > 0 && sorted_[i] == sorted_[i - 1])
            continue;
        out.emplace_back(sorted_[i], evaluate(sorted_[i]));
    }
    return out;
}

std::vector<std::pair<double, double>>
MeanExcess::upperPlot(double q) const
{
    SCHED_REQUIRE(q >= 0.0 && q < 1.0, "quantile out of [0,1)");
    const double cut = quantileSorted(sorted_, q);
    auto full = plot();
    std::vector<std::pair<double, double>> out;
    for (const auto &p : full) {
        if (p.first >= cut)
            out.push_back(p);
    }
    return out;
}

double
MeanExcess::tailLinearity(double u) const
{
    // Walk only the tail of the sorted sample instead of materializing
    // the full plot and filtering: lower_bound lands on the first
    // occurrence of the first value >= u, and each step jumps over the
    // copies of one value, so the walk visits exactly the plot points
    // that the full plot would have kept, in the same order. The jump
    // ends on the first value above x, which is where evaluate(x)'s
    // upper_bound lands, so e_n(x) below is the same double.
    const std::size_t n = sorted_.size();
    std::size_t i = static_cast<std::size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), u) -
        sorted_.begin());
    std::vector<double> xs;
    std::vector<double> ys;
    // The maximum has no exceedances and is never plotted.
    while (i + 1 < n) {
        const double x = sorted_[i];
        std::size_t above = i + 1;
        while (above < n && sorted_[above] == x)
            ++above;
        const std::size_t m = n - above;
        xs.push_back(x);
        ys.push_back(m == 0 ? 0.0
                            : (suffixSum_[above] -
                               x * static_cast<double>(m)) /
                                  static_cast<double>(m));
        i = above;
    }
    if (xs.size() < 2)
        return 0.0;
    return linearLeastSquares(xs, ys).rSquared;
}

} // namespace stats
} // namespace statsched
