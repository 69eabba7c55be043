/**
 * @file
 * PotAccumulator implementation.
 */

#include "stats/pot_accumulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "base/check.hh"
#include "base/logging.hh"

namespace statsched
{
namespace stats
{

PotAccumulator::PotAccumulator(const PotOptions &options,
                               bool warmStartFits)
    : options_(options), warmStartFits_(warmStartFits)
{
    SCHED_REQUIRE(options.confidenceLevel > 0.0 &&
                  options.confidenceLevel < 1.0,
                  "confidence level out of (0,1)");
}

void
PotAccumulator::extend(const std::vector<double> &values)
{
    if (values.empty())
        return;

    // Non-finite values (failed measurements leaking through the
    // double channel) would corrupt the maintained order and every
    // later fit; reject them here with a diagnostic instead of
    // poisoning the sample. Callers measuring through the engine
    // outcome channel never hit this path.
    std::vector<double> batch;
    batch.reserve(values.size());
    std::copy_if(values.begin(), values.end(), std::back_inserter(batch),
                 [](double v) { return std::isfinite(v); });
    const std::size_t bad = values.size() - batch.size();
    if (bad != 0) {
        if (rejectedNonFinite_ == 0) {
            warn("PotAccumulator: rejecting non-finite sample "
                 "value(s); exclude failed measurements before "
                 "extending");
        }
        rejectedNonFinite_ += bad;
    }
    if (batch.empty())
        return;

    // Sort the k new values. Those below the tail's floor (its
    // smallest value, while the body holds anything) join the body in
    // that order; the rest merge into the tail from the back: O(k log
    // k + k log t) comparisons and one move of each tail value above
    // the smallest of them. Each new value, largest first, lands just
    // above the old values <= it, so old values stay ahead of equal
    // new ones as std::inplace_merge orders them, and the tail is
    // exactly the top of what sorting the cumulative sample produces.
    // Each placed value is checked against its two neighbours, which
    // is the tail's order check: O(k) per batch, where estimate()
    // checks only the part it reads. The one below is data[pos - 1],
    // which the merge does not move; data[pos + j - 1] is stale
    // mid-merge.
    std::sort(batch.begin(), batch.end());
    pendingMax_ = havePending_ ? std::max(pendingMax_, batch.back())
                               : batch.back();
    havePending_ = true;

    const auto upper = body_.empty()
        ? batch.begin()
        : std::lower_bound(batch.begin(), batch.end(), tail_.front());
    body_.insert(body_.end(), batch.begin(), upper);
    const std::size_t k = static_cast<std::size_t>(batch.end() - upper);
    std::size_t old_end = tail_.size();
    tail_.resize(old_end + k);
    double *data = tail_.data();
    for (std::size_t j = k; j-- > 0;) {
        const double v = upper[static_cast<std::ptrdiff_t>(j)];
        const std::size_t pos = static_cast<std::size_t>(
            std::upper_bound(data, data + old_end, v) - data);
        std::memmove(data + pos + j + 1, data + pos,
                     (old_end - pos) * sizeof(double));
        data[pos + j] = v;
        SCHED_INVARIANT((pos == 0 || data[pos - 1] <= v) &&
                        (pos + j + 1 == tail_.size() ||
                         v <= data[pos + j + 1]),
                        "extend() must keep the tail in ascending "
                        "order");
        old_end = pos;
    }

    // Keep the tail between cap + 1 and four times that (or the whole
    // sample). When the cap outgrows the tail, the whole body sorts
    // back into it; a stable sort puts equal values in the order the
    // merges gave them: batch by batch, each as sorted. When the tail
    // grows past four times cap + 1, the runs of equal values below
    // its (2 (cap + 1))-th largest move to the body in order. On an
    // iid stream the floor then keeps about twice the cap's share of
    // the sample, so neither happens again after the first round.
    const std::size_t n = size();
    const std::size_t need =
        std::min(n, exceedanceCap(n, options_.threshold) + 1);
    if (tail_.size() < need) {
        std::stable_sort(body_.begin(), body_.end());
        tail_.insert(tail_.begin(), body_.begin(), body_.end());
        body_.clear();
    }
    if (tail_.size() > 4 * need) {
        const auto keep = std::lower_bound(
            tail_.begin(), tail_.end(), tail_[tail_.size() - 2 * need]);
        body_.insert(body_.end(), tail_.begin(), keep);
        tail_.erase(tail_.begin(), keep);
    }
}

PotEstimate
PotAccumulator::estimate()
{
    SCHED_REQUIRE(!tail_.empty(), "estimate over an empty sample");

    PotEstimate est;
    est.confidenceLevel = options_.confidenceLevel;
    est.maxObserved = tail_.back();

    const std::size_t n = size();
    if (n < 2 * options_.threshold.minExceedances) {
        // Too small for threshold selection; keep accumulating. The
        // pending batch stays pending — no tail has been selected yet
        // for it to be compared against.
        detail::markPotEstimateInvalid(
            est, "sample too small for threshold selection");
        return est;
    }

    const std::size_t cap = exceedanceCap(n, options_.threshold);

    // Tail-unchanged shortcut: under the fixed-fraction policy, if the
    // exceedance cap did not grow and every value added since the last
    // estimate sits at or below the previous threshold, then the top
    // cap + 1 order statistics — and with them the threshold and the
    // strict exceedances — are exactly what they were. The previous
    // estimate is still the answer; only the exceedance rate
    // (denominator n) moved.
    if (havePrevious_ &&
        options_.threshold.policy == ThresholdPolicy::FixedFraction &&
        cap == previousCap_ &&
        (!havePending_ || pendingMax_ <= previous_.threshold)) {
        ++shortcutHits_;
        havePending_ = false;
        previous_.exceedanceRate =
            static_cast<double>(previous_.exceedanceCount) /
            static_cast<double>(n);
        return previous_;
    }

    // Full path: threshold selection over the maintained tail (no
    // re-sort, no whole-sample scan), then the shared fit + point
    // estimate pipeline.
    ThresholdSelection selection =
        selectThresholdFromSorted(tail_, n, options_.threshold);
    est.threshold = selection.threshold;
    est.exceedanceCount = selection.exceedances.size();
    est.exceedanceRate =
        static_cast<double>(selection.exceedances.size()) /
        static_cast<double>(n);
    est.tailLinearity = selection.tailLinearity;
    exceedances_ = std::move(selection.exceedances);

    havePrevious_ = true;
    previousCap_ = cap;
    havePending_ = false;

    if (exceedances_.size() < options_.threshold.minExceedances) {
        detail::markPotEstimateInvalid(
            est, "too few strict exceedances above the threshold");
        previous_ = est;
        return est;
    }

    const GpdFit *warm =
        (warmStartFits_ && haveLastFit_) ? &lastFit_ : nullptr;
    detail::fitPotEstimate(est, exceedances_, options_, warm);
    if (est.fit.converged) {
        lastFit_ = est.fit;
        haveLastFit_ = true;
    }
    previous_ = est;
    return est;
}

void
PotAccumulator::addInterval(PotEstimate &est)
{
    if (!est.intervalPending())
        return;
    SCHED_REQUIRE(havePrevious_ && est.threshold == previous_.threshold &&
                  est.exceedanceCount == previous_.exceedanceCount &&
                  est.fit.xi == previous_.fit.xi &&
                  est.fit.sigma == previous_.fit.sigma,
                  "addInterval() needs the last estimate()'s result");
    detail::addProfileInterval(est, exceedances_, options_);
    // The shortcut hands previous_ out again while the tail stands.
    previous_ = est;
}

} // namespace stats
} // namespace statsched
