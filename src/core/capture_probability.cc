/**
 * @file
 * Capture probability implementation.
 */

#include "core/capture_probability.hh"

#include <algorithm>
#include <cmath>

#include "base/check.hh"

namespace statsched
{
namespace core
{

double
captureProbability(double percent, std::uint64_t n)
{
    SCHED_REQUIRE(percent > 0.0 && percent < 100.0,
                  "percent out of (0,100)");
    // log1p-based evaluation keeps precision for tiny P and large n.
    const double log_miss = std::log1p(-percent / 100.0);
    return -std::expm1(static_cast<double>(n) * log_miss);
}

std::optional<std::uint64_t>
requiredSampleSizeIfFits(double percent, double target)
{
    SCHED_REQUIRE(percent > 0.0 && percent < 100.0,
                  "percent out of (0,100)");
    SCHED_REQUIRE(target > 0.0 && target < 1.0,
                  "target probability out of (0,1)");
    const double log_miss = std::log1p(-percent / 100.0);
    // +inf when percent / 100 underflows and log_miss is -0.
    const double n = std::ceil(std::log1p(-target) / log_miss - 1e-12);
    if (!(n < 0x1p64))
        return std::nullopt;
    return static_cast<std::uint64_t>(n);
}

std::uint64_t
requiredSampleSize(double percent, double target)
{
    const std::optional<std::uint64_t> n =
        requiredSampleSizeIfFits(percent, target);
    SCHED_REQUIRE(n.has_value(),
                  "the sample size does not fit in 64 bits");
    return *n;
}

std::vector<std::pair<std::uint64_t, double>>
captureCurve(double percent, std::uint64_t max_n, std::size_t points)
{
    SCHED_REQUIRE(points >= 2, "need at least two curve points");
    SCHED_REQUIRE(max_n >= 1, "empty curve range");
    std::vector<std::pair<std::uint64_t, double>> out;
    out.reserve(points);
    const double log_max = std::log(static_cast<double>(max_n));
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < points; ++i) {
        const double f = static_cast<double>(i) /
            static_cast<double>(points - 1);
        std::uint64_t n = static_cast<std::uint64_t>(
            std::llround(std::exp(f * log_max)));
        n = std::max<std::uint64_t>(n, 1);
        if (n == last)
            continue;
        last = n;
        out.emplace_back(n, captureProbability(percent, n));
    }
    return out;
}

} // namespace core
} // namespace statsched
