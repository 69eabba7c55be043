/**
 * @file
 * FaultInjectingEngine and ValueCorruptingEngine implementation.
 */

#include "core/fault_injection.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "base/check.hh"
#include "base/logging.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Multiplier of an outlier reading, which is still reported Ok. */
constexpr double kOutlierFactor = 3.0;
/** Modeled wall-clock cost of one hang until the watchdog fires
 *  (priced into EngineStats::modeledSeconds). */
constexpr double kHangSeconds = 10.0;

/** SplitMix64 finalizer. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** FNV-1a over the labeled contexts of an assignment. */
std::uint64_t
assignmentHash(const Assignment &assignment)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ContextId context : assignment.contexts()) {
        h ^= static_cast<std::uint64_t>(context);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** @return `outcome` with its value bits corrupted when Ok. */
MeasurementOutcome
corrupt(MeasurementOutcome outcome)
{
    if (!outcome.ok())
        return outcome;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &outcome.value, sizeof bits);
    bits ^= 0xffffffULL; // low mantissa: finite, same magnitude
    std::memcpy(&outcome.value, &bits, sizeof bits);
    return outcome;
}

} // anonymous namespace

FaultInjectingEngine::FaultInjectingEngine(PerformanceEngine &inner,
                                           const FaultOptions &options)
    : EngineDecorator(inner), options_(options)
{
    SCHED_REQUIRE(options.hangRate >= 0.0 &&
                  options.transientRate >= 0.0 &&
                  options.garbageRate >= 0.0 &&
                  options.outlierRate >= 0.0,
                  "fault rates must be non-negative");
    SCHED_REQUIRE(options.totalRate() <= 1.0,
                  "fault rates sum past 1");
}

FaultInjectingEngine::FaultKind
FaultInjectingEngine::faultAt(std::uint64_t index,
                              const Assignment &assignment) const
{
    // One uniform variate from a SplitMix64 finalizer over
    // (seed, index, assignment): pure, thread-free, and independent
    // of the wrapped engine's noise stream.
    const std::uint64_t z = mix64(
        options_.seed ^
        (index + 1) * 0x9e3779b97f4a7c15ull ^
        assignmentHash(assignment));
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;

    double edge = options_.hangRate;
    if (u < edge)
        return FaultKind::Hang;
    edge += options_.transientRate;
    if (u < edge)
        return FaultKind::Transient;
    edge += options_.garbageRate;
    if (u < edge)
        return FaultKind::Garbage;
    edge += options_.outlierRate;
    if (u < edge)
        return FaultKind::Outlier;
    return FaultKind::None;
}

MeasurementOutcome
FaultInjectingEngine::applyFault(
    std::uint64_t index, const Assignment &assignment,
    const std::function<MeasurementOutcome()> &clean)
{
    switch (faultAt(index, assignment)) {
      case FaultKind::None:
        return clean();
      case FaultKind::Outlier:
        {
            // A silently wrong reading: delivered Ok, value inflated.
            outliers_.fetch_add(1, std::memory_order_relaxed);
            const MeasurementOutcome outcome = clean();
            if (!outcome.ok())
                return outcome;
            return MeasurementOutcome::classify(
                outcome.value * kOutlierFactor);
        }
      case FaultKind::Garbage:
        {
            garbage_.fetch_add(1, std::memory_order_relaxed);
            MeasurementOutcome outcome;
            outcome.value = std::numeric_limits<double>::quiet_NaN();
            outcome.status = MeasureStatus::Invalid;
            return outcome;
        }
      case FaultKind::Transient:
        transients_.fetch_add(1, std::memory_order_relaxed);
        return MeasurementOutcome::failure(MeasureStatus::Errored);
      case FaultKind::Hang:
        hangs_.fetch_add(1, std::memory_order_relaxed);
        return MeasurementOutcome::failure(MeasureStatus::TimedOut);
    }
    SCHED_UNREACHABLE("unreachable fault kind");
}

void
FaultInjectingEngine::measureBatchOutcome(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;
    OutcomeKernel kernel = outcomeKernel(batch.size());
    if (kernel) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = kernel(batch[i], i);
        return;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::uint64_t index =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        out[i] = applyFault(index, batch[i], [&, i] {
            return inner_.measureOutcome(batch[i]);
        });
    }
}

OutcomeKernel
FaultInjectingEngine::outcomeKernel(std::size_t batchSize)
{
    OutcomeKernel inner_kernel = inner_.outcomeKernel(batchSize);
    if (!inner_kernel)
        return {};
    // Reserve the fault indices for the whole batch up front, like
    // the simulator's noise indices: the kernel is then pure in
    // (assignment, batch index). A faulted item simply leaves its
    // inner noise index unused.
    const std::uint64_t base =
        cursor_.fetch_add(batchSize, std::memory_order_relaxed);
    return [this, inner_kernel, base](const Assignment &a,
                                      std::size_t i) {
        return applyFault(base + i, a, [&] {
            return inner_kernel(a, i);
        });
    };
}

void
FaultInjectingEngine::reserveMeasurementIndices(std::size_t count)
{
    cursor_.fetch_add(count, std::memory_order_relaxed);
    inner_.reserveMeasurementIndices(count);
}

void
FaultInjectingEngine::collectStats(EngineStats &stats) const
{
    const std::uint64_t hangs =
        hangs_.load(std::memory_order_relaxed);
    stats.failures += hangs +
        transients_.load(std::memory_order_relaxed) +
        garbage_.load(std::memory_order_relaxed);
    // A hang occupies the testbed until the watchdog fires; charge
    // the difference over the normal measurement a meter above
    // already accounted for.
    stats.modeledSeconds += static_cast<double>(hangs) *
        std::max(0.0, kHangSeconds - inner_.secondsPerMeasurement());
    inner_.collectStats(stats);
}

void
ValueCorruptingEngine::measureBatchOutcome(
    std::span<const Assignment> batch,
    std::span<MeasurementOutcome> out)
{
    inner_.measureBatchOutcome(batch, out);
    for (MeasurementOutcome &outcome : out)
        outcome = corrupt(outcome);
}

OutcomeKernel
ValueCorruptingEngine::outcomeKernel(std::size_t batchSize)
{
    OutcomeKernel kernel = inner_.outcomeKernel(batchSize);
    if (!kernel)
        return {};
    return [kernel](const Assignment &assignment, std::size_t index) {
        return corrupt(kernel(assignment, index));
    };
}

} // namespace core
} // namespace statsched
