/**
 * @file
 * Fault-tolerant measurement over an unreliable engine.
 *
 * ResilientEngine is the recovery layer of the measurement stack: it
 * turns the per-item failure channel of the wrapped engine into the
 * best valid readings it can produce within a bounded effort budget.
 * Three mechanisms compose:
 *
 *  - Retry with exponential backoff. A failed attempt (Errored,
 *    TimedOut, Invalid) is retried up to maxAttempts total attempts;
 *    the r-th retry waits 0.5 * 2^(r-1) seconds of *modeled* time,
 *    at most 300 s (the uncapped series overflows to infinity near
 *    attempt 1000), accounted in EngineStats::modeledSeconds just
 *    like the measurements themselves — reliability is priced into
 *    the experimentation budget, not hidden.
 *
 *  - Median-of-k screening. A reading that deviates from its batch's
 *    median by more than screenRelDeviation (relative) is suspected
 *    to be a silent outlier (e.g. an OS hiccup inflating one run);
 *    it is re-measured screenWidth - 1 more times and the median of
 *    all screenWidth readings is delivered. Off by default —
 *    screening trades experimentation time for robustness.
 *
 *  - Quarantine. An assignment class whose measurement exhausts all
 *    attempts is quarantined at once: further requests return
 *    MeasureStatus::Quarantined immediately and the wrapped engine is
 *    never consulted for it again. This keeps a pathological
 *    assignment (one that wedges the testbed) from eating the retry
 *    budget of every future round. The quarantine is a
 *    core::ClassTable of the shape of the first class it holds, keyed
 *    by packed canonical forms like the memo; while it is empty no
 *    item is packed.
 *
 * Determinism: retries and screening re-measurements are issued as
 * sub-batches in ascending original-index order, so the measurement
 * indices the layers below reserve — and with them the injected
 * faults and noise of core::FaultInjectingEngine /
 * sim::SimulatedEngine — are bit-identical under any
 * core::ParallelEngine thread count.
 *
 * Place this decorator above a ParallelEngine (retry sub-batches fan
 * out over the pool) and below a MemoizingEngine/MeteredEngine (see
 * the ordering notes in performance_engine.hh).
 */

#ifndef STATSCHED_CORE_RESILIENT_ENGINE_HH
#define STATSCHED_CORE_RESILIENT_ENGINE_HH

#include <cstdint>
#include <optional>

#include "base/sync.hh"
#include "core/assignment.hh"
#include "core/performance_engine.hh"

namespace statsched
{
namespace core
{

/**
 * Retry and screening configuration.
 */
struct ResilientOptions
{
    /** Total attempts per measurement (1 = no retries). */
    std::uint32_t maxAttempts = 4;
    /** Median-of-k width; 0 or 1 disables outlier screening. */
    std::uint32_t screenWidth = 0;
    /** Relative deviation from the batch median that triggers
     *  screening, e.g. 0.5 = reading off by more than 50%. */
    double screenRelDeviation = 0.5;
};

/**
 * Decorator that retries, screens and quarantines measurements of an
 * unreliable wrapped engine.
 */
class ResilientEngine : public EngineDecorator
{
  public:
    /**
     * @param inner   Engine to wrap; not owned.
     * @param options Retry and screening parameters.
     */
    ResilientEngine(PerformanceEngine &inner,
                    const ResilientOptions &options = {});

    /** Deliberately publishes no kernels: retries are stateful. */
    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override;

    /**
     * Contributes retries, quarantine count and the modeled cost of
     * the extra attempts and backoff waits.
     */
    void collectStats(EngineStats &stats) const override;

    /** @return true when the assignment's class is quarantined. */
    bool isQuarantined(const Assignment &assignment) const;

    /** @return assignment classes currently quarantined. */
    std::size_t quarantineSize() const;

    /** @return extra attempts spent on retries and screening. */
    std::uint64_t
    retryCount() const
    {
        base::MutexLock lock(mutex_);
        return retries_;
    }

    /** @return readings replaced by a median-of-k re-measurement. */
    std::uint64_t
    screenedCount() const
    {
        base::MutexLock lock(mutex_);
        return screened_;
    }

  private:
    /** Median-of-k screening pass over a measured batch. */
    void screenOutliers(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out);

    const ResilientOptions options_;

    mutable base::Mutex mutex_{"core::ResilientEngine::mutex_"};
    /** Quarantined classes; made by the first exhaustion. */
    std::optional<ClassTable> quarantine_ SCHED_GUARDED_BY(mutex_);

    // Health counters share the quarantine lock (they used to be
    // loose atomics next to a mutex-guarded backoffSeconds_, so
    // collectStats() could pair a retry tally with a backoff total
    // from a different instant): one lock, one consistent snapshot.
    std::uint64_t retries_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t screened_ SCHED_GUARDED_BY(mutex_) = 0;
    /** Modeled backoff seconds accumulated. */
    double backoffSeconds_ SCHED_GUARDED_BY(mutex_) = 0.0;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_RESILIENT_ENGINE_HH
