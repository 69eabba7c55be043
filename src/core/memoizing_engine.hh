/**
 * @file
 * Measurement memoization over the assignment symmetry classes.
 *
 * The iterative algorithm and the local search re-measure assignments
 * they have already paid ~1.5 s for: random sampling with replacement
 * repeats classes (especially for small workloads, Table 1), and hill
 * climbing revisits neighbours. Performance is invariant under the
 * hardware symmetries (cores, pipes within a core, strands within a
 * pipe — the same equivalence Table 1 counts), so the cache key is
 * the Assignment::canonicalKey() of the equivalence class, not the
 * labeled placement.
 *
 * Semantics: a cache hit replays the first measured value of the
 * class instead of drawing a fresh noisy measurement. For noiseless
 * engines this is exact; for noisy engines it trades iid noise on
 * duplicates for a large experimentation-time saving (the duplicate
 * would measure the *same* true value, so only the noise realization
 * differs). Disable with --no-memoize where strict iid noise matters.
 *
 * Composition: place the memoizer *above* a ParallelEngine —
 * MemoizingEngine dedups the batch and forwards only the misses, so
 * the pool measures each distinct class once. The decorator is
 * thread-safe for concurrent measurements, but it deliberately
 * publishes no kernel of its own. Given a pool (the CLI passes the
 * ParallelEngine's), it computes a batch's canonical keys on it before
 * the serial, in-order lookup pass.
 */

#ifndef STATSCHED_CORE_MEMOIZING_ENGINE_HH
#define STATSCHED_CORE_MEMOIZING_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/sync.hh"
#include "core/performance_engine.hh"

namespace statsched
{

namespace base
{
class WorkerPool;
} // namespace base

namespace core
{

/**
 * Decorator that caches measurements per canonical assignment class.
 */
class MemoizingEngine : public EngineDecorator
{
  public:
    /**
     * @param inner Engine to wrap; not owned.
     * @param pool  Optional pool computing each batch's canonical
     *              keys; not owned. nullptr or a one-thread pool keys
     *              the batch on the calling thread; the results are
     *              identical.
     */
    explicit MemoizingEngine(PerformanceEngine &inner,
                             base::WorkerPool *pool = nullptr)
        : EngineDecorator(inner), pool_(pool)
    {
    }

    /**
     * Measures a batch with intra-batch deduplication: each canonical
     * class present in the batch (or the cache) is forwarded to the
     * wrapped engine at most once, in first-occurrence order — so for
     * a fixed input batch the miss sub-batch, and therefore the
     * results, are deterministic. Cache hits replay as Ok outcomes;
     * duplicates of a failed first occurrence share its failed
     * outcome, and only successful fresh readings enter the cache, so
     * a transient failure is retried on the next request instead of
     * being replayed forever.
     */
    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override;

    void
    collectStats(EngineStats &stats) const override
    {
        const std::uint64_t hits =
            hits_.load(std::memory_order_relaxed);
        stats.cacheHits += hits;
        stats.cacheMisses += misses_.load(std::memory_order_relaxed);
        // Hits cost no experimentation time; a MeteredEngine above
        // this decorator metered them, so give the time back. The
        // refund assumes the sanctioned ordering (meter above the
        // cache — see performance_engine.hh); the clamp keeps an
        // unsanctioned stack from reporting negative time.
        stats.modeledSeconds = std::max(
            0.0,
            stats.modeledSeconds - static_cast<double>(hits) *
                inner_.secondsPerMeasurement());
        inner_.collectStats(stats);
    }

    /** @return measurements served from the cache. */
    std::uint64_t
    hitCount() const
    {
        return hits_.load(std::memory_order_relaxed);
    }

    /** @return distinct canonical classes measured so far. */
    std::size_t size() const;

    /** Drops all cached measurements. */
    void clear();

  private:
    /** Keys batch[i] into keys[i], on pool_ when it has threads. */
    void computeKeys(std::span<const Assignment> batch,
                     std::vector<std::string> &keys) const;

    base::WorkerPool *const pool_;
    mutable base::Mutex mutex_{"core::MemoizingEngine::mutex_"};
    /** Measured value per canonical class. */
    std::unordered_map<std::string, double> cache_
        SCHED_GUARDED_BY(mutex_);
    // Hit/miss tallies are documented-atomic: bumped outside the
    // cache lock on purpose (the measure paths count while the inner
    // engine runs unlocked), and each is an independent monotonic
    // counter with no cross-member invariant to snapshot.
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_MEMOIZING_ENGINE_HH
