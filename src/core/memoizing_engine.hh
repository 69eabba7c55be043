/**
 * @file
 * Measurement memoization over the assignment symmetry classes.
 *
 * The iterative algorithm and the local search re-measure assignments
 * they have already paid ~1.5 s for: random sampling with replacement
 * repeats classes (especially for small workloads, Table 1), and hill
 * climbing revisits neighbours. Performance is invariant under the
 * hardware symmetries (cores, pipes within a core, strands within a
 * pipe — the same equivalence Table 1 counts), so the cache is keyed
 * by the equivalence class, not the labeled placement. The key is the
 * PackedCanonicalForm of the class (one word per 16 tasks on the T2),
 * which is equal exactly when the Assignment::canonicalKey() strings
 * are.
 *
 * The cache is a core::ClassTable: a flat open-addressing table with
 * the key words inline in the slots. A lookup that misses costs one
 * O(tasks) pack, a hash and a probe, and allocates nothing per item.
 * A memo serves one (topology, tasks) shape, the shape of its first
 * batch: a batch holding an assignment of any other shape raises
 * ContractViolation before anything is forwarded. Every program runs
 * one workload per memo.
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
 * ParallelEngine's), it computes a batch's keys on it before the
 * serial, in-order lookup pass.
 */

#ifndef STATSCHED_CORE_MEMOIZING_ENGINE_HH
#define STATSCHED_CORE_MEMOIZING_ENGINE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>

#include "base/sync.hh"
#include "core/assignment.hh"
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
     * @param pool  Optional pool computing each batch's keys; not
     *              owned. nullptr or a one-thread pool keys the batch
     *              on the calling thread; the results are identical.
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
     * results, are deterministic. A batch with no hit and no duplicate
     * is forwarded as it stands. Cache hits replay as Ok outcomes;
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

  private:
    base::WorkerPool *const pool_;
    mutable base::Mutex mutex_{"core::MemoizingEngine::mutex_"};
    /** The measured value of each class of the first batch's shape,
     *  as double bits. The key pass reads its form without the lock;
     *  the form never changes once made. */
    std::optional<ClassTable> classes_ SCHED_GUARDED_BY(mutex_);
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
