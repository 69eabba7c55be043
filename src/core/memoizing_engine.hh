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
 * are; the strings feed only the journal's key hash and the resilient
 * layer's quarantine set.
 *
 * The cache is a flat open-addressing table: power-of-two capacity,
 * linear probing, load at most one half, key words inline in the
 * slots. A lookup that misses costs one O(tasks) pack, a hash and a
 * probe, and allocates nothing per item. Each (topology, tasks) shape
 * the memo sees gets a form and a table of its own, so assignments of
 * different shapes never share an entry.
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
#include <deque>
#include <functional>
#include <utility>
#include <vector>

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
    /**
     * Open-addressing map from a packed key of a fixed word count to
     * a 64-bit payload. Slots hold the key's hash (0 marks an empty
     * slot), the payload and the key words; a lookup matches only
     * when the hash and every key word are equal.
     */
    class KeyTable
    {
      public:
        /**
         * @param words    Words per key.
         * @param expected Entries to size for without growing.
         */
        explicit KeyTable(std::size_t words, std::size_t expected = 0);

        /** @return the nonzero hash of a key of `words` words. */
        static std::uint64_t hash(const std::uint64_t *key,
                                  std::size_t words);

        /** @return the payload stored under the key, or nullptr. */
        const std::uint64_t *find(std::uint64_t hash,
                                  const std::uint64_t *key) const;

        /**
         * Inserts the key with `payload` unless it is present.
         *
         * @return the stored payload, and whether it was inserted.
         */
        std::pair<const std::uint64_t *, bool>
        tryEmplace(std::uint64_t hash, const std::uint64_t *key,
                   std::uint64_t payload);

        /** @return entries stored. */
        std::size_t size() const { return size_; }

      private:
        /** @return the index of the slot holding the key, or of the
         *  empty slot where it would go. */
        std::size_t slotOf(std::uint64_t hash,
                           const std::uint64_t *key) const;

        /** Doubles the capacity, rehashing by the stored hashes. */
        void grow();

        std::size_t words_;
        /** Words per slot: hash, payload, key. */
        std::size_t stride_;
        /** Capacity - 1; the capacity is a power of two. */
        std::size_t mask_ = 0;
        std::size_t size_ = 0;
        std::vector<std::uint64_t> slots_;
    };

    /** One (topology, tasks) shape: its packed form and the
     *  measured value of each of its classes. */
    struct Shape
    {
        PackedCanonicalForm form;
        KeyTable table;
    };

    /** @return the index of the assignment's shape in shapes_, added
     *  on first sight. */
    std::uint32_t shapeIndex(const Assignment &assignment)
        SCHED_REQUIRES(mutex_);

    /** Runs `range` over chunks of [0, n), on pool_ when it has
     *  threads. */
    void runKeyPass(
        std::size_t n,
        const std::function<void(std::size_t, std::size_t)> &range)
        const;

    base::WorkerPool *const pool_;
    mutable base::Mutex mutex_{"core::MemoizingEngine::mutex_"};
    /** Shapes seen so far, usually one. A deque keeps each form in
     *  place as shapes are added, so the key pass reads the forms
     *  without the lock; a form never changes once made. */
    std::deque<Shape> shapes_ SCHED_GUARDED_BY(mutex_);
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
