/**
 * @file
 * MemoizingEngine implementation.
 */

#include "core/memoizing_engine.hh"

#include <bit>
#include <limits>
#include <vector>
#include "base/check.hh"
#include "base/worker_pool.hh"

namespace statsched
{
namespace core
{

void
MemoizingEngine::measureBatchOutcome(std::span<const Assignment> batch,
                                     std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;

    const ClassTable *classes = nullptr;
    {
        base::MutexLock lock(mutex_);
        if (!classes_)
            classes_.emplace(batch[0]);
        classes = &*classes_;
    }

    // Pass 0: each item's packed key and its hash, which depend on
    // that item alone, so they need neither the lock nor batch order.
    // pack() raises ContractViolation for an item of another shape;
    // the lowest such item surfaces here, before anything is
    // forwarded.
    const std::size_t words = classes->form.words();
    std::vector<std::uint64_t> keys(batch.size() * words);
    std::vector<std::uint64_t> hashes(batch.size());
    const auto keyRange = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            hashes[i] = classes->pack(batch[i], &keys[i * words]);
    };
    if (pool_ == nullptr)
        keyRange(0, batch.size());
    else
        pool_->run(batch.size(),
                   base::WorkerPool::defaultChunk(batch.size(),
                                                  pool_->threads()),
                   keyRange);

    // Pass 1: resolve cache hits and collect the unique misses in
    // first-occurrence order. `slot[i]` is the miss sub-batch index
    // of item i, or SIZE_MAX for a hit; `missItems[m]` is the batch
    // item of miss m; `pending` maps a key to its miss index.
    constexpr std::size_t kHit =
        std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> slot(batch.size(), kHit);
    std::vector<std::size_t> missItems;
    missItems.reserve(batch.size());
    PackedKeyTable pending(words, batch.size());
    std::uint64_t hit_count = 0;

    {
        base::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::uint64_t *key = &keys[i * words];
            if (const std::uint64_t *cached =
                    classes_->table.find(hashes[i], key)) {
                out[i] = MeasurementOutcome::classify(
                    std::bit_cast<double>(*cached));
                ++hit_count;
                continue;
            }
            const auto [first, fresh] =
                pending.tryEmplace(hashes[i], key, missItems.size());
            slot[i] = *first;
            if (!fresh) {
                // Duplicate inside the batch: share the first
                // occurrence's measurement.
                ++hit_count;
                continue;
            }
            missItems.push_back(i);
        }
    }

    hits_.fetch_add(hit_count, std::memory_order_relaxed);
    misses_.fetch_add(missItems.size(), std::memory_order_relaxed);
    if (missItems.empty())
        return;

    // Pass 2: one engine measurement per distinct uncached class. A
    // batch of misses only is the miss sub-batch itself, so it goes to
    // the engine as it stands; otherwise the misses are copied out and
    // their outcomes fanned back to every item that shares them.
    if (missItems.size() == batch.size()) {
        inner_.measureBatchOutcome(batch, out);
    } else {
        std::vector<Assignment> misses;
        misses.reserve(missItems.size());
        for (const std::size_t i : missItems)
            misses.push_back(batch[i]);
        std::vector<MeasurementOutcome> outcomes(misses.size());
        inner_.measureBatchOutcome(misses, outcomes);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (slot[i] != kHit)
                out[i] = outcomes[slot[i]];
        }
    }

    // Pass 3: publish to the cache, walking the misses in
    // first-occurrence order. Failed outcomes (a quarantined or
    // errored reading below) are handed back but never cached — a
    // poisoned entry would mark the class invalid forever.
    base::MutexLock lock(mutex_);
    for (const std::size_t i : missItems) {
        if (out[i].ok())
            classes_->table.tryEmplace(
                hashes[i], &keys[i * words],
                std::bit_cast<std::uint64_t>(out[i].value));
    }
}

std::size_t
MemoizingEngine::size() const
{
    base::MutexLock lock(mutex_);
    return classes_ ? classes_->table.size() : 0;
}

} // namespace core
} // namespace statsched
