/**
 * @file
 * MemoizingEngine implementation.
 */

#include "core/memoizing_engine.hh"

#include <limits>
#include <string_view>
#include <utility>
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

    // Pass 0: each item's canonical key, which depends on that item
    // alone, so it needs neither the lock nor batch order.
    std::vector<std::string> keys(batch.size());
    computeKeys(batch, keys);

    // Pass 1: resolve cache hits and collect the unique misses in
    // first-occurrence order. `slot[i]` is the miss sub-batch index
    // of item i, or SIZE_MAX for a hit; `missItems[m]` is the batch
    // item whose key pass 3 moves into the cache. `pending` views
    // the keys instead of copying them.
    constexpr std::size_t kHit =
        std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> slot(batch.size(), kHit);
    std::vector<Assignment> misses;
    std::vector<std::size_t> missItems;
    std::unordered_map<std::string_view, std::size_t> pending;
    misses.reserve(batch.size());
    missItems.reserve(batch.size());
    pending.reserve(batch.size());
    std::uint64_t hit_count = 0;

    {
        base::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const auto cached = cache_.find(keys[i]);
            if (cached != cache_.end()) {
                out[i] = MeasurementOutcome::classify(cached->second);
                ++hit_count;
                continue;
            }
            const auto [first, fresh] =
                pending.try_emplace(keys[i], misses.size());
            if (!fresh) {
                // Duplicate inside the batch: share the first
                // occurrence's measurement.
                slot[i] = first->second;
                ++hit_count;
                continue;
            }
            slot[i] = misses.size();
            misses.push_back(batch[i]);
            missItems.push_back(i);
        }
    }

    hits_.fetch_add(hit_count, std::memory_order_relaxed);
    misses_.fetch_add(misses.size(), std::memory_order_relaxed);
    if (misses.empty())
        return;

    // Pass 2: one engine measurement per distinct uncached class.
    std::vector<MeasurementOutcome> outcomes(misses.size());
    inner_.measureBatchOutcome(misses, outcomes);

    // Pass 3: fill results and publish to the cache, walking the
    // misses in first-occurrence order. Duplicates of a failed first
    // occurrence share the failed outcome; failed outcomes (a
    // quarantined or errored reading below) are handed back but never
    // cached — a poisoned entry would mark the class invalid forever.
    base::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (slot[i] != kHit)
            out[i] = outcomes[slot[i]];
    }
    for (std::size_t m = 0; m < misses.size(); ++m) {
        if (outcomes[m].ok())
            cache_.emplace(std::move(keys[missItems[m]]),
                           outcomes[m].value);
    }
}

void
MemoizingEngine::computeKeys(std::span<const Assignment> batch,
                             std::vector<std::string> &keys) const
{
    const auto keyRange = [&batch, &keys](std::size_t begin,
                                          std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            keys[i] = batch[i].canonicalKey();
    };
    if (pool_ == nullptr || pool_->threads() < 2) {
        keyRange(0, batch.size());
        return;
    }
    // A throwing key surfaces on this thread after the join: the
    // lowest-index one, as the serial loop would raise it.
    pool_->runRethrowing(
        batch.size(),
        base::WorkerPool::defaultChunk(batch.size(), pool_->threads()),
        keyRange);
}

std::size_t
MemoizingEngine::size() const
{
    base::MutexLock lock(mutex_);
    return cache_.size();
}

void
MemoizingEngine::clear()
{
    base::MutexLock lock(mutex_);
    cache_.clear();
}

} // namespace core
} // namespace statsched
