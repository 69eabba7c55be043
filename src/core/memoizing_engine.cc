/**
 * @file
 * MemoizingEngine implementation.
 */

#include "core/memoizing_engine.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>
#include "base/check.hh"
#include "base/worker_pool.hh"

namespace statsched
{
namespace core
{

MemoizingEngine::KeyTable::KeyTable(std::size_t words,
                                    std::size_t expected)
    : words_(words), stride_(2 + words)
{
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(16, 2 * expected));
    mask_ = capacity - 1;
    slots_.assign(capacity * stride_, 0);
}

std::uint64_t
MemoizingEngine::KeyTable::hash(const std::uint64_t *key,
                                std::size_t words)
{
    // splitmix64's finalizer, folded over the words.
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < words; ++w) {
        h ^= key[w] + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
    }
    return h != 0 ? h : 1;   // 0 marks an empty slot
}

std::size_t
MemoizingEngine::KeyTable::slotOf(std::uint64_t hash,
                                  const std::uint64_t *key) const
{
    // The load stays at most one half, so an empty slot ends the probe.
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
        const std::uint64_t *slot = &slots_[i * stride_];
        if (slot[0] == 0 ||
            (slot[0] == hash && std::equal(key, key + words_, slot + 2)))
            return i;
    }
}

const std::uint64_t *
MemoizingEngine::KeyTable::find(std::uint64_t hash,
                                const std::uint64_t *key) const
{
    const std::uint64_t *slot = &slots_[slotOf(hash, key) * stride_];
    return slot[0] == 0 ? nullptr : slot + 1;
}

std::pair<const std::uint64_t *, bool>
MemoizingEngine::KeyTable::tryEmplace(std::uint64_t hash,
                                      const std::uint64_t *key,
                                      std::uint64_t payload)
{
    if (2 * (size_ + 1) > mask_ + 1)
        grow();
    std::uint64_t *slot = &slots_[slotOf(hash, key) * stride_];
    if (slot[0] != 0)
        return {slot + 1, false};
    slot[0] = hash;
    slot[1] = payload;
    std::copy_n(key, words_, slot + 2);
    ++size_;
    return {slot + 1, true};
}

void
MemoizingEngine::KeyTable::grow()
{
    const std::vector<std::uint64_t> old = std::move(slots_);
    mask_ = 2 * mask_ + 1;
    slots_.assign((mask_ + 1) * stride_, 0);
    for (std::size_t at = 0; at < old.size(); at += stride_) {
        if (old[at] != 0)
            std::copy_n(&old[at], stride_,
                        &slots_[slotOf(old[at], &old[at + 2]) * stride_]);
    }
}

void
MemoizingEngine::measureBatchOutcome(std::span<const Assignment> batch,
                                     std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;

    std::vector<std::uint32_t> shape(batch.size());
    std::vector<const PackedCanonicalForm *> forms;
    {
        base::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i)
            shape[i] = shapeIndex(batch[i]);
        for (const Shape &known : shapes_)
            forms.push_back(&known.form);
    }

    // Pass 0: each item's packed key and its hash, which depend on
    // that item alone, so they need neither the lock nor batch order.
    // A key is zero-padded to the widest shape and followed by its
    // shape index, so the batch-local index below tells shapes apart.
    std::size_t width = 0;
    for (const PackedCanonicalForm *form : forms)
        width = std::max(width, form->words());
    const std::size_t stride = width + 1;
    std::vector<std::uint64_t> keys(batch.size() * stride);
    std::vector<std::uint64_t> hashes(batch.size());
    runKeyPass(batch.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const PackedCanonicalForm &form = *forms[shape[i]];
            std::uint64_t *key = &keys[i * stride];
            form.pack(batch[i], key);
            key[width] = shape[i];
            hashes[i] = KeyTable::hash(key, form.words());
        }
    });

    // Pass 1: resolve cache hits and collect the unique misses in
    // first-occurrence order. `slot[i]` is the miss sub-batch index
    // of item i, or SIZE_MAX for a hit; `missItems[m]` is the batch
    // item of miss m; `pending` maps a key to its miss index.
    constexpr std::size_t kHit =
        std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> slot(batch.size(), kHit);
    std::vector<std::size_t> missItems;
    missItems.reserve(batch.size());
    KeyTable pending(stride, batch.size());
    std::uint64_t hit_count = 0;

    {
        base::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::uint64_t *key = &keys[i * stride];
            if (const std::uint64_t *cached =
                    shapes_[shape[i]].table.find(hashes[i], key)) {
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
            shapes_[shape[i]].table.tryEmplace(
                hashes[i], &keys[i * stride],
                std::bit_cast<std::uint64_t>(out[i].value));
    }
}

std::uint32_t
MemoizingEngine::shapeIndex(const Assignment &assignment)
{
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
        const PackedCanonicalForm &form = shapes_[s].form;
        if (form.tasks() == assignment.size() &&
            form.topology() == assignment.topology())
            return static_cast<std::uint32_t>(s);
    }
    PackedCanonicalForm form(
        assignment.topology(),
        static_cast<std::uint32_t>(assignment.size()));
    const std::size_t words = form.words();
    shapes_.push_back(Shape{std::move(form), KeyTable(words)});
    return static_cast<std::uint32_t>(shapes_.size() - 1);
}

void
MemoizingEngine::runKeyPass(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &range) const
{
    if (pool_ == nullptr || pool_->threads() < 2) {
        range(0, n);
        return;
    }
    // A throwing key surfaces on this thread after the join: the
    // lowest-index one, as the serial loop would raise it.
    pool_->runRethrowing(
        n, base::WorkerPool::defaultChunk(n, pool_->threads()), range);
}

std::size_t
MemoizingEngine::size() const
{
    base::MutexLock lock(mutex_);
    std::size_t classes = 0;
    for (const Shape &known : shapes_)
        classes += known.table.size();
    return classes;
}

} // namespace core
} // namespace statsched
