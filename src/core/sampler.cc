/**
 * @file
 * RandomAssignmentSampler implementation.
 */

#include "core/sampler.hh"

#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>
#include "base/check.hh"
#include "base/worker_pool.hh"

namespace statsched
{
namespace core
{

namespace
{

/**
 * Tries per chunk of the parallel rejection loop. A chunk (~0.2 ms at
 * 24 of 64 contexts) dwarfs its one jump (~1.5 µs) and its claim;
 * 512 to 4096 tries drew a 3,000-assignment request equally fast on
 * 2 and 4 threads, and 8192 was slower on 2 (EXPERIMENTS.md A4).
 */
constexpr std::uint32_t kChunkTries = 2048;

/** Expected chunks per pool thread below which a request is drawn
 *  serially: fewer leave threads idle while the last chunk runs. */
constexpr double kMinChunksPerThread = 2.0;

/**
 * One try of the paper's loop: draws every task's context from `rng`
 * into `contexts`. @return true when no two tasks share a context.
 *
 * Every task's context is drawn even after a collision, so the RNG
 * advances exactly as the paper's loop does. Up to 64 contexts, an
 * occupancy mask filled while drawing records whether any context
 * came up twice; on a 4-cpu Xeon that made 24-of-64 campaigns ~17%
 * faster end to end than a second pass through isValid(), which wider
 * shapes still take.
 */
inline bool
rejectionTry(const Topology &topology, stats::Rng &rng,
             std::vector<ContextId> &contexts)
{
    const std::uint32_t v = topology.contexts();
    std::uint64_t occupied = 0;
    std::uint64_t repeated = 0;
    for (auto &ctx : contexts) {
        ctx = static_cast<ContextId>(rng.uniformInt(v));
        const std::uint64_t bit = std::uint64_t{1} << (ctx % 64);
        repeated |= occupied & bit;
        occupied |= bit;
    }
    return v <= 64 ? repeated == 0
                   : Assignment::isValid(topology, contexts);
}

/**
 * kChunkTries consecutive tries of the stream, starting at `rng`.
 * Only the thread that runs a chunk writes to it.
 */
struct TryChunk
{
    explicit TryChunk(const stats::Rng &start) : rng(start) {}

    /** The state at the chunk's first try; after run(), the state
     *  after its last. */
    stats::Rng rng;
    bool ran = false;
    /** Contexts of each accepted try, `tasks` per acceptance. */
    std::vector<ContextId> contexts;
    /** Index within the chunk of each accepted try. */
    std::vector<std::uint32_t> tries;
    /** Generator state right after each accepted try. */
    std::vector<stats::Rng> after;

    void
    run(const Topology &topology, std::uint32_t tasks)
    {
        // A local generator: the slots of neighbouring chunks share
        // cache lines, and other threads write them.
        stats::Rng local = rng;
        std::vector<ContextId> buffer(tasks);
        for (std::uint32_t k = 0; k < kChunkTries; ++k) {
            if (!rejectionTry(topology, local, buffer))
                continue;
            contexts.insert(contexts.end(), buffer.begin(),
                            buffer.end());
            tries.push_back(k);
            after.push_back(local);
        }
        rng = local;
        ran = true;
    }
};

} // anonymous namespace

RandomAssignmentSampler::RandomAssignmentSampler(
    const Topology &topology, std::uint32_t tasks, std::uint64_t seed,
    SamplingMethod method)
    : topology_(topology), tasks_(tasks), rng_(seed), method_(method)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "workload size out of range");
}

Assignment
RandomAssignmentSampler::draw()
{
    const std::uint32_t v = topology_.contexts();
    std::vector<ContextId> contexts(tasks_);

    if (method_ == SamplingMethod::RejectionPaper) {
        // Discard and redraw the whole assignment, exactly as in the
        // paper, preserving uniformity over valid placements.
        do {
            ++attempts_;
        } while (!rejectionTry(topology_, rng_, contexts));
    } else {
        // Partial Fisher-Yates: a uniformly random ordered T-subset
        // of the V contexts — the same distribution the rejection
        // loop converges to, in O(T) time.
        ++attempts_;
        if (scratch_.size() != v) {
            scratch_.resize(v);
            std::iota(scratch_.begin(), scratch_.end(), 0);
        }
        for (std::uint32_t t = 0; t < tasks_; ++t) {
            const std::uint32_t j = t + static_cast<std::uint32_t>(
                rng_.uniformInt(v - t));
            std::swap(scratch_[t], scratch_[j]);
            contexts[t] = scratch_[t];
        }
    }

    ++produced_;
    return Assignment(topology_, std::move(contexts));
}

std::vector<Assignment>
RandomAssignmentSampler::drawSample(std::size_t n,
                                    base::WorkerPool *pool)
{
    if (pool != nullptr && drawsOnPool(n, *pool))
        return drawOnPool(n, *pool);
    std::vector<Assignment> sample;
    sample.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        sample.push_back(draw());
    return sample;
}

double
RandomAssignmentSampler::expectedTriesPerDraw() const
{
    const double v = topology_.contexts();
    double tries = 1.0;
    for (std::uint32_t i = 0; i < tasks_; ++i)
        tries *= v / (v - i);
    return tries;
}

bool
RandomAssignmentSampler::drawsOnPool(std::size_t n,
                                     const base::WorkerPool &pool) const
{
    // uniformInt(v) draws again only below Lemire's threshold
    // (2^64 - v) mod v, which is 0 when v is a power of two: every
    // try then uses exactly tasks_ outputs, so chunk j of the stream
    // starts j * kChunkTries * tasks_ outputs in.
    const std::uint32_t v = topology_.contexts();
    if (method_ != SamplingMethod::RejectionPaper ||
        pool.threads() < 2 || (v & (v - 1)) != 0)
        return false;
    return static_cast<double>(n) * expectedTriesPerDraw() >=
        kMinChunksPerThread * kChunkTries * pool.threads();
}

std::vector<Assignment>
RandomAssignmentSampler::drawOnPool(std::size_t n, base::WorkerPool &pool)
{
    if (!chunkJump_) {
        chunkJump_ = stats::Rng::jumpPolynomial(
            std::uint64_t{kChunkTries} * tasks_);
    }
    const double triesPerDraw = expectedTriesPerDraw();
    std::vector<Assignment> sample;
    sample.reserve(n);

    while (sample.size() < n) {
        // Enough chunks that one round almost always suffices; the
        // ones past the last acceptance only cost their start state.
        const std::size_t need = n - sample.size();
        const std::size_t count =
            static_cast<std::size_t>(std::ceil(
                1.25 * static_cast<double>(need) * triesPerDraw /
                kChunkTries)) +
            pool.threads();
        std::vector<TryChunk> chunks;
        chunks.reserve(count);
        chunks.emplace_back(rng_);
        for (std::size_t c = 1; c < count; ++c) {
            chunks.emplace_back(chunks.back().rng);
            chunks.back().rng.jump(*chunkJump_);
        }

        // Chunks are claimed in index order, so once the finished ones
        // hold `need` acceptances, later chunks are speculative tail
        // and workers skip them.
        std::atomic<std::size_t> accepted{0};
        pool.run(
            count, 1,
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t c = begin; c < end; ++c) {
                    if (accepted.load(std::memory_order_relaxed) >=
                        need)
                        return;
                    chunks[c].run(topology_, tasks_);
                    accepted.fetch_add(chunks[c].tries.size(),
                                       std::memory_order_relaxed);
                }
            });

        // Walk the stream in order; the constructor checks each
        // assignment as draw() would.
        for (std::size_t c = 0; c < count; ++c) {
            TryChunk &chunk = chunks[c];
            if (!chunk.ran) {
                // Skipped by a worker that counted a later chunk.
                chunk.run(topology_, tasks_);
            }
            for (std::size_t a = 0; a < chunk.tries.size(); ++a) {
                const auto first =
                    chunk.contexts.begin() +
                    static_cast<std::ptrdiff_t>(a * tasks_);
                sample.emplace_back(
                    topology_,
                    std::vector<ContextId>(first, first + tasks_));
                ++produced_;
                if (sample.size() == n) {
                    rng_ = chunk.after[a];
                    attempts_ += c * kChunkTries + chunk.tries[a] + 1;
                    return sample;
                }
            }
        }
        rng_ = chunks.back().rng;
        attempts_ += count * kChunkTries;
    }
    return sample;
}

} // namespace core
} // namespace statsched
