/**
 * @file
 * Parallel batch evaluation of task assignments.
 *
 * The paper's experimentation cost is thousands of independent
 * measurements (Section 5.3); the simulated engine is pure, so a
 * batch of assignments is embarrassingly parallel. ParallelEngine is
 * a decorator that fans measureBatchOutcome() out over a persistent
 * base::WorkerPool of std::thread workers pulling fixed-size chunks
 * from an atomic work queue.
 *
 * Determinism: the decorator only parallelizes engines that publish
 * an outcomeKernel() — a pure function of (assignment, batch index) —
 * and every worker writes out[i] for the indices it claims, so the
 * result vector is bit-identical to the serial path regardless of
 * thread count or scheduling. Engines without a kernel (e.g.
 * hw::PinnedThreadEngine, which owns the physical machine) fall back
 * to the wrapped serial measureBatchOutcome().
 */

#ifndef STATSCHED_CORE_PARALLEL_ENGINE_HH
#define STATSCHED_CORE_PARALLEL_ENGINE_HH

#include "base/worker_pool.hh"
#include "core/performance_engine.hh"

namespace statsched
{
namespace core
{

/**
 * Decorator that measures batches on a worker pool.
 */
class ParallelEngine : public EngineDecorator
{
  public:
    /**
     * @param inner   Engine to wrap; not owned. Parallel speedup
     *                requires inner.outcomeKernel() to be non-empty.
     * @param threads Total threads used per batch including the
     *                caller; 0 selects base::WorkerPool::defaultThreads()
     *                (all cpus but one from three up).
     */
    explicit ParallelEngine(PerformanceEngine &inner,
                            unsigned threads = 0);

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Measures the batch on the pool. An item whose kernel throws
     * (e.g. a contract violation on a worker thread) becomes an
     * Errored outcome instead of unwinding through the pool.
     */
    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override;

    /** Transparent: exposes the wrapped engine's kernel unchanged. */
    OutcomeKernel
    outcomeKernel(std::size_t batchSize) override
    {
        return inner_.outcomeKernel(batchSize);
    }

    /** @return threads used per batch (callers + workers). */
    unsigned threads() const { return pool_.threads(); }

    /**
     * @return the pool, for the campaign's other per-assignment work
     *         (sampling, memo keys), which runs between batches.
     */
    base::WorkerPool &pool() { return pool_; }

  private:
    base::WorkerPool pool_;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_PARALLEL_ENGINE_HH
