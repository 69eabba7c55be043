/**
 * @file
 * ParallelEngine implementation.
 */

#include "core/parallel_engine.hh"

#include <exception>

#include "base/check.hh"

namespace statsched
{
namespace core
{

ParallelEngine::ParallelEngine(PerformanceEngine &inner,
                               unsigned threads)
    : EngineDecorator(inner), pool_(threads)
{
}

void
ParallelEngine::measureBatchOutcome(std::span<const Assignment> batch,
                                    std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    if (batch.empty())
        return;

    OutcomeKernel kernel = inner_.outcomeKernel(batch.size());
    if (!kernel) {
        // The wrapped engine cannot be evaluated concurrently.
        inner_.measureBatchOutcome(batch, out);
        return;
    }

    const Assignment *items = batch.data();
    MeasurementOutcome *results = out.data();

    pool_.run(batch.size(),
              base::WorkerPool::defaultChunk(batch.size(),
                                             pool_.threads()),
              [&kernel, items, results](std::size_t begin,
                                        std::size_t end) {
                  // A contract violation (or any error) inside a
                  // kernel must not unwind through the worker pool —
                  // that would std::terminate the process. Failed
                  // items surface as structured Errored outcomes, so
                  // a resilient layer above can retry or quarantine
                  // the class.
                  for (std::size_t i = begin; i < end; ++i) {
                      try {
                          results[i] = kernel(items[i], i);
                      } catch (const std::exception &) {
                          results[i] = MeasurementOutcome::failure(
                              MeasureStatus::Errored);
                      }
                  }
              });
}

} // namespace core
} // namespace statsched
