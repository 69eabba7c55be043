/**
 * @file
 * Contract-containment tests for the engine decorator stack.
 *
 * The base/check.hh contracts throw ContractViolation at the default
 * check level; these tests pin down how the sanctioned decorator
 * chain (Metered(Memoizing(Resilient(Parallel(inner))))) turns those
 * violations into structured MeasureStatus::Errored outcomes instead
 * of aborting — and the regression the audit found: a quarantined
 * (or otherwise failed) outcome surfacing as NaN through the double
 * channel must never be memoized, or the class stays poisoned
 * forever.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/check.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/resilient_engine.hh"
#include "core/sampler.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::MemoizingEngine;
using core::ParallelEngine;
using core::ResilientEngine;
using core::ResilientOptions;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed = 47)
{
    core::RandomAssignmentSampler sampler(t2, 24, seed);
    return sampler.drawSample(n);
}

/**
 * Violates a SCHED_REQUIRE-style contract on the first
 * `violations` measurements of each class, then yields 100.
 * Publishes a parallel kernel so the violation can be raised on a
 * worker-pool thread.
 */
class ContractViolatingEngine : public core::PerformanceEngine
{
  public:
    explicit ContractViolatingEngine(std::uint32_t violations,
                                     bool recover = true)
        : violations_(violations), recover_(recover)
    {
    }

    double
    measure(const Assignment &assignment) override
    {
        (void)assignment;
        const std::uint64_t n =
            calls_.fetch_add(1, std::memory_order_relaxed);
        const bool violate =
            !recover_ || n < violations_;
        SCHED_REQUIRE(!violate, "deliberate contract violation");
        return 100.0;
    }

    core::BatchKernel
    parallelKernel(std::size_t batchSize) override
    {
        (void)batchSize;
        return [this](const Assignment &a, std::size_t) {
            return measure(a);
        };
    }

    std::string name() const override { return "violating"; }

    std::uint64_t calls() const { return calls_.load(); }

  private:
    std::uint32_t violations_;
    bool recover_;
    std::atomic<std::uint64_t> calls_{0};
};

TEST(ContractContainment, ParallelWorkerViolationBecomesErrored)
{
    // A contract violation raised on a worker-pool thread must not
    // std::terminate the process; it degrades to a structured
    // Errored outcome per item. At one thread the pool has no workers
    // and the calling thread runs every item itself.
    for (const unsigned threads : {1u, 4u}) {
        ContractViolatingEngine inner(1u << 30, /*recover=*/false);
        ParallelEngine parallel(inner, threads);

        const auto batch = drawBatch(32);
        std::vector<MeasurementOutcome> outcomes(batch.size());
        parallel.measureBatchOutcome(batch, outcomes);
        for (const auto &outcome : outcomes)
            EXPECT_EQ(MeasureStatus::Errored, outcome.status)
                << threads << " thread(s)";
    }
}

TEST(ContractContainment, ParallelDoubleChannelDegradesToNaN)
{
    ContractViolatingEngine inner(1u << 30, /*recover=*/false);
    ParallelEngine parallel(inner, 4);

    const auto batch = drawBatch(16);
    std::vector<double> values(batch.size());
    parallel.measureBatch(batch, values);
    for (const double v : values)
        EXPECT_TRUE(std::isnan(v));
}

TEST(ContractContainment, ResilientRetriesThroughViolations)
{
    // The violation clears after the first attempt; the resilient
    // layer's retry ladder must recover the reading.
    ContractViolatingEngine inner(1);
    ResilientOptions options;
    options.maxAttempts = 3;
    ResilientEngine resilient(inner, options);

    const auto batch = drawBatch(1);
    const MeasurementOutcome outcome =
        resilient.measureOutcome(batch[0]);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(100.0, outcome.value);
    EXPECT_GE(inner.calls(), 2u);
}

TEST(ContractContainment, ResilientQuarantinesPersistentViolators)
{
    ContractViolatingEngine inner(1u << 30, /*recover=*/false);
    ResilientOptions options;
    options.maxAttempts = 2;
    ResilientEngine resilient(inner, options);

    const auto batch = drawBatch(1);
    const MeasurementOutcome first =
        resilient.measureOutcome(batch[0]);
    EXPECT_EQ(MeasureStatus::Errored, first.status);
    EXPECT_TRUE(resilient.isQuarantined(batch[0]));

    // Quarantined classes are rejected without touching the inner
    // engine again.
    const std::uint64_t calls_before = inner.calls();
    const MeasurementOutcome second =
        resilient.measureOutcome(batch[0]);
    EXPECT_EQ(MeasureStatus::Quarantined, second.status);
    EXPECT_EQ(calls_before, inner.calls());
}

/**
 * Returns NaN for each class until it is marked recovered, then a
 * fixed value — the double-channel shape of a failure (e.g. a
 * quarantined outcome crossing ResilientEngine::measure()).
 */
class RecoveringEngine : public core::PerformanceEngine
{
  public:
    double
    measure(const Assignment &assignment) override
    {
        (void)assignment;
        ++calls_;
        return recovered_
            ? 100.0
            : std::numeric_limits<double>::quiet_NaN();
    }

    std::string name() const override { return "recovering"; }

    void recover() { recovered_ = true; }
    std::uint64_t calls() const { return calls_; }

  private:
    bool recovered_ = false;
    std::uint64_t calls_ = 0;
};

TEST(MemoizingRegression, FailedReadingIsNotCachedSingle)
{
    RecoveringEngine inner;
    MemoizingEngine memo(inner);

    const auto batch = drawBatch(1);
    EXPECT_TRUE(std::isnan(memo.measure(batch[0])));
    EXPECT_EQ(0u, memo.size());

    // Once the inner engine recovers, the class must be measurable
    // again — a cached NaN would poison it forever.
    inner.recover();
    EXPECT_EQ(100.0, memo.measure(batch[0]));
    EXPECT_EQ(1u, memo.size());
}

TEST(MemoizingRegression, FailedReadingIsNotCachedBatch)
{
    RecoveringEngine inner;
    MemoizingEngine memo(inner);

    const auto batch = drawBatch(8);
    std::vector<double> values(batch.size());
    memo.measureBatch(batch, values);
    for (const double v : values)
        EXPECT_TRUE(std::isnan(v));
    EXPECT_EQ(0u, memo.size());

    inner.recover();
    memo.measureBatch(batch, values);
    for (const double v : values)
        EXPECT_EQ(100.0, v);
}

TEST(MemoizingRegression, QuarantinedOutcomeIsNotCached)
{
    // The full audited chain: Memoizing(Resilient(inner)). The
    // quarantined class surfaces as NaN through the double channel;
    // before the fix the memoizer cached that NaN and the class
    // stayed invalid even after the quarantine was the only problem.
    ContractViolatingEngine inner(1u << 30, /*recover=*/false);
    ResilientOptions options;
    options.maxAttempts = 1;
    ResilientEngine resilient(inner, options);
    MemoizingEngine memo(resilient);

    const auto batch = drawBatch(4);
    std::vector<double> values(batch.size());
    memo.measureBatch(batch, values);
    for (const double v : values)
        EXPECT_TRUE(std::isnan(v));

    // Nothing cached: neither the errored first readings nor the
    // quarantined rejections.
    EXPECT_EQ(0u, memo.size());

    // The outcome channel still reports the structured quarantine
    // status rather than a cache-classified Invalid.
    const MeasurementOutcome outcome =
        memo.measureOutcome(batch[0]);
    EXPECT_EQ(MeasureStatus::Quarantined, outcome.status);
}

TEST(ContractContainment, ViolationsCountAsFailuresInStats)
{
    ContractViolatingEngine inner(1u << 30, /*recover=*/false);
    ResilientOptions options;
    options.maxAttempts = 2;
    ResilientEngine resilient(inner, options);

    const auto batch = drawBatch(4);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);

    core::EngineStats stats;
    resilient.collectStats(stats);
    EXPECT_GE(stats.retries, batch.size());
}

} // anonymous namespace
