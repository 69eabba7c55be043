/**
 * @file
 * Batch, parallel and memoizing engine tests: the parallel path must
 * be bit-identical to the serial one, the cache must replay exact
 * values, and the whole stack must compose. The parallel tests are
 * also the ThreadSanitizer targets (build with
 * -DSTATSCHED_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "core/estimator.hh"
#include "core/iterative.hh"
#include "core/local_search.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

sim::SimulatedEngine
makeSim()
{
    return sim::SimulatedEngine(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
}

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed = 11)
{
    core::RandomAssignmentSampler sampler(t2, 24, seed);
    return sampler.drawSample(n);
}

TEST(BatchApi, DefaultBatchMatchesSerialMeasure)
{
    // Two identically-seeded engines: one measured item by item, one
    // through measureBatch. Per-index noise makes them bit-equal.
    auto serial = makeSim();
    auto batched = makeSim();
    const auto batch = drawBatch(64);

    std::vector<double> expected;
    expected.reserve(batch.size());
    for (const auto &a : batch)
        expected.push_back(serial.measure(a));

    std::vector<double> got(batch.size());
    batched.measureBatch(batch, got);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "index " << i;
}

TEST(ParallelEngine, BitIdenticalToSerialBatch)
{
    auto reference = makeSim();
    auto inner = makeSim();
    core::ParallelEngine parallel(inner, 8);
    const auto batch = drawBatch(500);

    std::vector<double> expected(batch.size());
    reference.measureBatch(batch, expected);

    std::vector<double> got(batch.size());
    parallel.measureBatch(batch, got);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "index " << i;
}

TEST(ParallelEngine, RepeatedBatchesContinueTheNoiseStream)
{
    // Two consecutive parallel batches must equal one serial run of
    // the same 2n measurements (the cursor advances per batch).
    auto reference = makeSim();
    auto inner = makeSim();
    core::ParallelEngine parallel(inner, 4);
    const auto batch = drawBatch(120);

    std::vector<double> expected(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expected[i] = reference.measure(batch[i]);

    std::vector<double> first(60);
    std::vector<double> second(60);
    parallel.measureBatch(std::span(batch).first(60), first);
    parallel.measureBatch(std::span(batch).subspan(60), second);
    for (std::size_t i = 0; i < 60; ++i) {
        EXPECT_EQ(expected[i], first[i]);
        EXPECT_EQ(expected[60 + i], second[i]);
    }
}

TEST(ParallelEngine, SerialAndParallelIterativeRunsAreIdentical)
{
    // The acceptance criterion of the batch redesign: the full
    // iterative algorithm, seeded identically, returns the same
    // result for --threads 1 and --threads 8.
    core::IterativeOptions options;
    options.initialSample = 400;
    options.incrementSample = 100;
    options.acceptableLoss = 0.02;
    options.maxSample = 1500;

    auto sim1 = makeSim();
    auto sim8 = makeSim();
    core::ParallelEngine one(sim1, 1);
    core::ParallelEngine eight(sim8, 8);
    const auto serial =
        core::iterativeAssignmentSearch(one, t2, 24, 5, options);
    const auto parallel =
        core::iterativeAssignmentSearch(eight, t2, 24, 5, options);

    EXPECT_EQ(serial.satisfied, parallel.satisfied);
    EXPECT_EQ(serial.totalSampled, parallel.totalSampled);
    ASSERT_EQ(serial.steps.size(), parallel.steps.size());
    for (std::size_t i = 0; i < serial.steps.size(); ++i) {
        EXPECT_EQ(serial.steps[i].bestObserved,
                  parallel.steps[i].bestObserved);
        EXPECT_EQ(serial.steps[i].upb, parallel.steps[i].upb);
        EXPECT_EQ(serial.steps[i].lossTarget,
                  parallel.steps[i].lossTarget);
        EXPECT_EQ(serial.steps[i].loss, parallel.steps[i].loss);
    }
    ASSERT_TRUE(serial.final.bestAssignment.has_value());
    ASSERT_TRUE(parallel.final.bestAssignment.has_value());
    EXPECT_EQ(serial.final.bestAssignment->contexts(),
              parallel.final.bestAssignment->contexts());
    EXPECT_EQ(serial.final.sample, parallel.final.sample);
}

TEST(ParallelEngine, FallsBackForEnginesWithoutKernel)
{
    // An engine with sequential hidden state publishes no kernel;
    // the pool must degrade to the serial loop, not crash or reorder.
    class SequentialEngine : public core::PerformanceEngine
    {
      public:
        double
        measure(const Assignment &) override
        {
            return static_cast<double>(++calls_);
        }
        std::string name() const override { return "sequential"; }

      private:
        std::uint64_t calls_ = 0;
    };

    SequentialEngine inner;
    core::ParallelEngine parallel(inner, 8);
    const auto batch = drawBatch(16);
    std::vector<double> out(batch.size());
    parallel.measureBatch(batch, out);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<double>(i + 1));
}

TEST(MemoizingEngine, HitReplaysTheFreshValue)
{
    auto sim = makeSim();
    core::MemoizingEngine memo(sim);
    const auto batch = drawBatch(4);

    const double fresh = memo.measure(batch[0]);
    EXPECT_EQ(memo.hitCount(), 0u);
    // Same assignment again: served from cache, identical value even
    // though a fresh measurement would draw different noise.
    EXPECT_EQ(memo.measure(batch[0]), fresh);
    EXPECT_EQ(memo.hitCount(), 1u);
}

TEST(MemoizingEngine, KeysBySymmetryClassNotLabeling)
{
    auto sim = makeSim();
    core::MemoizingEngine memo(sim);

    // Task t on context t versus the same placement shifted to the
    // mirror half of the chip: different labels, same canonical
    // class, so the second lookup must hit.
    std::vector<core::ContextId> packed;
    std::vector<core::ContextId> mirrored;
    for (core::ContextId c = 0; c < 24; ++c) {
        packed.push_back(c);
        mirrored.push_back(t2.contexts() - 24 + c);
    }
    const Assignment a(t2, packed);
    const Assignment b(t2, mirrored);
    ASSERT_EQ(a.canonicalKey(), b.canonicalKey());

    const double va = memo.measure(a);
    const double vb = memo.measure(b);
    EXPECT_EQ(va, vb);
    EXPECT_EQ(memo.hitCount(), 1u);
    EXPECT_EQ(memo.size(), 1u);
}

TEST(MemoizingEngine, BatchDeduplicatesWithinAndAcrossBatches)
{
    auto base = drawBatch(10);
    std::vector<Assignment> batch(base);
    batch.push_back(base[3]);   // duplicate inside the batch
    batch.push_back(base[7]);

    // Keys computed serially, on a pool of their own, and on the pool
    // of the ParallelEngine measuring the misses (the CLI's stack) must
    // give the same values and the same hits.
    std::vector<double> serialOut;
    for (const int variant : {0, 1, 2}) {
        SCOPED_TRACE(variant);
        auto sim = makeSim();
        core::ParallelEngine parallel(sim, 4);
        statsched::base::WorkerPool ownPool(4);
        core::PerformanceEngine &inner = variant == 2
            ? static_cast<core::PerformanceEngine &>(parallel)
            : sim;
        statsched::base::WorkerPool *pools[] = {nullptr, &ownPool,
                                                &parallel.pool()};
        core::MeteredEngine meter(inner);
        core::MemoizingEngine memo(meter, pools[variant]);

        std::vector<double> out(batch.size());
        memo.measureBatch(batch, out);
        EXPECT_EQ(out[10], out[3]);
        EXPECT_EQ(out[11], out[7]);
        // Only the 10 distinct assignments reached the inner engine.
        EXPECT_EQ(meter.stats().measurements, 10u);
        EXPECT_EQ(memo.hitCount(), 2u);

        // A second identical batch is served fully from the cache.
        std::vector<double> replay(batch.size());
        memo.measureBatch(batch, replay);
        EXPECT_EQ(meter.stats().measurements, 10u);
        EXPECT_EQ(replay, out);

        if (variant == 0)
            serialOut = out;
        else
            EXPECT_EQ(out, serialOut);
    }
}

TEST(MeteredEngine, StatsComposeAcrossTheFullStack)
{
    auto sim = makeSim();
    core::ParallelEngine parallel(sim, 4);
    core::MemoizingEngine memo(parallel);
    core::MeteredEngine meter(memo);

    auto batch = drawBatch(50);
    batch.push_back(batch[0]);
    batch.push_back(batch[1]);
    std::vector<double> out(batch.size());
    meter.measureBatch(batch, out);
    meter.measure(batch[2]);   // one more, a guaranteed cache hit

    const core::EngineStats stats = meter.stats();
    EXPECT_EQ(stats.measurements, 53u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.cacheHits, 3u);
    EXPECT_EQ(stats.cacheMisses, 50u);
    EXPECT_NEAR(stats.cacheHitRate(), 3.0 / 53.0, 1e-12);
    // Modeled time charges only the measurements that reached the
    // simulator (1.5 s each), not the cache hits.
    EXPECT_NEAR(stats.modeledSeconds, 50 * 1.5, 1e-9);
}

TEST(MeteredEngine, CountsThroughLocalSearchBudget)
{
    auto sim = makeSim();
    core::MeteredEngine meter(sim);
    core::RandomAssignmentSampler sampler(t2, 24, 18);
    core::LocalSearchOptions options;
    options.budget = 73;
    options.patience = 1000;
    core::localSearchRefine(meter, sampler.draw(), options);
    EXPECT_LE(meter.stats().measurements, 73u);
}

TEST(MeteredEngine, UnsanctionedOrderingClampsInsteadOfGoingNegative)
{
    // Meter BELOW the memoizer (against the ordering rules in
    // performance_engine.hh): the meter never sees the cache hits, so
    // the memoizer's refund would drive modeledSeconds negative. The
    // clamp keeps the report at zero rather than nonsense.
    auto sim = makeSim();
    core::MeteredEngine meter(sim);
    core::MemoizingEngine memo(meter);

    const auto batch = drawBatch(1);
    memo.measure(batch[0]);
    memo.measure(batch[0]);   // cache hit the meter never saw

    core::EngineStats stats;
    memo.collectStats(stats);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_GE(stats.modeledSeconds, 0.0);
    // The sanctioned ordering reports the same workload correctly.
    auto sim2 = makeSim();
    core::MemoizingEngine memo2(sim2);
    core::MeteredEngine meter2(memo2);
    meter2.measure(batch[0]);
    meter2.measure(batch[0]);
    EXPECT_NEAR(meter2.stats().modeledSeconds, 1.5, 1e-12);
}

TEST(MeteredEngine, OutcomeChannelCountsLikeTheDoubleChannel)
{
    auto sim = makeSim();
    core::MeteredEngine meter(sim);
    const auto batch = drawBatch(6);
    std::vector<core::MeasurementOutcome> outcomes(batch.size());
    meter.measureBatchOutcome(batch, outcomes);
    meter.measureOutcome(batch[0]);

    const core::EngineStats stats = meter.stats();
    EXPECT_EQ(stats.measurements, 7u);
    EXPECT_EQ(stats.batches, 1u);
    for (const auto &outcome : outcomes)
        EXPECT_TRUE(outcome.ok());
}

TEST(MemoizingEngine, FailedOutcomesAreNotCached)
{
    // First reading fails, second succeeds: the failure must not be
    // replayed from the cache.
    class FailOnceEngine : public core::PerformanceEngine
    {
      public:
        double
        measure(const Assignment &) override
        {
            return first_++ == 0
                ? std::numeric_limits<double>::quiet_NaN() : 42.0;
        }
        std::string name() const override { return "fail-once"; }

      private:
        int first_ = 0;
    };

    FailOnceEngine inner;
    core::MemoizingEngine memo(inner);
    const auto a = drawBatch(1)[0];
    EXPECT_FALSE(memo.measureOutcome(a).ok());
    const auto second = memo.measureOutcome(a);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value, 42.0);
    // Now cached: replayed without a third inner measurement.
    EXPECT_EQ(memo.measureOutcome(a).value, 42.0);
    EXPECT_EQ(memo.hitCount(), 1u);
}

TEST(ParallelEngine, ConcurrentStackIsRaceFree)
{
    // Large parallel batches through the full decorated stack while a
    // second thread polls the statistics — the ThreadSanitizer
    // workout for the engine layer.
    auto sim = makeSim();
    core::ParallelEngine parallel(sim, 8);
    core::MemoizingEngine memo(parallel);
    core::MeteredEngine meter(memo);

    std::atomic<bool> done{false};
    std::thread poller([&] {
        core::EngineStats last;
        while (!done.load(std::memory_order_acquire))
            last = meter.stats();
    });

    const auto batch = drawBatch(400, 23);
    std::vector<double> out(batch.size());
    for (int round = 0; round < 3; ++round)
        meter.measureBatch(batch, out);
    done.store(true, std::memory_order_release);
    poller.join();

    const auto stats = meter.stats();
    EXPECT_EQ(stats.measurements, 3u * 400u);
    // Rounds 2 and 3 hit the cache entirely.
    EXPECT_GE(stats.cacheHits, 2u * 400u);
}

} // anonymous namespace
