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
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hh"
#include "base/worker_pool.hh"
#include "core/estimator.hh"
#include "core/iterative.hh"
#include "core/local_search.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "relabel.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::Topology;
using stats::Rng;

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

/**
 * Inner engine of the memo reference test: records every sub-batch it
 * receives, fails every 7th request, and reads a value unique to each
 * request, so an outcome handed to the wrong item shows.
 */
class RecordingEngine : public core::PerformanceEngine
{
  public:
    double
    measure(const Assignment &assignment) override
    {
        core::MeasurementOutcome outcome;
        measureBatchOutcome(std::span<const Assignment>(&assignment, 1),
                            std::span<core::MeasurementOutcome>(&outcome,
                                                                1));
        return outcome.valueOrNaN();
    }

    void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<core::MeasurementOutcome> out) override
    {
        std::vector<std::vector<core::ContextId>> received;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            received.push_back(batch[i].contexts());
            ++requests_;
            out[i] = requests_ % 7 == 0
                ? core::MeasurementOutcome::failure(
                      core::MeasureStatus::Errored)
                : core::MeasurementOutcome::classify(
                      1.0e6 + 0.25 * static_cast<double>(requests_));
        }
        batches.push_back(std::move(received));
    }

    std::string name() const override { return "recording"; }

    /** Every sub-batch received, as context vectors, in order. */
    std::vector<std::vector<std::vector<core::ContextId>>> batches;

  private:
    std::uint64_t requests_ = 0;
};

/**
 * The memo's contract restated over canonicalKey() strings: a cached
 * class replays as Ok, each uncached class is forwarded once per batch
 * in first-occurrence order, duplicates share the first occurrence's
 * outcome, and only Ok readings enter the cache.
 */
class StringKeyedMemo
{
  public:
    explicit StringKeyedMemo(core::PerformanceEngine &inner)
        : inner_(inner)
    {
    }

    void
    measureBatchOutcome(const std::vector<Assignment> &batch,
                        std::vector<core::MeasurementOutcome> &out)
    {
        constexpr std::size_t kHit =
            std::numeric_limits<std::size_t>::max();
        std::map<std::string, std::size_t> pending;
        std::vector<Assignment> misses;
        std::vector<std::string> missKeys;
        std::vector<std::size_t> slot(batch.size(), kHit);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::string key = batch[i].canonicalKey();
            const auto cached = cache_.find(key);
            if (cached != cache_.end()) {
                out[i] = core::MeasurementOutcome::classify(
                    cached->second);
                ++hits;
                continue;
            }
            const auto [first, fresh] =
                pending.try_emplace(key, misses.size());
            if (!fresh) {
                slot[i] = first->second;
                ++hits;
                continue;
            }
            slot[i] = misses.size();
            misses.push_back(batch[i]);
            missKeys.push_back(std::move(key));
        }
        if (misses.empty())
            return;
        std::vector<core::MeasurementOutcome> outcomes(misses.size());
        inner_.measureBatchOutcome(misses, outcomes);
        std::vector<bool> first_seen(misses.size(), false);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (slot[i] == kHit)
                continue;
            out[i] = outcomes[slot[i]];
            if (first_seen[slot[i]] && !out[i].ok())
                ++sharedFailures;
            first_seen[slot[i]] = true;
        }
        for (std::size_t m = 0; m < misses.size(); ++m) {
            if (outcomes[m].ok())
                cache_.emplace(missKeys[m], outcomes[m].value);
        }
    }

    std::size_t size() const { return cache_.size(); }

    std::uint64_t hits = 0;
    /** Duplicates that shared a failed first occurrence. */
    std::uint64_t sharedFailures = 0;

  private:
    core::PerformanceEngine &inner_;
    std::map<std::string, double> cache_;
};

TEST(MemoizingEngine, ShapesNeverShareAnEntry)
{
    // A memo serves the shape of its first batch. All tasks on one pipe
    // packs to zero bits at every task count and on every chip, so
    // these classes would share an entry if the memo took more than
    // one shape: it refuses another task count and another chip,
    // alone and beside items of its shape, before forwarding anything.
    const Assignment first(t2, {0, 1, 2});
    const Assignment copy(t2, {3, 2, 1});
    const std::vector<Assignment> others = {
        Assignment(t2, {0, 1, 2, 3}), Assignment(t2, {4, 5}),
        Assignment(Topology{2, 2, 4}, {0, 1, 2}),
        Assignment(Topology{4, 2, 2}, {1, 0})};
    for (const bool pooled : {false, true}) {
        SCOPED_TRACE(pooled ? "pooled keys" : "serial keys");
        RecordingEngine inner;
        statsched::base::WorkerPool pool(4);
        core::MemoizingEngine memo(inner, pooled ? &pool : nullptr);
        std::vector<core::MeasurementOutcome> out(2);

        // The first batch sets the shape even when it is refused.
        EXPECT_THROW(memo.measureBatchOutcome(
                         std::vector<Assignment>{first, others[0]}, out),
                     ContractViolation);
        EXPECT_TRUE(inner.batches.empty());
        out.resize(1);
        memo.measureBatchOutcome(std::vector<Assignment>{first}, out);
        ASSERT_EQ(inner.batches.size(), 1u);

        for (std::size_t k = 0; k < others.size(); ++k) {
            SCOPED_TRACE(k);
            out.resize(1);
            EXPECT_THROW(memo.measureBatchOutcome(
                             std::vector<Assignment>{others[k]}, out),
                         ContractViolation);
            out.resize(3);
            EXPECT_THROW(memo.measureBatchOutcome(
                             std::vector<Assignment>{copy, others[k],
                                                     first},
                             out),
                         ContractViolation);
        }
        EXPECT_EQ(inner.batches.size(), 1u);
        EXPECT_EQ(memo.hitCount(), 0u);
        EXPECT_EQ(memo.size(), 1u);

        // Its own shape is still served: the copy is a hit.
        out.resize(1);
        memo.measureBatchOutcome(std::vector<Assignment>{copy}, out);
        EXPECT_EQ(inner.batches.size(), 1u);
        EXPECT_EQ(memo.hitCount(), 1u);
    }
}

TEST(MemoizingEngine, MatchesStringKeyedReference)
{
    // The same batch stream through the engine and through the
    // reference, each over its own recording inner engine: every
    // outcome, tally and forwarded sub-batch must agree, with the keys
    // computed serially and on a pool. The stream holds 6- and 9-task
    // draws (the stateful benchmark at 2 and 3 instances), with exact
    // and relabeled copies; a memo serves one shape, so each task
    // count gets a memo of its own.
    for (const bool pooled : {false, true}) {
        SCOPED_TRACE(pooled ? "pooled keys" : "serial keys");
        Rng rng(2024);
        for (const std::uint32_t tasks : {6u, 9u}) {
            SCOPED_TRACE(std::to_string(tasks) + " tasks");
            core::RandomAssignmentSampler sampler(t2, tasks, 40 + tasks);
            const auto stream =
                statsched::test::batchesWithCopies(sampler, rng);
            RecordingEngine inner;
            RecordingEngine referenceInner;
            statsched::base::WorkerPool pool(4);
            core::MemoizingEngine memo(inner, pooled ? &pool : nullptr);
            StringKeyedMemo reference(referenceInner);
            for (std::size_t b = 0; b < stream.size(); ++b) {
                SCOPED_TRACE(b);
                const std::vector<Assignment> &batch = stream[b];
                std::vector<core::MeasurementOutcome> got(batch.size());
                std::vector<core::MeasurementOutcome> want(batch.size());
                memo.measureBatchOutcome(batch, got);
                reference.measureBatchOutcome(batch, want);
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    EXPECT_EQ(
                        std::bit_cast<std::uint64_t>(got[i].value),
                        std::bit_cast<std::uint64_t>(want[i].value))
                        << "item " << i;
                    EXPECT_EQ(got[i].status, want[i].status)
                        << "item " << i;
                    EXPECT_EQ(got[i].attempts, want[i].attempts)
                        << "item " << i;
                }
                EXPECT_EQ(memo.hitCount(), reference.hits);
                EXPECT_EQ(memo.size(), reference.size());
            }
            EXPECT_EQ(inner.batches, referenceInner.batches);
            // The stream reaches every branch of the contract.
            EXPECT_GT(reference.hits, 0u);
            EXPECT_GT(reference.sharedFailures, 0u);
            EXPECT_GT(memo.size(), 0u);
        }
    }
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
