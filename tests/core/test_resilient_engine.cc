/**
 * @file
 * ResilientEngine tests: retry recovery, backoff pricing, quarantine,
 * median-of-k screening — plus the acceptance scenario of the
 * fault-tolerant layer: the iterative algorithm over a 20%-faulty
 * engine completes and agrees with the fault-free run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/check.hh"
#include "core/estimator.hh"
#include "core/fault_injection.hh"
#include "core/iterative.hh"
#include "core/parallel_engine.hh"
#include "core/record_codec.hh"
#include "core/resilient_engine.hh"
#include "core/sampler.hh"
#include "relabel.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::ResilientEngine;
using core::ResilientOptions;
using core::Topology;
using stats::Rng;

const Topology t2 = Topology::ultraSparcT2();

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed = 47)
{
    core::RandomAssignmentSampler sampler(t2, 24, seed);
    return sampler.drawSample(n);
}

/**
 * Fails the first `failuresPerKey` attempts of every assignment
 * class, then returns 100. Counts every attempt.
 */
class FlakyEngine : public core::PerformanceEngine
{
  public:
    explicit FlakyEngine(std::uint32_t failuresPerKey)
        : failuresPerKey_(failuresPerKey)
    {
    }

    double
    measure(const Assignment &assignment) override
    {
        return measureOutcome(assignment).valueOrNaN();
    }

    MeasurementOutcome
    measureOutcome(const Assignment &assignment) override
    {
        ++attempts_;
        if (seen_[assignment.canonicalKey()]++ < failuresPerKey_)
            return MeasurementOutcome::failure(MeasureStatus::Errored);
        return MeasurementOutcome::classify(100.0);
    }

    void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out) override
    {
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = measureOutcome(batch[i]);
    }

    std::string name() const override { return "flaky"; }
    double secondsPerMeasurement() const override { return 0.0; }

    std::uint64_t attempts() const { return attempts_; }

  private:
    std::uint32_t failuresPerKey_;
    std::unordered_map<std::string, std::uint32_t> seen_;
    std::uint64_t attempts_ = 0;
};

/** Returns scripted values in order; repeats the last one forever. */
class ScriptedEngine : public core::PerformanceEngine
{
  public:
    explicit ScriptedEngine(std::vector<double> values)
        : values_(std::move(values))
    {
    }

    double
    measure(const Assignment &) override
    {
        const double v = values_[std::min(next_, values_.size() - 1)];
        ++next_;
        return v;
    }

    std::string name() const override { return "scripted"; }

  private:
    std::vector<double> values_;
    std::size_t next_ = 0;
};

TEST(ResilientEngine, RetriesRecoverTransientFailures)
{
    FlakyEngine flaky(2);
    ResilientOptions options;
    options.maxAttempts = 4;
    ResilientEngine resilient(flaky, options);

    const auto batch = drawBatch(8);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.ok());
        EXPECT_EQ(outcome.value, 100.0);
        EXPECT_EQ(outcome.attempts, 3u);
    }
    // Two failed rounds of 8 before the third succeeds.
    EXPECT_EQ(resilient.retryCount(), 16u);
    EXPECT_EQ(resilient.quarantineSize(), 0u);
    EXPECT_EQ(flaky.attempts(), 24u);
}

TEST(ResilientEngine, BackoffIsPricedIntoModeledSeconds)
{
    FlakyEngine flaky(2);
    ResilientOptions options;
    options.maxAttempts = 4;
    ResilientEngine resilient(flaky, options);

    const auto batch = drawBatch(8);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);

    core::EngineStats stats;
    resilient.collectStats(stats);
    EXPECT_EQ(stats.retries, 16u);
    // Round 1 waits 0.5 s per failed item, round 2 waits 1.0 s; the
    // flaky engine itself is instantaneous.
    EXPECT_NEAR(stats.modeledSeconds, 8 * 0.5 + 8 * 1.0, 1e-12);
}

TEST(ResilientEngine, QuarantinedClassesAreNeverRemeasured)
{
    // More faults per key than the retry budget: the class exhausts
    // its attempts and must be quarantined.
    FlakyEngine flaky(1000);
    ResilientOptions options;
    options.maxAttempts = 2;
    ResilientEngine resilient(flaky, options);

    const auto a = drawBatch(1)[0];
    const MeasurementOutcome first = resilient.measureOutcome(a);
    EXPECT_EQ(first.status, MeasureStatus::Errored);
    EXPECT_EQ(first.attempts, 2u);
    EXPECT_TRUE(resilient.isQuarantined(a));
    EXPECT_EQ(resilient.quarantineSize(), 1u);
    const std::uint64_t attempts_after_first = flaky.attempts();
    EXPECT_EQ(attempts_after_first, 2u);

    // Further requests are rejected without touching the inner
    // engine — alone and inside a mixed batch.
    const MeasurementOutcome second = resilient.measureOutcome(a);
    EXPECT_EQ(second.status, MeasureStatus::Quarantined);
    EXPECT_EQ(flaky.attempts(), attempts_after_first);

    auto batch = drawBatch(4, 99);
    batch.push_back(a);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);
    EXPECT_EQ(outcomes.back().status, MeasureStatus::Quarantined);
    // The four fresh classes exhausted their attempts in this batch
    // and joined the quarantine; the old one was not re-attempted.
    EXPECT_EQ(flaky.attempts(), attempts_after_first + 4 * 2);

    core::EngineStats stats;
    resilient.collectStats(stats);
    EXPECT_EQ(stats.quarantined, 5u);
}

TEST(ResilientEngine, MedianOfKScreeningRepairsSilentOutliers)
{
    // Batch readings 100,100,100,300,100; the 300 is a silent
    // outlier. With screenWidth 3 it is re-measured twice (100, 100)
    // and the median of {300, 100, 100} replaces it.
    ScriptedEngine scripted({100, 100, 100, 300, 100, 100, 100});
    ResilientOptions options;
    options.screenWidth = 3;
    options.screenRelDeviation = 0.5;
    ResilientEngine resilient(scripted, options);

    const auto batch = drawBatch(5);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok());
        EXPECT_EQ(outcomes[i].value, 100.0) << "index " << i;
    }
    EXPECT_EQ(outcomes[3].attempts, 3u);
    EXPECT_EQ(resilient.screenedCount(), 1u);
    EXPECT_EQ(resilient.retryCount(), 2u);
}

TEST(ResilientEngine, BackoffStaysFiniteAtHighAttemptCounts)
{
    // An uncapped geometric series overflows to infinity near
    // attempt 1000 and poisons the modeled-time accounting; the cap
    // bounds every wait.
    FlakyEngine dead(std::numeric_limits<std::uint32_t>::max());
    ResilientOptions options;
    options.maxAttempts = 2000;
    ResilientEngine resilient(dead, options);

    const auto a = drawBatch(1)[0];
    const MeasurementOutcome outcome = resilient.measureOutcome(a);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.attempts, 2000u);

    core::EngineStats stats;
    resilient.collectStats(stats);
    EXPECT_TRUE(std::isfinite(stats.modeledSeconds));
    // Waits: 0.5, 1, ..., 256 (511.5 s in all), then the 300 s cap
    // for each of the remaining 1989 retried rounds (1999 retries
    // total, the last attempt is not followed by a wait).
    EXPECT_NEAR(stats.modeledSeconds, 511.5 + 1989 * 300.0, 1e-9);
}

TEST(ResilientEngine, RejectsDegenerateOptions)
{
    FlakyEngine flaky(0);
    {
        ResilientOptions options;
        options.maxAttempts = 0; // zero attempts can measure nothing
        EXPECT_THROW(ResilientEngine r(flaky, options),
                     ContractViolation);
    }
}

TEST(ResilientEngine, SingleAttemptBudgetNeverRetries)
{
    FlakyEngine flaky(1000);
    ResilientOptions options;
    options.maxAttempts = 1;
    ResilientEngine resilient(flaky, options);

    const auto batch = drawBatch(4);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);
    for (const auto &outcome : outcomes) {
        EXPECT_FALSE(outcome.ok());
        EXPECT_EQ(outcome.attempts, 1u);
    }
    EXPECT_EQ(resilient.retryCount(), 0u);
    EXPECT_EQ(flaky.attempts(), batch.size());
}

TEST(ResilientEngine, ImmediateQuarantineInteractsWithBatchReissue)
{
    // A batch holding the same doomed class twice: both items exhaust
    // in the SAME batch, which must count as exhaustions (not
    // re-measurements of a quarantined class) and quarantine the
    // class exactly once.
    FlakyEngine flaky(1000);
    ResilientOptions options;
    options.maxAttempts = 2;
    ResilientEngine resilient(flaky, options);

    const auto a = drawBatch(1)[0];
    std::vector<core::Assignment> batch{a, a};
    std::vector<MeasurementOutcome> outcomes(batch.size());
    resilient.measureBatchOutcome(batch, outcomes);
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.status, MeasureStatus::Errored);
    EXPECT_TRUE(resilient.isQuarantined(a));
    EXPECT_EQ(resilient.quarantineSize(), 1u);
    const std::uint64_t attempts = flaky.attempts();
    EXPECT_EQ(attempts, 4u); // 2 items x 2 attempts, then quarantine

    // The follow-up batch is rejected without touching the engine.
    resilient.measureBatchOutcome(batch, outcomes);
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.status, MeasureStatus::Quarantined);
    EXPECT_EQ(flaky.attempts(), attempts);

    core::EngineStats stats;
    resilient.collectStats(stats);
    EXPECT_EQ(stats.quarantined, 1u);
}

/** @return whether the class of `key` fails every attempt under
 *  `seed`: about one class in six. FNV-1a mixes its high bits best. */
bool
doomedClass(const std::string &key, std::uint64_t seed)
{
    return (core::fnv1a64(std::to_string(seed) + key) >> 40) % 6 == 0;
}

/** @return the reading of a class that does not fail. */
double
classValue(const std::string &key)
{
    return 1.0e6 + static_cast<double>(core::fnv1a64(key) >> 52);
}

/**
 * Fails every attempt of the classes doomedClass() picks, and reads
 * classValue() for any other. Counts every attempt.
 */
class DoomedClassesEngine : public core::PerformanceEngine
{
  public:
    explicit DoomedClassesEngine(std::uint64_t seed) : seed_(seed) {}

    double
    measure(const Assignment &assignment) override
    {
        return measureOutcome(assignment).valueOrNaN();
    }

    MeasurementOutcome
    measureOutcome(const Assignment &assignment) override
    {
        ++attempts_;
        const std::string key = assignment.canonicalKey();
        if (doomedClass(key, seed_))
            return MeasurementOutcome::failure(MeasureStatus::Errored);
        return MeasurementOutcome::classify(classValue(key));
    }

    void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out) override
    {
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = measureOutcome(batch[i]);
    }

    std::string name() const override { return "doomed-classes"; }

    std::uint64_t attempts() const { return attempts_; }

  private:
    std::uint64_t seed_;
    std::uint64_t attempts_ = 0;
};

/**
 * The quarantine restated over canonicalKey() strings, over a
 * DoomedClassesEngine: a class quarantined before the batch is
 * rejected with no attempt; a doomed class spends every attempt, and
 * each such exhaustion quarantines it once the batch is done; any
 * other class reads Ok on its first attempt.
 */
class StringKeyedQuarantine
{
  public:
    StringKeyedQuarantine(std::uint32_t maxAttempts, std::uint64_t seed)
        : maxAttempts_(maxAttempts), seed_(seed)
    {
    }

    void
    measureBatchOutcome(const std::vector<Assignment> &batch,
                        std::vector<MeasurementOutcome> &out)
    {
        std::vector<std::string> exhausted;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::string key = batch[i].canonicalKey();
            if (quarantine.count(key) != 0) {
                out[i] = MeasurementOutcome::failure(
                    MeasureStatus::Quarantined, 0);
            } else if (doomedClass(key, seed_)) {
                out[i] = MeasurementOutcome::failure(
                    MeasureStatus::Errored, maxAttempts_);
                attempts += maxAttempts_;
                exhausted.push_back(std::move(key));
            } else {
                out[i] = MeasurementOutcome::classify(classValue(key));
                attempts += 1;
            }
        }
        quarantine.insert(exhausted.begin(), exhausted.end());
    }

    std::set<std::string> quarantine;
    std::uint64_t attempts = 0;

  private:
    std::uint32_t maxAttempts_;
    std::uint64_t seed_;
};

TEST(ResilientEngine, QuarantineMatchesStringKeyedReference)
{
    // One engine per task count, each fed batches that repeat classes
    // exactly and relabeled, within and across batches: every outcome,
    // the quarantine's size and each item's membership must match the
    // string-keyed reference.
    constexpr std::uint64_t seed = 7;
    for (const std::uint32_t maxAttempts : {1u, 3u}) {
        Rng rng(2024);
        for (const std::uint32_t tasks : {6u, 9u}) {
            SCOPED_TRACE(std::to_string(tasks) + " tasks, " +
                         std::to_string(maxAttempts) + " attempt(s)");
            core::RandomAssignmentSampler sampler(t2, tasks, 40 + tasks);
            const auto stream =
                statsched::test::batchesWithCopies(sampler, rng);
            DoomedClassesEngine inner(seed);
            ResilientOptions options;
            options.maxAttempts = maxAttempts;
            ResilientEngine resilient(inner, options);
            StringKeyedQuarantine reference(maxAttempts, seed);
            std::size_t rejected = 0;
            for (std::size_t b = 0; b < stream.size(); ++b) {
                SCOPED_TRACE("batch " + std::to_string(b));
                const std::vector<Assignment> &batch = stream[b];
                std::vector<MeasurementOutcome> got(batch.size());
                std::vector<MeasurementOutcome> want(batch.size());
                resilient.measureBatchOutcome(batch, got);
                reference.measureBatchOutcome(batch, want);
                for (std::size_t i = 0; i < batch.size(); ++i) {
                    EXPECT_EQ(got[i].status, want[i].status)
                        << "item " << i;
                    EXPECT_EQ(got[i].attempts, want[i].attempts)
                        << "item " << i;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
                              std::bit_cast<std::uint64_t>(want[i].value))
                        << "item " << i;
                    EXPECT_EQ(resilient.isQuarantined(batch[i]),
                              reference.quarantine.count(
                                  batch[i].canonicalKey()) != 0)
                        << "item " << i;
                    if (want[i].status == MeasureStatus::Quarantined)
                        ++rejected;
                }
                EXPECT_EQ(resilient.quarantineSize(),
                          reference.quarantine.size());
                EXPECT_EQ(inner.attempts(), reference.attempts);
            }
            // The stream quarantines classes and then meets them again.
            EXPECT_GT(reference.quarantine.size(), 0u);
            EXPECT_GT(rejected, 0u);
        }
    }
}

/** The sanctioned simulated stack with fault injection. */
struct FaultyStack
{
    sim::SimulatedEngine sim;
    core::FaultInjectingEngine faulty;
    core::ParallelEngine parallel;
    ResilientEngine resilient;

    FaultyStack(const core::FaultOptions &faults, unsigned threads,
                const ResilientOptions &resilience)
        : sim(sim::makeWorkload(sim::Benchmark::IpfwdL1, 8)),
          faulty(sim, faults), parallel(faulty, threads),
          resilient(parallel, resilience)
    {
    }
};

TEST(ResilientEngine, IterativeUnderFaultsAgreesWithFaultFree)
{
    core::IterativeOptions options;
    options.initialSample = 400;
    options.incrementSample = 100;
    options.acceptableLoss = 0.02;
    options.maxSample = 3000;

    sim::SimulatedEngine clean_sim(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
    core::ParallelEngine clean(clean_sim, 4);
    const auto fault_free =
        core::iterativeAssignmentSearch(clean, t2, 24, 5, options);

    core::FaultOptions faults;
    faults.transientRate = 0.20;
    ResilientOptions resilience;
    resilience.maxAttempts = 4;
    FaultyStack stack(faults, 4, resilience);
    const auto faulty = core::iterativeAssignmentSearch(
        stack.resilient, t2, 24, 5, options);

    // The faulty run completes, reaches the same verdict, and its
    // UPB lands inside the fault-free confidence interval.
    EXPECT_TRUE(faulty.abortReason.empty());
    EXPECT_EQ(fault_free.satisfied, faulty.satisfied);
    // The injected faults really fired; retries recovered (nearly)
    // all of them, so few if any measurements failed outright.
    EXPECT_GT(stack.faulty.injectedTransients(), 0u);
    EXPECT_GT(stack.resilient.retryCount(), 0u);
    EXPECT_EQ(faulty.totalAttempted,
              faulty.totalSampled + faulty.totalFailed);
    ASSERT_TRUE(fault_free.final.pot.valid);
    ASSERT_TRUE(faulty.final.pot.valid);
    EXPECT_GE(faulty.final.pot.upb, fault_free.final.pot.upbLower);
    EXPECT_LE(faulty.final.pot.upb, fault_free.final.pot.upbUpper);

    // Failures were excluded, and every round topped back up: the
    // valid sample still grows in full Ninit/Ndelta quotas.
    EXPECT_EQ(faulty.totalSampled, faulty.final.sample.size());
    for (const auto &step : faulty.steps)
        EXPECT_GE(step.attempted, step.failed);
}

TEST(ResilientEngine, IterativeAbortsWhenEveryMeasurementFails)
{
    FlakyEngine dead(std::numeric_limits<std::uint32_t>::max());
    ResilientOptions resilience;
    resilience.maxAttempts = 2;
    ResilientEngine resilient(dead, resilience);

    core::IterativeOptions options;
    options.initialSample = 50;
    options.incrementSample = 10;
    options.maxSample = 500;

    const auto run = core::iterativeAssignmentSearch(
        resilient, t2, 24, 5, options);
    EXPECT_FALSE(run.satisfied);
    EXPECT_FALSE(run.abortReason.empty());
    EXPECT_EQ(run.totalSampled, 0u);
    EXPECT_GT(run.totalFailed, 0u);
    EXPECT_FALSE(run.final.pot.valid);
    EXPECT_EQ(run.final.pot.invalidReason, "no valid measurements");
}

} // anonymous namespace
