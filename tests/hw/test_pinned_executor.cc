/**
 * @file
 * Pinned-thread engine tests (kept small: they run real threads).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "hw/pinned_executor.hh"

namespace
{

using namespace statsched;
using namespace statsched::hw;
using core::Assignment;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

TEST(PinnedExecutor, HostCpuMappingWraps)
{
    const unsigned n =
        std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(PinnedThreadEngine::hostCpuOf(0), 0u);
    EXPECT_EQ(PinnedThreadEngine::hostCpuOf(n), 0u);
    EXPECT_LT(PinnedThreadEngine::hostCpuOf(63), n);
}

TEST(PinnedExecutor, MeasuresPositiveThroughput)
{
    PinnedOptions options;
    options.measureMillis = 60;
    PinnedThreadEngine engine(sim::Benchmark::IpfwdL1, 1, options);
    const Assignment a(t2, {0, 4, 1});
    const double pps = engine.measure(a);
    EXPECT_GT(pps, 0.0);
    EXPECT_NEAR(engine.secondsPerMeasurement(), 0.06, 1e-9);
}

TEST(PinnedExecutor, RunsEveryBenchmarkKernel)
{
    for (sim::Benchmark b : sim::caseStudySuite()) {
        PinnedOptions options;
        options.measureMillis = 40;
        PinnedThreadEngine engine(b, 1, options);
        const Assignment a(t2, {0, 4, 1});
        EXPECT_GT(engine.measure(a), 0.0) << sim::benchmarkName(b);
    }
}

TEST(PinnedExecutor, MultiInstanceAggregates)
{
    PinnedOptions options;
    options.measureMillis = 60;
    PinnedThreadEngine engine(sim::Benchmark::PacketAnalyzer, 2,
                              options);
    const Assignment a(t2, {0, 4, 1, 8, 12, 9});
    EXPECT_GT(engine.measure(a), 0.0);
    EXPECT_NE(engine.name().find("Packet analyzer"),
              std::string::npos);
}

TEST(PinnedExecutor, WatchdogReapsAWedgedStage)
{
    PinnedOptions options;
    options.measureMillis = 30;
    options.watchdogMillis = 150;
    options.testHangRelease =
        std::make_shared<std::atomic<bool>>(false);
    PinnedThreadEngine engine(sim::Benchmark::IpfwdL1, 1, options);
    const Assignment a(t2, {0, 4, 1});

    // The hung P stage must yield a TimedOut outcome within the
    // measurement window plus the watchdog grace period, not wedge
    // the caller.
    const auto start = std::chrono::steady_clock::now();
    const core::MeasurementOutcome outcome = engine.measureOutcome(a);
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    EXPECT_EQ(outcome.status, core::MeasureStatus::TimedOut);
    EXPECT_TRUE(std::isnan(outcome.valueOrNaN()));
    EXPECT_EQ(engine.timeoutCount(), 1u);
    EXPECT_LT(elapsed, 2.0);

    // The abandoned thread exits once released, and later runs on
    // the same engine measure normally.
    options.testHangRelease->store(true,
                                   std::memory_order_release);
    const core::MeasurementOutcome next = engine.measureOutcome(a);
    ASSERT_TRUE(next.ok());
    EXPECT_GT(next.value, 0.0);
    EXPECT_EQ(engine.timeoutCount(), 1u);

    core::EngineStats stats;
    engine.collectStats(stats);
    EXPECT_EQ(stats.failures, 1u);
    EXPECT_NEAR(stats.modeledSeconds, 0.150, 1e-9);

    // A batch of one reaped by the watchdog keeps its TimedOut status
    // on the batch path too, instead of degrading to Invalid.
    options.testHangRelease->store(false, std::memory_order_release);
    core::MeasurementOutcome batched;
    engine.measureBatchOutcome(std::span<const Assignment>(&a, 1),
                               std::span<core::MeasurementOutcome>(
                                   &batched, 1));
    EXPECT_EQ(batched.status, core::MeasureStatus::TimedOut);
    EXPECT_EQ(engine.timeoutCount(), 2u);
    options.testHangRelease->store(true, std::memory_order_release);
}

TEST(PinnedExecutor, WatchdogDisabledKeepsLegacyJoin)
{
    PinnedOptions options;
    options.measureMillis = 30;
    options.watchdogMillis = 0;
    PinnedThreadEngine engine(sim::Benchmark::IpfwdL1, 1, options);
    const Assignment a(t2, {0, 4, 1});
    const core::MeasurementOutcome outcome = engine.measureOutcome(a);
    ASSERT_TRUE(outcome.ok());
    EXPECT_GT(outcome.value, 0.0);
    EXPECT_EQ(engine.timeoutCount(), 0u);
}

} // anonymous namespace
