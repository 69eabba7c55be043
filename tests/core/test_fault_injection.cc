/**
 * @file
 * FaultInjectingEngine tests: the injected fault pattern must be a
 * pure function of (assignment, measurement index, seed) — identical
 * under any thread count and any serial/batch mix — and the stats
 * contributions must price hangs and count failures correctly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fault_injection.hh"
#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::FaultInjectingEngine;
using core::FaultOptions;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

sim::SimulatedEngine
makeSim()
{
    return sim::SimulatedEngine(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
}

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed = 31)
{
    core::RandomAssignmentSampler sampler(t2, 24, seed);
    return sampler.drawSample(n);
}

FaultOptions
mixedFaults()
{
    FaultOptions faults;
    faults.transientRate = 0.10;
    faults.garbageRate = 0.05;
    faults.hangRate = 0.03;
    faults.outlierRate = 0.05;
    faults.seed = 0xfee1;
    return faults;
}

TEST(FaultInjection, RatesRoughlyMatchOverManyMeasurements)
{
    auto sim = makeSim();
    FaultInjectingEngine faulty(sim, mixedFaults());
    const auto batch = drawBatch(4000);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    faulty.measureBatchOutcome(batch, outcomes);

    std::size_t errored = 0;
    std::size_t invalid = 0;
    std::size_t timed_out = 0;
    std::size_t ok = 0;
    for (const auto &outcome : outcomes) {
        switch (outcome.status) {
          case MeasureStatus::Errored:  ++errored;  break;
          case MeasureStatus::Invalid:  ++invalid;  break;
          case MeasureStatus::TimedOut: ++timed_out; break;
          case MeasureStatus::Ok:       ++ok;       break;
          default: FAIL() << "unexpected status";
        }
    }
    // Binomial(4000, p) stays well within +-40% of its mean.
    EXPECT_NEAR(static_cast<double>(errored), 4000 * 0.10,
                4000 * 0.04);
    EXPECT_NEAR(static_cast<double>(invalid), 4000 * 0.05,
                4000 * 0.02);
    EXPECT_NEAR(static_cast<double>(timed_out), 4000 * 0.03,
                4000 * 0.015);
    EXPECT_EQ(errored, faulty.injectedTransients());
    EXPECT_EQ(invalid, faulty.injectedGarbage());
    EXPECT_EQ(timed_out, faulty.injectedHangs());
    // Outliers are delivered Ok with an inflated value.
    EXPECT_GT(faulty.injectedOutliers(), 0u);
    EXPECT_EQ(ok, batch.size() - errored - invalid - timed_out);
}

TEST(FaultInjection, BitIdenticalAcrossThreadCounts)
{
    const auto batch = drawBatch(600);
    std::vector<std::vector<MeasurementOutcome>> runs;
    for (unsigned threads : {1u, 4u, 16u}) {
        auto sim = makeSim();
        FaultInjectingEngine faulty(sim, mixedFaults());
        core::ParallelEngine parallel(faulty, threads);
        std::vector<MeasurementOutcome> outcomes(batch.size());
        parallel.measureBatchOutcome(batch, outcomes);
        runs.push_back(std::move(outcomes));
    }
    for (std::size_t r = 1; r < runs.size(); ++r) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(runs[0][i].status, runs[r][i].status)
                << "run " << r << " index " << i;
            if (runs[0][i].ok()) {
                EXPECT_EQ(runs[0][i].value, runs[r][i].value)
                    << "run " << r << " index " << i;
            }
        }
    }
}

TEST(FaultInjection, SerialCallsMatchOneBatch)
{
    // The cursor reserves one index per measurement either way, so
    // item-by-item measurement equals a single batch.
    const auto batch = drawBatch(80);

    auto sim_serial = makeSim();
    FaultInjectingEngine serial(sim_serial, mixedFaults());
    std::vector<MeasurementOutcome> expected;
    expected.reserve(batch.size());
    for (const auto &a : batch)
        expected.push_back(serial.measureOutcome(a));

    auto sim_batched = makeSim();
    FaultInjectingEngine batched(sim_batched, mixedFaults());
    std::vector<MeasurementOutcome> got(batch.size());
    batched.measureBatchOutcome(batch, got);

    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(expected[i].status, got[i].status) << "index " << i;
        if (expected[i].ok()) {
            EXPECT_EQ(expected[i].value, got[i].value)
                << "index " << i;
        }
    }
}

TEST(FaultInjection, DoubleChannelSurfacesFailuresAsNaN)
{
    auto sim = makeSim();
    FaultOptions faults;
    faults.transientRate = 1.0;
    FaultInjectingEngine faulty(sim, faults);
    EXPECT_TRUE(std::isnan(faulty.measure(drawBatch(1)[0])));
}

TEST(FaultInjection, OutliersInflateTheCleanReading)
{
    const auto a = drawBatch(1)[0];
    FaultOptions faults;
    faults.outlierRate = 1.0;

    auto sim_clean = makeSim();
    const double clean = sim_clean.measure(a);
    auto sim_faulty = makeSim();
    FaultInjectingEngine faulty(sim_faulty, faults);
    const MeasurementOutcome outcome = faulty.measureOutcome(a);
    ASSERT_TRUE(outcome.ok());
    EXPECT_DOUBLE_EQ(outcome.value, 3.0 * clean);
}

TEST(FaultInjection, StatsCountFailuresAndPriceHangs)
{
    auto sim = makeSim();
    FaultOptions faults;
    faults.hangRate = 1.0;
    FaultInjectingEngine faulty(sim, faults);
    core::MeteredEngine meter(faulty);

    const auto batch = drawBatch(10);
    std::vector<MeasurementOutcome> outcomes(batch.size());
    meter.measureBatchOutcome(batch, outcomes);
    for (const auto &outcome : outcomes)
        EXPECT_EQ(outcome.status, MeasureStatus::TimedOut);

    const core::EngineStats stats = meter.stats();
    EXPECT_EQ(stats.failures, 10u);
    // The meter charges 1.5 s per requested measurement; each hang
    // costs 10 s instead, so the injector adds the difference.
    EXPECT_NEAR(stats.modeledSeconds, 10 * 1.5 + 10 * (10.0 - 1.5),
                1e-9);
}

} // anonymous namespace
