/**
 * @file
 * EngineDecorator tests: every decorator's double channel is the
 * valueOrNaN() view of its outcome channel, the base forwards name,
 * cost, stats and index reservations to the wrapped engine, and
 * core::ValueCorruptingEngine corrupts exactly the Ok readings. The
 * kernel views run on ParallelEngine pool threads, so these suites
 * are also ThreadSanitizer targets.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/fault_injection.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/resilient_engine.hh"
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
using core::PerformanceEngine;
using core::Topology;
using core::ValueCorruptingEngine;

const Topology t2 = Topology::ultraSparcT2();

sim::SimulatedEngine
makeSim()
{
    return sim::SimulatedEngine(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
}

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed)
{
    core::RandomAssignmentSampler sampler(t2, 24, seed);
    return sampler.drawSample(n);
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

FaultOptions
mixedFaults()
{
    FaultOptions faults;
    faults.transientRate = 0.15;
    faults.garbageRate = 0.10;
    faults.outlierRate = 0.10;
    faults.seed = 0xdec0;
    return faults;
}

/** @return the batch measured through `engine`'s outcome channel. */
std::vector<MeasurementOutcome>
outcomesOf(PerformanceEngine &engine, const std::vector<Assignment> &batch)
{
    std::vector<MeasurementOutcome> out(batch.size());
    engine.measureBatchOutcome(batch, out);
    return out;
}

/**
 * After reserveMeasurementIndices(5), a decorator must measure a
 * batch exactly like a twin that really measured 5 items first: the
 * reservation has to reach the noisy simulator below, even through a
 * decorator that publishes no kernel.
 */
template <typename Decorator>
void
expectReservationReachesTheSimulator()
{
    auto reservedSim = makeSim();
    auto measuredSim = makeSim();
    Decorator reserved(reservedSim);
    Decorator measured(measuredSim);
    const auto warmup = drawBatch(5, 3);
    const auto batch = drawBatch(8, 4);

    reserved.reserveMeasurementIndices(warmup.size());
    for (const Assignment &a : warmup)
        (void)measured.measure(a);

    const auto want = outcomesOf(measured, batch);
    const auto got = outcomesOf(reserved, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(want[i].ok());
        EXPECT_EQ(bitsOf(want[i].value), bitsOf(got[i].value))
            << "index " << i;
    }
}

TEST(EngineDecorator, ResilientForwardsReservations)
{
    expectReservationReachesTheSimulator<core::ResilientEngine>();
}

TEST(EngineDecorator, MemoizingForwardsReservations)
{
    expectReservationReachesTheSimulator<core::MemoizingEngine>();
}

TEST(EngineDecorator, FaultInjectorReservesItsOwnCursorToo)
{
    // The injector owns a fault cursor: a reservation advances it and
    // the simulator's noise cursor alike.
    auto reservedSim = makeSim();
    auto measuredSim = makeSim();
    FaultInjectingEngine reserved(reservedSim, mixedFaults());
    FaultInjectingEngine measured(measuredSim, mixedFaults());
    const auto warmup = drawBatch(7, 5);
    const auto batch = drawBatch(64, 6);

    reserved.reserveMeasurementIndices(warmup.size());
    (void)outcomesOf(measured, warmup);

    const auto want = outcomesOf(measured, batch);
    const auto got = outcomesOf(reserved, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(want[i].status, got[i].status) << "index " << i;
        EXPECT_EQ(bitsOf(want[i].valueOrNaN()),
                  bitsOf(got[i].valueOrNaN()))
            << "index " << i;
    }
}

TEST(EngineDecorator, DoubleChannelIsTheOutcomeView)
{
    // Twin stacks Parallel(Fault(Sim)), one measured per channel: the
    // double batch, the double kernel and measure() must all be the
    // valueOrNaN() view of the outcome channel, NaNs included.
    auto outcomeSim = makeSim();
    auto doubleSim = makeSim();
    FaultInjectingEngine outcomeFaults(outcomeSim, mixedFaults());
    FaultInjectingEngine doubleFaults(doubleSim, mixedFaults());
    core::ParallelEngine outcomeSide(outcomeFaults, 4);
    core::ParallelEngine doubleSide(doubleFaults, 4);
    const auto batch = drawBatch(96, 7);

    const auto want = outcomesOf(outcomeSide, batch);
    std::size_t failed = 0;
    for (const MeasurementOutcome &o : want)
        failed += o.ok() ? 0 : 1;
    ASSERT_GT(failed, 0u);

    std::vector<double> got(batch.size());
    doubleSide.measureBatch(batch, got);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(bitsOf(want[i].valueOrNaN()), bitsOf(got[i]))
            << "batch index " << i;

    const auto next = drawBatch(32, 8);
    const core::OutcomeKernel outcomes =
        outcomeSide.outcomeKernel(next.size());
    const core::BatchKernel values =
        doubleSide.parallelKernel(next.size());
    ASSERT_TRUE(outcomes);
    ASSERT_TRUE(values);
    // Kernels are pure in (assignment, index): any order will do.
    for (std::size_t i = next.size(); i-- > 0;) {
        EXPECT_EQ(bitsOf(outcomes(next[i], i).valueOrNaN()),
                  bitsOf(values(next[i], i)))
            << "kernel index " << i;
    }

    const auto single = drawBatch(1, 9);
    EXPECT_EQ(bitsOf(outcomeSide.measureOutcome(single[0]).valueOrNaN()),
              bitsOf(doubleSide.measure(single[0])));
}

TEST(EngineDecorator, KernelLessDecoratorsPublishNoDoubleKernel)
{
    auto sim = makeSim();
    core::MemoizingEngine memo(sim);
    core::ResilientEngine resilient(sim);
    EXPECT_FALSE(memo.parallelKernel(4));
    EXPECT_FALSE(resilient.parallelKernel(4));
    EXPECT_FALSE(memo.outcomeKernel(4));
    EXPECT_FALSE(resilient.outcomeKernel(4));
}

TEST(EngineDecorator, ForwardsNameCostAndStats)
{
    auto sim = makeSim();
    core::ResilientEngine resilient(sim);
    EXPECT_EQ(sim.name(), resilient.name());
    EXPECT_EQ(sim.secondsPerMeasurement(),
              resilient.secondsPerMeasurement());

    const auto batch = drawBatch(10, 10);
    std::vector<double> values(batch.size());
    resilient.measureBatch(batch, values);
    core::EngineStats below;
    sim.collectStats(below);
    core::EngineStats through;
    resilient.collectStats(through);
    EXPECT_EQ(10u, below.solves);
    EXPECT_EQ(below.solves, through.solves);
    EXPECT_EQ(below.solverIterations, through.solverIterations);
}

TEST(ValueCorruptingEngine, CorruptsOkValuesOnly)
{
    auto honestSim = makeSim();
    auto corruptSim = makeSim();
    FaultInjectingEngine honest(honestSim, mixedFaults());
    FaultInjectingEngine faulty(corruptSim, mixedFaults());
    ValueCorruptingEngine corrupting(faulty);
    const auto batch = drawBatch(128, 12);

    const auto want = outcomesOf(honest, batch);
    const auto got = outcomesOf(corrupting, batch);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(want[i].status, got[i].status) << "index " << i;
        if (want[i].ok()) {
            ++ok;
            // Low 24 mantissa bits flipped: finite, same magnitude.
            EXPECT_EQ(bitsOf(want[i].value) ^ 0xffffffULL,
                      bitsOf(got[i].value))
                << "index " << i;
            EXPECT_NEAR(want[i].value, got[i].value,
                        1e-6 * want[i].value);
        } else {
            // Failed outcomes pass through untouched.
            EXPECT_EQ(bitsOf(want[i].value), bitsOf(got[i].value))
                << "index " << i;
            EXPECT_EQ(want[i].attempts, got[i].attempts);
        }
    }
    EXPECT_GT(ok, 0u);
    EXPECT_LT(ok, batch.size());
}

TEST(ValueCorruptingEngine, KernelAndBatchPathsAgree)
{
    // Twins over noisy simulators: the batch path, the kernel path on
    // pool threads and the double view must corrupt identically.
    auto batchSim = makeSim();
    auto kernelSim = makeSim();
    ValueCorruptingEngine batchSide(batchSim);
    ValueCorruptingEngine kernelInner(kernelSim);
    core::ParallelEngine kernelSide(kernelInner, 4);
    const auto batch = drawBatch(200, 13);

    const auto want = outcomesOf(batchSide, batch);
    const auto got = outcomesOf(kernelSide, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(want[i].ok());
        EXPECT_EQ(bitsOf(want[i].value), bitsOf(got[i].value))
            << "index " << i;
    }

    const auto next = drawBatch(50, 14);
    std::vector<double> wantValues(next.size());
    std::vector<double> gotValues(next.size());
    batchSide.measureBatch(next, wantValues);
    kernelSide.measureBatch(next, gotValues);
    for (std::size_t i = 0; i < next.size(); ++i)
        EXPECT_EQ(bitsOf(wantValues[i]), bitsOf(gotValues[i]))
            << "index " << i;
}

} // anonymous namespace
