/**
 * @file
 * Bit-identity of the batch-first measurement path.
 *
 * The frozen pre-refactor solver (sim/reference_solver.hh) is the
 * oracle: the production ContentionSolver/SimulatedEngine must
 * reproduce it to the last bit for every assignment — through the
 * allocation-free solveInto() with a reused Scratch, through the
 * serial batch path, through core::ParallelEngine at any thread
 * count, and with each thread's workspace passing between engines of
 * different workloads and chips. Every comparison here is exact
 * (EXPECT_EQ on doubles); "close enough" would defeat the purpose,
 * because the statistical method's replayability contract is
 * bit-level.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/contention.hh"
#include "sim/cycle_sim.hh"
#include "sim/engine.hh"
#include "sim/reference_solver.hh"

namespace
{

using namespace statsched;
using namespace statsched::sim;

std::vector<core::Assignment>
sampleAssignments(const Workload &w, std::uint64_t seed,
                  std::size_t count,
                  const core::Topology &topo =
                      core::Topology::ultraSparcT2())
{
    core::RandomAssignmentSampler sampler(
        topo, w.taskCount(), seed,
        core::SamplingMethod::PartialFisherYates);
    return sampler.drawSample(count);
}

void
expectResultsEqual(const ContentionResult &expected,
                   const ContentionResult &actual)
{
    ASSERT_EQ(expected.rates.size(), actual.rates.size());
    for (std::size_t t = 0; t < expected.rates.size(); ++t) {
        EXPECT_EQ(expected.rates[t], actual.rates[t]) << "task " << t;
        EXPECT_EQ(expected.l1dMissRate[t], actual.l1dMissRate[t]);
        EXPECT_EQ(expected.l2MissRate[t], actual.l2MissRate[t]);
    }
    EXPECT_EQ(expected.iterations, actual.iterations);
}

TEST(BatchIdentity, SolveMatchesReferenceAcrossBenchmarks)
{
    for (Benchmark b :
         {Benchmark::IpfwdL1, Benchmark::IpfwdMem,
          Benchmark::AhoCorasick, Benchmark::Stateful,
          Benchmark::PacketAnalyzer, Benchmark::IpsecEsp}) {
        const Workload w = makeWorkload(b, 8);
        const ChipConfig config;
        const ContentionSolver solver(config, w.tasks());
        for (const auto &a :
             sampleAssignments(w, 7001 + static_cast<int>(b), 8)) {
            expectResultsEqual(referenceSolve(config, w.tasks(), a),
                               solver.solve(a));
        }
    }
}

TEST(BatchIdentity, ReusedScratchMatchesFreshSolves)
{
    // One Scratch + one ContentionResult carried across many
    // different assignments must leave no residue: every solve is
    // identical to a solve on a brand-new workspace.
    const Workload w = makeWorkload(Benchmark::Stateful, 8);
    const ChipConfig config;
    const ContentionSolver solver(config, w.tasks());
    ContentionSolver::Scratch reused;
    ContentionResult result;
    for (const auto &a : sampleAssignments(w, 424242, 32)) {
        solver.solveInto(a, reused, result);
        expectResultsEqual(solver.solve(a), result);
    }
}

TEST(BatchIdentity, DeterministicMatchesReferenceEngine)
{
    for (Benchmark b : {Benchmark::IpfwdL1, Benchmark::IpfwdMem,
                        Benchmark::PacketAnalyzer}) {
        const Workload w = makeWorkload(b, 8);
        const ChipConfig config;
        EngineOptions noiseless;
        noiseless.noiseRelStdDev = 0.0;
        const SimulatedEngine engine(w, config, noiseless);
        for (const auto &a :
             sampleAssignments(w, 909 + static_cast<int>(b), 8)) {
            EXPECT_EQ(referenceDeterministic(w, config, a),
                      engine.deterministic(a));
        }
    }
}

TEST(BatchIdentity, InstanceThroughputsIntoMatchesReference)
{
    const Workload w = makeWorkload(Benchmark::IpfwdMem, 8);
    const ChipConfig config;
    EngineOptions noiseless;
    noiseless.noiseRelStdDev = 0.0;
    const SimulatedEngine engine(w, config, noiseless);
    for (const auto &a : sampleAssignments(w, 5150, 16)) {
        const auto actual = engine.instanceThroughputs(a);
        const auto expected =
            referenceInstanceThroughputs(w, config, a);
        ASSERT_EQ(expected.size(), actual.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            EXPECT_EQ(expected[i], actual[i]) << "instance " << i;
    }
}

/** Measures one batch on a fresh noisy engine through a
 *  ParallelEngine with the given thread count. */
std::vector<double>
measureNoisyBatch(const std::vector<core::Assignment> &batch,
                  unsigned threads)
{
    Workload w = makeWorkload(Benchmark::IpfwdL1, 8);
    SimulatedEngine engine(w);   // default noise on
    core::ParallelEngine parallel(engine, threads);
    std::vector<double> out(batch.size());
    parallel.measureBatch(batch, out);
    return out;
}

TEST(BatchIdentity, NoisyBatchesBitIdenticalAcrossThreadCounts)
{
    const Workload w = makeWorkload(Benchmark::IpfwdL1, 8);
    const auto batch = sampleAssignments(w, 31337, 64);

    // Serial reference: plain measureBatch on a fresh engine.
    std::vector<double> serial(batch.size());
    {
        Workload w2 = makeWorkload(Benchmark::IpfwdL1, 8);
        SimulatedEngine engine(w2);
        engine.measureBatch(batch, serial);
    }

    for (unsigned threads : {1u, 4u, 16u}) {
        const auto out = measureNoisyBatch(batch, threads);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(serial[i], out[i])
                << "item " << i << " at " << threads << " threads";
        }
    }
}

TEST(BatchIdentity, CycleSimParallelMatchesSerial)
{
    const Workload w = makeWorkload(Benchmark::IpfwdMem, 4);
    const auto batch = sampleAssignments(w, 2468, 8);
    CycleSimOptions opt;
    opt.cycles = 20000;
    opt.warmupCycles = 5000;

    // Serial reference: measure() calls on a fresh engine.
    std::vector<double> serial;
    {
        Workload w2 = makeWorkload(Benchmark::IpfwdMem, 4);
        CycleSimEngine engine(w2, {}, opt);
        for (const auto &a : batch)
            serial.push_back(engine.measure(a));
    }

    for (unsigned threads : {4u, 16u}) {
        Workload w2 = makeWorkload(Benchmark::IpfwdMem, 4);
        CycleSimEngine engine(w2, {}, opt);
        core::ParallelEngine parallel(engine, threads);
        std::vector<double> out(batch.size());
        parallel.measureBatch(batch, out);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(serial[i], out[i])
                << "item " << i << " at " << threads << " threads";
        }
    }
}

TEST(BatchIdentity, EngineReportsSolverAndScratchStats)
{
    Workload w = makeWorkload(Benchmark::IpfwdL1, 8);
    SimulatedEngine engine(w);
    const auto batch = sampleAssignments(w, 1212, 16);
    std::vector<double> out(batch.size());
    engine.measureBatch(batch, out);

    core::EngineStats stats;
    engine.collectStats(stats);
    EXPECT_EQ(16u, stats.solves);
    // iterations counts the refinement rounds past the initial pass;
    // lightly contended assignments legitimately converge at 0, but
    // across 16 random draws at least one needs a refinement round.
    EXPECT_GE(stats.solverIterations, 1u);
    EXPECT_GT(stats.solverIterationsPerSolve(), 0.0);
    EXPECT_LT(stats.solverIterationsPerSolve(), 100.0);
}

/**
 * Leaf engine whose batch item i is measured by engine i % k of its
 * list, through that engine's own kernel. One batch through it
 * interleaves every engine's measurements on whichever threads run
 * the batch, so each thread's workspace passes from engine to engine
 * between items.
 */
class InterleavingEngine : public core::PerformanceEngine
{
  public:
    explicit InterleavingEngine(
        std::vector<core::PerformanceEngine *> engines)
        : engines_(std::move(engines))
    {
    }

    double
    measure(const core::Assignment &) override
    {
        ADD_FAILURE() << "items are measured through the kernel only";
        return 0.0;
    }

    core::BatchKernel
    parallelKernel(std::size_t batchSize) override
    {
        std::vector<core::BatchKernel> kernels;
        for (core::PerformanceEngine *engine : engines_)
            kernels.push_back(engine->parallelKernel(batchSize));
        return [kernels](const core::Assignment &a, std::size_t i) {
            return kernels[i % kernels.size()](a, i);
        };
    }

    std::string name() const override { return "interleaving"; }

  private:
    std::vector<core::PerformanceEngine *> engines_;
};

/** Measures `batch` on a fresh CycleSimEngine used alone, on a fresh
 *  thread whose machine image no other engine has touched. */
std::vector<double>
measureAloneOnFreshThread(const Workload &w, const ChipConfig &config,
                          const CycleSimOptions &options,
                          const std::vector<core::Assignment> &batch)
{
    std::vector<double> out;
    std::thread([&] {
        CycleSimEngine engine(w, config, options);
        for (const auto &a : batch)
            out.push_back(engine.measure(a));
    }).join();
    return out;
}

TEST(BatchIdentity, EnginesShareEachThreadsWorkspace)
{
    // Every engine on a thread measures with that thread's one
    // workspace. Interleaved item by item, engines of different
    // workloads, chips and cache sizes must still give every item the
    // value its engine gives alone: the reference model's for the
    // analytic engine, a fresh engine's for the cycle simulator.
    constexpr std::size_t perEngine = 16;
    const core::Topology t2 = core::Topology::ultraSparcT2();
    // Strand and pipe counts that are not powers of two take the
    // solver's division path instead of its shifts.
    const core::Topology odd{3, 3, 2};
    const ChipConfig config;
    EngineOptions noiseless;
    noiseless.noiseRelStdDev = 0.0;

    std::vector<std::unique_ptr<core::PerformanceEngine>> engines;
    std::vector<std::vector<core::Assignment>> assignments;
    std::vector<std::vector<double>> expected;

    // IPsec-ESP loads the crypto port, IPFwd-Mem the memory arbiter.
    struct AnalyticCase
    {
        Benchmark benchmark;
        std::uint32_t instances;
        core::Topology topology;
    };
    const AnalyticCase analytic[] = {
        {Benchmark::IpsecEsp, 8, t2},
        {Benchmark::IpfwdMem, 8, t2},
        {Benchmark::IpsecEsp, 4, odd},
        {Benchmark::IpfwdMem, 4, odd},
    };
    for (const AnalyticCase &c : analytic) {
        const Workload w = makeWorkload(c.benchmark, c.instances);
        assignments.push_back(sampleAssignments(
            w, 6100 + engines.size(), perEngine, c.topology));
        expected.emplace_back();
        for (const auto &a : assignments.back())
            expected.back().push_back(
                referenceDeterministic(w, config, a));
        engines.push_back(
            std::make_unique<SimulatedEngine>(w, config, noiseless));
    }

    // Two cycle-simulated chips that differ only in L1D size: an
    // image whose caches were built for one must not serve the other.
    const Workload cycled = makeWorkload(Benchmark::IpfwdL1, 2);
    CycleSimOptions options;
    options.cycles = 40000;
    options.warmupCycles = 5000;
    ChipConfig smallL1d;
    smallL1d.l1dKb = 2.0;
    for (const ChipConfig &chip : {config, smallL1d}) {
        assignments.push_back(sampleAssignments(cycled, 6200, perEngine));
        expected.push_back(measureAloneOnFreshThread(
            cycled, chip, options, assignments.back()));
        engines.push_back(
            std::make_unique<CycleSimEngine>(cycled, chip, options));
    }
    // Same assignments, so the L1D size alone tells the two apart.
    ASSERT_NE(expected[4], expected[5]);

    std::vector<core::PerformanceEngine *> raw;
    for (const auto &engine : engines)
        raw.push_back(engine.get());
    InterleavingEngine interleaving(raw);
    std::vector<core::Assignment> batch;
    for (std::size_t j = 0; j < perEngine; ++j) {
        for (std::size_t e = 0; e < engines.size(); ++e)
            batch.push_back(assignments[e][j]);
    }

    for (unsigned threads : {1u, 4u}) {
        core::ParallelEngine parallel(interleaving, threads);
        std::vector<double> out(batch.size());
        parallel.measureBatch(batch, out);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const std::size_t e = i % engines.size();
            EXPECT_EQ(expected[e][i / engines.size()], out[i])
                << engines[e]->name() << " item " << i / engines.size()
                << " at " << threads << " thread(s)";
        }
    }
}

} // anonymous namespace
