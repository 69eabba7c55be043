/**
 * @file
 * SimulatedEngine implementation.
 *
 * Hot-path discipline: everything downstream of stageRates() must
 * stay allocation-free in steady state (tools/lint enforces this via
 * statsched-sim-hot-alloc) and bit-identical to the frozen reference
 * engine. Per-edge crossing penalties are precomputed at construction
 * — whether an edge pays them still depends on the assignment, but
 * the amount does not — and edges are replayed in workload order, so
 * the per-task accumulation order matches the reference exactly.
 */

#include "sim/engine.hh"

#include <algorithm>
#include <cmath>

#include "base/check.hh"

namespace statsched
{
namespace sim
{

SimulatedEngine::SimulatedEngine(Workload workload,
                                 const ChipConfig &config,
                                 const EngineOptions &options)
    : workload_(std::move(workload)), config_(config),
      options_(options), solver_(config, workload_.tasks())
{
    SCHED_REQUIRE(workload_.taskCount() > 0, "empty workload");
    SCHED_REQUIRE(options_.noiseRelStdDev >= 0.0,
                  "negative noise level");

    cyclesPerSecond_ = config_.clockGhz * 1e9;

    const auto &tasks = workload_.tasks();
    instrPerPacket_.resize(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t)
        instrPerPacket_[t] = tasks[t].instructionsPerPacket;

    // Queue-locality penalty: an edge whose endpoints sit on
    // different cores pays a crossbar round trip on every pointer.
    // The extra per-packet stall is exposed in proportion to the
    // endpoint's issue demand (a saturated strand cannot hide it) —
    // quadratic, because a deep asynchronous queue hides the crossing
    // latency behind slack unless the strand is close to issue
    // saturation. The penalty amounts depend only on the profiles,
    // so they are frozen here; the assignment only decides whether
    // each edge pays them.
    edgeCrossings_.reserve(workload_.edges().size());
    for (const auto &[producer, consumer] : workload_.edges()) {
        const double pd = tasks[producer].issueDemand;
        const double cd = tasks[consumer].issueDemand;
        edgeCrossings_.push_back(
            {producer, consumer,
             config_.queueCrossingCycles * pd * pd,
             config_.queueCrossingCycles * cd * cd});
    }
}

/**
 * The solver's workspace plus the engine's own stage-rate buffers.
 *
 * One per thread, shared by every SimulatedEngine the thread measures
 * with, whatever its workload or topology. Sharing is safe because no
 * solve reads what an earlier one left: solveInto() and stageRates()
 * resize or overwrite every buffer before reading it, and each solve
 * refills the shared-footprint slots with +0.0 after summing them
 * (sim/contention.hh).
 */
struct SimulatedEngine::Scratch
{
    ContentionSolver::Scratch solver;
    ContentionResult solved;
    /** Exposed queue-crossing cycles per task. */
    std::vector<double> crossing;
    /** Bottleneck candidate packet rate per stage. */
    std::vector<double> stagePps;
};

const SimulatedEngine::Scratch &
SimulatedEngine::stageRates(const core::Assignment &assignment) const
{
    thread_local Scratch scratch;
    solver_.solveInto(assignment, scratch.solver, scratch.solved);
    solves_.fetch_add(1, std::memory_order_relaxed);
    solverIterations_.fetch_add(
        static_cast<std::uint64_t>(scratch.solved.iterations),
        std::memory_order_relaxed);

    // The solver just cached every task's core id in its scratch;
    // reuse it instead of re-deriving each endpoint's core through
    // the checked topology lookups of Assignment::coreOf.
    scratch.crossing.assign(workload_.taskCount(), 0.0);
    const std::uint32_t *core_of = scratch.solver.coreIdOf.data();
    for (const EdgeCrossing &edge : edgeCrossings_) {
        if (core_of[edge.producer] != core_of[edge.consumer]) {
            scratch.crossing[edge.producer] += edge.producerCycles;
            scratch.crossing[edge.consumer] += edge.consumerCycles;
        }
    }

    // Stage packet rates: per-packet time is the contended
    // instruction time plus the exposed queue-crossing stalls.
    const std::size_t n = workload_.taskCount();
    scratch.stagePps.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double cycles_per_packet =
            instrPerPacket_[t] / scratch.solved.rates[t] +
            scratch.crossing[t];
        scratch.stagePps[t] = cyclesPerSecond_ / cycles_per_packet;
    }
    return scratch;
}

double
SimulatedEngine::bottleneck(const Scratch &scratch, std::size_t i) const
{
    const auto [first, last] = workload_.instanceTaskRange(i);
    double pps = scratch.stagePps[first];
    for (std::uint32_t t = first + 1; t <= last; ++t)
        pps = std::min(pps, scratch.stagePps[t]);
    return pps;
}

std::vector<double>
SimulatedEngine::instanceThroughputs(
    const core::Assignment &assignment) const
{
    const Scratch &scratch = stageRates(assignment);
    std::vector<double> out(workload_.instances().size()); // NOLINT(statsched-sim-hot-alloc): per-instance report for tests and baselines, off the measurement path
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = bottleneck(scratch, i);
    return out;
}

double
SimulatedEngine::deterministic(const core::Assignment &assignment) const
{
    // Sum of per-instance bottlenecks, accumulated in instance order
    // (the same order the per-instance vector would be summed in).
    const Scratch &scratch = stageRates(assignment);
    double total = 0.0;
    for (std::size_t i = 0; i < workload_.instances().size(); ++i)
        total += bottleneck(scratch, i);
    return total;
}

double
SimulatedEngine::noiseFactorAt(std::uint64_t index) const
{
    if (options_.noiseRelStdDev == 0.0)
        return 1.0;
    // SplitMix64 finalizer over (seed, index): an independent noise
    // substream per measurement index, so a batch item's noise does
    // not depend on which thread evaluates it or in what order.
    std::uint64_t z = options_.noiseSeed +
        (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    stats::Rng rng(z ^ (z >> 31));
    const double factor =
        1.0 + options_.noiseRelStdDev * rng.normal();
    // Clamp pathological draws; throughput cannot be negative.
    return std::max(0.0, factor);
}

double
SimulatedEngine::measure(const core::Assignment &assignment)
{
    const std::uint64_t index =
        noiseCursor_.fetch_add(1, std::memory_order_relaxed);
    return deterministic(assignment) * noiseFactorAt(index);
}

core::BatchKernel
SimulatedEngine::parallelKernel(std::size_t batchSize)
{
    const std::uint64_t base =
        noiseCursor_.fetch_add(batchSize, std::memory_order_relaxed);
    return [this, base](const core::Assignment &a, std::size_t i) {
        return deterministic(a) * noiseFactorAt(base + i);
    };
}

void
SimulatedEngine::collectStats(core::EngineStats &stats) const
{
    stats.solves += solves_.load(std::memory_order_relaxed);
    stats.solverIterations +=
        solverIterations_.load(std::memory_order_relaxed);
}

std::string
SimulatedEngine::name() const
{
    return "sim:" + workload_.name();
}

} // namespace sim
} // namespace statsched
