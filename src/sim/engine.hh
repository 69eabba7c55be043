/**
 * @file
 * Simulated measurement engine.
 *
 * SimulatedEngine is the stand-in for the paper's physical testbed
 * (two T5220 machines, NTGen saturating a 10 Gb link, Netra DPS
 * executing the assignment — Section 4). It measures an assignment
 * by resolving resource contention, converting stage instruction
 * rates to packet rates, taking each pipeline's bottleneck stage, and
 * summing instances — in processed packets per second, like the
 * paper. Optional multiplicative Gaussian noise models run-to-run
 * measurement variation; each measurement draws fresh noise, so a
 * sample of measurements is iid as the EVT analysis requires.
 *
 * Noise is *seeded per measurement index*, not per call: the k-th
 * measurement since construction perturbs its value with an RNG
 * seeded from (noiseSeed, k). A batch reserves its index range up
 * front, so evaluating the batch serially, chunked, or on many
 * threads (core::ParallelEngine) produces bit-identical results, and
 * measure() itself is safe to call concurrently.
 *
 * Batch-first layout: the engine is the hot path of every campaign,
 * so per-measurement work that does not depend on the assignment —
 * instructions per packet, cycles per second, the queue-crossing
 * penalty each edge would pay if split across cores — is precomputed
 * at construction, and the per-measurement remainder runs
 * allocation-free against the measuring thread's own workspace (a
 * thread_local in engine.cc, shared by every SimulatedEngine on that
 * thread). Measurement has one path, the kernel published by
 * parallelKernel(): core::ParallelEngine fans it out, and the base
 * class's measureBatch() loops it on the calling thread. Workers
 * neither contend nor allocate in steady state, and outputs are
 * bit-identical at any thread count and to the frozen pre-refactor
 * engine (sim/reference_solver.hh).
 */

#ifndef STATSCHED_SIM_ENGINE_HH
#define STATSCHED_SIM_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "core/performance_engine.hh"
#include "sim/contention.hh"
#include "sim/workload.hh"
#include "stats/rng.hh"

namespace statsched
{
namespace sim
{

/**
 * Configuration of the simulated measurement.
 */
struct EngineOptions
{
    /** Relative standard deviation of measurement noise (0 turns
     *  noise off and makes measurements exactly repeatable). */
    double noiseRelStdDev = 0.0005;
    /** Noise RNG seed. */
    std::uint64_t noiseSeed = 0x5eed;
    /** Modeled wall-clock duration of one measurement; the paper's
     *  runs process three million packets in ~1.5 s. */
    double secondsPerMeasurement = 1.5;
};

/**
 * PerformanceEngine backed by the contention model.
 */
class SimulatedEngine : public core::PerformanceEngine
{
  public:
    /**
     * @param workload Workload to schedule (copied).
     * @param config   Chip configuration.
     * @param options  Noise and timing options.
     */
    SimulatedEngine(Workload workload, const ChipConfig &config = {},
                    const EngineOptions &options = {});

    /** @return packets per second for the assignment (with noise). */
    double measure(const core::Assignment &assignment) override;

    /**
     * Reserves the next `batchSize` noise indices and returns the
     * pure per-item kernel over them (see PerformanceEngine).
     */
    core::BatchKernel parallelKernel(std::size_t batchSize) override;

    /** @return deterministic PPS (no noise), for tests/baselines. */
    double deterministic(const core::Assignment &assignment) const;

    std::string name() const override;

    double
    secondsPerMeasurement() const override
    {
        return options_.secondsPerMeasurement;
    }

    /** Contributes the solver counters (solves, fixed-point
     *  iterations). */
    void collectStats(core::EngineStats &stats) const override;

    /** @return the workload driving this engine. */
    const Workload &workload() const { return workload_; }

    /** @return the chip configuration. */
    const ChipConfig &config() const { return config_; }

    /** @return per-instance PPS for an assignment (no noise). */
    std::vector<double>
    instanceThroughputs(const core::Assignment &assignment) const;

  private:
    /** Per-thread measurement workspace (defined in engine.cc). */
    struct Scratch;

    /** Multiplicative noise factor of measurement `index`. */
    double noiseFactorAt(std::uint64_t index) const;

    /**
     * Solves `assignment` on the calling thread's workspace, counts
     * the solve, and returns that workspace with every stage's packet
     * rate in `stagePps`. The workspace stays valid until the thread's
     * next measurement on any SimulatedEngine.
     */
    const Scratch &stageRates(const core::Assignment &assignment) const;

    /** @return instance `i`'s packet rate: its slowest stage. */
    double bottleneck(const Scratch &scratch, std::size_t i) const;

    Workload workload_;
    ChipConfig config_;
    EngineOptions options_;
    ContentionSolver solver_;
    /** Next unassigned measurement index (noise substream id). */
    std::atomic<std::uint64_t> noiseCursor_{0};

    /** Queue-crossing penalty an edge pays iff it spans cores. */
    struct EdgeCrossing
    {
        core::TaskId producer;
        core::TaskId consumer;
        double producerCycles;
        double consumerCycles;
    };

    // --- Assignment-independent tables, built once.
    double cyclesPerSecond_ = 0.0;
    std::vector<double> instrPerPacket_;
    std::vector<EdgeCrossing> edgeCrossings_;

    /** Contention solves executed (all channels). */
    mutable std::atomic<std::uint64_t> solves_{0};
    /** Fixed-point iterations across those solves. */
    mutable std::atomic<std::uint64_t> solverIterations_{0};
};

} // namespace sim
} // namespace statsched

#endif // STATSCHED_SIM_ENGINE_HH
