/**
 * @file
 * Cycle-approximate discrete simulator of the UltraSPARC T2.
 *
 * A second, independent measurement engine that cross-validates the
 * analytic contention solver (sim/contention.hh): instead of a
 * fixed-point rate model it steps the machine cycle by cycle —
 *
 *  - each hardware pipeline issues at most one instruction per cycle,
 *    round-robin among its ready strands (the T2 issue policy);
 *  - loads/stores probe a real set-associative L1D per core; misses
 *    probe the shared L2; L2 misses stall the strand for the memory
 *    latency (sim/cache.hh);
 *  - instruction fetches probe the per-core L1I with per-code-image
 *    address streams, so co-located threads of the same program share
 *    instruction lines;
 *  - bulk structures (lookup tables / automata / flow tables) are
 *    touched at random addresses within their footprint, private or
 *    shared according to the profile's sharedDataId;
 *  - pipeline stages exchange packets through bounded queues: a stage
 *    blocks at a packet boundary when its input is empty or its
 *    output is full, so backpressure and bottleneck propagation are
 *    emergent rather than modeled.
 *
 * Each thread measures on one machine image, a thread_local shared by
 * every CycleSimEngine on the thread and reset in place between
 * measurements (cycle_sim.cc).
 *
 * bench/abl_cycle_vs_analytic compares the two engines assignment by
 * assignment and runs the EVT estimation on both populations.
 */

#ifndef STATSCHED_SIM_CYCLE_SIM_HH
#define STATSCHED_SIM_CYCLE_SIM_HH

#include <cstdint>
#include <string>

#include "core/performance_engine.hh"
#include "sim/chip_config.hh"
#include "sim/workload.hh"

namespace statsched
{
namespace sim
{

/**
 * Options of the cycle-approximate simulation.
 */
struct CycleSimOptions
{
    /** Simulated cycles per measurement (after warmup). */
    std::uint64_t cycles = 50000;
    /** Warmup cycles excluded from throughput accounting. */
    std::uint64_t warmupCycles = 10000;
    /** Stage-queue capacity in packets. */
    std::uint32_t queueDepth = 32;
    /** Seed of the per-strand access-stream RNGs. */
    std::uint64_t seed = 0xC1C1E5;
    /** Fraction of instructions whose fetch probes the L1I (the
     *  rest hit the fetch buffer). */
    double fetchProbeFraction = 0.05;
};

/**
 * PerformanceEngine backed by the cycle-approximate machine.
 */
class CycleSimEngine : public core::PerformanceEngine
{
  public:
    /**
     * @param workload Workload to run (copied).
     * @param config   Chip capacities/latencies (cache sizes and the
     *                 miss penalties are taken from here).
     * @param options  Simulation options.
     */
    CycleSimEngine(Workload workload, const ChipConfig &config = {},
                   const CycleSimOptions &options = {});

    /** @return packets per second measured by simulation. */
    double measure(const core::Assignment &assignment) override;

    /**
     * The cycle simulation is a deterministic pure function of the
     * assignment (RNG streams are seeded per strand, not per call),
     * so batch items evaluate independently on any thread with
     * bit-identical results; each evaluation resets its thread's
     * machine image (caches, strand state, queues) in place instead
     * of reallocating.
     */
    core::BatchKernel parallelKernel(std::size_t batchSize) override;

    std::string name() const override;

    /** The modeled wall-clock of one measurement is the simulated
     *  interval itself. */
    double secondsPerMeasurement() const override;

    /** @return the workload. */
    const Workload &workload() const { return workload_; }

  private:
    Workload workload_;
    ChipConfig config_;
    CycleSimOptions options_;
};

} // namespace sim
} // namespace statsched

#endif // STATSCHED_SIM_CYCLE_SIM_HH
