/**
 * @file
 * Real-thread pinned execution engine.
 *
 * The Netra DPS runtime binds each task to a hardware context at
 * compile time and lets it run to completion without interruption
 * (Section 4.2). PinnedThreadEngine demonstrates the same end-to-end
 * flow on the host machine: it instantiates the real src/net packet
 * kernels as three-stage pipelines, pins every stage thread to the
 * CPU corresponding to its assigned hardware context (modulo the
 * host's CPU count), runs for a fixed wall-clock window, and reports
 * the aggregate packets-per-second.
 *
 * On a machine that is not an UltraSPARC T2 the absolute numbers are
 * only illustrative — the deterministic simulator (sim/engine.hh) is
 * the reproduction backbone — but the engine exercises the identical
 * statistical pipeline against genuinely measured performance.
 */

#ifndef STATSCHED_HW_PINNED_EXECUTOR_HH
#define STATSCHED_HW_PINNED_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/performance_engine.hh"
#include "sim/benchmarks.hh"

namespace statsched
{
namespace hw
{

/**
 * Options of the pinned execution.
 */
struct PinnedOptions
{
    /** Wall-clock measurement window per assignment in
     *  milliseconds. */
    std::uint32_t measureMillis = 200;
    /** Queue depth of the stage queues. */
    std::size_t queueDepth = 2048;
    /** When false, threads run unpinned (for hosts where affinity
     *  calls are not permitted). */
    bool pinThreads = true;
    /**
     * Watchdog grace period after the stop request, in milliseconds.
     * A stage thread that has not exited by then is presumed wedged:
     * the run's threads are abandoned (they keep their pipelines
     * alive and are reaped by the OS on exit) and the measurement is
     * reported as MeasureStatus::TimedOut instead of blocking the
     * whole experiment. 0 restores the unconditional join.
     */
    std::uint32_t watchdogMillis = 2000;
    /**
     * Test hook: when set, the P stage of instance 0 spins after the
     * stop request until the flag becomes true, simulating a wedged
     * stage. Tests release the flag afterwards so the abandoned
     * thread exits promptly. Never set in production use.
     */
    std::shared_ptr<std::atomic<bool>> testHangRelease;
};

/**
 * PerformanceEngine that really executes assignments with pinned
 * threads.
 */
class PinnedThreadEngine : public core::PerformanceEngine
{
  public:
    /**
     * @param benchmark Which net kernel drives the P stages.
     * @param instances Number of 3-thread pipeline instances.
     * @param options   Execution options.
     */
    PinnedThreadEngine(sim::Benchmark benchmark,
                       std::uint32_t instances,
                       const PinnedOptions &options = {});

    /** @return measured packets per second of the assignment, or NaN
     *  when the run timed out. */
    double measure(const core::Assignment &assignment) override;

    /**
     * Measures with watchdog supervision: a run whose stage threads
     * do not exit within watchdogMillis of the stop request yields
     * MeasureStatus::TimedOut rather than wedging the caller.
     */
    core::MeasurementOutcome
    measureOutcome(const core::Assignment &assignment) override;

    /** Measures the batch one supervised run at a time, so a reaped
     *  item keeps its TimedOut status. */
    void measureBatchOutcome(
        std::span<const core::Assignment> batch,
        std::span<core::MeasurementOutcome> out) override;

    std::string name() const override;

    double
    secondsPerMeasurement() const override
    {
        return options_.measureMillis / 1000.0;
    }

    /** Contributes watchdog timeouts as failures plus the modeled
     *  time the wedged runs occupied the testbed. */
    void collectStats(core::EngineStats &stats) const override;

    /** @return runs reaped by the watchdog. */
    std::uint64_t
    timeoutCount() const
    {
        return timeouts_.load(std::memory_order_relaxed);
    }

    /** @return the host CPU a context maps to. */
    static unsigned hostCpuOf(core::ContextId context);

  private:
    sim::Benchmark benchmark_;
    std::uint32_t instances_;
    PinnedOptions options_;
    std::atomic<std::uint64_t> timeouts_{0};
};

} // namespace hw
} // namespace statsched

#endif // STATSCHED_HW_PINNED_EXECUTOR_HH
