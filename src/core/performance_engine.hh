/**
 * @file
 * Abstract performance measurement of task assignments.
 *
 * The statistical method is a black-box procedure over "run this
 * assignment and report its performance". PerformanceEngine is that
 * black box: the simulator (sim::SimulatedEngine), the real pinned-
 * thread executor (hw::PinnedThreadEngine), or — as Section 5.4 of
 * the paper suggests — a performance predictor can all stand behind
 * it without the statistics changing.
 *
 * The interface is batch-first: the method's cost is dominated by
 * thousands of ~1.5 s measurements (Section 5.3), and every consumer
 * (estimator, iterative algorithm, local search, baselines) naturally
 * produces whole batches of assignments to measure. Engines that can
 * evaluate items of a batch independently publish a *batch kernel*
 * (outcomeKernel(), or parallelKernel() for a double-channel leaf),
 * which core::ParallelEngine fans out over a worker pool; engines
 * without one (e.g. the pinned-thread executor, which owns the
 * physical machine) fall back to the serial loop.
 *
 * Failure channel: real measurements can fail — a pinned pipeline
 * thread hangs, a counter wraps, a reading comes back NaN. The
 * outcome interface (measureOutcome / measureBatchOutcome /
 * outcomeKernel) mirrors the double interface but reports a
 * MeasurementOutcome per item, so failure-aware consumers (the
 * estimator, the iterative algorithm) can exclude failed readings
 * from the statistical sample instead of corrupting the tail fit.
 * Leaf engines that only implement the double channel get the
 * outcome channel for free: non-finite values classify as failed.
 *
 * Decorators derive from EngineDecorator and implement the outcome
 * channel only; their double channel is its valueOrNaN() view, derived
 * once in the base. They compose freely (MeteredEngine here,
 * core::ParallelEngine, core::MemoizingEngine,
 * core::FaultInjectingEngine, core::ResilientEngine,
 * core::JournalingEngine and core::ShardedEngine in their own
 * headers); each contributes its counters to one EngineStats through
 * collectStats().
 *
 * Sanctioned decorator ordering (outermost first):
 *
 *   Metered(Memoizing(Resilient(Sharded?(Parallel(FaultInjecting(inner))))))
 *
 * with any subset of the middle layers present (core::ShardedEngine
 * fans batches out to worker processes; when journaling, the journal
 * sits directly above it — see core/journal.hh). The stats contract
 * depends on two ordering rules:
 *
 *  - MeteredEngine sits ABOVE MemoizingEngine. The meter charges
 *    secondsPerMeasurement() for every *requested* measurement and
 *    the memoizer refunds the hits it absorbed; a meter below the
 *    memoizer would never see the hits, and the refund would be
 *    subtracted from time that was never charged (collectStats()
 *    clamps the total at zero, but the split is meaningless).
 *  - MeteredEngine/MemoizingEngine sit ABOVE ResilientEngine. The
 *    resilient layer charges its retries and backoff itself;
 *    metering below it would double-count retry attempts as
 *    requested measurements.
 *
 * ParallelEngine is transparent to the counters, so the meter may sit
 * on either side of it (tests/core/test_engines.cc pins both down).
 */

#ifndef STATSCHED_CORE_PERFORMANCE_ENGINE_HH
#define STATSCHED_CORE_PERFORMANCE_ENGINE_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "base/check.hh"
#include "core/assignment.hh"

namespace statsched
{
namespace core
{

/**
 * Measures one item of a batch: kernel(assignment, i) returns the
 * performance of `assignment` at position `i` of the batch the kernel
 * was created for. Kernels must be safe to invoke concurrently from
 * multiple threads and must not depend on evaluation order — this is
 * the contract that makes parallel batches bit-identical to serial
 * ones.
 */
using BatchKernel =
    std::function<double(const Assignment &, std::size_t)>;

/**
 * Why a measurement did not produce a usable reading.
 */
enum class MeasureStatus : std::uint8_t
{
    Ok = 0,      //!< the value is a valid reading
    Invalid,     //!< the engine returned NaN/inf or garbage
    TimedOut,    //!< the measurement hung and was reaped by a watchdog
    Errored,     //!< the measurement failed transiently (I/O, runtime)
    Quarantined, //!< the assignment is quarantined; not measured at all
};

/** @return a short lowercase name for reports ("ok", "timed-out"...). */
inline const char *
measureStatusName(MeasureStatus status)
{
    switch (status) {
      case MeasureStatus::Ok:          return "ok";
      case MeasureStatus::Invalid:     return "invalid";
      case MeasureStatus::TimedOut:    return "timed-out";
      case MeasureStatus::Errored:     return "errored";
      case MeasureStatus::Quarantined: return "quarantined";
    }
    return "unknown";
}

/**
 * Result of one measurement attempt (or of a retried sequence of
 * attempts when a core::ResilientEngine is in the stack).
 */
struct MeasurementOutcome
{
    /** The reading; meaningful only when ok(). */
    double value = 0.0;
    MeasureStatus status = MeasureStatus::Ok;
    /** Attempts spent producing this outcome (1 without retries). */
    std::uint32_t attempts = 1;

    bool ok() const { return status == MeasureStatus::Ok; }

    /** @return the value, or quiet NaN for failed outcomes — the
     *  double-channel view of this outcome. */
    double
    valueOrNaN() const
    {
        return ok() ? value
                    : std::numeric_limits<double>::quiet_NaN();
    }

    /**
     * Classifies a double-channel reading: finite values are Ok,
     * NaN/inf readings are Invalid. This is the bridge that gives
     * every double-only engine a failure channel.
     */
    static MeasurementOutcome
    classify(double v)
    {
        MeasurementOutcome outcome;
        outcome.value = v;
        if (!std::isfinite(v))
            outcome.status = MeasureStatus::Invalid;
        return outcome;
    }

    /** @return a failed outcome with the given status. */
    static MeasurementOutcome
    failure(MeasureStatus status, std::uint32_t attempts = 1)
    {
        MeasurementOutcome outcome;
        outcome.status = status;
        outcome.attempts = attempts;
        return outcome;
    }
};

/**
 * Outcome-channel analogue of BatchKernel: same purity and
 * thread-safety contract, but each item reports a full
 * MeasurementOutcome.
 */
using OutcomeKernel =
    std::function<MeasurementOutcome(const Assignment &, std::size_t)>;

/**
 * Aggregated statistics of a (possibly decorated) engine stack,
 * filled in by PerformanceEngine::collectStats().
 */
struct EngineStats
{
    /** Measurements requested through the stack (cache hits
     *  included). */
    std::uint64_t measurements = 0;
    /** measureBatch() invocations. */
    std::uint64_t batches = 0;
    /** Measurements served from a memoization cache. */
    std::uint64_t cacheHits = 0;
    /** Measurements that missed the cache and hit the inner engine. */
    std::uint64_t cacheMisses = 0;
    /** Modeled experimentation seconds actually spent on the inner
     *  engine (cache hits cost nothing; retries, backoff waits and
     *  watchdog timeouts cost extra). */
    double modeledSeconds = 0.0;
    /** Failed measurement attempts observed anywhere in the stack
     *  (injected faults, watchdog timeouts, invalid readings). */
    std::uint64_t failures = 0;
    /** Extra attempts spent by a ResilientEngine (retries of failed
     *  measurements and re-measurements of screened outliers). */
    std::uint64_t retries = 0;
    /** Assignment classes quarantined for persistent failure. */
    std::uint64_t quarantined = 0;
    /** Contention solves executed by a simulator in the stack. */
    std::uint64_t solves = 0;
    /** Fixed-point iterations spent across those solves. */
    std::uint64_t solverIterations = 0;
    /** Measurements served by remote shard workers
     *  (core::ShardedEngine). */
    std::uint64_t shardedMeasurements = 0;
    /** Shard failure events: workers that died, hung past their
     *  deadline, or corrupted the protocol. */
    std::uint64_t shardFailures = 0;
    /** Measurements re-issued to another shard (or in-process) after
     *  their original shard failed. */
    std::uint64_t shardReissues = 0;
    /** Replacement shard workers spawned after a failure. */
    std::uint64_t shardRespawns = 0;
    /** Shard slots quarantined for repeated failure (no further
     *  respawn attempts). */
    std::uint64_t shardsQuarantined = 0;
    /** Batches measured (fully or partly) by the in-process engine
     *  because no shard could serve them. */
    std::uint64_t shardDegradedBatches = 0;
    /** Measurements duplicated to a second backend for auditing. */
    std::uint64_t shardAudits = 0;
    /** Audit duplicates whose value bits disagreed with the
     *  primary result. */
    std::uint64_t shardAuditMismatches = 0;
    /** Shard slots convicted of value corruption by arbitration. */
    std::uint64_t shardConvictions = 0;

    /** @return mean fixed-point iterations per solve, or 0. */
    double
    solverIterationsPerSolve() const
    {
        return solves == 0
            ? 0.0
            : static_cast<double>(solverIterations) /
                static_cast<double>(solves);
    }

    /** @return cache hits / lookups, or 0 with no cache in the
     *  stack. */
    double
    cacheHitRate() const
    {
        const std::uint64_t lookups = cacheHits + cacheMisses;
        return lookups == 0
            ? 0.0
            : static_cast<double>(cacheHits) /
                static_cast<double>(lookups);
    }
};

/**
 * Measures the performance of task assignments.
 */
class PerformanceEngine
{
  public:
    virtual ~PerformanceEngine() = default;

    /**
     * Executes (or simulates, or predicts) one assignment and returns
     * its performance. Units are engine-defined; the paper's case
     * study uses processed packets per second (PPS). Higher is
     * better.
     */
    virtual double measure(const Assignment &assignment) = 0;

    /**
     * Measures a batch of assignments; out[i] receives the
     * performance of batch[i]. The default runs the engine's
     * parallelKernel() over the batch on the calling thread, so the
     * batch makes one reservation and measures exactly as a
     * core::ParallelEngine would; an engine without a kernel gets the
     * serial loop over measure(). Either way every engine supports
     * batches.
     *
     * @param batch Assignments to measure.
     * @param out   Results, same size as `batch`.
     */
    virtual void
    measureBatch(std::span<const Assignment> batch,
                 std::span<double> out)
    {
        SCHED_REQUIRE(batch.size() == out.size(),
                      "batch/result size mismatch");
        if (const BatchKernel kernel = parallelKernel(batch.size())) {
            for (std::size_t i = 0; i < batch.size(); ++i)
                out[i] = kernel(batch[i], i);
            return;
        }
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = measure(batch[i]);
    }

    /**
     * Publishes a thread-safe kernel for one upcoming batch of
     * `batchSize` measurements, or an empty function if this engine
     * cannot evaluate batch items concurrently (the default).
     *
     * Creating a kernel *reserves* the engine's per-measurement state
     * (e.g. the simulator's noise indices) for the whole batch up
     * front, so the kernel is a pure function of (assignment, index):
     * any thread may evaluate any subset of indices in any order and
     * the results are identical to the serial path.
     */
    virtual BatchKernel
    parallelKernel(std::size_t batchSize)
    {
        (void)batchSize;
        return {};
    }

    /**
     * Failure-aware single measurement. The default classifies the
     * double channel: finite readings are Ok, non-finite ones are
     * Invalid. Engines that can distinguish failure modes (timeouts,
     * transient errors) override this.
     */
    virtual MeasurementOutcome
    measureOutcome(const Assignment &assignment)
    {
        return MeasurementOutcome::classify(measure(assignment));
    }

    /**
     * Failure-aware batch measurement; out[i] receives the outcome of
     * batch[i]. The default runs the double-channel measureBatch()
     * and classifies each reading, so every engine supports it.
     */
    virtual void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out)
    {
        SCHED_REQUIRE(batch.size() == out.size(),
                      "batch/result size mismatch");
        std::vector<double> values(batch.size());
        measureBatch(batch, values);
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = MeasurementOutcome::classify(values[i]);
    }

    /**
     * Outcome-channel batch kernel, with the same reservation and
     * purity contract as parallelKernel(). The default wraps the
     * double-channel kernel in classification; engines without a
     * kernel return an empty function.
     */
    virtual OutcomeKernel
    outcomeKernel(std::size_t batchSize)
    {
        BatchKernel kernel = parallelKernel(batchSize);
        if (!kernel)
            return {};
        return [kernel](const Assignment &a, std::size_t i) {
            return MeasurementOutcome::classify(kernel(a, i));
        };
    }

    /**
     * Reserves and discards `count` measurement indices without
     * measuring anything: afterwards the engine's per-index state
     * (noise cursor, fault cursor) stands exactly `count` indices
     * further, as if a batch of that size had been measured.
     *
     * This is how replay-style decorators (core::JournalingEngine,
     * core::ShardedEngine) fast-forward the stack below them past
     * measurements that were already performed elsewhere. The default
     * requests and discards an outcome kernel, which reserves the
     * indices per the outcomeKernel() contract. That default serves
     * leaf engines; a kernel-less leaf that tracks indices must
     * override it. Decorators forward the reservation to the engine
     * they wrap (EngineDecorator), so it reaches the per-index state
     * below a decorator that publishes no kernel; one that owns a
     * cursor of its own advances it and forwards.
     */
    virtual void
    reserveMeasurementIndices(std::size_t count)
    {
        if (count == 0)
            return;
        OutcomeKernel reservation = outcomeKernel(count);
        (void)reservation;
    }

    /** @return a short description for reports. */
    virtual std::string name() const = 0;

    /**
     * Wall-clock cost of one measurement in seconds, used to report
     * experimentation time (the paper's measurements take ~1.5 s
     * each). Defaults to 0 for instantaneous engines.
     */
    virtual double secondsPerMeasurement() const { return 0.0; }

    /**
     * Accumulates this engine's statistics into `stats`. Decorators
     * add their counters and forward to the wrapped engine, so one
     * call on the top of a stack sees the whole composition. The
     * default contributes nothing.
     */
    virtual void collectStats(EngineStats &stats) const
    {
        (void)stats;
    }
};

/**
 * Base of every engine that wraps another one.
 *
 * A decorator implements the outcome channel only: it must provide
 * measureBatchOutcome() and may override measureOutcome() (a batch of
 * one by default) and outcomeKernel() (none by default). The double
 * channel — measure(), measureBatch(), parallelKernel() — is derived
 * here, once, as the valueOrNaN() view of the outcome channel, and is
 * final: a decorator's two channels cannot disagree.
 *
 * name(), secondsPerMeasurement(), collectStats() and
 * reserveMeasurementIndices() forward to the wrapped engine. A
 * decorator that owns per-index state of its own (an index cursor)
 * overrides the reservation; one that keeps counters overrides
 * collectStats() and forwards from there.
 */
class EngineDecorator : public PerformanceEngine
{
  public:
    double
    measure(const Assignment &assignment) final
    {
        return measureOutcome(assignment).valueOrNaN();
    }

    void
    measureBatch(std::span<const Assignment> batch,
                 std::span<double> out) final
    {
        SCHED_REQUIRE(batch.size() == out.size(),
                      "batch/result size mismatch");
        std::vector<MeasurementOutcome> outcomes(batch.size());
        measureBatchOutcome(batch, outcomes);
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = outcomes[i].valueOrNaN();
    }

    BatchKernel
    parallelKernel(std::size_t batchSize) final
    {
        OutcomeKernel kernel = outcomeKernel(batchSize);
        if (!kernel)
            return {};
        return [kernel](const Assignment &a, std::size_t i) {
            return kernel(a, i).valueOrNaN();
        };
    }

    MeasurementOutcome
    measureOutcome(const Assignment &assignment) override
    {
        MeasurementOutcome outcome;
        measureBatchOutcome(std::span<const Assignment>(&assignment, 1),
                            std::span<MeasurementOutcome>(&outcome, 1));
        return outcome;
    }

    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override = 0;

    /** Publishes no kernel unless the decorator opts in. */
    OutcomeKernel
    outcomeKernel(std::size_t batchSize) override
    {
        (void)batchSize;
        return {};
    }

    void
    reserveMeasurementIndices(std::size_t count) override
    {
        inner_.reserveMeasurementIndices(count);
    }

    std::string name() const override { return inner_.name(); }

    double
    secondsPerMeasurement() const override
    {
        return inner_.secondsPerMeasurement();
    }

    void
    collectStats(EngineStats &stats) const override
    {
        inner_.collectStats(stats);
    }

  protected:
    /** @param inner Engine to wrap; not owned. */
    explicit EngineDecorator(PerformanceEngine &inner) : inner_(inner) {}

    PerformanceEngine &inner_;
};

/**
 * Decorator that counts measurements and batches and accumulates the
 * modeled experimentation time of the wrapped engine. All counters
 * are atomic, so the decorator may sit on either side of a
 * core::ParallelEngine.
 */
class MeteredEngine : public EngineDecorator
{
  public:
    /** @param inner Engine to wrap; not owned. */
    explicit MeteredEngine(PerformanceEngine &inner)
        : EngineDecorator(inner)
    {
    }

    /** Counts one measurement and no batch: a batch of one would add
     *  to EngineStats::batches, which the CLI reports. */
    MeasurementOutcome
    measureOutcome(const Assignment &assignment) override
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        return inner_.measureOutcome(assignment);
    }

    void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out) override
    {
        count_.fetch_add(batch.size(), std::memory_order_relaxed);
        batches_.fetch_add(1, std::memory_order_relaxed);
        inner_.measureBatchOutcome(batch, out);
    }

    OutcomeKernel
    outcomeKernel(std::size_t batchSize) override
    {
        OutcomeKernel kernel = inner_.outcomeKernel(batchSize);
        if (!kernel)
            return {};
        return [this, kernel](const Assignment &a, std::size_t i) {
            count_.fetch_add(1, std::memory_order_relaxed);
            return kernel(a, i);
        };
    }

    void
    collectStats(EngineStats &stats) const override
    {
        const std::uint64_t n =
            count_.load(std::memory_order_relaxed);
        stats.measurements += n;
        stats.batches += batches_.load(std::memory_order_relaxed);
        stats.modeledSeconds += static_cast<double>(n) *
            inner_.secondsPerMeasurement();
        inner_.collectStats(stats);
    }

    /**
     * @return the statistics of the whole stack below (and including)
     *         this decorator.
     *
     * Note on modeledSeconds: a MeteredEngine above a memoization
     * cache meters *requested* measurements; the cache subtracts the
     * hits it absorbed, so the total reflects time actually spent.
     */
    EngineStats
    stats() const
    {
        EngineStats s;
        collectStats(s);
        return s;
    }

  private:
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> batches_{0};
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_PERFORMANCE_ENGINE_HH
