/**
 * @file
 * Deterministic fault injection over a measurement engine.
 *
 * Real measurement substrates misbehave: a pipeline thread hangs, a
 * performance counter returns garbage, an OS hiccup inflates one
 * reading by 3x. FaultInjectingEngine reproduces those pathologies in
 * a controlled way so the resilient layer (core::ResilientEngine) and
 * the failure-aware consumers can be exercised deterministically.
 *
 * Determinism contract: whether measurement k of this engine's
 * lifetime is faulted — and how — is a pure function of
 * (assignment, k, seed). Like sim::SimulatedEngine's noise, the
 * measurement index is reserved per batch up front, so the injected
 * fault pattern is bit-identical whether a batch is evaluated
 * serially, chunked, or on any number of core::ParallelEngine worker
 * threads. A retry is a fresh measurement with a fresh index, so
 * transient faults really are transient.
 *
 * Four fault classes, drawn per measurement in this fixed order
 * (hang, transient, garbage, outlier) from one uniform variate:
 *
 *  - hang:      the measurement stalls and a watchdog reaps it after
 *               10 s of modeled time; reported as
 *               MeasureStatus::TimedOut, no reading.
 *  - transient: the run errors out; MeasureStatus::Errored, no
 *               reading.
 *  - garbage:   the engine returns NaN; MeasureStatus::Invalid.
 *  - outlier:   the reading IS delivered as Ok but multiplied by 3
 *               — a silently wrong value only median-of-k screening
 *               can catch.
 *
 * ValueCorruptingEngine, also here, is the Byzantine counterpart: it
 * corrupts every Ok reading, and only a second opinion catches it.
 */

#ifndef STATSCHED_CORE_FAULT_INJECTION_HH
#define STATSCHED_CORE_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "core/performance_engine.hh"

namespace statsched
{
namespace core
{

/**
 * Fault mix of a FaultInjectingEngine. Rates are probabilities in
 * [0, 1]; their sum must not exceed 1.
 */
struct FaultOptions
{
    double hangRate = 0.0;      //!< P(modeled hang -> TimedOut)
    double transientRate = 0.0; //!< P(transient error -> Errored)
    double garbageRate = 0.0;   //!< P(NaN reading -> Invalid)
    double outlierRate = 0.0;   //!< P(silent multiplicative outlier)
    /** Fault stream seed, independent of the engine's noise seed. */
    std::uint64_t seed = 0xfa017;

    /** @return total probability that a measurement is disturbed. */
    double
    totalRate() const
    {
        return hangRate + transientRate + garbageRate + outlierRate;
    }
};

/**
 * Decorator that injects deterministic faults into the measurements
 * of the wrapped engine.
 */
class FaultInjectingEngine : public EngineDecorator
{
  public:
    /**
     * @param inner   Engine to wrap; not owned.
     * @param options Fault mix and seed.
     */
    FaultInjectingEngine(PerformanceEngine &inner,
                         const FaultOptions &options);

    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override;

    OutcomeKernel outcomeKernel(std::size_t batchSize) override;

    /** Advances the fault cursor past `count` indices, then forwards
     *  the reservation to the wrapped engine. */
    void reserveMeasurementIndices(std::size_t count) override;

    /**
     * Contributes the injected failures and the hang time surcharge:
     * a hung measurement costs 10 s instead of the engine's
     * secondsPerMeasurement() a meter above already charged.
     */
    void collectStats(EngineStats &stats) const override;

    /** Injected fault counters (lifetime totals). @{ */
    std::uint64_t injectedHangs() const
    { return hangs_.load(std::memory_order_relaxed); }
    std::uint64_t injectedTransients() const
    { return transients_.load(std::memory_order_relaxed); }
    std::uint64_t injectedGarbage() const
    { return garbage_.load(std::memory_order_relaxed); }
    std::uint64_t injectedOutliers() const
    { return outliers_.load(std::memory_order_relaxed); }
    /** @} */

  private:
    enum class FaultKind : std::uint8_t
    { None, Hang, Transient, Garbage, Outlier };

    /** Pure fault draw for measurement `index` of `assignment`. */
    FaultKind faultAt(std::uint64_t index,
                      const Assignment &assignment) const;

    /** Applies the fault drawn for `index` around a clean reading. */
    MeasurementOutcome
    applyFault(std::uint64_t index, const Assignment &assignment,
               const std::function<MeasurementOutcome()> &clean);

    FaultOptions options_;
    /** Next unreserved measurement index (fault substream id). */
    std::atomic<std::uint64_t> cursor_{0};
    std::atomic<std::uint64_t> hangs_{0};
    std::atomic<std::uint64_t> transients_{0};
    std::atomic<std::uint64_t> garbage_{0};
    std::atomic<std::uint64_t> outliers_{0};
};

/**
 * Byzantine decorator: measures honestly through the wrapped engine,
 * then corrupts the value bits of every Ok outcome (XOR of the low 24
 * mantissa bits). The corrupted value stays finite, plausible and
 * deterministic, so it is indistinguishable from an honest reading
 * without a second opinion — the shard fleet's audit duplication.
 * Failed outcomes pass through unchanged. Backs statsched_worker's
 * --garbage-values chaos mode and ablation A14.
 */
class ValueCorruptingEngine : public EngineDecorator
{
  public:
    /** @param inner Engine to wrap; not owned. */
    explicit ValueCorruptingEngine(PerformanceEngine &inner)
        : EngineDecorator(inner)
    {
    }

    void measureBatchOutcome(
        std::span<const Assignment> batch,
        std::span<MeasurementOutcome> out) override;

    OutcomeKernel outcomeKernel(std::size_t batchSize) override;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_FAULT_INJECTION_HH
