/**
 * @file
 * ResilientEngine implementation.
 */

#include "core/resilient_engine.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <vector>

#include "base/check.hh"

namespace statsched
{
namespace core
{

namespace
{

/** Modeled seconds waited before the first retry; each further retry
 *  doubles the wait, up to the cap. */
constexpr double kBackoffBaseSeconds = 0.5;
constexpr double kBackoffFactor = 2.0;
/** Upper bound on one backoff wait: five modeled minutes is already
 *  far beyond any sane retry spacing. */
constexpr double kBackoffCapSeconds = 300.0;

/** @return whether `classes` holds the class of `assignment`.
 *  @param key Scratch of classes.form.words() words. */
bool
holds(const ClassTable &classes, const Assignment &assignment,
      std::uint64_t *key)
{
    return classes.table.find(classes.pack(assignment, key), key) !=
        nullptr;
}

/** Median of a non-empty vector (consumed); even sizes average the
 *  two middle order statistics. */
double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1
        ? values[n / 2]
        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // anonymous namespace

ResilientEngine::ResilientEngine(PerformanceEngine &inner,
                                 const ResilientOptions &options)
    : EngineDecorator(inner), options_(options)
{
    SCHED_REQUIRE(options.maxAttempts >= 1,
                  "need at least one attempt");
    SCHED_REQUIRE(options.screenRelDeviation > 0.0,
                  "screening deviation must be positive");
}

void
ResilientEngine::screenOutliers(std::span<const Assignment> batch,
                                std::span<MeasurementOutcome> out)
{
    const std::uint32_t k = options_.screenWidth;
    if (k < 2 || batch.empty())
        return;

    std::vector<double> valid;
    valid.reserve(batch.size());
    for (const auto &outcome : out) {
        if (outcome.ok())
            valid.push_back(outcome.value);
    }
    // A single reading has no peers to be an outlier against.
    if (valid.size() < 2)
        return;
    const double median = medianOf(std::move(valid));
    if (!(std::abs(median) > 0.0))
        return;

    std::vector<std::size_t> suspects;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (out[i].ok() &&
            std::abs(out[i].value - median) >
                options_.screenRelDeviation * std::abs(median)) {
            suspects.push_back(i);
        }
    }
    if (suspects.empty())
        return;

    // One sub-batch holding every suspect k-1 times, in ascending
    // index order, keeps the re-measurement deterministic.
    std::vector<Assignment> sub;
    sub.reserve(suspects.size() * (k - 1));
    for (const std::size_t idx : suspects) {
        for (std::uint32_t r = 0; r + 1 < k; ++r)
            sub.push_back(batch[idx]);
    }
    std::vector<MeasurementOutcome> outcomes(sub.size());
    try {
        inner_.measureBatchOutcome(sub, outcomes);
    } catch (const std::exception &) {
        // Re-measurement failed wholesale; keep the original
        // suspect readings rather than replacing them with less.
        return;
    }

    for (std::size_t s = 0; s < suspects.size(); ++s) {
        const std::size_t idx = suspects[s];
        std::vector<double> readings{out[idx].value};
        for (std::uint32_t r = 0; r + 1 < k; ++r) {
            const auto &re = outcomes[s * (k - 1) + r];
            if (re.ok())
                readings.push_back(re.value);
        }
        out[idx].value = medianOf(std::move(readings));
        out[idx].attempts += k - 1;
    }
    base::MutexLock lock(mutex_);
    retries_ += sub.size();
    screened_ += suspects.size();
}

void
ResilientEngine::measureBatchOutcome(std::span<const Assignment> batch,
                                     std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");

    // Indices still lacking a valid reading, in ascending order, so
    // retry sub-batches are deterministic, and so are the measurement
    // indices the layers below reserve for them. Quarantined classes
    // are rejected before any measurement; while nothing is
    // quarantined no item is packed.
    std::vector<std::size_t> pending;
    pending.reserve(batch.size());
    {
        base::MutexLock lock(mutex_);
        std::vector<std::uint64_t> key(
            quarantine_ ? quarantine_->form.words() : 0);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (quarantine_ && holds(*quarantine_, batch[i], key.data())) {
                out[i] = MeasurementOutcome::failure(
                    MeasureStatus::Quarantined, 0);
            } else {
                pending.push_back(i);
            }
        }
    }

    double backoff = 0.0;
    double wait = kBackoffBaseSeconds;
    std::vector<Assignment> sub;
    std::vector<MeasurementOutcome> outcomes;
    for (std::uint32_t attempt = 1;
         attempt <= options_.maxAttempts && !pending.empty();
         ++attempt) {
        // While every item is pending, the caller's batch is measured
        // in place.
        std::span<const Assignment> items = batch;
        std::span<MeasurementOutcome> readings = out;
        if (pending.size() != batch.size()) {
            sub.clear();
            for (const std::size_t idx : pending)
                sub.push_back(batch[idx]);
            outcomes.assign(sub.size(), MeasurementOutcome{});
            items = sub;
            readings = outcomes;
        }
        try {
            inner_.measureBatchOutcome(items, readings);
        } catch (const std::exception &) {
            // A contract violation (or any error) below becomes a
            // structured Errored outcome for the whole sub-batch;
            // the normal retry/quarantine ladder takes it from here.
            for (auto &outcome : readings)
                outcome = MeasurementOutcome::failure(
                    MeasureStatus::Errored);
        }

        std::size_t failed = 0;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            MeasurementOutcome outcome = readings[k];
            outcome.attempts = attempt;
            out[pending[k]] = outcome;
            if (!outcome.ok())
                pending[failed++] = pending[k];
        }
        pending.resize(failed);

        if (!pending.empty() && attempt < options_.maxAttempts) {
            {
                base::MutexLock lock(mutex_);
                retries_ += pending.size();
            }
            backoff += static_cast<double>(pending.size()) * wait;
            wait = std::min(wait * kBackoffFactor, kBackoffCapSeconds);
        }
    }

    {
        base::MutexLock lock(mutex_);
        backoffSeconds_ += backoff;
        if (!pending.empty()) {
            // Each item still pending exhausted its attempts: its
            // class is quarantined.
            if (!quarantine_)
                quarantine_.emplace(batch[pending.front()]);
            std::vector<std::uint64_t> key(quarantine_->form.words());
            for (const std::size_t idx : pending) {
                quarantine_->table.tryEmplace(
                    quarantine_->pack(batch[idx], key.data()),
                    key.data(), 0);
            }
        }
    }
    screenOutliers(batch, out);
}

void
ResilientEngine::collectStats(EngineStats &stats) const
{
    {
        // One lock, one snapshot: the retry tally, its modeled cost
        // and the backoff total all come from the same instant.
        base::MutexLock lock(mutex_);
        stats.retries += retries_;
        stats.quarantined += quarantine_ ? quarantine_->table.size() : 0;
        // Extra attempts occupy the testbed like first attempts do;
        // the meter above only charged the requested measurements.
        stats.modeledSeconds += static_cast<double>(retries_) *
            inner_.secondsPerMeasurement();
        stats.modeledSeconds += backoffSeconds_;
    }
    inner_.collectStats(stats);
}

bool
ResilientEngine::isQuarantined(const Assignment &assignment) const
{
    base::MutexLock lock(mutex_);
    if (!quarantine_)
        return false;
    std::vector<std::uint64_t> key(quarantine_->form.words());
    return holds(*quarantine_, assignment, key.data());
}

std::size_t
ResilientEngine::quarantineSize() const
{
    base::MutexLock lock(mutex_);
    return quarantine_ ? quarantine_->table.size() : 0;
}

} // namespace core
} // namespace statsched
