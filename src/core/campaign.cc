/**
 * @file
 * Campaign runtime implementation.
 */

#include "core/campaign.hh"

#include <optional>
#include <utility>

#include "base/check.hh"
#include "base/clock.hh"
#include "core/memoizing_engine.hh"

namespace statsched
{
namespace core
{

CampaignResult
runCampaign(PerformanceEngine &engine, const Topology &topology,
            std::uint32_t tasks, std::uint64_t seed,
            const CampaignOptions &options)
{
    SCHED_REQUIRE(options.deadlineSeconds <= 0.0 ||
                  options.clock != nullptr,
                  "a wall-clock deadline requires an injected clock");
    SCHED_REQUIRE(!options.resume || !options.journalPath.empty(),
                  "resume requires a journal path");

    CampaignResult result;
    const JournalHeader header = JournalHeader::forCampaign(
        topology, tasks, seed, options.configHash);

    // Journal layer. On resume the recovered identity header must
    // match this campaign exactly: replaying outcomes of a different
    // seed, shape or engine configuration would not crash — it would
    // silently produce statistics of a run that never happened.
    std::optional<JournalingEngine> journaling;
    if (!options.journalPath.empty()) {
        JournalConfig journalConfig;
        journalConfig.onError = options.journalOnError;
        journalConfig.sinkFactory = options.journalSinkFactory;
        if (options.health != nullptr) {
            Health *health = options.health;
            journalConfig.onDegrade =
                [health](const std::string &detail) {
                    health->transition("journal",
                                       HealthLevel::Degraded,
                                       detail);
                };
        }
        if (options.resume) {
            JournalRecovery recovery =
                recoverJournal(options.journalPath);
            if (!recovery.headerValid) {
                result.journalError =
                    "cannot resume: " + recovery.error;
                return result;
            }
            if (!(recovery.header == header)) {
                result.journalError =
                    "cannot resume: journal identity (seed, "
                    "topology, tasks or configuration hash) does "
                    "not match this campaign";
                return result;
            }
            result.resumed = true;
            result.journalTruncatedBytes = recovery.truncatedBytes;
            journaling.emplace(
                engine, MeasurementJournal(options.journalPath,
                                           recovery,
                                           std::move(journalConfig)));
            journaling->queueReplay(std::move(recovery.batches));
        } else {
            journaling.emplace(
                engine,
                MeasurementJournal(options.journalPath, header,
                                   std::move(journalConfig)));
        }
    }

    // Upper decorators, in the sanctioned order (see
    // performance_engine.hh): Metered(Memoizing(Resilient(journal))).
    PerformanceEngine *stack =
        journaling ? static_cast<PerformanceEngine *>(&*journaling)
                   : &engine;
    std::optional<ResilientEngine> resilient;
    if (options.resilient) {
        resilient.emplace(*stack, options.resilience);
        stack = &*resilient;
    }
    std::optional<MemoizingEngine> memoizing;
    if (options.memoize) {
        memoizing.emplace(*stack, options.iterative.pool);
        stack = &*memoizing;
    }
    MeteredEngine metered(*stack);

    const double startSeconds =
        options.clock != nullptr ? options.clock->nowSeconds() : 0.0;

    IterativeOptions iterative = options.iterative;
    iterative.stopCheck =
        [&](std::size_t round) -> IterativeStop {
        if (journaling) {
            journaling->setRound(static_cast<std::uint32_t>(round));
            // Periodic Progress checkpoint at every round boundary:
            // operator telemetry for a crashed run (no-op while
            // replaying — the original run already journaled these
            // rounds).
            if (round > 0 && !journaling->replaying()) {
                JournalCheckpoint progress;
                progress.kind = CheckpointKind::Progress;
                progress.round = static_cast<std::uint32_t>(round);
                progress.attempted = metered.stats().measurements;
                journaling->checkpoint(progress);
            }
        }
        if (options.stopRequested && options.stopRequested())
            return {AbortKind::Interrupted,
                    "shutdown requested; sampled state checkpointed"};
        if (options.deadlineSeconds > 0.0) {
            const double elapsed =
                options.clock->nowSeconds() - startSeconds;
            if (elapsed >= options.deadlineSeconds)
                return {AbortKind::DeadlineExceeded,
                        "wall-clock deadline of " +
                            std::to_string(options.deadlineSeconds) +
                            " s exceeded"};
        }
        if (options.maxMeasurements > 0 &&
            metered.stats().measurements >= options.maxMeasurements)
            return {AbortKind::BudgetExhausted,
                    "measurement budget of " +
                        std::to_string(options.maxMeasurements) +
                        " exhausted"};
        if (options.maxRounds > 0 && round >= options.maxRounds)
            return {AbortKind::RoundLimit,
                    "round budget of " +
                        std::to_string(options.maxRounds) +
                        " exhausted"};
        return {};
    };

    result.search = iterativeAssignmentSearch(metered, topology,
                                              tasks, seed, iterative);
    result.ran = true;
    result.engineStats = metered.stats();

    if (journaling) {
        result.replayedMeasurements =
            journaling->replayedMeasurements();
        result.recordedMeasurements =
            journaling->recordedMeasurements();
        result.journalDegraded = journaling->journalDegraded();
        result.unjournaledMeasurements =
            journaling->unjournaledMeasurements();
        if (journaling->mismatch())
            result.journalError = "journal replay diverged: " +
                journaling->mismatchDetail();
        else if (journaling->journalFailed()) {
            result.journalError = "journal media failure: " +
                journaling->journal().errorDetail();
            if (options.health != nullptr)
                options.health->transition(
                    "journal", HealthLevel::Failing,
                    journaling->journal().errorDetail());
        }

        // Final checkpoint: even an aborted campaign leaves a synced
        // summary of how far it got, and the Complete/Aborted kind
        // tells the next resume (and the operator) what happened.
        JournalCheckpoint checkpoint;
        checkpoint.kind = result.aborted() ? CheckpointKind::Aborted
                                           : CheckpointKind::Complete;
        checkpoint.round =
            static_cast<std::uint32_t>(result.search.steps.size());
        checkpoint.attempted = result.search.totalAttempted;
        checkpoint.sampled = result.search.totalSampled;
        checkpoint.best = result.search.final.bestObserved;
        journaling->checkpoint(checkpoint);
    }

    // Estimator health: only the FINAL estimate matters (early
    // rounds are Degraded by construction — too little tail data —
    // and an aborted campaign never reached its stop condition, so
    // its estimate is incomplete rather than unhealthy).
    if (options.health != nullptr && !result.aborted() &&
        result.search.final.pot.status != stats::EstimateStatus::Ok)
        options.health->transition(
            "estimator", HealthLevel::Degraded,
            std::string(estimateStatusName(
                result.search.final.pot.status)) +
                (result.search.final.pot.invalidReason.empty()
                     ? std::string()
                     : ": " + result.search.final.pot.invalidReason));
    return result;
}

} // namespace core
} // namespace statsched
