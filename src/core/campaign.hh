/**
 * @file
 * Durable campaign runtime around the iterative algorithm.
 *
 * runCampaign() is the production entry point for a search campaign:
 * it assembles the sanctioned decorator stack around a caller-provided
 * measurement engine, wires in the crash-safe journal
 * (core/journal.hh), probes external stop conditions at round
 * boundaries — graceful shutdown, wall-clock deadline, measurement and
 * round budgets — and on resume replays the journal so the continued
 * run is bit-identical to an uninterrupted one.
 *
 * The stack the runner builds (outermost first, optional layers in
 * brackets):
 *
 *   Metered([Memoizing]([Resilient](Journaling(engine))))
 *
 * where `engine` is the caller's stack — typically
 * Parallel(FaultInjecting(Simulated)) or a hardware engine. The
 * journal must wrap everything with per-measurement-index state and
 * sit below everything whose state is rebuilt by re-driving the
 * search; see the determinism argument in core/journal.hh.
 *
 * Time and signals stay OUT of this module: the wall-clock deadline
 * reads an injected base::Clock and shutdown arrives through an
 * injected predicate (the CLI passes base::shutdownRequested), so the
 * campaign logic — like everything in src/core — remains a
 * deterministic function of its inputs and is testable with
 * base::ManualClock and a scripted predicate.
 */

#ifndef STATSCHED_CORE_CAMPAIGN_HH
#define STATSCHED_CORE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/health.hh"
#include "core/iterative.hh"
#include "core/journal.hh"
#include "core/memoizing_engine.hh"
#include "core/resilient_engine.hh"

namespace statsched
{

namespace base
{
class Clock;
} // namespace base

namespace core
{

/**
 * Configuration of a durable campaign run.
 */
struct CampaignOptions
{
    /** Parameters of the underlying iterative search. The runner owns
     *  stopCheck; anything the caller sets there is ignored. Its pool
     *  also computes the memo's keys. */
    IterativeOptions iterative;

    /** Journal file; empty disables journaling (and resume). */
    std::string journalPath;
    /** Resume from an existing journal instead of starting fresh.
     *  The journal's identity header (seed, topology, tasks,
     *  configHash) must match this run. */
    bool resume = false;
    /** Folded into the journal header so a resumed run can prove it
     *  uses the same engine/search configuration; callers hash
     *  whatever steers their measurements (see the CLI). */
    std::uint64_t configHash = 0;

    /** What a journal media failure (ENOSPC, EIO) means: Abort ends
     *  the campaign cleanly with the durable prefix intact; Degrade
     *  drops to memory-only recording and completes with exact
     *  results but reduced durability. Operational only — not part
     *  of the campaign identity hash. */
    JournalErrorPolicy journalOnError = JournalErrorPolicy::Abort;
    /** Sink source for the journal file; empty means a real file.
     *  Tests and the chaos harness inject fault-injecting factories. */
    base::io::SinkFactory journalSinkFactory;

    /** Health aggregate receiving journal/shard/estimator
     *  transitions; optional, not owned. */
    Health *health = nullptr;

    /** Wall-clock budget in seconds; 0 disables. Requires `clock`. */
    double deadlineSeconds = 0.0;
    /** Clock the deadline reads; not owned. Required only when
     *  deadlineSeconds > 0. */
    base::Clock *clock = nullptr;
    /** Stop once this many measurements were requested (replay
     *  included, cache hits included); 0 disables. */
    std::uint64_t maxMeasurements = 0;
    /** Stop after this many completed rounds; 0 disables. */
    std::size_t maxRounds = 0;
    /** Probed at round boundaries for graceful shutdown (the CLI
     *  passes base::shutdownRequested); empty disables. */
    std::function<bool()> stopRequested;

    /** Insert a MemoizingEngine above the journal. */
    bool memoize = true;
    /** Insert a ResilientEngine above the journal. */
    bool resilient = false;
    /** Configuration of the resilient layer when enabled. */
    ResilientOptions resilience;
};

/**
 * The decorators above the journal, in the sanctioned order
 * (performance_engine.hh): Metered([Memoizing]([Resilient](inner))).
 * runCampaign builds them over its journal, a command without a
 * campaign over its substrate; no layer of their own joins the path.
 */
class UpperDecorators
{
  public:
    /** @param inner Engine to wrap; not owned.
     *  @param pool  Computes the memo's keys; not owned, may be null. */
    UpperDecorators(PerformanceEngine &inner, bool resilient,
                    const ResilientOptions &resilience, bool memoize,
                    base::WorkerPool *pool);

    MeteredEngine &top() { return *metered_; }
    bool memoizing() const { return memoizing_.has_value(); }

  private:
    std::optional<ResilientEngine> resilient_;
    std::optional<MemoizingEngine> memoizing_;
    std::optional<MeteredEngine> metered_;
};

/**
 * Everything a driver needs to report a campaign.
 */
struct CampaignResult
{
    /** False when the campaign could not start (journal unusable or
     *  identity mismatch) — see journalError; the search result is
     *  then empty. */
    bool ran = false;
    /** The iterative search outcome (partial when aborted). */
    IterativeResult search;
    /** Stats of the whole engine stack the runner assembled. */
    EngineStats engineStats;

    /** True when this run resumed from a journal. */
    bool resumed = false;
    /** Measurements served from the journal during replay. */
    std::uint64_t replayedMeasurements = 0;
    /** Measurements performed fresh and journaled this run. */
    std::uint64_t recordedMeasurements = 0;
    /** Bytes of untrustworthy journal tail dropped by recovery. */
    std::uint64_t journalTruncatedBytes = 0;
    /** Non-empty on journal problems: unusable/mismatched journal
     *  (ran == false), replay divergence, or a media failure under
     *  policy Abort (ran == true). */
    std::string journalError;
    /** True when the journal degraded to memory-only recording
     *  (policy Degrade) — results are exact, durability is not. */
    bool journalDegraded = false;
    /** Measurements that never reached the journal after it
     *  degraded. */
    std::uint64_t unjournaledMeasurements = 0;

    /** @return true when the campaign stopped on an external stop
     *  condition (not convergence, not the sample cap). */
    bool
    aborted() const
    {
        return search.abortKind != AbortKind::None;
    }
};

/**
 * Runs a durable campaign over `engine`.
 *
 * @param engine   Measurement stack to wrap (see file comment for
 *                 what belongs below the journal); not owned.
 * @param topology Processor shape.
 * @param tasks    Workload size.
 * @param seed     Sampler seed.
 * @param options  Campaign configuration.
 */
CampaignResult runCampaign(PerformanceEngine &engine,
                           const Topology &topology,
                           std::uint32_t tasks, std::uint64_t seed,
                           const CampaignOptions &options);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_CAMPAIGN_HH
