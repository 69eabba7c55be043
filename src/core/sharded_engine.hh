/**
 * @file
 * Fault-tolerant sharded measurement across worker backends.
 *
 * ShardedEngine is the fan-out layer of the measurement stack: it
 * partitions every measureBatchOutcome() across N shard backends —
 * in production, statsched_worker subprocesses speaking the CRC-framed
 * pipe protocol of core/shard_protocol.hh — and merges the outcomes
 * back by original batch index. The paper's method needs *volume* of
 * iid measurements (Section 5.3); after the batch-first simulator
 * this is the next axis of scale, and it must not cost determinism:
 *
 *   Bit-identity contract. Results are byte-identical for ANY shard
 *   count, including 1 and the unsharded in-process path. The engine
 *   keeps one global measurement cursor; a batch of size B occupies
 *   the index window [base, base + B) regardless of how its items
 *   are partitioned, and every worker aligns its own engine to that
 *   window before evaluating (core/shard_worker.hh). An outcome is a
 *   pure function of (assignment, global index), so WHO computes it
 *   cannot matter — which is exactly what makes the failure handling
 *   below invisible in the results.
 *
 * Failure handling is first-class, not best-effort:
 *
 *  - Dead and hung workers are detected by per-request deadlines and
 *    by heartbeat pings before reuse of an idle backend; a worker
 *    that closes its pipe, corrupts a frame (CRC), breaks protocol,
 *    or stays silent past the deadline is terminated and its slot
 *    marked down.
 *
 *  - A failed shard's outstanding items are re-issued: surviving
 *    shards receive them as additional items of the SAME cursor
 *    window and serve them from the SAME reserved kernel, so no
 *    sample is lost, duplicated, or re-randomized — re-issue
 *    preserves both the iid sampling and bit-identity.
 *
 *  - A down slot is respawned with capped exponential backoff; a
 *    replacement worker fast-forwards its fresh engine to the
 *    campaign's current index window on its first request.
 *
 *  - A slot that keeps failing (quarantineThreshold consecutive
 *    failures) is quarantined: no further respawns. When every slot
 *    is down or quarantined, the engine degrades gracefully to the
 *    wrapped in-process engine — the campaign slows down instead of
 *    aborting, and the results stay bit-identical because the inner
 *    engine is fast-forwarded to the same cursor before serving.
 *
 *  - Byzantine (wrong-VALUE) workers are caught by audit duplication:
 *    a seeded fraction of indices — a pure function of (auditSeed,
 *    global index), bit-identical at any shard count — is issued to a
 *    second live backend in the same cursor window. Measurement is
 *    bit-identical by construction, so ANY value-bits disagreement
 *    proves corruption; the coordinator then computes the in-process
 *    ground truth for the disputed index, convicts whichever
 *    backend(s) disagree with it, discards every unaudited result the
 *    offender returned this batch (re-issued to survivors), and feeds
 *    the conviction into the same failure ladder as a crash — repeat
 *    offenders are quarantined. Detection is probabilistic per batch
 *    (a backend corrupting k results in a batch is caught with
 *    probability 1 - (1 - f)^k for audit fraction f) but inevitable
 *    for a persistent corruptor; only collusion producing identical
 *    forged bits would evade it.
 *
 * All waiting and backoff arithmetic reads an injected base::Clock,
 * so the chaos tests drive every failure path deterministically with
 * a ManualClock and scripted backends.
 *
 * Stack placement (see core/journal.hh): directly BELOW the journal,
 * ABOVE the in-process substrate —
 *
 *   Metered(Memoizing(Resilient(Journaling(Sharded(Parallel(...))))))
 *
 * The journal then records merged outcomes, so a SIGKILLed sharded
 * campaign resumes bit-identically under any shard count: replay
 * advances the sharded cursor via reserveMeasurementIndices() and the
 * workers lazily fast-forward on the first fresh request.
 * ShardedEngine publishes no kernels of its own — callers above take
 * the batch path, which is the unit of fan-out.
 */

#ifndef STATSCHED_CORE_SHARDED_ENGINE_HH
#define STATSCHED_CORE_SHARDED_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/sync.hh"
#include "core/performance_engine.hh"
#include "core/shard_protocol.hh"
#include "core/topology.hh"

namespace statsched
{

namespace base
{
class Clock;
} // namespace base

namespace core
{

class Health;

/**
 * Transport to one shard worker. Implementations: the subprocess
 * pipe backend (makeProcessShardFactory()) and the in-memory
 * loopback/scripted backends of the chaos tests. Synchronous and
 * message-framed; all failure modes surface through RecvStatus.
 */
class ShardBackend
{
  public:
    virtual ~ShardBackend() = default;

    /** How one receive attempt ended. */
    enum class RecvStatus
    {
        Frame,   //!< a CRC-verified frame was delivered
        Timeout, //!< nothing arrived within maxWaitSeconds
        Closed,  //!< the worker closed the transport (died)
        Corrupt, //!< a frame failed its CRC; worker untrustworthy
    };

    /** Starts the worker. @return false with `error` set on spawn
     *  failure. */
    virtual bool start(std::string &error) = 0;

    /** Sends raw frame bytes. @return false when the worker is gone. */
    virtual bool send(const std::uint8_t *data, std::size_t size) = 0;

    /**
     * Receives the next frame, waiting at most `maxWaitSeconds`.
     * Implementations may consume modeled time from the injected
     * clock (the scripted test backends advance a ManualClock here).
     */
    virtual RecvStatus receive(ShardFrame &frame,
                               double maxWaitSeconds) = 0;

    /** Hard-kills the worker and releases the transport. */
    virtual void terminate() = 0;
};

/** Creates the backend for shard slot `index`; called again for each
 *  respawn of that slot. */
using ShardBackendFactory =
    std::function<std::unique_ptr<ShardBackend>(std::size_t index)>;

/**
 * Sharding configuration.
 */
struct ShardedOptions
{
    /** Worker slots to fan out over (>= 1). */
    std::size_t shards = 2;
    /** Per-request deadline: a shard silent this long after a request
     *  (or handshake) is declared hung and failed. */
    double requestDeadlineSeconds = 30.0;
    /** An idle backend unused for this long is heartbeat-pinged
     *  before reuse; 0 pings before every batch. */
    double heartbeatSeconds = 5.0;
    /** Deadline on the heartbeat pong itself. */
    double heartbeatTimeoutSeconds = 5.0;
    /** First respawn delay after a slot failure (> 0). */
    double backoffBaseSeconds = 0.25;
    /** Respawn delay multiplier per consecutive failure (>= 1). */
    double backoffFactor = 2.0;
    /** Upper bound on the respawn delay. */
    double backoffCapSeconds = 8.0;
    /** Consecutive failures of one slot before it is quarantined
     *  (>= 1; successes reset the count). */
    std::uint32_t quarantineThreshold = 3;
    /** Expected worker identity: protocol version, configuration
     *  fingerprint, topology and task count. A Hello that does not
     *  match fails the shard at handshake. */
    ShardHello expected;
    /** Clock driving deadlines, heartbeats and backoff; required. */
    base::Clock *clock = nullptr;

    /** Fraction of indices audit-duplicated to a second backend
     *  (0 disables auditing; needs >= 2 live slots to take effect).
     *  Purely operational: the audited run's results are
     *  bit-identical to an unaudited one. */
    double auditFraction = 0.0;
    /** Seed of the audit selection function (use the campaign seed so
     *  the audited index set is reproducible). */
    std::uint64_t auditSeed = 0;

    /** Health aggregate receiving shard transitions (quarantine,
     *  full degradation); optional, not owned. */
    Health *health = nullptr;
};

/**
 * PerformanceEngine decorator fanning batches out to shard workers;
 * see the file comment for the contract.
 */
class ShardedEngine : public EngineDecorator
{
  public:
    /**
     * @param inner   In-process fallback engine (not owned). Serves
     *                degraded batches and must therefore measure
     *                bit-identically to the workers (same workload,
     *                same noise/fault configuration).
     * @param factory Creates shard backends, per slot and respawn.
     * @param options Fan-out, deadline, backoff and identity config.
     */
    ShardedEngine(PerformanceEngine &inner,
                  ShardBackendFactory factory,
                  const ShardedOptions &options);

    ~ShardedEngine() override;

    /** Publishes no kernels: fan-out happens at batch granularity. */
    void
    measureBatchOutcome(std::span<const Assignment> batch,
                        std::span<MeasurementOutcome> out) override;

    /** Advances the global cursor without measuring (journal replay);
     *  workers and the inner engine fast-forward lazily. */
    void reserveMeasurementIndices(std::size_t count) override;

    /** Contributes the shard health counters, then forwards to the
     *  inner engine. Worker-side solver counters are out of process
     *  and therefore invisible here. */
    void collectStats(EngineStats &stats) const override;

    /** Sends Shutdown to live workers and releases every backend;
     *  called by the destructor, idempotent. */
    void shutdownWorkers();

    /** @return slots currently holding a live backend. */
    std::size_t liveShardCount() const;

    /** @return slots quarantined for repeated failure. */
    std::size_t quarantinedShardCount() const;

    /** @return true once every slot is quarantined (all batches now
     *  serve in-process). */
    bool fullyDegraded() const;

    /**
     * Chaos hook for tests and benchmarks: hard-kills slot `index`'s
     * transport WITHOUT marking the slot failed — exactly what an
     * external SIGKILL looks like. The engine discovers the death
     * through its normal detection paths on next use.
     */
    void disruptShard(std::size_t index);

  private:
    struct Slot
    {
        /** Position in slots_, passed to the backend factory. */
        std::size_t index = 0;
        std::unique_ptr<ShardBackend> backend;
        bool quarantined = false;
        /** True once this slot ever held a started backend, so later
         *  spawns count as respawns. */
        bool spawnedOnce = false;
        /** Consecutive failures; reset by any served request. */
        std::uint32_t failures = 0;
        /** Lifetime audit convictions. Protocol successes do NOT
         *  reset these — a Byzantine worker completes every exchange
         *  flawlessly — so repeat offenders climb the quarantine
         *  ladder anyway. */
        std::uint32_t convictions = 0;
        /** Respawn gate: no spawn attempt before this clock time. */
        double earliestRespawn = 0.0;
        /** Next respawn delay (capped exponential). */
        double respawnDelay = 0.0;
        /** Clock time of the last successful exchange. */
        double lastContact = 0.0;
        /** Batch indices assigned and not yet resolved. */
        std::vector<std::size_t> pending;
        /** Batch indices this slot re-measures as an auditor (same
         *  request group as `pending`, after it). */
        std::vector<std::size_t> audits;
        /** Request id awaiting a response; 0 = none in flight. */
        std::uint32_t inflight = 0;
    };

    /** Per-batch audit bookkeeping, indexed by batch position. */
    struct AuditBook
    {
        enum State : std::uint8_t
        {
            None = 0, //!< not selected / auditor died before replying
            Pending,  //!< issued to an auditor, reply outstanding
            Have,     //!< duplicate outcome received, not yet compared
            Done,     //!< compared (or arbitrated); never re-audited
        };
        std::vector<std::uint8_t> state;
        std::vector<MeasurementOutcome> outcome;
        /** Slot index of the auditor (valid when state != None). */
        std::vector<std::size_t> auditor;
        /** Slot index that resolved the primary result. */
        std::vector<std::size_t> primary;

        void
        reset(std::size_t batchSize)
        {
            state.assign(batchSize, None);
            outcome.assign(batchSize, MeasurementOutcome{});
            auditor.assign(batchSize, kNoSlot);
            primary.assign(batchSize, kNoSlot);
        }

        static constexpr std::size_t kNoSlot =
            static_cast<std::size_t>(-1);
    };

    /** Tears down the slot's backend and records the failure:
     *  failure counters, respawn backoff gate, quarantine. */
    void failSlot(Slot &slot) SCHED_REQUIRES(mutex_);

    /** Ensures the slot has a started, handshaken, fresh-enough
     *  backend; respects the respawn gate. @return true when live. */
    bool ensureLive(Slot &slot) SCHED_REQUIRES(mutex_);

    /**
     * Receives the slot's next frame within `timeoutSeconds`.
     * @return false on timeout, closed/corrupt transport, or a
     *         backend that reports Timeout without consuming clock
     *         time (a wait that cannot make progress).
     */
    bool awaitFrame(Slot &slot, ShardFrame &frame,
                    double timeoutSeconds) SCHED_REQUIRES(mutex_);

    /** Receives and validates the worker Hello. */
    bool handshake(Slot &slot) SCHED_REQUIRES(mutex_);

    /** Heartbeat ping over an idle backend. */
    bool ping(Slot &slot) SCHED_REQUIRES(mutex_);

    /** Sends the slot's pending + audit items as one request group. */
    bool sendRequest(Slot &slot,
                     std::span<const Assignment> batch,
                     std::uint64_t base, std::size_t batchSize)
        SCHED_REQUIRES(mutex_);

    /** Awaits the slot's response group, fills `out` for primary
     *  items and `audit` for duplicated ones. */
    bool awaitResponse(Slot &slot,
                       std::span<MeasurementOutcome> out,
                       std::vector<bool> &resolved, AuditBook &audit)
        SCHED_REQUIRES(mutex_);

    /** Drops a failed slot's outstanding audit duplicates back to
     *  None so a later round may re-audit the index. */
    void resetSlotAudits(Slot &slot, AuditBook &audit)
        SCHED_REQUIRES(mutex_);

    /**
     * Compares every received audit duplicate against its primary
     * result; on a value-bits mismatch arbitrates via the in-process
     * ground truth, convicts the corrupt slot(s), discards their
     * unaudited primaries into `work` for re-issue, and fails them
     * through the normal ladder.
     */
    void arbitrateAudits(std::span<const Assignment> batch,
                         std::span<MeasurementOutcome> out,
                         std::vector<bool> &resolved,
                         AuditBook &audit,
                         std::vector<std::size_t> &work,
                         std::uint64_t base) SCHED_REQUIRES(mutex_);

    /** Materializes the inner engine's kernel for the window
     *  [base, base + batchSize), fast-forwarding it first; shared by
     *  serveLocally() and audit arbitration so the window is reserved
     *  exactly once per batch. */
    void ensureLocalKernel(std::uint64_t base, std::size_t batchSize)
        SCHED_REQUIRES(mutex_);

    /** In-process ground truth for batch position `i` of the current
     *  window — bit-identical to what an honest worker returns. */
    MeasurementOutcome localOutcome(const Assignment &assignment,
                                    std::size_t i, std::uint64_t base,
                                    std::size_t batchSize)
        SCHED_REQUIRES(mutex_);

    /** Fast-forwards the inner engine to `base` and measures the
     *  still-unresolved indices in-process. */
    void serveLocally(std::span<const Assignment> batch,
                      std::span<MeasurementOutcome> out,
                      const std::vector<bool> &resolved,
                      std::uint64_t base) SCHED_REQUIRES(mutex_);

    /** quarantinedShardCount() body, for callers already locked. */
    std::size_t quarantinedShardCountLocked() const
        SCHED_REQUIRES(mutex_);

    const ShardBackendFactory factory_;
    const ShardedOptions options_;

    /**
     * One lock serializes the whole coordinator. The upper stack
     * already takes the batch path single-file, but that was an
     * unchecked convention; now concurrent callers are merely slow
     * instead of corrupting slot state, and the compile-time analysis
     * proves every helper runs under the lock.
     */
    mutable base::Mutex mutex_{"core::ShardedEngine::mutex_"};

    std::vector<Slot> slots_ SCHED_GUARDED_BY(mutex_);
    /** Global measurement cursor: next unassigned index. */
    std::uint64_t cursor_ SCHED_GUARDED_BY(mutex_) = 0;
    /** Indices already consumed on the inner engine. */
    std::uint64_t innerConsumed_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint32_t nextReqId_ SCHED_GUARDED_BY(mutex_) = 1;
    std::uint32_t nextNonce_ SCHED_GUARDED_BY(mutex_) = 1;

    /** Inner-engine kernel for the current batch window; valid only
     *  while localKernelReady_ (reset at every batch entry). */
    OutcomeKernel localKernel_ SCHED_GUARDED_BY(mutex_);
    bool localKernelReady_ SCHED_GUARDED_BY(mutex_) = false;

    // Health counters, under the same lock as the slots they count.
    std::uint64_t shardedMeasurements_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardFailures_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardReissues_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardRespawns_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardsQuarantined_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t degradedBatches_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardAudits_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardAuditMismatches_ SCHED_GUARDED_BY(mutex_) = 0;
    std::uint64_t shardConvictions_ SCHED_GUARDED_BY(mutex_) = 0;
};

/**
 * @return a factory spawning `argv` as a subprocess per shard slot
 *         (the statsched_worker binary plus its engine flags) and
 *         speaking the pipe protocol over its stdin/stdout.
 * @param clock Clock the pipe backend's receive deadlines read; must
 *              outlive every backend (use the campaign clock).
 * @param sendStallSeconds Bound on a send that makes no progress — a
 *              frozen (SIGSTOPped) worker stops draining its stdin,
 *              and without this bound the coordinator would block
 *              forever in write() once the pipe fills. Pair it with
 *              ShardedOptions::requestDeadlineSeconds.
 */
ShardBackendFactory
makeProcessShardFactory(std::vector<std::string> argv,
                        base::Clock &clock,
                        double sendStallSeconds = 30.0);

/**
 * Per-slot variant: `argvForSlot(index)` builds the command line for
 * each slot (and respawn of it). The chaos harness uses this to give
 * ONE slot a corrupting worker while the rest stay honest.
 */
ShardBackendFactory
makeProcessShardFactory(
    std::function<std::vector<std::string>(std::size_t)> argvForSlot,
    base::Clock &clock, double sendStallSeconds = 30.0);

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_SHARDED_ENGINE_HH
