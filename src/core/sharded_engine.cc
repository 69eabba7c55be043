/**
 * @file
 * ShardedEngine implementation: fan-out, failure detection, re-issue,
 * backoff/quarantine, and the subprocess pipe backend.
 */

#include "core/sharded_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "base/check.hh"
#include "base/clock.hh"
#include "base/logging.hh"
#include "base/subprocess.hh"
#include "core/assignment.hh"
#include "core/health.hh"

namespace statsched
{
namespace core
{

namespace
{

/**
 * Deterministic audit selection: a splitmix64-style finalizer over
 * the GLOBAL measurement index, so the audited index set is a pure
 * function of (seed, fraction) — bit-identical at any shard count and
 * across re-issue rounds.
 */
bool
auditSelected(std::uint64_t seed, double fraction,
              std::uint64_t globalIndex)
{
    if (fraction <= 0.0)
        return false;
    if (fraction >= 1.0)
        return true;
    std::uint64_t x =
        globalIndex + 0x9e3779b97f4a7c15ULL * (seed + 1);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
}

/**
 * Exact-bits outcome equality. Measurement is deterministic, so an
 * honest duplicate matches in every bit; comparing through the bit
 * pattern (not operator==) also catches NaN-for-NaN substitutions.
 */
bool
outcomeBitsEqual(const MeasurementOutcome &a,
                 const MeasurementOutcome &b)
{
    std::uint64_t ab = 0;
    std::uint64_t bb = 0;
    std::memcpy(&ab, &a.value, sizeof ab);
    std::memcpy(&bb, &b.value, sizeof bb);
    return ab == bb && a.status == b.status &&
           a.attempts == b.attempts;
}

void
addConvicted(std::vector<std::size_t> &convicted, std::size_t slot)
{
    if (std::find(convicted.begin(), convicted.end(), slot) ==
        convicted.end())
        convicted.push_back(slot);
}

} // anonymous namespace

ShardedEngine::ShardedEngine(PerformanceEngine &inner,
                             ShardBackendFactory factory,
                             const ShardedOptions &options)
    : EngineDecorator(inner), factory_(std::move(factory)),
      options_(options)
{
    SCHED_REQUIRE(options_.clock != nullptr,
                  "sharded engine needs a clock");
    SCHED_REQUIRE(options_.shards >= 1,
                  "sharded engine needs at least one shard slot");
    SCHED_REQUIRE(static_cast<bool>(factory_),
                  "sharded engine needs a backend factory");
    SCHED_REQUIRE(options_.requestDeadlineSeconds > 0.0,
                  "request deadline must be positive");
    SCHED_REQUIRE(options_.heartbeatTimeoutSeconds > 0.0,
                  "heartbeat timeout must be positive");
    SCHED_REQUIRE(options_.backoffBaseSeconds > 0.0,
                  "respawn backoff base must be positive");
    SCHED_REQUIRE(options_.backoffFactor >= 1.0,
                  "respawn backoff factor must be >= 1");
    SCHED_REQUIRE(
        options_.backoffCapSeconds >= options_.backoffBaseSeconds,
        "respawn backoff cap below its base");
    SCHED_REQUIRE(options_.quarantineThreshold >= 1,
                  "quarantine threshold must be >= 1");
    base::MutexLock lock(mutex_);
    slots_.resize(options_.shards);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        slots_[s].index = s;
}

ShardedEngine::~ShardedEngine() { shutdownWorkers(); }

void
ShardedEngine::reserveMeasurementIndices(std::size_t count)
{
    // Journal replay path: advance the global cursor only. Workers
    // fast-forward on their first fresh request, and the inner engine
    // fast-forwards when (if ever) a degraded batch needs it.
    base::MutexLock lock(mutex_);
    cursor_ += count;
}

void
ShardedEngine::measureBatchOutcome(std::span<const Assignment> batch,
                                   std::span<MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    const std::size_t batchSize = batch.size();
    if (batchSize == 0)
        return;
    // The lock spans the whole fan-out round: slot state, the cursor
    // and the re-issue bookkeeping form one atomic coordination step.
    base::MutexLock lock(mutex_);
    const std::uint64_t base = cursor_;
    cursor_ += batchSize;
    localKernel_ = nullptr;
    localKernelReady_ = false;

    std::vector<bool> resolved(batchSize, false);
    std::vector<std::size_t> work(batchSize);
    std::iota(work.begin(), work.end(), std::size_t{0});
    AuditBook audit;
    audit.reset(batchSize);

    while (!work.empty()) {
        std::vector<Slot *> live;
        live.reserve(slots_.size());
        for (Slot &slot : slots_) {
            if (ensureLive(slot))
                live.push_back(&slot);
        }
        if (live.empty())
            break; // every slot down or gated: serve in-process

        // Contiguous partition of the remaining work across the live
        // slots. (The split affects only WHO computes an item, never
        // its value, so any partition is bit-identical.)
        const std::size_t per =
            (work.size() + live.size() - 1) / live.size();
        std::size_t offset = 0;
        for (Slot *slot : live) {
            slot->pending.clear();
            slot->audits.clear();
            slot->inflight = 0;
            const std::size_t n =
                std::min(per, work.size() - offset);
            slot->pending.assign(work.begin() + offset,
                                 work.begin() + offset + n);
            offset += n;
        }
        work.clear();

        // Audit assignment: each selected index is duplicated to the
        // NEXT live slot, so the duplicate always comes from a
        // different backend. Needs two live slots — with one there is
        // nobody independent to ask.
        if (options_.auditFraction > 0.0 && live.size() >= 2) {
            for (std::size_t s = 0; s < live.size(); ++s) {
                for (const std::size_t idx : live[s]->pending) {
                    if (audit.state[idx] != AuditBook::None)
                        continue;
                    if (!auditSelected(options_.auditSeed,
                                       options_.auditFraction,
                                       base + idx))
                        continue;
                    Slot *auditor = live[(s + 1) % live.size()];
                    auditor->audits.push_back(idx);
                    audit.state[idx] = AuditBook::Pending;
                    audit.auditor[idx] = auditor->index;
                    ++shardAudits_;
                }
            }
        }

        // Send every slot its request group first, then collect the
        // responses: the shards compute their partitions in parallel.
        for (Slot *slot : live) {
            if (slot->pending.empty() && slot->audits.empty())
                continue;
            if (!sendRequest(*slot, batch, base, batchSize)) {
                shardReissues_ += slot->pending.size();
                work.insert(work.end(), slot->pending.begin(),
                            slot->pending.end());
                slot->pending.clear();
                resetSlotAudits(*slot, audit);
                failSlot(*slot);
            }
        }
        for (Slot *slot : live) {
            if (slot->inflight == 0)
                continue;
            if (awaitResponse(*slot, out, resolved, audit)) {
                slot->failures = 0;
                slot->respawnDelay = 0.0;
                slot->lastContact = options_.clock->nowSeconds();
            } else {
                for (const std::size_t idx : slot->pending) {
                    if (!resolved[idx]) {
                        ++shardReissues_;
                        work.push_back(idx);
                    }
                }
                resetSlotAudits(*slot, audit);
                failSlot(*slot);
            }
            slot->pending.clear();
            slot->audits.clear();
            slot->inflight = 0;
        }

        // Compare the duplicates that arrived this round; a mismatch
        // convicts the corrupt backend and pushes its discarded
        // results back into `work` for re-issue to the survivors.
        arbitrateAudits(batch, out, resolved, audit, work, base);
        // Re-issued work loops back to the survivors (or to a slot
        // whose respawn gate has opened); when nothing is live the
        // loop exits to the in-process fallback below.
    }

    bool complete = true;
    for (std::size_t i = 0; i < batchSize; ++i) {
        if (!resolved[i]) {
            complete = false;
            break;
        }
    }
    if (!complete) {
        ++degradedBatches_;
        serveLocally(batch, out, resolved, base);
    }
}

bool
ShardedEngine::ensureLive(Slot &slot)
{
    if (slot.quarantined)
        return false;
    const double now = options_.clock->nowSeconds();
    if (slot.backend) {
        // Heartbeat an idle backend before trusting it with work, so
        // a worker that died between batches fails here instead of
        // after a full request deadline.
        if (now - slot.lastContact >= options_.heartbeatSeconds) {
            if (!ping(slot)) {
                failSlot(slot);
                return false;
            }
        }
        return true;
    }
    if (now < slot.earliestRespawn)
        return false; // backoff gate still closed

    std::unique_ptr<ShardBackend> backend = factory_(slot.index);
    std::string error;
    if (!backend || !backend->start(error)) {
        failSlot(slot);
        return false;
    }
    slot.backend = std::move(backend);
    if (slot.spawnedOnce)
        ++shardRespawns_;
    slot.spawnedOnce = true;
    if (!handshake(slot)) {
        failSlot(slot);
        return false;
    }
    return true;
}

bool
ShardedEngine::awaitFrame(Slot &slot, ShardFrame &frame,
                          double timeoutSeconds)
{
    const double deadline =
        options_.clock->nowSeconds() + timeoutSeconds;
    while (true) {
        const double now = options_.clock->nowSeconds();
        if (now >= deadline)
            return false;
        const ShardBackend::RecvStatus status =
            slot.backend->receive(frame, deadline - now);
        switch (status) {
          case ShardBackend::RecvStatus::Frame:
            return true;
          case ShardBackend::RecvStatus::Timeout:
            // A Timeout that consumed no clock time can never make
            // progress (a scripted backend under a ManualClock);
            // treat it as the deadline expiring instead of spinning.
            if (options_.clock->nowSeconds() <= now)
                return false;
            break;
          case ShardBackend::RecvStatus::Closed:
          case ShardBackend::RecvStatus::Corrupt:
            return false;
        }
    }
}

bool
ShardedEngine::handshake(Slot &slot)
{
    ShardFrame frame;
    if (!awaitFrame(slot, frame, options_.requestDeadlineSeconds))
        return false;
    ShardHello hello;
    if (!decodeHello(frame, hello))
        return false;
    const ShardHello &want = options_.expected;
    if (hello.version != want.version ||
        hello.configHash != want.configHash ||
        hello.cores != want.cores ||
        hello.pipesPerCore != want.pipesPerCore ||
        hello.strandsPerPipe != want.strandsPerPipe ||
        hello.tasks != want.tasks)
        return false; // misconfigured worker: never trust its values
    slot.lastContact = options_.clock->nowSeconds();
    return true;
}

bool
ShardedEngine::ping(Slot &slot)
{
    const std::uint32_t nonce = nextNonce_++;
    std::vector<std::uint8_t> bytes;
    appendPing(bytes, nonce);
    if (!slot.backend->send(bytes.data(), bytes.size()))
        return false;
    ShardFrame frame;
    if (!awaitFrame(slot, frame, options_.heartbeatTimeoutSeconds))
        return false;
    std::uint32_t echoed = 0;
    if (frame.type != static_cast<std::uint8_t>(ShardMsg::Pong) ||
        !decodePingPong(frame, echoed) || echoed != nonce)
        return false;
    slot.lastContact = options_.clock->nowSeconds();
    return true;
}

bool
ShardedEngine::sendRequest(Slot &slot,
                           std::span<const Assignment> batch,
                           std::uint64_t base, std::size_t batchSize)
{
    ShardEvalRequest request;
    request.reqId = nextReqId_++;
    request.cursorBase = base;
    request.batchSize = static_cast<std::uint32_t>(batchSize);
    request.itemCount = static_cast<std::uint32_t>(
        slot.pending.size() + slot.audits.size());

    std::vector<std::uint8_t> bytes;
    appendEvalRequest(bytes, request);
    for (const std::size_t idx : slot.pending) {
        ShardEvalItem item;
        item.localIndex = static_cast<std::uint32_t>(idx);
        item.contexts = batch[idx].contexts();
        appendEvalItem(bytes, item);
    }
    // Audit duplicates ride the same request group: the worker serves
    // them from the same aligned kernel window, so an honest
    // duplicate is bit-identical to the primary by construction.
    for (const std::size_t idx : slot.audits) {
        ShardEvalItem item;
        item.localIndex = static_cast<std::uint32_t>(idx);
        item.contexts = batch[idx].contexts();
        appendEvalItem(bytes, item);
    }
    if (!slot.backend->send(bytes.data(), bytes.size()))
        return false;
    slot.inflight = request.reqId;
    return true;
}

bool
ShardedEngine::awaitResponse(Slot &slot,
                             std::span<MeasurementOutcome> out,
                             std::vector<bool> &resolved,
                             AuditBook &audit)
{
    // Which batch positions this slot owes us: bit 0 = primary
    // result, bit 1 = audit duplicate. An index is never both for
    // the same slot (the auditor is always a different backend).
    std::vector<std::uint8_t> owed(out.size(), 0);
    for (const std::size_t idx : slot.pending)
        owed[idx] |= 1;
    for (const std::size_t idx : slot.audits)
        owed[idx] |= 2;

    ShardFrame frame;
    if (!awaitFrame(slot, frame, options_.requestDeadlineSeconds))
        return false;
    ShardEvalResponse response;
    if (!decodeEvalResponse(frame, response) ||
        response.reqId != slot.inflight ||
        response.itemCount !=
            slot.pending.size() + slot.audits.size())
        return false;

    for (std::uint32_t i = 0; i < response.itemCount; ++i) {
        if (!awaitFrame(slot, frame,
                        options_.requestDeadlineSeconds))
            return false;
        ShardEvalOutcome outcome;
        if (!decodeEvalOutcome(frame, outcome))
            return false;
        const std::size_t idx = outcome.localIndex;
        if (idx >= out.size())
            return false; // an outcome we never asked for
        if ((owed[idx] & 1) != 0 && !resolved[idx]) {
            out[idx] = outcome.outcome;
            resolved[idx] = true;
            audit.primary[idx] = slot.index;
            ++shardedMeasurements_;
            owed[idx] &= static_cast<std::uint8_t>(~1);
        } else if ((owed[idx] & 2) != 0 &&
                   audit.state[idx] == AuditBook::Pending) {
            audit.outcome[idx] = outcome.outcome;
            audit.state[idx] = AuditBook::Have;
            owed[idx] &= static_cast<std::uint8_t>(~2);
        } else {
            return false; // an outcome we never asked for
        }
    }
    return true;
}

void
ShardedEngine::resetSlotAudits(Slot &slot, AuditBook &audit)
{
    // The duplicate never arrived (or can no longer be trusted):
    // return the index to None so a later round may re-select it.
    for (const std::size_t idx : slot.audits) {
        if (audit.state[idx] == AuditBook::Pending &&
            audit.auditor[idx] == slot.index) {
            audit.state[idx] = AuditBook::None;
            audit.auditor[idx] = AuditBook::kNoSlot;
        }
    }
    slot.audits.clear();
}

void
ShardedEngine::arbitrateAudits(std::span<const Assignment> batch,
                               std::span<MeasurementOutcome> out,
                               std::vector<bool> &resolved,
                               AuditBook &audit,
                               std::vector<std::size_t> &work,
                               std::uint64_t base)
{
    const std::size_t batchSize = batch.size();
    std::vector<std::size_t> convicted;
    std::vector<std::uint8_t> arbitrated(batchSize, 0);

    for (std::size_t idx = 0; idx < batchSize; ++idx) {
        if (audit.state[idx] != AuditBook::Have || !resolved[idx])
            continue; // duplicate without a primary: keep for later
        if (audit.primary[idx] == audit.auditor[idx]) {
            // A re-issue landed the primary on its own auditor —
            // self-agreement carries no information.
            audit.state[idx] = AuditBook::Done;
            continue;
        }
        if (outcomeBitsEqual(out[idx], audit.outcome[idx])) {
            audit.state[idx] = AuditBook::Done;
            continue;
        }
        // Two backends disagree on a deterministic value: at least
        // one is corrupt. The in-process engine is the trusted
        // arbiter — convict whichever side(s) disagree with it.
        ++shardAuditMismatches_;
        const MeasurementOutcome truth =
            localOutcome(batch[idx], idx, base, batchSize);
        const bool primaryLied = !outcomeBitsEqual(out[idx], truth);
        const bool auditorLied =
            !outcomeBitsEqual(audit.outcome[idx], truth);
        warn(
            "core: audit mismatch at measurement index " +
            std::to_string(base + idx) + " between shard slot " +
            std::to_string(audit.primary[idx]) + " and slot " +
            std::to_string(audit.auditor[idx]));
        out[idx] = truth;
        arbitrated[idx] = 1;
        audit.state[idx] = AuditBook::Done;
        if (primaryLied)
            addConvicted(convicted, audit.primary[idx]);
        if (auditorLied)
            addConvicted(convicted, audit.auditor[idx]);
    }
    if (convicted.empty())
        return;

    for (const std::size_t slotIndex : convicted) {
        Slot &offender = slots_[slotIndex];
        ++shardConvictions_;
        ++offender.convictions;
        // The ladder position is the conviction count: the served
        // request that delivered the corrupt values reset `failures`
        // to zero, but corruption is not forgiven by protocol-level
        // success, so a persistent corruptor still reaches
        // quarantine after quarantineThreshold convictions.
        offender.failures = offender.convictions - 1;
        warn("core: shard slot " + std::to_string(slotIndex) +
             " convicted of value corruption; discarding its "
             "results and failing the slot");
        if (options_.health != nullptr)
            options_.health->transition(
                "shards", HealthLevel::Degraded,
                "shard slot " + std::to_string(slotIndex) +
                    " convicted of value corruption (conviction " +
                    std::to_string(offender.convictions) + ")");
        // Every primary the offender returned this batch is suspect
        // unless ground truth replaced it (arbitrated) or an
        // independent, unconvicted auditor confirmed it bit-for-bit.
        for (std::size_t idx = 0; idx < batchSize; ++idx) {
            if (!resolved[idx] || audit.primary[idx] != slotIndex ||
                arbitrated[idx] != 0)
                continue;
            const bool confirmed =
                audit.state[idx] == AuditBook::Done &&
                audit.auditor[idx] != AuditBook::kNoSlot &&
                audit.auditor[idx] != slotIndex &&
                std::find(convicted.begin(), convicted.end(),
                          audit.auditor[idx]) == convicted.end();
            if (confirmed)
                continue;
            resolved[idx] = false;
            audit.primary[idx] = AuditBook::kNoSlot;
            ++shardReissues_;
            work.push_back(idx);
        }
        // Duplicates the offender produced are equally worthless.
        for (std::size_t idx = 0; idx < batchSize; ++idx) {
            if (audit.auditor[idx] == slotIndex &&
                (audit.state[idx] == AuditBook::Pending ||
                 audit.state[idx] == AuditBook::Have)) {
                audit.state[idx] = AuditBook::None;
                audit.auditor[idx] = AuditBook::kNoSlot;
            }
        }
        offender.pending.clear();
        offender.audits.clear();
        failSlot(offender);
    }
}

void
ShardedEngine::ensureLocalKernel(std::uint64_t base,
                                 std::size_t batchSize)
{
    if (localKernelReady_)
        return;
    SCHED_REQUIRE(innerConsumed_ <= base,
                  "inner engine ran ahead of the shard cursor");
    inner_.reserveMeasurementIndices(
        static_cast<std::size_t>(base - innerConsumed_));
    innerConsumed_ = base + batchSize;
    localKernel_ = inner_.outcomeKernel(batchSize);
    localKernelReady_ = true;
}

MeasurementOutcome
ShardedEngine::localOutcome(const Assignment &assignment,
                            std::size_t i, std::uint64_t base,
                            std::size_t batchSize)
{
    ensureLocalKernel(base, batchSize);
    if (localKernel_)
        return localKernel_(assignment, i);
    // A kernel-less inner stack measures the hole directly; only a
    // kernel pins an item to its original index.
    return inner_.measureOutcome(assignment);
}

void
ShardedEngine::serveLocally(std::span<const Assignment> batch,
                            std::span<MeasurementOutcome> out,
                            const std::vector<bool> &resolved,
                            std::uint64_t base)
{
    const std::size_t batchSize = batch.size();
    bool anyResolved = false;
    for (std::size_t i = 0; i < batchSize; ++i) {
        if (resolved[i]) {
            anyResolved = true;
            break;
        }
    }
    if (!anyResolved && !localKernelReady_) {
        // Whole batch and the window is still unreserved: take the
        // inner batch path (a ParallelEngine below fans it out
        // across threads).
        SCHED_REQUIRE(innerConsumed_ <= base,
                      "inner engine ran ahead of the shard cursor");
        inner_.reserveMeasurementIndices(
            static_cast<std::size_t>(base - innerConsumed_));
        innerConsumed_ = base + batchSize;
        inner_.measureBatchOutcome(batch, out);
        return;
    }
    // Serve the holes at their original indices from the shared
    // window kernel (audit arbitration may have materialized it
    // already — the window is reserved exactly once per batch) —
    // bit-identical to what the shards would have produced.
    for (std::size_t i = 0; i < batchSize; ++i) {
        if (!resolved[i])
            out[i] = localOutcome(batch[i], i, base, batchSize);
    }
}

void
ShardedEngine::failSlot(Slot &slot)
{
    if (slot.backend) {
        slot.backend->terminate();
        slot.backend.reset();
    }
    ++shardFailures_;
    ++slot.failures;
    slot.respawnDelay = slot.respawnDelay == 0.0
        ? options_.backoffBaseSeconds
        : std::min(slot.respawnDelay * options_.backoffFactor,
                   options_.backoffCapSeconds);
    slot.earliestRespawn =
        options_.clock->nowSeconds() + slot.respawnDelay;
    if (!slot.quarantined &&
        slot.failures >= options_.quarantineThreshold) {
        slot.quarantined = true;
        ++shardsQuarantined_;
        if (options_.health != nullptr) {
            options_.health->transition(
                "shards", HealthLevel::Degraded,
                "shard slot " + std::to_string(slot.index) +
                    " quarantined after " +
                    std::to_string(slot.failures) +
                    " consecutive failures");
            if (quarantinedShardCountLocked() == slots_.size())
                options_.health->transition(
                    "shards", HealthLevel::Failing,
                    "all " + std::to_string(slots_.size()) +
                        " shard slots quarantined; measuring "
                        "in-process");
        }
    }
}

void
ShardedEngine::shutdownWorkers()
{
    base::MutexLock lock(mutex_);
    std::vector<std::uint8_t> bytes;
    appendShutdown(bytes);
    for (Slot &slot : slots_) {
        if (!slot.backend)
            continue;
        // Best-effort polite stop, then an unconditional reap.
        slot.backend->send(bytes.data(), bytes.size());
        slot.backend->terminate();
        slot.backend.reset();
    }
}

std::size_t
ShardedEngine::liveShardCount() const
{
    base::MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.backend ? 1 : 0;
    return n;
}

std::size_t
ShardedEngine::quarantinedShardCountLocked() const
{
    std::size_t n = 0;
    for (const Slot &slot : slots_)
        n += slot.quarantined ? 1 : 0;
    return n;
}

std::size_t
ShardedEngine::quarantinedShardCount() const
{
    base::MutexLock lock(mutex_);
    return quarantinedShardCountLocked();
}

bool
ShardedEngine::fullyDegraded() const
{
    base::MutexLock lock(mutex_);
    return quarantinedShardCountLocked() == slots_.size();
}

void
ShardedEngine::disruptShard(std::size_t index)
{
    base::MutexLock lock(mutex_);
    SCHED_REQUIRE(index < slots_.size(), "shard index out of range");
    if (slots_[index].backend)
        slots_[index].backend->terminate();
    // The slot still believes the backend is live; the death is
    // discovered by heartbeat or request failure, like any external
    // SIGKILL.
}

void
ShardedEngine::collectStats(EngineStats &stats) const
{
    {
        base::MutexLock lock(mutex_);
        stats.shardedMeasurements += shardedMeasurements_;
        stats.shardFailures += shardFailures_;
        stats.shardReissues += shardReissues_;
        stats.shardRespawns += shardRespawns_;
        stats.shardsQuarantined += shardsQuarantined_;
        stats.shardDegradedBatches += degradedBatches_;
        stats.shardAudits += shardAudits_;
        stats.shardAuditMismatches += shardAuditMismatches_;
        stats.shardConvictions += shardConvictions_;
    }
    inner_.collectStats(stats);
}

// --- Subprocess pipe backend ------------------------------------

namespace
{

/**
 * ShardBackend over a statsched_worker subprocess: frames flow over
 * the child's stdin/stdout pipes (base::Subprocess), and receive
 * deadlines read the injected clock in bounded poll slices so a
 * Ctrl-C (EINTR) never wedges the coordinator.
 */
class ProcessShardBackend : public ShardBackend
{
  public:
    ProcessShardBackend(std::vector<std::string> argv,
                        base::Clock &clock, double sendStallSeconds)
        : argv_(std::move(argv)), clock_(clock),
          sendStallMs_(static_cast<int>(std::max(
              1.0, std::ceil(sendStallSeconds * 1000.0))))
    {
    }

    bool
    start(std::string &error) override
    {
        return process_.spawn(argv_, error);
    }

    bool
    send(const std::uint8_t *data, std::size_t size) override
    {
        // Stall-bounded: a frozen (SIGSTOPped) worker stops draining
        // its stdin, and an unbounded write would wedge the whole
        // coordinator once the pipe buffer fills — the send-side twin
        // of the receive deadline. A stalled send surfaces as a slot
        // failure and the batch is re-issued.
        return process_.writeAll(data, size, sendStallMs_);
    }

    RecvStatus
    receive(ShardFrame &frame, double maxWaitSeconds) override
    {
        if (parser_.corrupt())
            return RecvStatus::Corrupt;
        if (parser_.next(frame))
            return RecvStatus::Frame;
        const double deadline =
            clock_.nowSeconds() + maxWaitSeconds;
        while (true) {
            const double remaining =
                deadline - clock_.nowSeconds();
            if (remaining <= 0.0)
                return RecvStatus::Timeout;
            // Poll in <= 1 s slices: an EINTR or a short read never
            // extends the wait past the caller's deadline.
            const int waitMs = static_cast<int>(std::min(
                1000.0, std::ceil(remaining * 1000.0)));
            std::uint8_t buffer[4096];
            const base::Subprocess::ReadResult result =
                process_.read(buffer, sizeof buffer,
                              std::max(1, waitMs));
            switch (result.status) {
              case base::Subprocess::ReadStatus::Data:
                parser_.feed(buffer, result.bytes);
                if (parser_.corrupt())
                    return RecvStatus::Corrupt;
                if (parser_.next(frame))
                    return RecvStatus::Frame;
                break; // partial frame: keep reading
              case base::Subprocess::ReadStatus::Timeout:
              case base::Subprocess::ReadStatus::Interrupted:
                break; // the deadline check governs
              case base::Subprocess::ReadStatus::Eof:
              case base::Subprocess::ReadStatus::Error:
                return RecvStatus::Closed;
            }
        }
    }

    void
    terminate() override
    {
        process_.kill();
        process_.wait();
    }

  private:
    std::vector<std::string> argv_;
    base::Clock &clock_;
    const int sendStallMs_;
    base::Subprocess process_;
    ShardFrameParser parser_;
};

} // anonymous namespace

ShardBackendFactory
makeProcessShardFactory(std::vector<std::string> argv,
                        base::Clock &clock, double sendStallSeconds)
{
    return [argv, &clock, sendStallSeconds](std::size_t) {
        return std::unique_ptr<ShardBackend>(
            new ProcessShardBackend(argv, clock,
                                    sendStallSeconds));
    };
}

ShardBackendFactory
makeProcessShardFactory(
    std::function<std::vector<std::string>(std::size_t)> argvForSlot,
    base::Clock &clock, double sendStallSeconds)
{
    return [argvForSlot = std::move(argvForSlot), &clock,
            sendStallSeconds](std::size_t index) {
        return std::unique_ptr<ShardBackend>(
            new ProcessShardBackend(argvForSlot(index), clock,
                                    sendStallSeconds));
    };
}

} // namespace core
} // namespace statsched
