/**
 * @file
 * ShardedEngine tests: the bit-identity contract under every failure
 * mode the engine handles — dead shards, hung shards, respawn backoff,
 * quarantine, full degradation — driven deterministically with a
 * ManualClock and in-memory loopback backends that wrap a real
 * ShardWorker over a fresh simulated engine. No processes are spawned;
 * the subprocess transport is covered end to end by the
 * cli_shard_identity ctest and the shard-resume CI job.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/clock.hh"
#include "core/fault_injection.hh"
#include "core/health.hh"
#include "core/sampler.hh"
#include "core/shard_worker.hh"
#include "core/sharded_engine.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::MeasurementOutcome;
using core::ShardBackend;
using core::ShardedEngine;
using core::ShardedOptions;
using core::ShardFrame;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();
constexpr std::uint64_t kConfigHash = 77;

sim::Workload
workload()
{
    return sim::makeWorkload(sim::Benchmark::IpfwdL1, 8);
}

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed)
{
    core::RandomAssignmentSampler sampler(
        t2, workload().taskCount(), seed);
    return sampler.drawSample(n);
}

/** Per-spawn failure script for one loopback backend. */
struct SlotScript
{
    /** start() fails outright (spawn failure). */
    bool failStart = false;
    /** Deliver this many frames, then fall silent (hang); -1 =
     *  unlimited. The Hello is frame one. */
    int deliverFrames = -1;
    /** Byzantine worker: compute honestly, then corrupt the value
     *  bits of every Ok outcome before replying. Frames and CRCs stay
     *  valid — only audit duplication can catch it. */
    bool garbageValues = false;
};

/**
 * In-memory ShardBackend: a real ShardWorker over its own fresh
 * simulated engine, so protocol, window alignment and evaluation are
 * the production code paths — only the pipe is replaced by a byte
 * buffer. Timeouts advance the ManualClock by the full wait, which is
 * exactly what a real hung worker costs the coordinator.
 */
class LoopbackBackend : public ShardBackend
{
  public:
    LoopbackBackend(base::ManualClock &clock, SlotScript script)
        : clock_(clock), script_(script)
    {
    }

    bool
    start(std::string &error) override
    {
        if (script_.failStart) {
            error = "scripted spawn failure";
            return false;
        }
        engine_ = std::make_unique<sim::SimulatedEngine>(workload());
        core::PerformanceEngine *engine = engine_.get();
        if (script_.garbageValues) {
            garbage_ =
                std::make_unique<core::ValueCorruptingEngine>(*engine);
            engine = garbage_.get();
        }
        worker_ = std::make_unique<core::ShardWorker>(
            *engine, t2, workload().taskCount(), kConfigHash);
        const auto hello = worker_->helloBytes();
        parser_.feed(hello.data(), hello.size());
        return true;
    }

    bool
    send(const std::uint8_t *data, std::size_t size) override
    {
        if (dead_ || !worker_)
            return false;
        std::vector<std::uint8_t> response;
        worker_->consume(data, size, response);
        parser_.feed(response.data(), response.size());
        return true;
    }

    RecvStatus
    receive(ShardFrame &frame, double maxWaitSeconds) override
    {
        if (dead_ || !worker_)
            return RecvStatus::Closed;
        if (parser_.corrupt())
            return RecvStatus::Corrupt;
        if (script_.deliverFrames >= 0 && delivered_ >=
            script_.deliverFrames) {
            clock_.advance(maxWaitSeconds); // hang costs real wait
            return RecvStatus::Timeout;
        }
        if (parser_.next(frame)) {
            ++delivered_;
            return RecvStatus::Frame;
        }
        clock_.advance(maxWaitSeconds);
        return RecvStatus::Timeout;
    }

    void terminate() override { dead_ = true; }

  private:
    base::ManualClock &clock_;
    SlotScript script_;
    std::unique_ptr<sim::SimulatedEngine> engine_;
    std::unique_ptr<core::ValueCorruptingEngine> garbage_;
    std::unique_ptr<core::ShardWorker> worker_;
    core::ShardFrameParser parser_;
    int delivered_ = 0;
    bool dead_ = false;
};

/**
 * A scripted fleet of loopback backends plus the clock that drives
 * them. Scripts are per slot and per spawn (the last script of a
 * slot repeats for further respawns).
 */
struct Fleet
{
    base::ManualClock clock;
    std::map<std::size_t, std::vector<SlotScript>> scripts;
    std::vector<std::size_t> spawnLog;

    core::ShardBackendFactory
    factory()
    {
        return [this](std::size_t index) {
            std::size_t nth = 0;
            for (const std::size_t s : spawnLog)
                nth += s == index ? 1 : 0;
            spawnLog.push_back(index);
            SlotScript script;
            const auto it = scripts.find(index);
            if (it != scripts.end() && !it->second.empty())
                script = it->second[std::min(
                    nth, it->second.size() - 1)];
            return std::unique_ptr<ShardBackend>(
                new LoopbackBackend(clock, script));
        };
    }

    ShardedOptions
    options(std::size_t shards)
    {
        ShardedOptions o;
        o.shards = shards;
        o.requestDeadlineSeconds = 5.0;
        // Large heartbeat interval: tests that want per-batch pings
        // lower it explicitly.
        o.heartbeatSeconds = 1000.0;
        o.heartbeatTimeoutSeconds = 2.0;
        o.backoffBaseSeconds = 0.25;
        o.backoffFactor = 2.0;
        o.backoffCapSeconds = 8.0;
        o.quarantineThreshold = 3;
        o.expected.configHash = kConfigHash;
        o.expected.cores = t2.cores;
        o.expected.pipesPerCore = t2.pipesPerCore;
        o.expected.strandsPerPipe = t2.strandsPerPipe;
        o.expected.tasks = workload().taskCount();
        o.clock = &clock;
        return o;
    }
};

/** The campaign's batch sequence; seeds differ so batches do. */
std::vector<std::vector<Assignment>>
batchSequence()
{
    return {drawBatch(5, 11), drawBatch(8, 22), drawBatch(3, 33),
            drawBatch(6, 44)};
}

/** What the unsharded in-process engine produces for the sequence. */
std::vector<std::vector<MeasurementOutcome>>
referenceOutcomes(const std::vector<std::vector<Assignment>> &batches)
{
    sim::SimulatedEngine reference(workload());
    std::vector<std::vector<MeasurementOutcome>> all;
    for (const auto &batch : batches) {
        std::vector<MeasurementOutcome> outcomes(batch.size());
        reference.measureBatchOutcome(batch, outcomes);
        all.push_back(std::move(outcomes));
    }
    return all;
}

void
expectSameOutcomes(const std::vector<MeasurementOutcome> &got,
                   const std::vector<MeasurementOutcome> &want,
                   const std::string &context)
{
    ASSERT_EQ(got.size(), want.size()) << context;
    for (std::size_t i = 0; i < got.size(); ++i) {
        std::uint64_t gbits = 0, wbits = 0;
        std::memcpy(&gbits, &got[i].value, sizeof gbits);
        std::memcpy(&wbits, &want[i].value, sizeof wbits);
        EXPECT_EQ(gbits, wbits)
            << context << ": value bits differ at " << i;
        EXPECT_EQ(got[i].status, want[i].status)
            << context << ": status differs at " << i;
    }
}

TEST(ShardedEngine, BitIdenticalAcrossShardCounts)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    for (const std::size_t shards : {1u, 2u, 4u}) {
        Fleet fleet;
        sim::SimulatedEngine inner(workload());
        ShardedEngine sharded(inner, fleet.factory(),
                              fleet.options(shards));
        for (std::size_t b = 0; b < batches.size(); ++b) {
            std::vector<MeasurementOutcome> out(batches[b].size());
            sharded.measureBatchOutcome(batches[b], out);
            expectSameOutcomes(
                out, expected[b],
                "shards=" + std::to_string(shards) + " batch " +
                    std::to_string(b));
        }
        EXPECT_EQ(sharded.liveShardCount(), shards);

        core::EngineStats stats;
        sharded.collectStats(stats);
        EXPECT_EQ(stats.shardedMeasurements, 22u);
        EXPECT_EQ(stats.shardFailures, 0u);
        EXPECT_EQ(stats.shardDegradedBatches, 0u);
    }
}

TEST(ShardedEngine, SingleMeasureRoutesThroughTheShards)
{
    // measure()/measureOutcome() are one-item batches on the same
    // cursor, so mixing them with batches stays on the reference
    // stream.
    const auto batch = drawBatch(3, 55);
    sim::SimulatedEngine reference(workload());
    std::vector<MeasurementOutcome> want(batch.size());
    reference.measureBatchOutcome(batch, want);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(2));
    std::vector<MeasurementOutcome> got;
    for (const Assignment &a : batch)
        got.push_back(sharded.measureOutcome(a));
    expectSameOutcomes(got, want, "single-measure stream");
    EXPECT_FALSE(static_cast<bool>(sharded.parallelKernel(4)));
    EXPECT_FALSE(static_cast<bool>(sharded.outcomeKernel(4)));
}

TEST(ShardedEngine, ReserveAdvancesTheSharedCursor)
{
    // Journal replay: skip 37 indices, then measure. Workers fast-
    // forward their fresh engines to the window on first request.
    const auto batch = drawBatch(6, 66);
    sim::SimulatedEngine reference(workload());
    reference.reserveMeasurementIndices(37);
    std::vector<MeasurementOutcome> want(batch.size());
    reference.measureBatchOutcome(batch, want);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(2));
    sharded.reserveMeasurementIndices(37);
    std::vector<MeasurementOutcome> got(batch.size());
    sharded.measureBatchOutcome(batch, got);
    expectSameOutcomes(got, want, "post-replay batch");
}

TEST(ShardedEngine, DeadShardReissuesToTheSurvivor)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(2));

    // Batch 0 establishes both workers.
    std::vector<MeasurementOutcome> out(batches[0].size());
    sharded.measureBatchOutcome(batches[0], out);
    expectSameOutcomes(out, expected[0], "before kill");

    // External SIGKILL of shard 1: the transport dies, the slot does
    // not know yet.
    sharded.disruptShard(1);
    out.assign(batches[1].size(), {});
    sharded.measureBatchOutcome(batches[1], out);
    expectSameOutcomes(out, expected[1], "kill mid-batch");

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardFailures, 1u);
    // Shard 1's half of the 8-item batch was re-issued to shard 0.
    EXPECT_EQ(stats.shardReissues, 4u);
    EXPECT_EQ(stats.shardDegradedBatches, 0u);
    EXPECT_EQ(sharded.liveShardCount(), 1u);

    // Later batches keep working on the survivor.
    out.assign(batches[2].size(), {});
    sharded.measureBatchOutcome(batches[2], out);
    expectSameOutcomes(out, expected[2], "after kill");
}

TEST(ShardedEngine, HungShardTripsTheDeadlineAndReissues)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    // Slot 1 delivers its Hello, then never another frame: a worker
    // that wedged after the handshake.
    fleet.scripts[1] = {SlotScript{false, 1}};
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(2));

    const double before = fleet.clock.nowSeconds();
    std::vector<MeasurementOutcome> out(batches[0].size());
    sharded.measureBatchOutcome(batches[0], out);
    expectSameOutcomes(out, expected[0], "hung shard");
    // The hang cost exactly one request deadline of waiting.
    EXPECT_NEAR(fleet.clock.nowSeconds() - before, 5.0, 1e-9);

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardFailures, 1u);
    EXPECT_GT(stats.shardReissues, 0u);
    EXPECT_EQ(stats.shardDegradedBatches, 0u);
}

TEST(ShardedEngine, RespawnWaitsOutTheBackoffGate)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(2));

    std::vector<MeasurementOutcome> out(batches[0].size());
    sharded.measureBatchOutcome(batches[0], out);
    sharded.disruptShard(1);

    // Immediately after the failure the gate is closed: the batch is
    // served by the survivor alone, no respawn attempt.
    out.assign(batches[1].size(), {});
    sharded.measureBatchOutcome(batches[1], out);
    expectSameOutcomes(out, expected[1], "gate closed");
    EXPECT_EQ(sharded.liveShardCount(), 1u);
    const std::size_t spawnsBefore = fleet.spawnLog.size();

    // Past the backoff the slot respawns; the replacement's fresh
    // engine fast-forwards to the live window, so outcomes still
    // match the reference stream.
    fleet.clock.advance(1.0);
    out.assign(batches[2].size(), {});
    sharded.measureBatchOutcome(batches[2], out);
    expectSameOutcomes(out, expected[2], "after respawn");
    EXPECT_EQ(sharded.liveShardCount(), 2u);
    EXPECT_EQ(fleet.spawnLog.size(), spawnsBefore + 1);

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardRespawns, 1u);

    out.assign(batches[3].size(), {});
    sharded.measureBatchOutcome(batches[3], out);
    expectSameOutcomes(out, expected[3], "steady state");
}

TEST(ShardedEngine, HeartbeatCatchesAWorkerThatDiedIdle)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedOptions options = fleet.options(2);
    options.heartbeatSeconds = 0.0; // ping before every batch
    ShardedEngine sharded(inner, fleet.factory(), options);

    std::vector<MeasurementOutcome> out(batches[0].size());
    sharded.measureBatchOutcome(batches[0], out);
    sharded.disruptShard(0);

    out.assign(batches[1].size(), {});
    sharded.measureBatchOutcome(batches[1], out);
    expectSameOutcomes(out, expected[1], "died idle");

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardFailures, 1u);
    // The heartbeat failed BEFORE work was assigned, so nothing was
    // re-issued — the partition simply skipped the dead slot.
    EXPECT_EQ(stats.shardReissues, 0u);
}

TEST(ShardedEngine, RepeatedFailureQuarantinesAndDegrades)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    // The only slot never spawns successfully.
    fleet.scripts[0] = {SlotScript{true, -1}};
    sim::SimulatedEngine inner(workload());
    ShardedEngine sharded(inner, fleet.factory(), fleet.options(1));

    for (std::size_t b = 0; b < batches.size(); ++b) {
        std::vector<MeasurementOutcome> out(batches[b].size());
        sharded.measureBatchOutcome(batches[b], out);
        expectSameOutcomes(out, expected[b],
                           "degraded batch " + std::to_string(b));
        fleet.clock.advance(10.0); // open the respawn gate each time
    }

    // Three spawn failures (quarantineThreshold), then no further
    // attempts: the engine is fully degraded and stays correct.
    EXPECT_TRUE(sharded.fullyDegraded());
    EXPECT_EQ(sharded.quarantinedShardCount(), 1u);
    EXPECT_EQ(fleet.spawnLog.size(), 3u);

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardFailures, 3u);
    EXPECT_EQ(stats.shardsQuarantined, 1u);
    EXPECT_EQ(stats.shardDegradedBatches, batches.size());
    EXPECT_EQ(stats.shardedMeasurements, 0u);
}

TEST(ShardedEngine, PartialBatchDegradationStaysBitIdentical)
{
    // Both shards die mid-batch: the first half was already resolved
    // remotely, the second half must be served in-process — from the
    // same index window.
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    Fleet fleet;
    // Each slot's worker serves the handshake plus one response group
    // for its first partition (1 hello + 1 response header + 3 or 4
    // outcomes), then hangs. Quarantine on the first failure so the
    // engine degrades instead of retrying forever.
    fleet.scripts[0] = {SlotScript{false, 5}};
    fleet.scripts[1] = {SlotScript{false, 6}};
    sim::SimulatedEngine inner(workload());
    ShardedOptions options = fleet.options(2);
    options.quarantineThreshold = 1;
    ShardedEngine sharded(inner, fleet.factory(), options);

    std::vector<MeasurementOutcome> out(batches[0].size());
    sharded.measureBatchOutcome(batches[0], out); // 5 items: 3 + 2
    expectSameOutcomes(out, expected[0], "first batch");

    out.assign(batches[1].size(), {});
    sharded.measureBatchOutcome(batches[1], out);
    expectSameOutcomes(out, expected[1], "partially degraded");

    out.assign(batches[2].size(), {});
    sharded.measureBatchOutcome(batches[2], out);
    expectSameOutcomes(out, expected[2], "fully in-process");
    EXPECT_TRUE(sharded.fullyDegraded());

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_GT(stats.shardDegradedBatches, 0u);
}

/**
 * The chaos acceptance test: SIGKILL one worker at EVERY round
 * boundary of a multi-batch campaign, for every victim, and require
 * the merged outcome stream byte-identical to the in-process run
 * every single time.
 */
TEST(ShardedEngine, KillAtEveryRoundBoundaryStaysBitIdentical)
{
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    for (std::size_t victim = 0; victim < 2; ++victim) {
        for (std::size_t killAt = 0; killAt < batches.size();
             ++killAt) {
            Fleet fleet;
            sim::SimulatedEngine inner(workload());
            ShardedEngine sharded(inner, fleet.factory(),
                                  fleet.options(2));
            const std::string where = "victim=" +
                std::to_string(victim) + " killAt=" +
                std::to_string(killAt);
            for (std::size_t b = 0; b < batches.size(); ++b) {
                std::vector<MeasurementOutcome> out(
                    batches[b].size());
                sharded.measureBatchOutcome(batches[b], out);
                expectSameOutcomes(out, expected[b],
                                   where + " batch " +
                                       std::to_string(b));
                if (b == killAt)
                    sharded.disruptShard(victim);
            }

            core::EngineStats stats;
            sharded.collectStats(stats);
            EXPECT_EQ(stats.shardDegradedBatches, 0u) << where;
            // A kill after the last batch is never probed again, so
            // it is only discovered (and counted) mid-campaign.
            if (killAt + 1 < batches.size()) {
                EXPECT_EQ(stats.shardFailures, 1u) << where;
            }
        }
    }
}

TEST(ShardedEngine, AuditDuplicationHasNoFalsePositives)
{
    // Honest fleet + auditing: duplicates are issued, every duplicate
    // agrees bit-for-bit, nobody is convicted, nothing is re-issued,
    // and the audited index set is a pure function of (seed, index) —
    // identical at any shard count.
    const auto batches = batchSequence();
    const auto expected = referenceOutcomes(batches);

    std::uint64_t auditsAtTwoShards = 0;
    for (const std::size_t shards : {2u, 4u}) {
        Fleet fleet;
        sim::SimulatedEngine inner(workload());
        ShardedOptions options = fleet.options(shards);
        options.auditFraction = 0.5;
        options.auditSeed = 42;
        ShardedEngine sharded(inner, fleet.factory(), options);
        for (std::size_t b = 0; b < batches.size(); ++b) {
            std::vector<MeasurementOutcome> out(batches[b].size());
            sharded.measureBatchOutcome(batches[b], out);
            expectSameOutcomes(out, expected[b],
                               "audited honest shards=" +
                                   std::to_string(shards));
        }

        core::EngineStats stats;
        sharded.collectStats(stats);
        EXPECT_GT(stats.shardAudits, 0u);
        EXPECT_EQ(stats.shardAuditMismatches, 0u);
        EXPECT_EQ(stats.shardConvictions, 0u);
        EXPECT_EQ(stats.shardReissues, 0u);
        if (shards == 2u)
            auditsAtTwoShards = stats.shardAudits;
        else
            EXPECT_EQ(stats.shardAudits, auditsAtTwoShards);
    }
}

TEST(ShardedEngine, AuditConvictsAGarbageShardBitIdentically)
{
    // Slot 1 is Byzantine on every spawn: honest protocol, corrupted
    // value bits. Half the indices carry audit duplicates, so the
    // first batch it touches convicts it; its unaudited results are
    // discarded and re-measured, and the merged stream never differs
    // from the in-process reference. Repeated convictions climb the
    // quarantine ladder even though every protocol exchange succeeds.
    std::vector<std::vector<Assignment>> batches;
    for (std::uint64_t i = 0; i < 6; ++i)
        batches.push_back(drawBatch(6, 100 + i));
    const auto expected = referenceOutcomes(batches);

    std::vector<core::HealthTransition> transitions;
    core::Health health([&transitions](
                            const core::HealthTransition &t) {
        transitions.push_back(t);
    });

    Fleet fleet;
    fleet.scripts[1] = {SlotScript{false, -1, true}};
    sim::SimulatedEngine inner(workload());
    ShardedOptions options = fleet.options(2);
    options.auditFraction = 0.5;
    options.auditSeed = 7;
    options.health = &health;
    ShardedEngine sharded(inner, fleet.factory(), options);

    for (std::size_t b = 0; b < batches.size(); ++b) {
        std::vector<MeasurementOutcome> out(batches[b].size());
        sharded.measureBatchOutcome(batches[b], out);
        expectSameOutcomes(out, expected[b],
                           "garbage shard batch " +
                               std::to_string(b));
        fleet.clock.advance(10.0); // open the respawn gate each round
    }

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_GT(stats.shardAudits, 0u);
    EXPECT_GT(stats.shardAuditMismatches, 0u);
    // Three convictions (one per respawn) reach the quarantine
    // threshold; after that the offender is never spawned again.
    EXPECT_GE(stats.shardConvictions, 3u);
    EXPECT_EQ(stats.shardsQuarantined, 1u);
    EXPECT_GT(stats.shardReissues, 0u);
    EXPECT_EQ(sharded.quarantinedShardCount(), 1u);
    EXPECT_EQ(sharded.liveShardCount(), 1u);

    // The first conviction degraded shard health immediately — not
    // only at quarantine — and it stays degraded.
    ASSERT_FALSE(transitions.empty());
    EXPECT_EQ(transitions[0].component, "shards");
    EXPECT_EQ(transitions[0].to, core::HealthLevel::Degraded);
    EXPECT_NE(transitions[0].detail.find("convicted"),
              std::string::npos);
    EXPECT_EQ(health.level("shards"), core::HealthLevel::Degraded);
}

TEST(ShardedEngine, AuditNeedsASecondLiveSlot)
{
    // One live slot has nobody to disagree with: auditing is skipped
    // (a duplicate on the same backend adds no information), and the
    // campaign proceeds normally.
    const auto batch = drawBatch(5, 99);
    sim::SimulatedEngine reference(workload());
    std::vector<MeasurementOutcome> want(batch.size());
    reference.measureBatchOutcome(batch, want);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedOptions options = fleet.options(1);
    options.auditFraction = 1.0;
    options.auditSeed = 7;
    ShardedEngine sharded(inner, fleet.factory(), options);
    std::vector<MeasurementOutcome> got(batch.size());
    sharded.measureBatchOutcome(batch, got);
    expectSameOutcomes(got, want, "single-slot campaign");

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardAudits, 0u);
    EXPECT_EQ(stats.shardConvictions, 0u);
}

TEST(ShardedEngine, RejectsAMisconfiguredWorkerAtHandshake)
{
    // A worker whose engine configuration fingerprint differs must
    // never serve a measurement: its values would silently diverge.
    const auto batch = drawBatch(4, 88);
    sim::SimulatedEngine reference(workload());
    std::vector<MeasurementOutcome> want(batch.size());
    reference.measureBatchOutcome(batch, want);

    Fleet fleet;
    sim::SimulatedEngine inner(workload());
    ShardedOptions options = fleet.options(1);
    options.expected.configHash = kConfigHash + 1; // mismatch
    options.quarantineThreshold = 1;
    ShardedEngine sharded(inner, fleet.factory(), options);

    std::vector<MeasurementOutcome> got(batch.size());
    sharded.measureBatchOutcome(batch, got);
    expectSameOutcomes(got, want, "handshake-rejected worker");

    core::EngineStats stats;
    sharded.collectStats(stats);
    EXPECT_EQ(stats.shardedMeasurements, 0u);
    EXPECT_EQ(stats.shardFailures, 1u);
    EXPECT_TRUE(sharded.fullyDegraded());
}

} // anonymous namespace
