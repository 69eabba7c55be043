/**
 * @file
 * Journal fault-injection suite: the disk is allowed to fail at EVERY
 * byte offset a campaign ever writes, under both error policies, and
 * the invariant is always the same — the process never crashes, the
 * policy latches (Abort fails the journal, Degrade drops to
 * memory-only recording), and recovery afterwards trusts exactly a
 * batch-group prefix of what a clean run would have written.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "base/io.hh"
#include "core/journal.hh"
#include "core/topology.hh"
#include "temp_path.hh"

namespace
{

using namespace statsched;
using base::io::FaultPlan;
using base::io::faultInjectingFileSinkFactory;
using core::CheckpointKind;
using core::JournalBatch;
using core::JournalCheckpoint;
using core::JournalConfig;
using core::JournalErrorPolicy;
using core::JournalHeader;
using core::JournalRecovery;
using core::MeasurementJournal;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::Topology;
using statsched::test::TempPath;

const Topology t2 = Topology::ultraSparcT2();

JournalHeader
testHeader()
{
    return JournalHeader::forCampaign(t2, 24, 7, 0xabc);
}

MeasurementOutcome
okOutcome(double value, std::uint32_t attempts = 1)
{
    MeasurementOutcome o;
    o.value = value;
    o.status = MeasureStatus::Ok;
    o.attempts = attempts;
    return o;
}

/**
 * The canonical campaign write sequence every fault test replays:
 * two batch groups, an interior Progress checkpoint and a final
 * Complete checkpoint. Safe to call on a journal in any state —
 * exactly what the engine does when the disk dies mid-campaign.
 */
void
writeSequence(MeasurementJournal &journal)
{
    journal.beginBatch(0, 2);
    journal.appendMeasurement(11, okOutcome(1.5));
    journal.appendMeasurement(22, okOutcome(2.5, 3));
    journal.sync();

    JournalCheckpoint mid;
    mid.kind = CheckpointKind::Progress;
    mid.round = 1;
    mid.attempted = 2;
    mid.sampled = 2;
    mid.best = 2.5;
    journal.appendCheckpoint(mid);
    journal.sync();

    journal.beginBatch(1, 1);
    journal.appendMeasurement(33, okOutcome(-4.25, 2));
    journal.sync();

    JournalCheckpoint done;
    done.kind = CheckpointKind::Complete;
    done.round = 2;
    done.attempted = 3;
    done.sampled = 3;
    done.best = 2.5;
    journal.appendCheckpoint(done);
    journal.sync();
}

/** Recovered batches must be a (possibly empty) prefix of the clean
 *  run's batches — identical groups, never a partial one. */
void
expectBatchPrefix(const JournalRecovery &got,
                  const JournalRecovery &reference,
                  const std::string &context)
{
    ASSERT_LE(got.batches.size(), reference.batches.size())
        << context;
    for (std::size_t b = 0; b < got.batches.size(); ++b) {
        const JournalBatch &g = got.batches[b];
        const JournalBatch &r = reference.batches[b];
        EXPECT_EQ(g.round, r.round) << context << " batch " << b;
        ASSERT_EQ(g.measurements.size(), r.measurements.size())
            << context << " batch " << b;
        for (std::size_t i = 0; i < g.measurements.size(); ++i) {
            EXPECT_EQ(g.measurements[i].keyHash,
                      r.measurements[i].keyHash)
                << context << " batch " << b << " item " << i;
            EXPECT_EQ(g.measurements[i].outcome.value,
                      r.measurements[i].outcome.value)
                << context << " batch " << b << " item " << i;
            EXPECT_EQ(g.measurements[i].outcome.status,
                      r.measurements[i].outcome.status)
                << context << " batch " << b << " item " << i;
            EXPECT_EQ(g.measurements[i].outcome.attempts,
                      r.measurements[i].outcome.attempts)
                << context << " batch " << b << " item " << i;
        }
    }
}

/** Clean-run recovery for the canonical sequence (and its byte count
 *  via `totalBytes`). */
JournalRecovery
cleanReference(const char *stem, std::uint64_t &totalBytes)
{
    TempPath path(std::string("jfault_test_") + stem);
    MeasurementJournal journal(path.str(), testHeader());
    writeSequence(journal);
    totalBytes = journal.bytesWritten();
    return core::recoverJournal(path.str());
}

/** One fault-sweep iteration: the disk dies after `failAt` bytes.
 *  `stem` must be unique per TEST so parallel ctest runs never share
 *  a temp path. */
void
sweepOnce(const char *stem, JournalErrorPolicy policy,
          std::uint64_t failAt, const JournalRecovery &reference)
{
    const std::string context = std::string("policy=") +
        core::journalErrorPolicyName(policy) +
        " failAt=" + std::to_string(failAt);
    TempPath path(std::string("jfault_test_") + stem);

    auto plan = std::make_shared<FaultPlan>();
    plan->failAfterBytes = failAt;
    JournalConfig config;
    config.onError = policy;
    config.sinkFactory = faultInjectingFileSinkFactory(plan);
    int degradeCalls = 0;
    config.onDegrade = [&degradeCalls](const std::string &detail) {
        ++degradeCalls;
        EXPECT_FALSE(detail.empty());
    };

    MeasurementJournal journal(path.str(), testHeader(), config);
    writeSequence(journal); // must never crash, whatever the offset

    EXPECT_TRUE(plan->triggered) << context;
    EXPECT_FALSE(journal.recording()) << context;
    if (policy == JournalErrorPolicy::Abort) {
        EXPECT_TRUE(journal.failed()) << context;
        EXPECT_FALSE(journal.degraded()) << context;
        EXPECT_EQ(degradeCalls, 0) << context;
    } else {
        EXPECT_TRUE(journal.degraded()) << context;
        EXPECT_FALSE(journal.failed()) << context;
        EXPECT_EQ(degradeCalls, 1) << context;
    }
    EXPECT_FALSE(journal.errorDetail().empty()) << context;

    // Post-latch appends are counted no-ops, never writes.
    const std::uint64_t droppedBefore = journal.droppedRecords();
    journal.appendCheckpoint(JournalCheckpoint());
    EXPECT_EQ(journal.droppedRecords(), droppedBefore + 1) << context;

    // Whatever landed on disk, recovery trusts only an intact
    // batch-group prefix of the clean run.
    const JournalRecovery r = core::recoverJournal(path.str());
    if (!r.headerValid) {
        // The fault tore the very first header: nothing to resume,
        // reported as unusable, not as a crash.
        EXPECT_FALSE(r.error.empty()) << context;
        EXPECT_TRUE(r.batches.empty()) << context;
        return;
    }
    EXPECT_TRUE(r.header == reference.header) << context;
    expectBatchPrefix(r, reference, context);
}

TEST(JournalFaults, CleanReferenceSequenceRecoversWhole)
{
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_single", total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    ASSERT_EQ(reference.batches.size(), 2u);
    EXPECT_EQ(reference.measurementCount(), 3u);
    EXPECT_EQ(reference.checkpoints.size(), 2u);
    // Every byte written sits in the one file and is trusted.
    EXPECT_EQ(reference.validBytes, total);
    EXPECT_GT(total, 0u);
}

TEST(JournalFaults, EveryWriteOffsetAbortsCleanly)
{
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_abort", total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    for (std::uint64_t failAt = 0; failAt < total; ++failAt)
        sweepOnce("sweep_abort", JournalErrorPolicy::Abort, failAt,
                  reference);
}

TEST(JournalFaults, EveryWriteOffsetDegradesWithDurablePrefix)
{
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_degrade", total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    for (std::uint64_t failAt = 0; failAt < total; ++failAt)
        sweepOnce("sweep_degrade", JournalErrorPolicy::Degrade, failAt,
                  reference);
}

} // namespace
