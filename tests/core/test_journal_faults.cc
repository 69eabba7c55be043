/**
 * @file
 * Journal fault-injection suite: the disk is allowed to fail at EVERY
 * byte offset a campaign ever writes, under both error policies, and
 * the invariant is always the same — the process never crashes, the
 * policy latches (Abort fails the journal, Degrade drops to
 * memory-only recording), and recovery afterwards trusts exactly a
 * batch-group prefix of what a clean run would have written. Segment
 * rotation, compaction, stale-segment deletion and torn-chain
 * recovery ride the same harness.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

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
using core::journalSegmentPath;
using core::MeasurementJournal;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

/** RAII temp journal path; removes the file, its segment chain and
 *  any compaction temp on scope exit. */
class TempChain
{
  public:
    explicit TempChain(const char *stem)
        : path_(statsched::test::tempPath(std::string("jfault_test_") +
                                          stem))
    {
        cleanup();
    }

    ~TempChain() { cleanup(); }

    const std::string &str() const { return path_; }

  private:
    void
    cleanup()
    {
        std::filesystem::remove(path_);
        for (std::uint32_t i = 0;; ++i) {
            const std::string seg = journalSegmentPath(path_, i);
            const bool any =
                std::filesystem::remove(seg) |
                std::filesystem::remove(seg + ".tmp");
            if (!any)
                break;
        }
    }

    std::string path_;
};

JournalHeader
testHeader(std::uint64_t seed = 7)
{
    return JournalHeader::forCampaign(t2, 24, seed, 0xabc);
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
 *  via `totalBytes`), in single-file or segmented layout. */
JournalRecovery
cleanReference(const char *stem, std::uint64_t segmentBytes,
               std::uint64_t &totalBytes)
{
    TempChain path(stem);
    JournalConfig config;
    config.segmentBytes = segmentBytes;
    MeasurementJournal journal(path.str(), testHeader(), config);
    writeSequence(journal);
    totalBytes = journal.bytesWritten();
    return core::recoverJournal(path.str());
}

/** One fault-sweep iteration: the disk dies after `failAt` bytes.
 *  `stem` must be unique per TEST so parallel ctest runs never share
 *  a temp path. */
void
sweepOnce(const char *stem, JournalErrorPolicy policy,
          std::uint64_t segmentBytes, std::uint64_t failAt,
          const JournalRecovery &reference)
{
    const std::string context = std::string("policy=") +
        core::journalErrorPolicyName(policy) +
        " segmentBytes=" + std::to_string(segmentBytes) +
        " failAt=" + std::to_string(failAt);
    TempChain path(stem);

    auto plan = std::make_shared<FaultPlan>();
    plan->failAfterBytes = failAt;
    JournalConfig config;
    config.onError = policy;
    config.segmentBytes = segmentBytes;
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
        cleanReference("ref_single", 0, total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    ASSERT_EQ(reference.batches.size(), 2u);
    EXPECT_EQ(reference.measurementCount(), 3u);
    EXPECT_EQ(reference.checkpoints.size(), 2u);
    EXPECT_FALSE(reference.segmented);
    EXPECT_GT(total, 0u);
}

TEST(JournalFaults, EveryWriteOffsetAbortsCleanly)
{
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_abort", 0, total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    for (std::uint64_t failAt = 0; failAt < total; ++failAt)
        sweepOnce("sweep_abort", JournalErrorPolicy::Abort, 0,
                  failAt, reference);
}

TEST(JournalFaults, EveryWriteOffsetDegradesWithDurablePrefix)
{
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_degrade", 0, total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    for (std::uint64_t failAt = 0; failAt < total; ++failAt)
        sweepOnce("sweep_degrade", JournalErrorPolicy::Degrade, 0,
                  failAt, reference);
}

TEST(JournalFaults, EveryWriteOffsetSurvivesWithSegmentRotation)
{
    // The segmented journal writes MORE bytes (per-segment headers,
    // compaction rewrites), and the budget is cumulative across
    // sinks, so sweeping the single-file total still reaches every
    // interesting boundary: header writes, rotation seals, compaction
    // temp files. Both policies, one pass each.
    std::uint64_t total = 0;
    const JournalRecovery reference =
        cleanReference("ref_seg", 64, total);
    ASSERT_TRUE(reference.headerValid) << reference.error;
    EXPECT_TRUE(reference.segmented);
    for (std::uint64_t failAt = 0; failAt < total; ++failAt) {
        sweepOnce("sweep_seg", JournalErrorPolicy::Abort, 64, failAt,
                  reference);
        sweepOnce("sweep_seg", JournalErrorPolicy::Degrade, 64,
                  failAt, reference);
    }
}

TEST(JournalFaults, SegmentedRecoveryMatchesSingleFileBatches)
{
    std::uint64_t singleTotal = 0, segTotal = 0;
    const JournalRecovery single =
        cleanReference("layout_single", 0, singleTotal);
    const JournalRecovery segmented =
        cleanReference("layout_seg", 64, segTotal);
    ASSERT_TRUE(single.headerValid) << single.error;
    ASSERT_TRUE(segmented.headerValid) << segmented.error;

    // Same replay substance regardless of on-disk layout.
    ASSERT_EQ(segmented.batches.size(), single.batches.size());
    expectBatchPrefix(segmented, single, "segmented layout");
    EXPECT_TRUE(segmented.segmented);
    EXPECT_GT(segmented.segmentFiles.size(), 1u);
    EXPECT_TRUE(segmented.staleSegments.empty());
    EXPECT_EQ(segmented.truncatedBytes, 0u);
}

TEST(JournalFaults, CompactionDropsInteriorProgressCheckpoints)
{
    TempChain path("compact");
    JournalConfig config;
    config.segmentBytes = 64; // rotate after every group
    MeasurementJournal journal(path.str(), testHeader(), config);
    writeSequence(journal);
    EXPECT_GT(journal.segmentsRotated(), 0u);
    // A sealed segment held the interior Progress checkpoint; its
    // frame was reclaimed. The Complete checkpoint is kept.
    EXPECT_GT(journal.compactedBytes(), 0u);

    const JournalRecovery r = core::recoverJournal(path.str());
    ASSERT_TRUE(r.headerValid) << r.error;
    EXPECT_EQ(r.batches.size(), 2u);
    ASSERT_EQ(r.checkpoints.size(), 1u);
    EXPECT_EQ(r.checkpoints[0].kind, CheckpointKind::Complete);
}

TEST(JournalFaults, TornMidChainSegmentDropsSuccessorsAsStale)
{
    TempChain path("torn_chain");
    {
        JournalConfig config;
        config.segmentBytes = 64;
        MeasurementJournal journal(path.str(), testHeader(), config);
        writeSequence(journal);
    }
    const JournalRecovery clean = core::recoverJournal(path.str());
    ASSERT_TRUE(clean.headerValid) << clean.error;
    ASSERT_GE(clean.segmentFiles.size(), 3u);

    // Tear the segment holding the second batch group: everything it
    // committed is dropped, and every LATER segment — written by a
    // writer whose predecessor we now distrust — becomes stale.
    const std::string victim = clean.segmentFiles[2];
    std::filesystem::resize_file(
        victim, std::filesystem::file_size(victim) - 2);

    const JournalRecovery torn = core::recoverJournal(path.str());
    ASSERT_TRUE(torn.headerValid) << torn.error;
    EXPECT_LT(torn.batches.size(), clean.batches.size());
    expectBatchPrefix(torn, clean, "torn chain");
    EXPECT_GT(torn.truncatedBytes, 0u);
    EXPECT_EQ(torn.activeSegment, victim);
    ASSERT_EQ(torn.staleSegments.size(),
              clean.segmentFiles.size() - 3);

    // Resuming deletes the stale tail, truncates the torn segment and
    // appends fresh groups; a second recovery sees a clean chain.
    {
        JournalConfig config;
        config.segmentBytes = 64;
        MeasurementJournal journal(path.str(), torn, config);
        ASSERT_TRUE(journal.recording());
        journal.beginBatch(7, 1);
        journal.appendMeasurement(99, okOutcome(9.0));
        journal.sync();
    }
    for (const std::string &stale : torn.staleSegments)
        EXPECT_FALSE(base::io::fileExists(stale)) << stale;
    const JournalRecovery resumed = core::recoverJournal(path.str());
    ASSERT_TRUE(resumed.headerValid) << resumed.error;
    ASSERT_EQ(resumed.batches.size(), torn.batches.size() + 1);
    EXPECT_EQ(resumed.batches.back().round, 7u);
    EXPECT_EQ(resumed.batches.back().measurements[0].keyHash, 99u);
    EXPECT_EQ(resumed.truncatedBytes, 0u);
    EXPECT_TRUE(resumed.staleSegments.empty());
}

TEST(JournalFaults, ForeignSegmentStopsTheTrustHorizon)
{
    TempChain path("foreign");
    {
        JournalConfig config;
        config.segmentBytes = 64;
        MeasurementJournal journal(path.str(), testHeader(), config);
        writeSequence(journal);
    }
    const JournalRecovery clean = core::recoverJournal(path.str());
    ASSERT_TRUE(clean.headerValid) << clean.error;
    ASSERT_GE(clean.segmentFiles.size(), 3u);

    // Replace a mid-chain segment with one from a DIFFERENT campaign
    // (different seed): its header is valid but foreign, so it and
    // everything after it must not be trusted.
    const std::string victim = clean.segmentFiles[1];
    {
        MeasurementJournal foreign(victim, testHeader(1234));
        foreign.beginBatch(0, 1);
        foreign.appendMeasurement(1, okOutcome(1.0));
        foreign.sync();
    }

    const JournalRecovery r = core::recoverJournal(path.str());
    ASSERT_TRUE(r.headerValid) << r.error;
    expectBatchPrefix(r, clean, "foreign segment");
    EXPECT_EQ(r.activeSegment, clean.segmentFiles[0]);
    EXPECT_EQ(r.staleSegments.size(), clean.segmentFiles.size() - 1);
}

TEST(JournalFaults, FreshSegmentedJournalRemovesAPriorChain)
{
    TempChain path("stale_chain");
    {
        JournalConfig config;
        config.segmentBytes = 64;
        MeasurementJournal journal(path.str(), testHeader(), config);
        writeSequence(journal);
    }
    const JournalRecovery old = core::recoverJournal(path.str());
    ASSERT_GT(old.segmentFiles.size(), 1u);

    // A new campaign at the same path starts a new chain head; stale
    // successors from the previous chain must not survive to be
    // spliced onto the new journal by a later recovery.
    {
        JournalConfig config;
        config.segmentBytes = 1 << 20; // no rotation this time
        MeasurementJournal journal(path.str(), testHeader(99),
                                   config);
        journal.beginBatch(0, 1);
        journal.appendMeasurement(5, okOutcome(5.0));
        journal.sync();
    }
    for (std::size_t i = 1; i < old.segmentFiles.size(); ++i)
        EXPECT_FALSE(base::io::fileExists(old.segmentFiles[i]))
            << old.segmentFiles[i];

    const JournalRecovery fresh = core::recoverJournal(path.str());
    ASSERT_TRUE(fresh.headerValid) << fresh.error;
    EXPECT_TRUE(fresh.header == testHeader(99));
    ASSERT_EQ(fresh.batches.size(), 1u);
    EXPECT_EQ(fresh.batches[0].measurements[0].keyHash, 5u);
}

} // namespace
