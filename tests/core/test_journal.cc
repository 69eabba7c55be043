/**
 * @file
 * Measurement-journal tests: CRC framing, header identity, batch
 * roundtrip, and — the crash-safety core — recovery of the longest
 * trustworthy prefix from torn, corrupt and incomplete tails.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/journal.hh"
#include "core/record_codec.hh"
#include "core/sampler.hh"
#include "core/topology.hh"
#include "temp_path.hh"

namespace
{

using namespace statsched;
using core::CheckpointKind;
using core::JournalBatch;
using core::JournalCheckpoint;
using core::JournalHeader;
using core::JournalRecovery;
using core::MeasurementJournal;
using core::MeasurementOutcome;
using core::MeasureStatus;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();

using statsched::test::TempPath;

JournalHeader
testHeader(std::uint64_t seed = 7, std::uint64_t configHash = 0xabc)
{
    return JournalHeader::forCampaign(t2, 24, seed, configHash);
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

/** Writes a journal with two complete groups and a checkpoint. */
void
writeTwoGroups(const std::string &path)
{
    MeasurementJournal journal(path, testHeader());
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
    journal.beginBatch(1, 1);
    MeasurementOutcome failed;
    failed.value = 0.0;
    failed.status = MeasureStatus::TimedOut;
    failed.attempts = 2;
    journal.appendMeasurement(33, failed);
    journal.sync();
}

std::uint64_t
fileSize(const std::string &path)
{
    return static_cast<std::uint64_t>(
        std::filesystem::file_size(path));
}

void
truncateTo(const std::string &path, std::uint64_t size)
{
    std::filesystem::resize_file(path, size);
}

void
flipByteAt(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

TEST(JournalCrc, MatchesIeee8023ReferenceVector)
{
    // The canonical CRC-32 check value: crc32("123456789").
    const char digits[] = "123456789";
    EXPECT_EQ(core::crc32(digits, 9), 0xCBF43926u);
    // Chaining two halves equals one pass.
    const std::uint32_t first = core::crc32(digits, 4);
    EXPECT_EQ(core::crc32(digits + 4, 5, first), 0xCBF43926u);
}

TEST(Journal, FileBytesArePinned)
{
    // Every byte of a small journal, derived from the format in
    // journal.hh: journals written by older builds must stay readable,
    // so no refactor may move one of them.
    TempPath path("journal_test_pinned");
    {
        MeasurementJournal journal(
            path.str(),
            JournalHeader::forCampaign(t2, 24, 0x0102030405060708ull,
                                       0x1122334455667788ull));
        journal.beginBatch(3, 2);
        journal.appendMeasurement(0x8877665544332211ull, okOutcome(1.5));
        journal.appendMeasurement(
            0xfedcba9876543210ull,
            MeasurementOutcome::failure(MeasureStatus::TimedOut, 3));
        journal.sync();
        JournalCheckpoint done;
        done.kind = CheckpointKind::Complete;
        done.round = 4;
        done.attempted = 2;
        done.sampled = 1;
        done.best = 1.5;
        journal.appendCheckpoint(done);
        journal.sync();
    }

    static const std::uint8_t expected[] = {
        // header: "SJNL" version seed cores pipes strands tasks
        // configHash crc
        0x53, 0x4a, 0x4e, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x08, 0x07, 0x06,
        0x05, 0x04, 0x03, 0x02, 0x01, 0x08, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x88,
        0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x72, 0xf9, 0xcc, 0x36,
        // BatchBegin round 3, count 2
        0x01, 0x08, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0xb0, 0xe1, 0x58, 0x9d,
        // Measurement: 1.5, Ok, 1 attempt
        0x02, 0x15, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x01, 0x00,
        0x00, 0x00, 0xa7, 0x66, 0x01, 0x20,
        // Measurement: TimedOut, 3 attempts
        0x02, 0x15, 0x00, 0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0x00,
        0x00, 0x00, 0x93, 0xe1, 0x03, 0xb6,
        // Checkpoint: Complete, round 4, attempted 2, sampled 1, 1.5
        0x03, 0x1d, 0x00, 0x01, 0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x59,
        0xeb, 0xac, 0x04,
    };
    std::ifstream in(path.str(), std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, std::vector<std::uint8_t>(std::begin(expected),
                                               std::end(expected)));
}

TEST(Journal, HeaderRoundtrip)
{
    TempPath path("journal_test_header");
    { MeasurementJournal journal(path.str(), testHeader(9, 0xfeed)); }

    const JournalRecovery recovery = core::recoverJournal(path.str());
    EXPECT_TRUE(recovery.fileExists);
    ASSERT_TRUE(recovery.headerValid) << recovery.error;
    EXPECT_TRUE(recovery.header == testHeader(9, 0xfeed));
    EXPECT_FALSE(recovery.header == testHeader(9, 0xbeef));
    EXPECT_FALSE(recovery.header == testHeader(8, 0xfeed));
    EXPECT_TRUE(recovery.batches.empty());
    EXPECT_EQ(recovery.validBytes, fileSize(path.str()));
    EXPECT_EQ(recovery.truncatedBytes, 0u);
}

TEST(Journal, BatchAndCheckpointRoundtrip)
{
    TempPath path("journal_test_roundtrip");
    writeTwoGroups(path.str());

    const JournalRecovery recovery = core::recoverJournal(path.str());
    ASSERT_TRUE(recovery.headerValid) << recovery.error;
    ASSERT_EQ(recovery.batches.size(), 2u);
    EXPECT_EQ(recovery.measurementCount(), 3u);

    const JournalBatch &first = recovery.batches[0];
    EXPECT_EQ(first.round, 0u);
    ASSERT_EQ(first.measurements.size(), 2u);
    EXPECT_EQ(first.measurements[0].keyHash, 11u);
    EXPECT_EQ(first.measurements[0].outcome.value, 1.5);
    EXPECT_TRUE(first.measurements[0].outcome.ok());
    EXPECT_EQ(first.measurements[1].keyHash, 22u);
    EXPECT_EQ(first.measurements[1].outcome.attempts, 3u);

    const JournalBatch &second = recovery.batches[1];
    EXPECT_EQ(second.round, 1u);
    ASSERT_EQ(second.measurements.size(), 1u);
    EXPECT_EQ(second.measurements[0].keyHash, 33u);
    EXPECT_EQ(second.measurements[0].outcome.status,
              MeasureStatus::TimedOut);
    EXPECT_EQ(second.measurements[0].outcome.attempts, 2u);

    ASSERT_EQ(recovery.checkpoints.size(), 1u);
    EXPECT_EQ(recovery.checkpoints[0].kind, CheckpointKind::Progress);
    EXPECT_EQ(recovery.checkpoints[0].round, 1u);
    EXPECT_EQ(recovery.checkpoints[0].attempted, 2u);
    EXPECT_EQ(recovery.checkpoints[0].best, 2.5);
    EXPECT_EQ(recovery.validBytes, fileSize(path.str()));
}

TEST(Journal, TornTailTruncatedAtEveryByte)
{
    TempPath full("journal_test_torn_full");
    writeTwoGroups(full.str());
    const JournalRecovery intact = core::recoverJournal(full.str());
    ASSERT_TRUE(intact.headerValid);
    const std::uint64_t size = fileSize(full.str());

    // Where recovery may legitimately commit: after the header, after
    // each complete group, and after the checkpoint between them.
    // Truncating anywhere must recover exactly the longest committed
    // prefix at or below the cut — never a partial record, never
    // bytes past the cut.
    for (std::uint64_t cut = 44; cut < size; ++cut) {
        TempPath torn("journal_test_torn_cut");
        std::filesystem::copy_file(
            full.str(), torn.str(),
            std::filesystem::copy_options::overwrite_existing);
        truncateTo(torn.str(), cut);

        const JournalRecovery r = core::recoverJournal(torn.str());
        ASSERT_TRUE(r.headerValid)
            << "cut at " << cut << ": " << r.error;
        EXPECT_LE(r.validBytes, cut) << "cut at " << cut;
        EXPECT_EQ(r.validBytes + r.truncatedBytes, cut)
            << "cut at " << cut;
        // A group is either fully recovered or fully dropped.
        for (const JournalBatch &b : r.batches) {
            const std::size_t expected =
                b.round == 0 ? 2u : 1u;
            EXPECT_EQ(b.measurements.size(), expected)
                << "cut at " << cut;
        }
        EXPECT_LE(r.batches.size(), 2u) << "cut at " << cut;
    }
}

TEST(Journal, CorruptTailByteDropsItsGroup)
{
    TempPath path("journal_test_corrupt");
    writeTwoGroups(path.str());
    const std::uint64_t size = fileSize(path.str());

    // Flip a byte inside the last record (its CRC): recovery must
    // drop the whole second group but keep the first intact.
    flipByteAt(path.str(), size - 1);
    const JournalRecovery r = core::recoverJournal(path.str());
    ASSERT_TRUE(r.headerValid) << r.error;
    ASSERT_EQ(r.batches.size(), 1u);
    EXPECT_EQ(r.batches[0].measurements.size(), 2u);
    EXPECT_GT(r.truncatedBytes, 0u);
    EXPECT_EQ(r.validBytes + r.truncatedBytes, size);
}

TEST(Journal, IncompleteGroupIsDropped)
{
    TempPath path("journal_test_incomplete");
    {
        MeasurementJournal journal(path.str(), testHeader());
        journal.beginBatch(0, 1);
        journal.appendMeasurement(1, okOutcome(1.0));
        journal.sync();
        // A group that promises 3 measurements but the process dies
        // after 1: every record is intact, the group is not.
        journal.beginBatch(1, 3);
        journal.appendMeasurement(2, okOutcome(2.0));
        journal.sync();
    }

    const JournalRecovery r = core::recoverJournal(path.str());
    ASSERT_TRUE(r.headerValid) << r.error;
    ASSERT_EQ(r.batches.size(), 1u);
    EXPECT_EQ(r.batches[0].round, 0u);
    EXPECT_GT(r.truncatedBytes, 0u);
}

TEST(Journal, UnusableFilesReportErrors)
{
    TempPath missing("journal_test_missing");
    const JournalRecovery none = core::recoverJournal(missing.str());
    EXPECT_FALSE(none.fileExists);
    EXPECT_FALSE(none.headerValid);
    EXPECT_FALSE(none.error.empty());

    TempPath empty("journal_test_empty");
    { std::ofstream touch(empty.str(), std::ios::binary); }
    const JournalRecovery hollow = core::recoverJournal(empty.str());
    EXPECT_TRUE(hollow.fileExists);
    EXPECT_FALSE(hollow.headerValid);
    EXPECT_FALSE(hollow.error.empty());

    TempPath magic("journal_test_magic");
    writeTwoGroups(magic.str());
    flipByteAt(magic.str(), 0);
    const JournalRecovery bad = core::recoverJournal(magic.str());
    EXPECT_FALSE(bad.headerValid);
    EXPECT_FALSE(bad.error.empty());
}

TEST(Journal, AppendAfterRecoveryTruncatesTheTornTail)
{
    TempPath path("journal_test_reopen");
    writeTwoGroups(path.str());
    // Tear the last record, recover, reopen for append.
    truncateTo(path.str(), fileSize(path.str()) - 2);
    const JournalRecovery first = core::recoverJournal(path.str());
    ASSERT_TRUE(first.headerValid);
    ASSERT_EQ(first.batches.size(), 1u);

    {
        MeasurementJournal journal(path.str(), first, {});
        journal.beginBatch(5, 1);
        journal.appendMeasurement(99, okOutcome(9.0));
        journal.sync();
    }

    const JournalRecovery second = core::recoverJournal(path.str());
    ASSERT_TRUE(second.headerValid) << second.error;
    ASSERT_EQ(second.batches.size(), 2u);
    EXPECT_EQ(second.batches[0].measurements.size(), 2u);
    EXPECT_EQ(second.batches[1].round, 5u);
    EXPECT_EQ(second.batches[1].measurements[0].keyHash, 99u);
    EXPECT_EQ(second.truncatedBytes, 0u);
}

TEST(Journal, KeyHashIsStableAndDiscriminating)
{
    core::RandomAssignmentSampler sampler(t2, 24, 123);
    const std::vector<core::Assignment> batch = sampler.drawSample(8);
    for (const core::Assignment &a : batch)
        EXPECT_EQ(core::journalKeyHash(a), core::journalKeyHash(a));
    // Distinct random assignments should hash apart (no collision in
    // a tiny draw; a collision here would break replay verification).
    for (std::size_t i = 0; i < batch.size(); ++i)
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
            if (batch[i].canonicalKey() == batch[j].canonicalKey())
                continue;
            EXPECT_NE(core::journalKeyHash(batch[i]),
                      core::journalKeyHash(batch[j]));
        }
}

} // namespace
