/**
 * @file
 * Campaign runtime tests. The acceptance criterion of the durable
 * runtime: a campaign SIGKILLed at an arbitrary point and resumed
 * from its journal finishes bit-identical to an uninterrupted run.
 * The harness below simulates the kill by truncating the journal at
 * every record boundary (and mid-record) and asserting exact
 * equality of every step, estimate and counter after resume.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/clock.hh"
#include "core/campaign.hh"
#include "core/fault_injection.hh"
#include "core/parallel_engine.hh"
#include "core/topology.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "temp_path.hh"

namespace
{

using namespace statsched;
using core::AbortKind;
using core::CampaignOptions;
using core::CampaignResult;
using core::IterativeResult;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();
constexpr std::uint32_t kTasks = 24;
constexpr std::uint64_t kSeed = 5;
constexpr std::uint64_t kConfigHash = 0x5eed;

using statsched::test::TempPath;

/**
 * The substrate the journal wraps: Parallel(Fault(Sim)). The upper
 * layers (Resilient, Memoizing, Metered) are assembled by
 * runCampaign itself, in the sanctioned order.
 */
struct Substrate
{
    sim::SimulatedEngine sim;
    core::FaultInjectingEngine faulty;
    core::ParallelEngine parallel;

    explicit Substrate(unsigned threads = 2)
        : sim(sim::makeWorkload(sim::Benchmark::IpfwdL1, 8)),
          faulty(sim, faultOptions()), parallel(faulty, threads)
    {
    }

    static core::FaultOptions
    faultOptions()
    {
        core::FaultOptions faults;
        faults.transientRate = 0.10;
        return faults;
    }
};

/** Campaign configuration shared by the baseline and every resume. */
CampaignOptions
baseOptions(const std::string &journalPath)
{
    CampaignOptions options;
    options.iterative.initialSample = 100;
    options.iterative.incrementSample = 50;
    options.iterative.acceptableLoss = 0.0001; // never satisfied...
    options.iterative.maxSample = 250;         // ...runs to the cap
    options.journalPath = journalPath;
    options.configHash = kConfigHash;
    options.resilient = true;
    options.resilience.maxAttempts = 3;
    options.memoize = true;
    return options;
}

CampaignResult
runFresh(const std::string &journalPath, unsigned threads = 2)
{
    Substrate substrate(threads);
    return core::runCampaign(substrate.parallel, t2, kTasks, kSeed,
                             baseOptions(journalPath));
}

CampaignResult
runResumed(const std::string &journalPath, unsigned threads = 2)
{
    Substrate substrate(threads);
    CampaignOptions options = baseOptions(journalPath);
    options.resume = true;
    return core::runCampaign(substrate.parallel, t2, kTasks, kSeed,
                             options);
}

/** Asserts two search results are bit-identical, field by field. */
void
expectBitIdentical(const IterativeResult &a, const IterativeResult &b,
                   const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_EQ(a.satisfied, b.satisfied);
    EXPECT_EQ(a.totalSampled, b.totalSampled);
    EXPECT_EQ(a.totalAttempted, b.totalAttempted);
    EXPECT_EQ(a.totalFailed, b.totalFailed);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        EXPECT_EQ(a.steps[i].sampleSize, b.steps[i].sampleSize);
        EXPECT_EQ(a.steps[i].bestObserved, b.steps[i].bestObserved);
        EXPECT_EQ(a.steps[i].upb, b.steps[i].upb);
        EXPECT_EQ(a.steps[i].lossTarget, b.steps[i].lossTarget);
        EXPECT_EQ(a.steps[i].loss, b.steps[i].loss);
        EXPECT_EQ(a.steps[i].attempted, b.steps[i].attempted);
        EXPECT_EQ(a.steps[i].failed, b.steps[i].failed);
    }
    ASSERT_EQ(a.final.sample.size(), b.final.sample.size());
    EXPECT_EQ(a.final.sample, b.final.sample);
    EXPECT_EQ(a.final.bestObserved, b.final.bestObserved);
    EXPECT_EQ(a.final.pot.upb, b.final.pot.upb);
    EXPECT_EQ(a.final.pot.upbLower, b.final.pot.upbLower);
    EXPECT_EQ(a.final.pot.upbUpper, b.final.pot.upbUpper);
    EXPECT_EQ(a.final.pot.valid, b.final.pot.valid);
    ASSERT_EQ(a.final.bestAssignment.has_value(),
              b.final.bestAssignment.has_value());
    if (a.final.bestAssignment) {
        EXPECT_EQ(a.final.bestAssignment->canonicalKey(),
                  b.final.bestAssignment->canonicalKey());
    }
}

/**
 * @return byte offsets of every record boundary in the journal:
 * positions where a SIGKILL would leave a clean prefix. Offsets
 * between them (mid-record) model a torn write.
 */
std::vector<std::uint64_t>
recordBoundaries(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    std::vector<std::uint64_t> boundaries;
    std::uint64_t at = 44; // header size
    while (at < bytes.size()) {
        boundaries.push_back(at);
        // frame: type:u8 size:u16(LE) payload crc:u32
        const std::uint64_t size = static_cast<std::uint64_t>(
            bytes[at + 1] | (bytes[at + 2] << 8));
        at += 1 + 2 + size + 4;
    }
    boundaries.push_back(at); // end of file
    return boundaries;
}

void
copyTruncated(const std::string &from, const std::string &to,
              std::uint64_t size)
{
    std::filesystem::copy_file(
        from, to, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(to, size);
}

TEST(Campaign, JournalingLayerIsTransparent)
{
    TempPath journal("campaign_test_transparent");
    const CampaignResult journaled = runFresh(journal.str());
    ASSERT_TRUE(journaled.ran);
    EXPECT_TRUE(journaled.journalError.empty());
    EXPECT_GT(journaled.recordedMeasurements, 0u);

    Substrate substrate;
    CampaignOptions plain = baseOptions("");
    const CampaignResult bare = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed, plain);
    ASSERT_TRUE(bare.ran);
    expectBitIdentical(journaled.search, bare.search,
                       "journaled vs plain");
}

TEST(Campaign, ResumeAfterKillAtEveryRecordBoundaryIsBitIdentical)
{
    TempPath full("campaign_test_kill_full");
    const CampaignResult baseline = runFresh(full.str());
    ASSERT_TRUE(baseline.ran);
    ASSERT_TRUE(baseline.journalError.empty());
    EXPECT_FALSE(baseline.aborted());

    const std::vector<std::uint64_t> boundaries =
        recordBoundaries(full.str());
    ASSERT_GT(boundaries.size(), 10u);

    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        TempPath torn("campaign_test_kill_cut");
        copyTruncated(full.str(), torn.str(), boundaries[i]);
        // Alternate the resumed thread count: batch decomposition
        // must not leak into the statistics.
        const unsigned threads = (i % 2 == 0) ? 1 : 4;
        const CampaignResult resumed =
            runResumed(torn.str(), threads);
        ASSERT_TRUE(resumed.ran) << resumed.journalError;
        ASSERT_TRUE(resumed.journalError.empty())
            << "boundary " << i << ": " << resumed.journalError;
        EXPECT_TRUE(resumed.resumed);
        expectBitIdentical(
            baseline.search, resumed.search,
            "kill at record boundary " + std::to_string(i) + " (" +
                std::to_string(boundaries[i]) + " bytes)");
        EXPECT_EQ(resumed.replayedMeasurements +
                      resumed.recordedMeasurements,
                  baseline.recordedMeasurements)
            << "boundary " << i;
    }
}

TEST(Campaign, ResumeAfterTornRecordIsBitIdentical)
{
    TempPath full("campaign_test_torn_full");
    const CampaignResult baseline = runFresh(full.str());
    ASSERT_TRUE(baseline.ran);

    const std::vector<std::uint64_t> boundaries =
        recordBoundaries(full.str());
    // Cut mid-record — 3 bytes past a boundary lands inside the
    // frame header/payload; the final cut tears the last record.
    std::vector<std::uint64_t> cuts;
    for (std::size_t i = 1; i < boundaries.size();
         i += boundaries.size() / 7 + 1)
        cuts.push_back(boundaries[i - 1] + 3);
    cuts.push_back(boundaries.back() - 1); // torn final record

    for (const std::uint64_t cut : cuts) {
        TempPath torn("campaign_test_torn_cut");
        copyTruncated(full.str(), torn.str(), cut);
        const CampaignResult resumed = runResumed(torn.str());
        ASSERT_TRUE(resumed.ran) << resumed.journalError;
        ASSERT_TRUE(resumed.journalError.empty())
            << "cut at " << cut << ": " << resumed.journalError;
        EXPECT_GT(resumed.journalTruncatedBytes, 0u)
            << "cut at " << cut;
        expectBitIdentical(baseline.search, resumed.search,
                           "torn record at " + std::to_string(cut));
    }
}

TEST(Campaign, InterruptCheckpointsAndResumeCompletes)
{
    TempPath baselinePath("campaign_test_intr_base");
    const CampaignResult baseline = runFresh(baselinePath.str());

    TempPath journal("campaign_test_intr");
    Substrate substrate;
    CampaignOptions options = baseOptions(journal.str());
    int probes = 0;
    options.stopRequested = [&probes] { return ++probes > 2; };
    const CampaignResult interrupted = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed, options);
    ASSERT_TRUE(interrupted.ran);
    EXPECT_EQ(interrupted.search.abortKind, AbortKind::Interrupted);
    EXPECT_FALSE(interrupted.search.abortReason.empty());
    EXPECT_LT(interrupted.search.steps.size(),
              baseline.search.steps.size());
    // The journal carries an Aborted checkpoint and only complete
    // groups — a clean stopping point.
    const core::JournalRecovery recovery =
        core::recoverJournal(journal.str());
    ASSERT_TRUE(recovery.headerValid);
    ASSERT_FALSE(recovery.checkpoints.empty());
    EXPECT_EQ(recovery.checkpoints.back().kind,
              core::CheckpointKind::Aborted);
    EXPECT_EQ(recovery.truncatedBytes, 0u);

    const CampaignResult resumed = runResumed(journal.str());
    ASSERT_TRUE(resumed.ran) << resumed.journalError;
    EXPECT_FALSE(resumed.aborted());
    expectBitIdentical(baseline.search, resumed.search,
                       "resume after interrupt");
}

/** A clock that ticks one second per reading. */
class TickingClock : public base::Clock
{
  public:
    double nowSeconds() override { return now_ += 1.0; }

  private:
    double now_ = 0.0;
};

TEST(Campaign, DeadlineAbortsAndResumeCompletes)
{
    TempPath baselinePath("campaign_test_deadline_base");
    const CampaignResult baseline = runFresh(baselinePath.str());

    TempPath journal("campaign_test_deadline");
    Substrate substrate;
    CampaignOptions options = baseOptions(journal.str());
    TickingClock clock;
    options.clock = &clock;
    options.deadlineSeconds = 1.5; // exceeded at the second probe
    const CampaignResult timed = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed, options);
    ASSERT_TRUE(timed.ran);
    EXPECT_EQ(timed.search.abortKind, AbortKind::DeadlineExceeded);

    const CampaignResult resumed = runResumed(journal.str());
    ASSERT_TRUE(resumed.ran) << resumed.journalError;
    EXPECT_FALSE(resumed.aborted());
    expectBitIdentical(baseline.search, resumed.search,
                       "resume after deadline");
}

TEST(Campaign, MeasurementBudgetAbortsAndResumeCompletes)
{
    TempPath baselinePath("campaign_test_budget_base");
    const CampaignResult baseline = runFresh(baselinePath.str());

    TempPath journal("campaign_test_budget");
    Substrate substrate;
    CampaignOptions options = baseOptions(journal.str());
    options.maxMeasurements = 120;
    const CampaignResult capped = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed, options);
    ASSERT_TRUE(capped.ran);
    EXPECT_EQ(capped.search.abortKind, AbortKind::BudgetExhausted);
    EXPECT_GE(capped.engineStats.measurements, 120u);

    const CampaignResult resumed = runResumed(journal.str());
    ASSERT_TRUE(resumed.ran) << resumed.journalError;
    EXPECT_FALSE(resumed.aborted());
    expectBitIdentical(baseline.search, resumed.search,
                       "resume after budget");
}

TEST(Campaign, RoundLimitAborts)
{
    TempPath journal("campaign_test_rounds");
    Substrate substrate;
    CampaignOptions options = baseOptions(journal.str());
    options.maxRounds = 1;
    const CampaignResult limited = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed, options);
    ASSERT_TRUE(limited.ran);
    EXPECT_EQ(limited.search.abortKind, AbortKind::RoundLimit);
    EXPECT_EQ(limited.search.steps.size(), 1u);
}

TEST(Campaign, ResumeRejectsForeignJournal)
{
    TempPath journal("campaign_test_foreign");
    ASSERT_TRUE(runFresh(journal.str()).ran);

    Substrate substrate;
    CampaignOptions options = baseOptions(journal.str());
    options.resume = true;
    // Same journal, different seed: identity mismatch, not replay.
    const CampaignResult wrongSeed = core::runCampaign(
        substrate.parallel, t2, kTasks, kSeed + 1, options);
    EXPECT_FALSE(wrongSeed.ran);
    EXPECT_FALSE(wrongSeed.journalError.empty());

    // Different config hash: also a mismatch.
    Substrate substrate2;
    CampaignOptions reconfigured = baseOptions(journal.str());
    reconfigured.resume = true;
    reconfigured.configHash = kConfigHash + 1;
    const CampaignResult wrongConfig = core::runCampaign(
        substrate2.parallel, t2, kTasks, kSeed, reconfigured);
    EXPECT_FALSE(wrongConfig.ran);
    EXPECT_FALSE(wrongConfig.journalError.empty());

    // Missing journal: cannot resume what never ran.
    TempPath missing("campaign_test_foreign_missing");
    Substrate substrate3;
    CampaignOptions absent = baseOptions(missing.str());
    absent.resume = true;
    const CampaignResult noFile = core::runCampaign(
        substrate3.parallel, t2, kTasks, kSeed, absent);
    EXPECT_FALSE(noFile.ran);
    EXPECT_FALSE(noFile.journalError.empty());
}

} // namespace
