/**
 * @file
 * Tests of the `iterate` campaign's one definition
 * (tools/campaign_setup.hh): its exit-code map, and the identity bytes
 * a journal and a shard worker are matched by.
 *
 * The pinned hashes and the worker argv were read from the CLI before
 * the campaign moved into the library: the hashes from the headers of
 * journals it wrote, the argv from a stand-in worker it spawned.
 * Journals and workers of that CLI must keep matching.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/clock.hh"
#include "core/shard_protocol.hh"
#include "tools/campaign_setup.hh"

namespace
{

using namespace statsched;
using core::AbortKind;
using core::CampaignResult;
using core::Health;
using core::HealthLevel;

const core::Topology t2 = core::Topology::ultraSparcT2();

/** @return a campaign that ran, stopping as `kind` says. */
CampaignResult
ranResult(AbortKind kind, bool satisfied)
{
    CampaignResult result;
    result.ran = true;
    result.search.abortKind = kind;
    result.search.satisfied = satisfied;
    return result;
}

/** Parses `argv` (after a command word) as the iterate options. */
tools::IterateCampaign
parseIterate(std::vector<std::string> words)
{
    words.insert(words.begin(), {"statsched_cli", "iterate"});
    std::vector<char *> argv;
    for (std::string &word : words)
        argv.push_back(word.data());
    base::OptionParser args;
    tools::addIterateOptions(args);
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data(), 2))
        << args.error();
    return tools::iterateCampaignOrDie(args, t2, "statsched_worker");
}

TEST(IterateExitCode, EveryAbortKindHasItsCode)
{
    const Health ok;
    EXPECT_EQ(tools::iterateExitCode(ranResult(AbortKind::None, true), ok),
              0);
    EXPECT_EQ(
        tools::iterateExitCode(ranResult(AbortKind::None, false), ok), 3);
    EXPECT_EQ(tools::iterateExitCode(
                  ranResult(AbortKind::EngineFailure, false), ok),
              4);
    EXPECT_EQ(tools::iterateExitCode(
                  ranResult(AbortKind::Interrupted, false), ok),
              5);
    for (const AbortKind kind :
         {AbortKind::DeadlineExceeded, AbortKind::BudgetExhausted,
          AbortKind::RoundLimit}) {
        EXPECT_EQ(tools::iterateExitCode(ranResult(kind, false), ok), 6)
            << core::abortKindName(kind);
        // A budget stop is not a met target, even when the search
        // had converged on the round it stopped.
        EXPECT_EQ(tools::iterateExitCode(ranResult(kind, true), ok), 6)
            << core::abortKindName(kind);
    }
}

TEST(IterateExitCode, JournalTroubleIsAUsageError)
{
    const Health ok;
    CampaignResult notRun;
    notRun.journalError = "cannot resume: identity mismatch";
    EXPECT_EQ(tools::iterateExitCode(notRun, ok), 2);
    EXPECT_EQ(tools::iterateExitCode(CampaignResult{}, ok), 2);

    CampaignResult diverged = ranResult(AbortKind::None, true);
    diverged.journalError = "journal replay diverged";
    EXPECT_EQ(tools::iterateExitCode(diverged, ok), 2);
}

TEST(IterateExitCode, DegradedHealthReplacesOnlyZero)
{
    Health health;
    health.transition("journal", HealthLevel::Degraded, "memory only");
    ASSERT_EQ(health.worst(), HealthLevel::Degraded);
    EXPECT_EQ(tools::iterateExitCode(ranResult(AbortKind::None, true),
                                     health),
              7);
    EXPECT_EQ(tools::iterateExitCode(ranResult(AbortKind::None, false),
                                     health),
              3);
    EXPECT_EQ(tools::iterateExitCode(
                  ranResult(AbortKind::EngineFailure, false), health),
              4);
    EXPECT_EQ(tools::iterateExitCode(
                  ranResult(AbortKind::Interrupted, true), health),
              5);
    EXPECT_EQ(tools::iterateExitCode(
                  ranResult(AbortKind::RoundLimit, true), health),
              6);
    EXPECT_EQ(tools::iterateExitCode(CampaignResult{}, health), 2);
}

TEST(CampaignSetup, DefaultConfigHashIsPinned)
{
    EXPECT_EQ(parseIterate({}).campaign.configHash,
              0xaccd917b4afd797cull);
    // Threads, budgets, the journal's options and the shard options
    // stay out of the identity.
    EXPECT_EQ(parseIterate({"--threads", "3", "--max-rounds", "5",
                            "--deadline-s", "9", "--journal-on-error",
                            "degrade", "--shards", "2",
                            "--audit-fraction", "0.5"})
                  .campaign.configHash,
              0xaccd917b4afd797cull);
}

TEST(CampaignSetup, FlagTailConfigHashIsPinned)
{
    EXPECT_EQ(parseIterate({"--confident", "--cold-fits", "--no-memoize"})
                  .campaign.configHash,
              0x44e47dda7f50dac1ull);
}

TEST(CampaignSetup, FaultedWorkerArgvIsPinned)
{
    const tools::IterateCampaign c =
        parseIterate({"--benchmark", "aho", "--instances", "4",
                      "--fault-rate", "5", "--fault-garbage", "1.5"});
    const std::vector<std::string> expected = {
        "/bin/worker",
        "--benchmark", "aho",
        "--instances", "4",
        "--fault-rate", "5",
        "--fault-garbage", "1.5",
        "--fault-outlier", "0",
        "--fault-hang", "0",
        "--fault-seed", "1024023",
        "--config-hash", "12941571468810999442",
    };
    EXPECT_EQ(c.engine.workload.workerArgv("/bin/worker"), expected);
    EXPECT_EQ(c.engine.workload.identity(), "aho|4|5|1.5|0|0|1024023");
    EXPECT_TRUE(c.campaign.resilient);
}

TEST(CampaignSetup, ShardsExpectTheWorkersHello)
{
    const tools::IterateCampaign c =
        parseIterate({"--shards", "2", "--shard-deadline-s", "7",
                      "--audit-fraction", "0.25", "--seed", "11"});
    base::ManualClock clock;
    Health health;
    const core::ShardedOptions sharding =
        tools::shardedOptions(c, t2, 24, clock, health);
    const core::ShardHello want = core::ShardHello::forCampaign(
        t2, 24, c.engine.workload.fingerprint());
    EXPECT_EQ(sharding.expected.version, core::kShardProtocolVersion);
    EXPECT_EQ(sharding.expected.configHash, want.configHash);
    EXPECT_EQ(sharding.expected.cores, t2.cores);
    EXPECT_EQ(sharding.expected.pipesPerCore, t2.pipesPerCore);
    EXPECT_EQ(sharding.expected.strandsPerPipe, t2.strandsPerPipe);
    EXPECT_EQ(sharding.expected.tasks, 24u);
    EXPECT_EQ(sharding.shards, 2u);
    EXPECT_EQ(sharding.requestDeadlineSeconds, 7.0);
    EXPECT_EQ(sharding.auditFraction, 0.25);
    EXPECT_EQ(sharding.auditSeed, 11u);
    EXPECT_EQ(sharding.clock, &clock);
    EXPECT_EQ(sharding.health, &health);
}

TEST(CampaignSetup, StdoutOfACampaignThatDidNotRunIsEmpty)
{
    EXPECT_EQ(tools::renderIterateStdout(CampaignResult{}, 2.5), "");
    CampaignResult empty = ranResult(AbortKind::None, false);
    EXPECT_EQ(tools::renderIterateStdout(empty, 2.5),
              "target loss 2.50%: NOT met after 0 assignments "
              "(0 iterations)\n");
}

} // anonymous namespace
