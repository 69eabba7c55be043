/**
 * @file
 * The `iterate` campaign's options, substrate, sharding, stdout and
 * exit code.
 */

#include "tools/campaign_setup.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "base/io.hh"
#include "core/record_codec.hh"
#include "core/shard_protocol.hh"

namespace statsched
{
namespace tools
{

namespace
{

using base::OptionParser;

/** The workload options in declaration order, which the identity, the
 *  fingerprint and the worker argv follow: reordering them would
 *  orphan every journal and every worker. */
constexpr std::array<const char *, 7> workloadOptions = {
    "benchmark", "instances", "fault-rate", "fault-garbage",
    "fault-outlier", "fault-hang", "fault-seed",
};

/** Appends printf-formatted text to `out`. */
template <typename... Args>
void
appendf(std::string &out, const char *format, Args... args)
{
    const int n = std::snprintf(nullptr, 0, format, args...);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::snprintf(out.data() + at, out.size() - at, format, args...);
    out.resize(at + static_cast<std::size_t>(n));
}

} // anonymous namespace

void
parseOrDie(const char *who, OptionParser &parser, int argc, char **argv,
           int first)
{
    if (!parser.parse(argc, argv, first)) {
        std::fprintf(stderr, "%s: %s\noptions:\n%s", who,
                     parser.error().c_str(), parser.usage().c_str());
        std::exit(2);
    }
}

void
addWorkloadOptions(OptionParser &parser)
{
    parser.addOption("benchmark", "ipfwd-l1", "workload kernel");
    parser.addInt("instances", "8", "pipeline instances", 1);
    parser.addReal("fault-rate", "0",
                   "injected transient failure percent", 0, 100);
    parser.addReal("fault-garbage", "0", "injected NaN reading percent",
                   0, 100);
    parser.addReal("fault-outlier", "0", "injected silent outlier percent",
                   0, 100);
    parser.addReal("fault-hang", "0", "injected modeled hang percent", 0,
                   100);
    parser.addInt("fault-seed", "1024023", "fault injection seed");
}

void
addEngineOptions(OptionParser &parser)
{
    addWorkloadOptions(parser);
    parser.addInt("threads", "0",
                  "pool threads that measure, draw the samples and "
                  "compute memo keys (0 = all cpus but one)",
                  0, std::numeric_limits<unsigned>::max());
    parser.addFlag("no-memoize",
                   "measure duplicate assignments afresh");
    // The attempt count, retries + 1, must fit its 32 bits.
    parser.addInt("retries", "3", "retry attempts per failed measurement",
                  0, std::numeric_limits<std::uint32_t>::max() - 1);
}

void
addIterateOptions(OptionParser &parser)
{
    addEngineOptions(parser);
    parser.addReal("loss", "2.5", "acceptable loss percent", 0, 100,
                   OptionParser::Open);
    parser.addInt("seed", "7", "sampler seed");
    parser.addInt("ninit", "1000", "initial sample size", 1,
                  maxSampleCount);
    parser.addInt("ndelta", "100", "per-iteration increment", 1,
                  maxSampleCount);
    parser.addInt("max", "20000", "total sample cap", 1, maxSampleCount);
    parser.addFlag("confident",
                   "stop against the upper CI bound of the UPB (builds "
                   "the CI every round: about twice the estimator's "
                   "time)");
    parser.addFlag("cold-fits",
                   "restart every GPD fit from the moment estimate "
                   "(bit-identical to from-scratch estimation)");
    parser.addOption("journal", "",
                     "crash-safe measurement journal path");
    parser.addFlag("resume",
                   "resume a campaign from its --journal file");
    parser.addOption("journal-on-error", "abort",
                     "journal media failure policy: abort | degrade "
                     "(drop to memory-only recording)");
    parser.addInt("journal-fault-at", "0",
                  "chaos: fail journal writes after N bytes (0 = off)", 0);
    parser.addReal("audit-fraction", "0",
                   "fraction of sharded measurements duplicated to a "
                   "second worker for Byzantine auditing", 0, 1);
    parser.addInt("chaos-garbage-shard", "-1",
                  "chaos: give this shard slot a value-corrupting "
                  "worker (-1 = none)", -1);
    parser.addReal("deadline-s", "0",
                   "wall-clock budget in seconds (0 = none)", 0);
    parser.addInt("max-measurements", "0",
                  "measurement budget (0 = none)", 0);
    parser.addInt("max-rounds", "0", "round budget (0 = none)", 0);
    parser.addInt("shards", "0",
                  "measurement worker processes (0 = in-process)", 0);
    // A worker's send stall is bounded by its milliseconds, an int.
    parser.addReal("shard-deadline-s", "30",
                   "per-request worker deadline in seconds", 0, 2147483,
                   OptionParser::Open);
    parser.addOption("worker", "",
                     "worker binary (default: statsched_worker next "
                     "to this binary)");
}

std::string
Workload::identity() const
{
    std::string joined = text[0];
    for (std::size_t i = 1; i < text.size(); ++i)
        joined += "|" + text[i];
    return joined;
}

std::uint64_t
Workload::fingerprint() const
{
    return core::shardConfigFingerprint(identity());
}

std::vector<std::string>
Workload::workerArgv(const std::string &path) const
{
    std::vector<std::string> argv = {path};
    for (std::size_t i = 0; i < text.size(); ++i) {
        argv.push_back(std::string("--") + workloadOptions[i]);
        argv.push_back(text[i]);
    }
    argv.push_back("--config-hash");
    argv.push_back(std::to_string(fingerprint()));
    return argv;
}

Workload
workloadOrDie(const char *who, const OptionParser &args,
              const core::Topology &topo)
{
    Workload w;
    for (std::size_t i = 0; i < workloadOptions.size(); ++i)
        w.text[i] = args.get(workloadOptions[i]);
    static const std::pair<const char *, sim::Benchmark> names[] = {
        {"ipfwd-l1", sim::Benchmark::IpfwdL1},
        {"ipfwd-mem", sim::Benchmark::IpfwdMem},
        {"analyzer", sim::Benchmark::PacketAnalyzer},
        {"aho", sim::Benchmark::AhoCorasick},
        {"stateful", sim::Benchmark::Stateful},
        {"intadd", sim::Benchmark::IpfwdIntAdd},
        {"intmul", sim::Benchmark::IpfwdIntMul},
    };
    const std::string benchmark = args.get("benchmark");
    const auto named = std::find_if(
        std::begin(names), std::end(names),
        [&](const auto &name) { return benchmark == name.first; });
    if (named == std::end(names)) {
        std::fprintf(stderr, "%s: unknown benchmark '%s' (ipfwd-l1, "
                     "ipfwd-mem, analyzer, aho, stateful, intadd, "
                     "intmul)\n", who, benchmark.c_str());
        std::exit(2);
    }
    w.benchmark = named->second;

    // Few enough instances that every task has a context of its own.
    const long instances = args.getInt("instances");
    const std::uint32_t perInstance =
        sim::makeWorkload(w.benchmark, 1).taskCount();
    const long most = topo.contexts() / perInstance;
    if (instances > most) {
        std::fprintf(stderr,
                     "%s: '--instances' must be in [1, %ld]: %u tasks "
                     "each on %u contexts (got %s)\n",
                     who, most, perInstance, topo.contexts(),
                     args.get("instances").c_str());
        std::exit(2);
    }
    w.instances = static_cast<std::uint32_t>(instances);

    w.faults.transientRate = args.getDouble("fault-rate") / 100.0;
    w.faults.garbageRate = args.getDouble("fault-garbage") / 100.0;
    w.faults.outlierRate = args.getDouble("fault-outlier") / 100.0;
    w.faults.hangRate = args.getDouble("fault-hang") / 100.0;
    w.faults.seed = static_cast<std::uint64_t>(args.getInt("fault-seed"));
    if (w.faults.totalRate() > 1.0) {
        std::fprintf(stderr,
                     "%s: fault rates add up to more than 100%%\n",
                     who);
        std::exit(2);
    }
    return w;
}

Substrate::Substrate(const Workload &workload)
    : simulated(sim::makeWorkload(workload.benchmark, workload.instances))
{
    if (workload.faults.totalRate() > 0.0)
        faulty.emplace(simulated, workload.faults);
}

EngineConfig
engineConfigOrDie(const char *who, const OptionParser &args,
                  const core::Topology &topo)
{
    EngineConfig config;
    config.workload = workloadOrDie(who, args, topo);
    config.threads = static_cast<unsigned>(args.getInt("threads"));
    config.memoize = !args.flag("no-memoize");
    config.resilience.maxAttempts =
        static_cast<std::uint32_t>(args.getInt("retries")) + 1;
    return config;
}

IterateCampaign
iterateCampaignOrDie(const OptionParser &args, const core::Topology &topo,
                     const std::string &defaultWorker)
{
    IterateCampaign c;
    core::CampaignOptions &campaign = c.campaign;
    if (args.flag("resume") && args.get("journal").empty()) {
        std::fprintf(stderr,
                     "iterate: '--resume' requires '--journal'\n");
        std::exit(2);
    }
    const std::string onError = args.get("journal-on-error");
    if (onError != "abort" && onError != "degrade") {
        std::fprintf(stderr, "iterate: '--journal-on-error' must be "
                     "'abort' or 'degrade' (got %s)\n",
                     onError.c_str());
        std::exit(2);
    }
    c.shards = static_cast<std::size_t>(args.getInt("shards"));
    c.garbageShard = args.getInt("chaos-garbage-shard");
    if (c.garbageShard >= args.getInt("shards")) {
        std::fprintf(stderr, "iterate: '--chaos-garbage-shard' must "
                     "name a slot below '--shards'\n");
        std::exit(2);
    }
    c.engine = engineConfigOrDie("engine", args, topo);
    c.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    c.lossPercent = args.getDouble("loss");
    c.shardDeadlineSeconds = args.getDouble("shard-deadline-s");
    c.auditFraction = args.getDouble("audit-fraction");
    c.workerPath = args.get("worker").empty() ? defaultWorker
                                              : args.get("worker");

    core::IterativeOptions &search = campaign.iterative;
    search.acceptableLoss = c.lossPercent / 100.0;
    search.initialSample = static_cast<std::size_t>(args.getInt("ninit"));
    search.incrementSample =
        static_cast<std::size_t>(args.getInt("ndelta"));
    search.maxSample = static_cast<std::size_t>(args.getInt("max"));
    search.useUpperConfidenceBound = args.flag("confident");
    search.warmStartFits = !args.flag("cold-fits");

    campaign.journalPath = args.get("journal");
    campaign.resume = args.flag("resume");
    // The failure-domain options are operational only and stay out of
    // the identity hash: a resumed run may change them.
    campaign.journalOnError = onError == "degrade"
        ? core::JournalErrorPolicy::Degrade
        : core::JournalErrorPolicy::Abort;
    if (const long faultAt = args.getInt("journal-fault-at"); faultAt > 0) {
        auto plan = std::make_shared<base::io::FaultPlan>();
        plan->failAfterBytes = static_cast<std::uint64_t>(faultAt);
        campaign.journalSinkFactory =
            base::io::faultInjectingFileSinkFactory(std::move(plan));
    }
    campaign.deadlineSeconds = args.getDouble("deadline-s");
    campaign.maxMeasurements =
        static_cast<std::uint64_t>(args.getInt("max-measurements"));
    campaign.maxRounds = static_cast<std::size_t>(args.getInt("max-rounds"));
    campaign.memoize = c.engine.memoize;
    campaign.resilient = c.engine.workload.faults.totalRate() > 0.0;
    campaign.resilience = c.engine.resilience;

    // Identity hash: everything that steers measurement results or the
    // search trajectory. Threads, budgets, deadlines and the shard
    // options stay out: the results are bit-identical under any thread
    // or shard count, and a resume may tighten or drop a budget.
    campaign.configHash = core::fnv1a64(
        c.engine.workload.identity() + "|" + args.get("retries") + "|" +
        args.get("loss") + "|" + args.get("ninit") + "|" +
        args.get("ndelta") + "|" + args.get("max") + "|" +
        (args.flag("confident") ? "c1" : "c0") + "|" +
        (args.flag("cold-fits") ? "f1" : "f0") + "|" +
        (args.flag("no-memoize") ? "m0" : "m1"));
    return c;
}

core::ShardedOptions
shardedOptions(const IterateCampaign &campaign, const core::Topology &topo,
               std::uint32_t tasks, base::Clock &clock,
               core::Health &health)
{
    core::ShardedOptions sharding;
    sharding.shards = campaign.shards;
    sharding.requestDeadlineSeconds = campaign.shardDeadlineSeconds;
    sharding.expected = core::ShardHello::forCampaign(
        topo, tasks, campaign.engine.workload.fingerprint());
    sharding.clock = &clock;
    sharding.auditFraction = campaign.auditFraction;
    sharding.auditSeed = campaign.seed;
    sharding.health = &health;
    return sharding;
}

core::ShardBackendFactory
shardBackends(const IterateCampaign &campaign, base::Clock &clock)
{
    // Its corrupted values carry valid frames and CRCs: only the audit
    // can tell the Byzantine worker from an honest one.
    return core::makeProcessShardFactory(
        [argv = campaign.engine.workload.workerArgv(campaign.workerPath),
         garbage = campaign.garbageShard](std::size_t index) {
            std::vector<std::string> slot = argv;
            if (static_cast<long>(index) == garbage)
                slot.push_back("--garbage-values");
            return slot;
        },
        clock, campaign.shardDeadlineSeconds);
}

std::string
renderIterateStdout(const core::CampaignResult &result,
                    double lossPercent)
{
    std::string out;
    if (!result.ran)
        return out;
    const core::IterativeResult &run = result.search;
    appendf(out,
            "target loss %.2f%%: %s after %zu assignments "
            "(%zu iterations)\n",
            lossPercent, run.satisfied ? "met" : "NOT met",
            run.totalSampled, run.steps.size());
    if (run.totalFailed != 0)
        appendf(out, "failed measurements: %zu of %zu attempted\n",
                run.totalFailed, run.totalAttempted);
    if (!run.steps.empty())
        appendf(out, "final: best %.0f PPS, UPB %.0f PPS, loss %.2f%%\n",
                run.final.bestObserved, run.final.pot.upb,
                100.0 * run.steps.back().loss);
    if (run.final.bestAssignment)
        out += "best assignment:    " +
            run.final.bestAssignment->toString() + "\n";
    return out;
}

int
iterateExitCode(const core::CampaignResult &result,
                const core::Health &health)
{
    if (!result.ran || !result.journalError.empty())
        return 2;
    switch (result.search.abortKind) {
      case core::AbortKind::None:
        break;
      case core::AbortKind::EngineFailure:
        return 4;
      case core::AbortKind::Interrupted:
        return 5;
      case core::AbortKind::DeadlineExceeded:
      case core::AbortKind::BudgetExhausted:
      case core::AbortKind::RoundLimit:
        return 6;
    }
    if (!result.search.satisfied)
        return 3;
    return health.worst() == core::HealthLevel::Ok ? 0 : 7;
}

} // namespace tools
} // namespace statsched
