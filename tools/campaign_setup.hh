/**
 * @file
 * The `iterate` campaign, defined once for statsched_cli,
 * statsched_worker and bench_shard_scaling: its options, parsed once;
 * the substrate FaultInjecting?(Simulated); the campaign and sharding
 * options; its stdout and exit code. The journal identity, the shard
 * fingerprint and the worker argv all come from one ordered list of
 * the workload options, taken from their text as given, so journals
 * and workers of every program match byte for byte.
 *
 * The parser refuses a value outside its option's range; the checks
 * here relate options (--instances to the chip, the fault rates to
 * their total, --chaos-garbage-shard to --shards) and exit 2 before
 * anything is built from a value, which would abort on a contract
 * deep in the sampler or the fault injector instead.
 */

#ifndef STATSCHED_TOOLS_CAMPAIGN_SETUP_HH
#define STATSCHED_TOOLS_CAMPAIGN_SETUP_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "core/campaign.hh"
#include "core/fault_injection.hh"
#include "core/sharded_engine.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace statsched
{
namespace tools
{

/**
 * The largest count --samples, --ninit, --ndelta, --max and --draws
 * accept: 2^32 draws, which already need more than 100 GiB (a round
 * reserves its whole batch, and the estimator keeps every measurement
 * twice). A larger count made vector::reserve throw (exit 134).
 */
constexpr double maxSampleCount = 0x1p32;

/** Parses argv[first..argc) or exits 2, printing the reason and the
 *  usage text after `who`. */
void parseOrDie(const char *who, base::OptionParser &parser, int argc,
                char **argv, int first);

/** Declares the seven workload options, --benchmark, --instances and
 *  --fault-*: everything that decides a measured value. */
void addWorkloadOptions(base::OptionParser &parser);
/** Declares the workload options, --threads, --no-memoize, --retries. */
void addEngineOptions(base::OptionParser &parser);
/** Declares the engine options, then those of `iterate`. */
void addIterateOptions(base::OptionParser &parser);

/** The workload options, parsed. */
struct Workload
{
    sim::Benchmark benchmark = sim::Benchmark::IpfwdL1;
    std::uint32_t instances = 0;
    core::FaultOptions faults;
    /** Each option's text as given, in declaration order. */
    std::array<std::string, 7> text;

    /** @return the texts joined by '|': what the shard fingerprint
     *  hashes and the journal identity starts with. */
    std::string identity() const;
    /** @return the fingerprint a worker of this workload echoes. */
    std::uint64_t fingerprint() const;
    /** @return the command line of a worker serving this workload. */
    std::vector<std::string> workerArgv(const std::string &path) const;
};

/** @return the workload options of `args` (the fallbacks where it
 *  parsed none); exits 2 after `who` on an unknown benchmark, more
 *  instances than `topo` holds, or fault rates over 100 % together. */
Workload workloadOrDie(const char *who, const base::OptionParser &args,
                       const core::Topology &topo);

/** FaultInjecting?(Simulated): what a worker serves, and what the CLI
 *  runs under a core::ParallelEngine. */
struct Substrate
{
    explicit Substrate(const Workload &workload);

    /** @return the top of the substrate. */
    core::PerformanceEngine &
    engine()
    {
        return faulty ? static_cast<core::PerformanceEngine &>(*faulty)
                      : simulated;
    }

    sim::SimulatedEngine simulated;
    std::optional<core::FaultInjectingEngine> faulty;
};

/** The engine options: the workload and how the CLI measures it. */
struct EngineConfig
{
    Workload workload;
    unsigned threads = 0;
    bool memoize = true;
    /** Policy of the resilient layer, which exists when the workload
     *  injects faults. */
    core::ResilientOptions resilience;
};

/** @return the engine options of `args`; exits 2 as workloadOrDie. */
EngineConfig engineConfigOrDie(const char *who,
                               const base::OptionParser &args,
                               const core::Topology &topo);

/** An `iterate` campaign, parsed once from its options. */
struct IterateCampaign
{
    EngineConfig engine;
    std::uint64_t seed = 0;
    /** --loss in percent, as the first stdout line prints it. */
    double lossPercent = 0.0;
    /** All runCampaign takes but the pool, clock, health and stop
     *  predicate, which belong to the running program. */
    core::CampaignOptions campaign;
    std::size_t shards = 0;
    double shardDeadlineSeconds = 0.0;
    double auditFraction = 0.0;
    /** The slot whose worker corrupts values, or -1. */
    long garbageShard = -1;
    std::string workerPath;
};

/** @return the campaign of the iterate options in `args`, whose worker
 *  is `defaultWorker` unless --worker names one. Exits 2 by name on
 *  --resume without --journal, a --journal-on-error other than abort
 *  or degrade, a --chaos-garbage-shard not below --shards, and as
 *  engineConfigOrDie. */
IterateCampaign iterateCampaignOrDie(const base::OptionParser &args,
                                     const core::Topology &topo,
                                     const std::string &defaultWorker);

/** @return the sharding of `campaign` for `tasks` tasks on `topo`:
 *  the Hello its workers must send, deadlines on `clock`, the audit,
 *  and shard transitions reported to `health`. */
core::ShardedOptions shardedOptions(const IterateCampaign &campaign,
                                    const core::Topology &topo,
                                    std::uint32_t tasks,
                                    base::Clock &clock,
                                    core::Health &health);

/** @return worker processes for the campaign's slots; the
 *  --chaos-garbage-shard slot's worker runs with --garbage-values. */
core::ShardBackendFactory shardBackends(const IterateCampaign &campaign,
                                        base::Clock &clock);

/** @return iterate's stdout: only the deterministic outcome, the same
 *  bytes after a kill and resume; empty if the campaign did not run. */
std::string renderIterateStdout(const core::CampaignResult &result,
                                double lossPercent);

/**
 * @return iterate's exit code: 0 target met, 2 journal unusable or
 *         diverged, 3 sample cap reached, 4 engine failure,
 *         5 interrupted, 6 deadline or budget spent, and 7 in place of
 *         0 when a component ran degraded (exact results, impaired
 *         journal, shards or final estimate).
 */
int iterateExitCode(const core::CampaignResult &result,
                    const core::Health &health);

} // namespace tools
} // namespace statsched

#endif // STATSCHED_TOOLS_CAMPAIGN_SETUP_HH
