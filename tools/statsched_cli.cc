/**
 * @file
 * statsched — command-line front end to the library.
 *
 * Subcommands:
 *   count     size of the assignment space (Table 1 style)
 *   capture   capture-probability / sample-size math (Figure 2)
 *   enumerate exhaustive listing of canonical assignments
 *   baselines naive / Linux-like / packed performance on a benchmark
 *   estimate  sample + EVT estimation of the optimal performance
 *   iterate   the Section-5.3 iterative algorithm
 *
 * Run `statsched_cli help` for usage. All stochastic commands accept
 * --seed and are fully reproducible; --threads only changes how the
 * sampling, memo keying and measurement batches are scheduled, never
 * the results.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/clock.hh"
#include "base/shutdown.hh"
#include "core/assignment_space.hh"
#include "core/baselines.hh"
#include "core/campaign.hh"
#include "core/capture_probability.hh"
#include "core/enumerator.hh"
#include "core/estimator.hh"
#include "core/fault_injection.hh"
#include "core/iterative.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/record_codec.hh"
#include "core/resilient_engine.hh"
#include "core/shard_protocol.hh"
#include "core/sharded_engine.hh"
#include "num/duration.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

#include "engine_flags.hh"

namespace
{

using namespace statsched;
using base::OptionParser;

/**
 * The largest count --samples, --ninit, --ndelta, --max and --draws
 * accept: 2^32 draws. A round draws its whole batch of assignments up
 * front, and the estimator keeps every measurement twice, so a sample
 * this large already needs more than 100 GiB. A larger count that fits
 * a long made the up-front vector::reserve throw std::length_error
 * (exit 134); the parser now refuses it with exit 2.
 */
constexpr double maxSampleCount = 0x1p32;

/**
 * @return --topology "CxPxS": three positive integers whose product,
 *         the context count, fits in 32 bits and is at least --tasks.
 *         Exits 2 otherwise, naming both options.
 */
core::Topology
topologyOrDie(const char *command, const OptionParser &args)
{
    const std::string spec = args.get("topology");
    const std::size_t x1 = spec.find('x');
    const std::size_t x2 = spec.find('x', x1 + 1);
    core::Topology topo;
    const bool parsed = x2 != std::string::npos &&
        base::parseNumber(spec.substr(0, x1), topo.cores) &&
        base::parseNumber(spec.substr(x1 + 1, x2 - x1 - 1),
                          topo.pipesPerCore) &&
        base::parseNumber(spec.substr(x2 + 1), topo.strandsPerPipe);
    // Exact in a double up to 2^53; 0, below any --tasks, if a factor is.
    const double contexts = static_cast<double>(topo.cores) *
        topo.pipesPerCore * topo.strandsPerPipe;
    if (!parsed || contexts < static_cast<double>(args.getInt("tasks")) ||
        contexts > std::numeric_limits<std::uint32_t>::max()) {
        std::fprintf(stderr,
                     "%s: '--topology' must be CxPxS, positive integers "
                     "whose product fits in 32 bits and is at least "
                     "'--tasks' (got '%s' and %s)\n",
                     command, spec.c_str(), args.get("tasks").c_str());
        std::exit(2);
    }
    return topo;
}

/** Declares the options shared by every measurement command. */
void
addEngineOptions(OptionParser &parser)
{
    tools::addWorkloadFlags(parser);
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

/**
 * The standard measurement stack (performance_engine.hh ordering):
 * Metered(Memoizing?(Resilient?(Parallel(FaultInjecting?(Sim))))).
 * Fault injection (when any --fault-* rate is set) corrupts
 * measurements deterministically; the pool fans batches out; the
 * resilient layer retries and quarantines; memoization dedups each
 * batch; the meter on top sees every requested measurement.
 */
struct EngineStack
{
    /** The retry policy of the resilient layer (--retries). */
    core::ResilientOptions resilience;
    std::unique_ptr<sim::SimulatedEngine> simulated;
    std::unique_ptr<core::FaultInjectingEngine> faulty;
    std::unique_ptr<core::ParallelEngine> parallel;
    std::unique_ptr<core::ResilientEngine> resilient;
    std::unique_ptr<core::MemoizingEngine> memoizing;
    std::unique_ptr<core::MeteredEngine> metered;

    core::PerformanceEngine &top() { return *metered; }
    const sim::SimulatedEngine &sim() const { return *simulated; }

    /** The below-journal substrate (Parallel(Fault?(Sim))) for
     *  commands that let core::runCampaign own the upper layers. */
    core::PerformanceEngine &substrate() { return *parallel; }
};

/**
 * @param topo            The chip the workload must fit.
 * @param withUpperLayers false builds only the measurement substrate
 *        (sim + faults + pool); the campaign runner then adds the
 *        resilient/memoizing/metered layers itself, above its
 *        journal.
 */
EngineStack
makeEngineStack(const OptionParser &args, const core::Topology &topo,
                bool withUpperLayers = true)
{
    const sim::Benchmark benchmark =
        tools::benchmarkOrDie("engine", args.get("benchmark"));
    const std::uint32_t instances =
        tools::instancesOrDie("engine", args, benchmark, topo);
    const core::FaultOptions faults =
        tools::faultOptionsOrDie("engine", args);

    EngineStack stack;
    stack.resilience.maxAttempts =
        static_cast<std::uint32_t>(args.getInt("retries")) + 1;
    stack.simulated = std::make_unique<sim::SimulatedEngine>(
        sim::makeWorkload(benchmark, instances));
    core::PerformanceEngine *below = stack.simulated.get();
    if (faults.totalRate() > 0.0) {
        stack.faulty = std::make_unique<core::FaultInjectingEngine>(
            *below, faults);
        below = stack.faulty.get();
    }
    stack.parallel = std::make_unique<core::ParallelEngine>(
        *below, static_cast<unsigned>(args.getInt("threads")));
    below = stack.parallel.get();
    if (!withUpperLayers)
        return stack;
    if (stack.faulty) {
        stack.resilient = std::make_unique<core::ResilientEngine>(
            *below, stack.resilience);
        below = stack.resilient.get();
    }
    if (!args.flag("no-memoize")) {
        stack.memoizing =
            std::make_unique<core::MemoizingEngine>(
                *below, &stack.parallel->pool());
        below = stack.memoizing.get();
    }
    stack.metered = std::make_unique<core::MeteredEngine>(*below);
    return stack;
}

void
printEngineStats(std::FILE *out, const EngineStack &stack,
                 const core::EngineStats &stats, bool memoize)
{
    std::fprintf(out, "engine: %u thread(s), memoize %s\n",
                 stack.parallel->threads(), memoize ? "on" : "off");
    std::fprintf(out, "measurements:       %12llu in %llu batches\n",
                 static_cast<unsigned long long>(stats.measurements),
                 static_cast<unsigned long long>(stats.batches));
    if (memoize) {
        std::fprintf(out,
                     "cache hit rate:     %11.2f%%  "
                     "(%llu of %llu served from cache)\n",
                     100.0 * stats.cacheHitRate(),
                     static_cast<unsigned long long>(stats.cacheHits),
                     static_cast<unsigned long long>(
                         stats.cacheHits + stats.cacheMisses));
    }
    if (stack.faulty || stats.failures != 0 || stats.retries != 0 ||
        stats.quarantined != 0) {
        std::fprintf(out,
                     "failed attempts:    %12llu  (retried %llu, "
                     "quarantined %llu)\n",
                     static_cast<unsigned long long>(stats.failures),
                     static_cast<unsigned long long>(stats.retries),
                     static_cast<unsigned long long>(
                         stats.quarantined));
    }
    if (stats.shardedMeasurements != 0 || stats.shardFailures != 0 ||
        stats.shardReissues != 0 || stats.shardRespawns != 0 ||
        stats.shardsQuarantined != 0 ||
        stats.shardDegradedBatches != 0) {
        std::fprintf(out,
                     "shard workers:      %12llu measurements "
                     "served remotely\n",
                     static_cast<unsigned long long>(
                         stats.shardedMeasurements));
        std::fprintf(out,
                     "shard health:       %12llu failures  "
                     "(%llu re-issued, %llu respawned, "
                     "%llu quarantined)\n",
                     static_cast<unsigned long long>(
                         stats.shardFailures),
                     static_cast<unsigned long long>(
                         stats.shardReissues),
                     static_cast<unsigned long long>(
                         stats.shardRespawns),
                     static_cast<unsigned long long>(
                         stats.shardsQuarantined));
        if (stats.shardDegradedBatches != 0) {
            std::fprintf(out,
                         "shard degraded:     %12llu batches served "
                         "in-process\n",
                         static_cast<unsigned long long>(
                             stats.shardDegradedBatches));
        }
    }
    if (stats.shardAudits != 0) {
        std::fprintf(out,
                     "shard audits:       %12llu duplicated  "
                     "(%llu mismatches, %llu convictions)\n",
                     static_cast<unsigned long long>(
                         stats.shardAudits),
                     static_cast<unsigned long long>(
                         stats.shardAuditMismatches),
                     static_cast<unsigned long long>(
                         stats.shardConvictions));
    }
    if (stats.solves != 0) {
        std::fprintf(out,
                     "solver:             %12llu solves, "
                     "%.1f fixed-point iterations each\n",
                     static_cast<unsigned long long>(stats.solves),
                     stats.solverIterationsPerSolve());
    }
    std::fprintf(out,
                 "modeled time:       %11.1f min "
                 "(at %.1f s per real measurement)\n",
                 stats.modeledSeconds / 60.0,
                 stack.sim().secondsPerMeasurement());
}

void
printEngineReport(const EngineStack &stack)
{
    printEngineStats(stdout, stack, stack.metered->stats(),
                     stack.memoizing != nullptr);
}

int
cmdCount(int argc, char **argv)
{
    OptionParser args;
    args.addOption("topology", "8x2x4", "processor shape CxPxS");
    args.addInt("tasks", "24", "workload size", 1);
    tools::parseOrDie("count", args, argc, argv, 2);

    const core::Topology topo = topologyOrDie("count", args);
    const auto tasks = static_cast<std::uint32_t>(args.getInt("tasks"));
    const core::AssignmentSpace space(topo);
    const auto count = space.countAssignments(tasks);
    std::printf("topology %s (%u contexts), %u tasks\n",
                topo.shapeString().c_str(), topo.contexts(), tasks);
    std::printf("assignments: %s", count.toScientific(4).c_str());
    if (count.fitsUint64())
        std::printf(" (exactly %s)", count.toString().c_str());
    std::printf("\n");
    std::printf("run all at 1 s each:     %s\n",
                num::Duration::fromSeconds(count).toString().c_str());
    std::printf("predict all at 1 us:     %s\n",
                num::Duration::fromMicroseconds(count)
                    .toString().c_str());
    return 0;
}

int
cmdCapture(int argc, char **argv)
{
    OptionParser args;
    args.addReal("percent", "1.0", "top-percent band", 0, 100,
                 OptionParser::Open);
    args.addReal("target", "0.99", "capture probability wanted", 0, 1,
                 OptionParser::Open);
    args.addInt("samples", "0", "draws (0: solve for draws)", 0);
    tools::parseOrDie("capture", args, argc, argv, 2);

    const double percent = args.getDouble("percent");
    const double target = args.getDouble("target");
    const long n = args.getInt("samples");
    if (n > 0) {
        std::printf("P(capture top %.2f%% in %ld draws) = %.6f\n",
                    percent, n,
                    core::captureProbability(
                        percent, static_cast<std::uint64_t>(n)));
    } else {
        std::printf("draws for P(capture top %.2f%%) >= %.4f: "
                    "%llu\n", percent, target,
                    static_cast<unsigned long long>(
                        core::requiredSampleSize(percent, target)));
    }
    return 0;
}

int
cmdEnumerate(int argc, char **argv)
{
    OptionParser args;
    args.addOption("topology", "8x2x4", "processor shape CxPxS");
    args.addInt("tasks", "3",
                "workload size (the space grows as Table 1 shows)", 1, 8);
    args.addInt("limit", "50", "listing length cap", 0);
    tools::parseOrDie("enumerate", args, argc, argv, 2);

    const core::Topology topo = topologyOrDie("enumerate", args);
    const long limit = args.getInt("limit");
    core::AssignmentEnumerator enumerator(
        topo, static_cast<std::uint32_t>(args.getInt("tasks")));
    long shown = 0;
    const std::uint64_t total = enumerator.forEach(
        [&shown, limit](const core::Assignment &a) {
            if (shown < limit) {
                std::printf("%6ld  %s\n", shown + 1,
                            a.toString().c_str());
            }
            ++shown;
            return true;
        });
    std::printf("total canonical assignments: %llu%s\n",
                static_cast<unsigned long long>(total),
                total > static_cast<std::uint64_t>(limit)
                    ? " (listing truncated; use --limit)" : "");
    return 0;
}

int
cmdBaselines(int argc, char **argv)
{
    OptionParser args;
    addEngineOptions(args);
    args.addInt("seed", "1", "sampler seed");
    args.addInt("draws", "1000", "random draws for the mean", 1,
                maxSampleCount);
    tools::parseOrDie("baselines", args, argc, argv, 2);

    const core::Topology topo = core::Topology::ultraSparcT2();
    EngineStack stack = makeEngineStack(args, topo);
    const std::uint32_t tasks = stack.sim().workload().taskCount();

    const double naive = core::naiveExpectedPerformance(
        stack.top(), topo, tasks,
        static_cast<std::size_t>(args.getInt("draws")),
        static_cast<std::uint64_t>(args.getInt("seed")));
    const double linux_like = stack.top().measure(
        core::linuxLikeAssignment(topo, tasks));
    const double packed = stack.top().measure(
        core::packedAssignment(topo, tasks));
    std::printf("%s, %ld instances (%u tasks) on %s\n",
                sim::benchmarkName(tools::benchmarkOrDie(
                    "baselines", args.get("benchmark"))).c_str(),
                args.getInt("instances"), tasks,
                topo.shapeString().c_str());
    std::printf("naive (random mean):  %12.0f PPS\n", naive);
    std::printf("Linux-like balanced:  %12.0f PPS\n", linux_like);
    std::printf("packed (pessimal):    %12.0f PPS\n", packed);
    printEngineReport(stack);
    return 0;
}

int
cmdEstimate(int argc, char **argv)
{
    OptionParser args;
    addEngineOptions(args);
    args.addInt("samples", "2000", "random assignments to draw", 1,
                maxSampleCount);
    args.addInt("seed", "42", "sampler seed");
    args.addFlag("cold-fits",
                 "restart every GPD fit from the moment estimate "
                 "(bit-identical to from-scratch estimation)");
    tools::parseOrDie("estimate", args, argc, argv, 2);

    const long samples = args.getInt("samples");
    const long seed = args.getInt("seed");
    const core::Topology topo = core::Topology::ultraSparcT2();

    EngineStack stack = makeEngineStack(args, topo);
    core::OptimalPerformanceEstimator estimator(
        stack.top(), topo, stack.sim().workload().taskCount(),
        static_cast<std::uint64_t>(seed), {}, !args.flag("cold-fits"),
        &stack.parallel->pool());
    const auto result =
        estimator.extend(static_cast<std::size_t>(samples));

    std::printf("%s: %ld random assignments (seed %ld)\n",
                stack.top().name().c_str(), samples, seed);
    std::printf("best observed:      %12.0f PPS\n",
                result.bestObserved);
    if (result.pot.valid) {
        std::printf("estimated optimum:  %12.0f PPS  "
                    "[%.0f, %.0f] @ 0.95\n", result.pot.upb,
                    result.pot.upbLower, result.pot.upbUpper);
        std::printf("tail shape xi-hat:  %12.3f\n",
                    result.pot.fit.xi);
        std::printf("headroom:           %11.2f%%\n",
                    100.0 * result.estimatedLoss());
    } else {
        std::printf("tail estimate invalid (%s)\n",
                    result.pot.invalidReason.c_str());
    }
    if (result.failed != 0) {
        std::printf("failed measurements:%12zu of %zu attempted\n",
                    result.failed, result.attempted);
    }
    if (result.bestAssignment) {
        std::printf("best assignment:    %s\n",
                    result.bestAssignment->toString().c_str());
    }
    printEngineReport(stack);
    return 0;
}

/**
 * Exit-code map of the iterate command (documented in cmdHelp and
 * README): a campaign that did not deliver its target must not exit
 * 0, and the distinct codes let scripts distinguish "search gave up"
 * from "operator/budget stopped it".
 */
int
campaignExitCode(const core::CampaignResult &result)
{
    if (!result.ran || !result.journalError.empty())
        return 2; // unusable/mismatched/diverged journal
    switch (result.search.abortKind) {
      case core::AbortKind::None:
        break;
      case core::AbortKind::EngineFailure:
        return 4; // dead engine / everything quarantined
      case core::AbortKind::Interrupted:
        return 5; // SIGINT/SIGTERM, checkpointed
      case core::AbortKind::DeadlineExceeded:
      case core::AbortKind::BudgetExhausted:
      case core::AbortKind::RoundLimit:
        return 6; // budget stop, checkpointed
    }
    return result.search.satisfied ? 0 : 3; // 3: hit the sample cap
}

int
cmdIterate(int argc, char **argv)
{
    OptionParser args;
    addEngineOptions(args);
    args.addReal("loss", "2.5", "acceptable loss percent", 0, 100,
                 OptionParser::Open);
    args.addInt("seed", "7", "sampler seed");
    args.addInt("ninit", "1000", "initial sample size", 1,
                maxSampleCount);
    args.addInt("ndelta", "100", "per-iteration increment", 1,
                maxSampleCount);
    args.addInt("max", "20000", "total sample cap", 1, maxSampleCount);
    args.addFlag("confident",
                 "stop against the upper CI bound of the UPB (builds "
                 "the CI every round: about twice the estimator's "
                 "time)");
    args.addFlag("cold-fits",
                 "restart every GPD fit from the moment estimate "
                 "(bit-identical to from-scratch estimation)");
    args.addOption("journal", "",
                   "crash-safe measurement journal path");
    args.addFlag("resume",
                 "resume a campaign from its --journal file");
    args.addOption("journal-on-error", "abort",
                   "journal media failure policy: abort | degrade "
                   "(drop to memory-only recording)");
    args.addInt("journal-fault-at", "0",
                "chaos: fail journal writes after N bytes (0 = off)", 0);
    args.addReal("audit-fraction", "0",
                 "fraction of sharded measurements duplicated to a "
                 "second worker for Byzantine auditing", 0, 1);
    args.addInt("chaos-garbage-shard", "-1",
                "chaos: give this shard slot a value-corrupting "
                "worker (-1 = none)", -1);
    args.addReal("deadline-s", "0",
                 "wall-clock budget in seconds (0 = none)", 0);
    args.addInt("max-measurements", "0", "measurement budget (0 = none)",
                0);
    args.addInt("max-rounds", "0", "round budget (0 = none)", 0);
    args.addInt("shards", "0",
                "measurement worker processes (0 = in-process)", 0);
    // A worker's send stall is bounded by its milliseconds, an int.
    args.addReal("shard-deadline-s", "30",
                 "per-request worker deadline in seconds", 0, 2147483,
                 OptionParser::Open);
    args.addOption("worker", "",
                   "worker binary (default: statsched_worker next "
                   "to this binary)");
    tools::parseOrDie("iterate", args, argc, argv, 2);

    const double loss = args.getDouble("loss");
    const core::Topology topo = core::Topology::ultraSparcT2();

    if (args.flag("resume") && args.get("journal").empty()) {
        std::fprintf(stderr,
                     "iterate: '--resume' requires '--journal'\n");
        return 2;
    }
    const long shards = args.getInt("shards");
    const double shardDeadline = args.getDouble("shard-deadline-s");
    const std::string onErrorName = args.get("journal-on-error");
    core::JournalErrorPolicy onError;
    if (onErrorName == "abort") {
        onError = core::JournalErrorPolicy::Abort;
    } else if (onErrorName == "degrade") {
        onError = core::JournalErrorPolicy::Degrade;
    } else {
        std::fprintf(stderr, "iterate: '--journal-on-error' must be "
                     "'abort' or 'degrade' (got %s)\n",
                     onErrorName.c_str());
        return 2;
    }
    const long journalFaultAt = args.getInt("journal-fault-at");
    const long garbageShard = args.getInt("chaos-garbage-shard");
    if (garbageShard >= shards) {
        std::fprintf(stderr, "iterate: '--chaos-garbage-shard' must "
                     "name a slot below '--shards'\n");
        return 2;
    }

    // The campaign runner owns the upper decorators (so its journal
    // can sit between them and the measurement substrate); the CLI
    // only builds Parallel(Fault?(Sim)).
    EngineStack stack =
        makeEngineStack(args, topo, /*withUpperLayers=*/false);

    core::CampaignOptions campaign;
    campaign.iterative.acceptableLoss = loss / 100.0;
    campaign.iterative.initialSample =
        static_cast<std::size_t>(args.getInt("ninit"));
    campaign.iterative.incrementSample =
        static_cast<std::size_t>(args.getInt("ndelta"));
    campaign.iterative.maxSample =
        static_cast<std::size_t>(args.getInt("max"));
    campaign.iterative.useUpperConfidenceBound =
        args.flag("confident");
    campaign.iterative.warmStartFits = !args.flag("cold-fits");
    // The measuring pool also draws the samples and keys the memo;
    // the three run one after another, never at once.
    campaign.iterative.pool = &stack.parallel->pool();

    campaign.journalPath = args.get("journal");
    campaign.resume = args.flag("resume");
    // Failure-domain knobs: operational only, deliberately OUT of the
    // campaign identity hash — a resumed run may change its error
    // policy or auditing without losing its journal.
    campaign.journalOnError = onError;
    if (journalFaultAt > 0) {
        auto plan = std::make_shared<base::io::FaultPlan>();
        plan->failAfterBytes =
            static_cast<std::uint64_t>(journalFaultAt);
        campaign.journalSinkFactory =
            base::io::faultInjectingFileSinkFactory(std::move(plan));
    }
    campaign.deadlineSeconds = args.getDouble("deadline-s");
    campaign.maxMeasurements =
        static_cast<std::uint64_t>(args.getInt("max-measurements"));
    campaign.maxRounds =
        static_cast<std::size_t>(args.getInt("max-rounds"));
    campaign.memoize = !args.flag("no-memoize");
    campaign.resilient = stack.faulty != nullptr;
    campaign.resilience = stack.resilience;

    // Identity hash: everything that steers measurement results or
    // the search trajectory (threads deliberately excluded — the
    // results are bit-identical under any thread count; budgets and
    // deadlines excluded — tightening or dropping them across a
    // resume is legitimate).
    campaign.configHash = core::fnv1a64(
        args.get("benchmark") + "|" + args.get("instances") + "|" +
        args.get("fault-rate") + "|" + args.get("fault-garbage") +
        "|" + args.get("fault-outlier") + "|" +
        args.get("fault-hang") + "|" + args.get("fault-seed") + "|" +
        args.get("retries") + "|" + args.get("loss") + "|" +
        args.get("ninit") + "|" + args.get("ndelta") + "|" +
        args.get("max") + "|" +
        (args.flag("confident") ? "c1" : "c0") + "|" +
        (args.flag("cold-fits") ? "f1" : "f0") + "|" +
        (args.flag("no-memoize") ? "m0" : "m1"));

    // Wall clock and signals are injected here, at the edge: src/core
    // stays deterministic (see the statsched-wallclock lint rule).
    base::SteadyClock clock;
    campaign.clock = &clock;
    base::installShutdownHandlers();
    campaign.stopRequested = [] { return base::shutdownRequested(); };

    // Health aggregate: every component transition prints to stderr
    // the moment it happens, and the worst level at exit decides
    // between 0 and the "completed degraded" code 7.
    core::Health health([](const core::HealthTransition &change) {
        std::fprintf(stderr, "health: %s %s -> %s (%s)\n",
                     change.component.c_str(),
                     core::healthLevelName(change.from),
                     core::healthLevelName(change.to),
                     change.detail.c_str());
    });
    campaign.health = &health;

    // --shards N fans measurement batches out to N statsched_worker
    // subprocesses below the journal (Sharded over the substrate);
    // results are bit-identical for every N, so the shard flags stay
    // out of the campaign identity hash, and a journal written
    // sharded resumes unsharded (and vice versa).
    const std::uint32_t tasks = stack.sim().workload().taskCount();
    std::unique_ptr<core::ShardedEngine> sharded;
    if (shards > 0) {
        std::string workerPath = args.get("worker");
        if (workerPath.empty()) {
            workerPath = (std::filesystem::path(argv[0])
                              .parent_path() /
                          "statsched_worker")
                             .string();
        }
        const std::string engineConfig = args.get("benchmark") + "|" +
            args.get("instances") + "|" + args.get("fault-rate") +
            "|" + args.get("fault-garbage") + "|" +
            args.get("fault-outlier") + "|" +
            args.get("fault-hang") + "|" + args.get("fault-seed");
        const std::uint64_t fingerprint =
            core::shardConfigFingerprint(engineConfig);
        const std::vector<std::string> workerArgv = {
            workerPath,
            "--benchmark", args.get("benchmark"),
            "--instances", args.get("instances"),
            "--fault-rate", args.get("fault-rate"),
            "--fault-garbage", args.get("fault-garbage"),
            "--fault-outlier", args.get("fault-outlier"),
            "--fault-hang", args.get("fault-hang"),
            "--fault-seed", args.get("fault-seed"),
            "--config-hash", std::to_string(fingerprint),
        };
        core::ShardedOptions sharding;
        sharding.shards = static_cast<std::size_t>(shards);
        sharding.requestDeadlineSeconds = shardDeadline;
        sharding.expected.configHash = fingerprint;
        sharding.expected.cores = topo.cores;
        sharding.expected.pipesPerCore = topo.pipesPerCore;
        sharding.expected.strandsPerPipe = topo.strandsPerPipe;
        sharding.expected.tasks = tasks;
        sharding.clock = &clock;
        sharding.auditFraction = args.getDouble("audit-fraction");
        sharding.auditSeed =
            static_cast<std::uint64_t>(args.getInt("seed"));
        sharding.health = &health;
        // Chaos: --chaos-garbage-shard gives one slot a Byzantine
        // worker (its -1 matches none). Its corrupted values carry
        // valid frames and CRCs — only the audit layer can tell it
        // from an honest one.
        core::ShardBackendFactory backendFactory =
            core::makeProcessShardFactory(
                [workerArgv, garbageShard](std::size_t index) {
                    std::vector<std::string> argv = workerArgv;
                    if (static_cast<long>(index) == garbageShard)
                        argv.push_back("--garbage-values");
                    return argv;
                },
                clock, shardDeadline);
        sharded = std::make_unique<core::ShardedEngine>(
            stack.substrate(), std::move(backendFactory), sharding);
    }
    core::PerformanceEngine &substrate =
        sharded ? *sharded : stack.substrate();

    const core::CampaignResult result = core::runCampaign(
        substrate, topo, tasks,
        static_cast<std::uint64_t>(args.getInt("seed")), campaign);

    if (!result.ran) {
        std::fprintf(stderr, "iterate: %s\n",
                     result.journalError.c_str());
        return campaignExitCode(result);
    }

    // stdout carries only the deterministic campaign outcome — the
    // fields that must be bit-identical between an uninterrupted run
    // and a killed-and-resumed one (the CI journal-resume job diffs
    // them). Operational detail (engine stats, journal accounting,
    // abort reasons) goes to stderr.
    const core::IterativeResult &run = result.search;
    std::printf("target loss %.2f%%: %s after %zu assignments "
                "(%zu iterations)\n", loss,
                run.satisfied ? "met" : "NOT met",
                run.totalSampled, run.steps.size());
    if (run.totalFailed != 0) {
        std::printf("failed measurements: %zu of %zu attempted\n",
                    run.totalFailed, run.totalAttempted);
    }
    if (!run.steps.empty()) {
        std::printf("final: best %.0f PPS, UPB %.0f PPS, "
                    "loss %.2f%%\n",
                    run.final.bestObserved, run.final.pot.upb,
                    100.0 * run.steps.back().loss);
    }
    if (run.final.bestAssignment) {
        std::printf("best assignment:    %s\n",
                    run.final.bestAssignment->toString().c_str());
    }

    if (!run.abortReason.empty())
        std::fprintf(stderr, "aborted (%s): %s\n",
                     core::abortKindName(run.abortKind),
                     run.abortReason.c_str());
    if (!result.journalError.empty())
        std::fprintf(stderr, "journal: %s\n",
                     result.journalError.c_str());
    if (!campaign.journalPath.empty()) {
        std::fprintf(stderr, "journal: %s%llu replayed, "
                     "%llu recorded",
                     result.resumed ? "resumed; " : "",
                     static_cast<unsigned long long>(
                         result.replayedMeasurements),
                     static_cast<unsigned long long>(
                         result.recordedMeasurements));
        if (result.journalTruncatedBytes != 0)
            std::fprintf(stderr, " (%llu bytes of torn tail dropped)",
                         static_cast<unsigned long long>(
                             result.journalTruncatedBytes));
        if (result.journalDegraded)
            std::fprintf(stderr, "; DEGRADED to memory-only "
                         "(%llu measurements unjournaled)",
                         static_cast<unsigned long long>(
                             result.unjournaledMeasurements));
        std::fprintf(stderr, "\n");
    }
    printEngineStats(stderr, stack, result.engineStats,
                     campaign.memoize);

    int code = campaignExitCode(result);
    if (code == 0 && health.worst() != core::HealthLevel::Ok) {
        // The search met its target, but some component ran degraded
        // (journal on memory only, shards quarantined/convicted, weak
        // final estimate). The results are exact; the distinct code
        // tells scripts the environment was not.
        std::fprintf(stderr, "health: completed DEGRADED —");
        for (const core::Health::Component &component :
             health.components()) {
            if (component.level != core::HealthLevel::Ok)
                std::fprintf(stderr, " %s=%s",
                             component.name.c_str(),
                             core::healthLevelName(component.level));
        }
        std::fprintf(stderr, "\n");
        code = 7;
    }
    return code;
}

int
cmdHelp()
{
    std::printf(
        "statsched — statistical task-assignment toolkit "
        "(ASPLOS'12 reproduction)\n\n"
        "usage: statsched_cli <command> [--option value | "
        "--option=value | --flag ...]\n"
        "A number outside its option's type or range, or a flag value "
        "other than\n0, 1, true or false, exits 2 and lists every range."
        "\n\n"
        "commands:\n"
        "  count      --tasks N [--topology CxPxS]\n"
        "  capture    --percent P [--samples N | --target T]   "
        "(0 < P < 100, 0 < T < 1)\n"
        "  enumerate  --tasks N [--topology CxPxS] [--limit K]   "
        "(1 <= N <= 8)\n"
        "  baselines  --benchmark B [--instances K] [--seed S] "
        "[--draws N]\n"
        "  estimate   --benchmark B [--instances K] [--samples N] "
        "[--seed S]\n"
        "             [--cold-fits]\n"
        "  iterate    --benchmark B [--loss PCT (0 < PCT < 100)] "
        "[--ninit N]\n             [--ndelta N]"
        " [--max N] [--confident] [--cold-fits]\n"
        "             [--journal PATH [--resume]] [--deadline-s S]\n"
        "             [--max-measurements N] [--max-rounds N]\n"
        "             [--shards N [--worker PATH] "
        "[--shard-deadline-s S]]\n"
        "  help\n\n"
        "measurement commands also take --threads N (0 = all cpus but "
        "one;\nthe pool measures, draws the samples and "
        "computes the memo keys) and\n--no-memoize (measure "
        "duplicate assignments afresh).\n\n"
        "fault tolerance: --fault-rate / --fault-garbage / "
        "--fault-outlier /\n--fault-hang PCT (each in [0, 100], at most "
        "100 together) inject\ndeterministic measurement faults (seeded "
        "by --fault-seed); --retries N\nbounds the recovery attempts per "
        "failed measurement (default 3).\n\n"
        "durability: --journal PATH write-ahead-logs every "
        "measurement; after a\ncrash, the same command with --resume "
        "replays the journal and continues\nbit-identically. "
        "--deadline-s / --max-measurements / --max-rounds stop\nthe "
        "campaign gracefully at a round boundary with a final "
        "checkpoint;\nso do SIGINT and SIGTERM. "
        "--journal-on-error degrade completes the\nrun "
        "on memory-only recording after ENOSPC/EIO instead of "
        "aborting.\n\n"
        "sharding: --shards N fans measurement batches out to N "
        "statsched_worker\nprocesses (bit-identical results for any "
        "N, including 0). Dead or hung\nworkers are re-issued, "
        "respawned with backoff, then quarantined; with\nevery "
        "worker quarantined the campaign degrades to in-process "
        "measuring.\n--audit-fraction F (in [0, 1]) duplicates a seeded F "
        "of indices to a second\nworker and convicts backends returning "
        "corrupt values. Worker exit codes:\n0 clean stop, 2 usage, "
        "3 protocol error.\n\n"
        "iterate exit codes: 0 target met, 2 usage or journal "
        "error,\n3 sample cap reached, 4 engine failure, "
        "5 interrupted,\n6 deadline or budget exhausted, 7 completed "
        "with degraded health\n(results exact; journal or shards "
        "impaired).\n\n"
        "benchmarks: ipfwd-l1 ipfwd-mem analyzer aho stateful "
        "intadd intmul\n");
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp();
    const std::string command = argv[1];

    if (command == "count")
        return cmdCount(argc, argv);
    if (command == "capture")
        return cmdCapture(argc, argv);
    if (command == "enumerate")
        return cmdEnumerate(argc, argv);
    if (command == "baselines")
        return cmdBaselines(argc, argv);
    if (command == "estimate")
        return cmdEstimate(argc, argv);
    if (command == "iterate")
        return cmdIterate(argc, argv);
    if (command == "help" || command == "--help")
        return cmdHelp();

    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    cmdHelp();
    return 2;
}
