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
#include <optional>
#include <string>

#include "base/cli.hh"
#include "base/clock.hh"
#include "base/shutdown.hh"
#include "core/assignment_space.hh"
#include "core/baselines.hh"
#include "core/campaign.hh"
#include "core/capture_probability.hh"
#include "core/enumerator.hh"
#include "core/estimator.hh"
#include "core/parallel_engine.hh"
#include "core/sharded_engine.hh"
#include "num/duration.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "tools/campaign_setup.hh"

namespace
{

using namespace statsched;
using base::OptionParser;
using tools::maxSampleCount;

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

/**
 * Parallel(FaultInjecting?(Sim)), below the upper decorators or the
 * campaign runner. The pool fans batches out, and also draws the
 * samples and computes the memo keys, one after another.
 */
struct EngineStack
{
    tools::Substrate substrate;
    core::ParallelEngine parallel;

    explicit EngineStack(const tools::EngineConfig &config)
        : substrate(config.workload),
          parallel(substrate.engine(), config.threads)
    {
    }
};

/** @return Metered(Memoizing?(Resilient?(stack))) as `config` asks;
 *  the resilient layer retries and quarantines injected faults. */
core::UpperDecorators
upperDecorators(EngineStack &stack, const tools::EngineConfig &config)
{
    return core::UpperDecorators(
        stack.parallel, stack.substrate.faulty.has_value(),
        config.resilience, config.memoize, &stack.parallel.pool());
}

void
printEngineStats(std::FILE *out, const EngineStack &stack,
                 const core::EngineStats &stats, bool memoize)
{
    std::fprintf(out, "engine: %u thread(s), memoize %s\n",
                 stack.parallel.threads(), memoize ? "on" : "off");
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
    if (stack.substrate.faulty || stats.failures != 0 ||
        stats.retries != 0 || stats.quarantined != 0) {
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
                 stack.substrate.simulated.secondsPerMeasurement());
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
        return 0;
    }
    const std::optional<std::uint64_t> draws =
        core::requiredSampleSizeIfFits(percent, target);
    if (!draws) {
        std::fprintf(stderr,
                     "capture: '--percent' %s is too small: the draws "
                     "for a capture probability of %s do not fit in 64 "
                     "bits\n",
                     args.get("percent").c_str(),
                     args.get("target").c_str());
        return 2;
    }
    std::printf("draws for P(capture top %.2f%%) >= %.4f: %llu\n",
                percent, target,
                static_cast<unsigned long long>(*draws));
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
    tools::addEngineOptions(args);
    args.addInt("seed", "1", "sampler seed");
    args.addInt("draws", "1000", "random draws for the mean", 1,
                maxSampleCount);
    tools::parseOrDie("baselines", args, argc, argv, 2);

    const core::Topology topo = core::Topology::ultraSparcT2();
    const tools::EngineConfig config =
        tools::engineConfigOrDie("engine", args, topo);
    EngineStack stack(config);
    core::UpperDecorators upper = upperDecorators(stack, config);
    const std::uint32_t tasks =
        stack.substrate.simulated.workload().taskCount();

    const double naive = core::naiveExpectedPerformance(
        upper.top(), topo, tasks,
        static_cast<std::size_t>(args.getInt("draws")),
        static_cast<std::uint64_t>(args.getInt("seed")));
    const double linux_like = upper.top().measure(
        core::linuxLikeAssignment(topo, tasks));
    const double packed = upper.top().measure(
        core::packedAssignment(topo, tasks));
    std::printf("%s, %u instances (%u tasks) on %s\n",
                sim::benchmarkName(config.workload.benchmark).c_str(),
                config.workload.instances, tasks,
                topo.shapeString().c_str());
    std::printf("naive (random mean):  %12.0f PPS\n", naive);
    std::printf("Linux-like balanced:  %12.0f PPS\n", linux_like);
    std::printf("packed (pessimal):    %12.0f PPS\n", packed);
    printEngineStats(stdout, stack, upper.top().stats(),
                     upper.memoizing());
    return 0;
}

int
cmdEstimate(int argc, char **argv)
{
    OptionParser args;
    tools::addEngineOptions(args);
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

    const tools::EngineConfig config =
        tools::engineConfigOrDie("engine", args, topo);
    EngineStack stack(config);
    core::UpperDecorators upper = upperDecorators(stack, config);
    core::OptimalPerformanceEstimator estimator(
        upper.top(), topo,
        stack.substrate.simulated.workload().taskCount(),
        static_cast<std::uint64_t>(seed), {}, !args.flag("cold-fits"),
        &stack.parallel.pool());
    const auto result =
        estimator.extend(static_cast<std::size_t>(samples));

    std::printf("%s: %ld random assignments (seed %ld)\n",
                upper.top().name().c_str(), samples, seed);
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
    printEngineStats(stdout, stack, upper.top().stats(),
                     upper.memoizing());
    return 0;
}

int
cmdIterate(int argc, char **argv)
{
    OptionParser args;
    tools::addIterateOptions(args);
    tools::parseOrDie("iterate", args, argc, argv, 2);

    const core::Topology topo = core::Topology::ultraSparcT2();
    tools::IterateCampaign c = tools::iterateCampaignOrDie(
        args, topo,
        (std::filesystem::path(argv[0]).parent_path() /
         "statsched_worker").string());

    // The campaign runner owns the upper decorators, so that its
    // journal sits between them and the measurement substrate; the
    // CLI builds only Parallel(Fault?(Sim)).
    EngineStack stack(c.engine);
    core::CampaignOptions &campaign = c.campaign;
    campaign.iterative.pool = &stack.parallel.pool();

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
    // subprocesses below the journal (Sharded over the substrate).
    const std::uint32_t tasks =
        stack.substrate.simulated.workload().taskCount();
    std::unique_ptr<core::ShardedEngine> sharded;
    if (c.shards > 0) {
        sharded = std::make_unique<core::ShardedEngine>(
            stack.parallel, tools::shardBackends(c, clock),
            tools::shardedOptions(c, topo, tasks, clock, health));
    }
    core::PerformanceEngine &substrate =
        sharded ? static_cast<core::PerformanceEngine &>(*sharded)
                : stack.parallel;

    const core::CampaignResult result =
        core::runCampaign(substrate, topo, tasks, c.seed, campaign);
    if (!result.ran) {
        std::fprintf(stderr, "iterate: %s\n",
                     result.journalError.c_str());
        return tools::iterateExitCode(result, health);
    }

    // stdout carries only the deterministic campaign outcome (the CI
    // journal-resume job diffs it); operational detail (engine stats,
    // journal accounting, abort reasons) goes to stderr.
    std::fputs(tools::renderIterateStdout(result, c.lossPercent).c_str(),
               stdout);
    const core::IterativeResult &run = result.search;
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
    printEngineStats(stderr, stack, result.engineStats, campaign.memoize);

    const int code = tools::iterateExitCode(result, health);
    if (code == 7) {
        std::fprintf(stderr, "health: completed DEGRADED —");
        for (const core::Health::Component &component :
             health.components()) {
            if (component.level != core::HealthLevel::Ok)
                std::fprintf(stderr, " %s=%s",
                             component.name.c_str(),
                             core::healthLevelName(component.level));
        }
        std::fprintf(stderr, "\n");
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
