/**
 * @file
 * Throughput scaling of the sharded measurement fan-out.
 *
 * Spawns real statsched_worker subprocesses and drives the same
 * deterministic batch sequence through four configurations:
 *
 *  - inproc:    SimulatedEngine::measureBatchOutcome in-process —
 *               the single-process baseline and the bit reference;
 *  - shards N:  core::ShardedEngine over N worker subprocesses
 *               speaking the framed pipe protocol (N = 1, 2, 4);
 *  - chaos:     4 shards with a worker SIGKILLed on ~10% of the
 *               batches — the fault-tolerance price in throughput.
 *
 * Every configuration is also *verified*: outcome value bits and
 * statuses must match the in-process reference exactly — including
 * under the kills, where re-issue to survivors and respawned
 * replacements must reconstruct the same measurement indices. Any
 * mismatch makes the binary exit non-zero, so the bench doubles as
 * the fan-out determinism gate.
 *
 * Note on the absolute numbers: the simulated engine measures in
 * microseconds, so the pipe framing dominates and the fan-out is
 * *slower* than in-process here. The configuration the sharding
 * targets — real testbeds where one measurement costs milliseconds
 * to seconds — inverts that ratio; this bench prices the protocol
 * overhead and verifies the fault-tolerance machinery, it does not
 * claim a speedup on the simulator.
 *
 * Usage: bench_shard_scaling [--smoke] [--worker PATH]
 * PATH defaults to ../tools/statsched_worker next to this binary.
 * Writes BENCH_shard.json to the working directory.
 */

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/clock.hh"
#include "bench/harness.hh"
#include "core/sampler.hh"
#include "core/shard_protocol.hh"
#include "core/sharded_engine.hh"
#include "core/topology.hh"
#include "tools/campaign_setup.hh"

namespace
{

using namespace statsched;
using WallClock = std::chrono::steady_clock;
using core::MeasurementOutcome;

const core::Topology t2 = core::Topology::ultraSparcT2();

double
seconds(WallClock::time_point from, WallClock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

bool
bitEqual(const MeasurementOutcome &a, const MeasurementOutcome &b)
{
    return a.status == b.status &&
        std::bit_cast<std::uint64_t>(a.value) ==
        std::bit_cast<std::uint64_t>(b.value);
}

/** One timed pass over the batch sequence; outcomes concatenated. */
struct ModeResult
{
    double measPerSec = 0.0;
    bool bitIdentical = true;
    core::EngineStats stats;
};

ModeResult
runMode(core::PerformanceEngine &engine,
        const std::vector<std::vector<core::Assignment>> &batches,
        const std::vector<MeasurementOutcome> &reference,
        core::ShardedEngine *chaosTarget, std::size_t killEvery)
{
    ModeResult result;
    std::vector<MeasurementOutcome> outcomes;
    std::size_t total = 0;
    for (const auto &batch : batches)
        total += batch.size();
    outcomes.reserve(total);

    const auto start = WallClock::now();
    for (std::size_t round = 0; round < batches.size(); ++round) {
        const auto &batch = batches[round];
        std::vector<MeasurementOutcome> out(batch.size());
        engine.measureBatchOutcome(batch, out);
        outcomes.insert(outcomes.end(), out.begin(), out.end());
        if (chaosTarget != nullptr && killEvery != 0 &&
            round % killEvery == killEvery - 1) {
            // External SIGKILL from the engine's point of view: the
            // transport dies, the slot still believes it is live.
            chaosTarget->disruptShard((round / killEvery) % 4);
        }
    }
    result.measPerSec =
        static_cast<double>(total) / seconds(start, WallClock::now());

    if (!reference.empty()) {
        if (outcomes.size() != reference.size())
            result.bitIdentical = false;
        for (std::size_t i = 0;
             result.bitIdentical && i < outcomes.size(); ++i) {
            if (!bitEqual(outcomes[i], reference[i]))
                result.bitIdentical = false;
        }
    }
    engine.collectStats(result.stats);
    return result;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string workerPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--worker") == 0 &&
                   i + 1 < argc) {
            workerPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--worker PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (workerPath.empty()) {
        workerPath = (std::filesystem::path(argv[0])
                          .parent_path().parent_path() /
                      "tools" / "statsched_worker")
                         .string();
    }

    const std::size_t batchSize = smoke ? 64 : 512;
    const std::size_t rounds = smoke ? 4 : 30;
    const std::size_t killEvery = smoke ? 2 : 10;

    bench::banner("shard scaling",
                  "sharded worker fan-out vs the in-process engine, "
                  "with and without worker kills");
    std::printf("worker %s\nbatch %zu x %zu rounds%s; "
                "measurements/sec, single timed pass\n",
                workerPath.c_str(), batchSize, rounds,
                smoke ? " [smoke]" : "");

    // The workload of a default `statsched_cli iterate`, as the
    // campaign library declares it.
    base::OptionParser defaults;
    tools::addWorkloadOptions(defaults);
    const tools::Workload workload =
        tools::workloadOrDie(argv[0], defaults, t2);
    tools::Substrate baseline(workload);
    const std::uint32_t tasks =
        baseline.simulated.workload().taskCount();

    // The same deterministic batch sequence for every configuration.
    std::vector<std::vector<core::Assignment>> batches;
    batches.reserve(rounds);
    for (std::size_t round = 0; round < rounds; ++round) {
        core::RandomAssignmentSampler sampler(t2, tasks,
                                              4200 + round);
        batches.push_back(sampler.drawSample(batchSize));
    }

    // The workers run `statsched_cli iterate`'s worker command line
    // and must echo its fingerprint in their Hello.
    const std::vector<std::string> workerArgv =
        workload.workerArgv(workerPath);
    base::SteadyClock clock;
    const auto shardedOptions = [&](std::size_t shards) {
        core::ShardedOptions options;
        options.shards = shards;
        options.requestDeadlineSeconds = 30.0;
        options.expected = core::ShardHello::forCampaign(
            t2, tasks, workload.fingerprint());
        options.clock = &clock;
        return options;
    };

    bench::section("in-process baseline");
    const ModeResult inproc =
        runMode(baseline.engine(), batches, {}, nullptr, 0);
    std::printf("inproc            %10.0f meas/s\n",
                inproc.measPerSec);

    // Re-run the baseline's outcomes as the bit reference.
    std::vector<MeasurementOutcome> reference;
    {
        tools::Substrate ref(workload);
        for (const auto &batch : batches) {
            std::vector<MeasurementOutcome> out(batch.size());
            ref.engine().measureBatchOutcome(batch, out);
            reference.insert(reference.end(), out.begin(),
                             out.end());
        }
    }

    bench::section("sharded fan-out");
    bool identical = true;
    struct Row
    {
        std::size_t shards;
        ModeResult result;
    };
    std::vector<Row> scaling;
    for (const std::size_t shards : {1, 2, 4}) {
        tools::Substrate inner(workload);
        core::ShardedEngine sharded(
            inner.engine(),
            core::makeProcessShardFactory(workerArgv, clock),
            shardedOptions(shards));
        const ModeResult r =
            runMode(sharded, batches, reference, nullptr, 0);
        sharded.shutdownWorkers();
        scaling.push_back({shards, r});
        identical = identical && r.bitIdentical;
        std::printf("shards %zu          %10.0f meas/s (%5.2fx)  "
                    "remote %llu  %s\n",
                    shards, r.measPerSec,
                    r.measPerSec / inproc.measPerSec,
                    static_cast<unsigned long long>(
                        r.stats.shardedMeasurements),
                    r.bitIdentical ? "bit-identical" : "MISMATCH");
    }

    bench::section("fault tolerance: worker kill on ~10% of batches");
    ModeResult chaos;
    {
        tools::Substrate inner(workload);
        core::ShardedEngine sharded(
            inner.engine(),
            core::makeProcessShardFactory(workerArgv, clock),
            shardedOptions(4));
        chaos = runMode(sharded, batches, reference, &sharded,
                        killEvery);
        sharded.shutdownWorkers();
        identical = identical && chaos.bitIdentical;
        std::printf(
            "shards 4 + kills  %10.0f meas/s (%5.2fx)  "
            "failures %llu  reissues %llu  respawns %llu  %s\n",
            chaos.measPerSec, chaos.measPerSec / inproc.measPerSec,
            static_cast<unsigned long long>(
                chaos.stats.shardFailures),
            static_cast<unsigned long long>(
                chaos.stats.shardReissues),
            static_cast<unsigned long long>(
                chaos.stats.shardRespawns),
            chaos.bitIdentical ? "bit-identical" : "MISMATCH");
    }

    FILE *json = std::fopen("BENCH_shard.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"benchmark\": \"shard_scaling\",\n");
        std::fprintf(json, "  \"smoke\": %s,\n",
                     smoke ? "true" : "false");
        std::fprintf(json,
                     "  \"batch\": %zu, \"rounds\": %zu, "
                     "\"tasks\": %u,\n",
                     batchSize, rounds, tasks);
        std::fprintf(json,
                     "  \"inproc_meas_per_sec\": %.0f,\n",
                     inproc.measPerSec);
        std::fprintf(json, "  \"scaling\": [\n");
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const Row &row = scaling[i];
            std::fprintf(
                json,
                "    {\"shards\": %zu, \"meas_per_sec\": %.0f, "
                "\"speedup_vs_inproc\": %.3f, "
                "\"remote_measurements\": %llu, "
                "\"bit_identical\": %s}%s\n",
                row.shards, row.result.measPerSec,
                row.result.measPerSec / inproc.measPerSec,
                static_cast<unsigned long long>(
                    row.result.stats.shardedMeasurements),
                row.result.bitIdentical ? "true" : "false",
                i + 1 < scaling.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        std::fprintf(
            json,
            "  \"chaos\": {\"shards\": 4, \"kill_every\": %zu, "
            "\"meas_per_sec\": %.0f, "
            "\"throughput_vs_inproc\": %.3f, "
            "\"failures\": %llu, \"reissues\": %llu, "
            "\"respawns\": %llu, \"degraded_batches\": %llu, "
            "\"bit_identical\": %s},\n",
            killEvery, chaos.measPerSec,
            chaos.measPerSec / inproc.measPerSec,
            static_cast<unsigned long long>(
                chaos.stats.shardFailures),
            static_cast<unsigned long long>(
                chaos.stats.shardReissues),
            static_cast<unsigned long long>(
                chaos.stats.shardRespawns),
            static_cast<unsigned long long>(
                chaos.stats.shardDegradedBatches),
            chaos.bitIdentical ? "true" : "false");
        std::fprintf(json, "  \"bit_identical\": %s\n",
                     identical ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("\nwrote BENCH_shard.json\n");
    }

    if (!identical) {
        std::printf("FAIL: sharded outcomes diverged from the "
                    "in-process reference (see MISMATCH rows)\n");
        return 1;
    }
    return 0;
}
