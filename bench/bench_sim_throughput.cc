/**
 * @file
 * Measurement throughput of the batch-first simulated engine.
 *
 * The statistical method's cost is dominated by iid measurement
 * sweeps: tens of thousands of independent solve-and-measure calls
 * per campaign. This harness quantifies what the batch-first
 * restructuring of src/sim buys on that inner loop:
 *
 *  - baseline:  the frozen pre-refactor model (sim/reference_solver),
 *               which allocates on every call and re-derives all
 *               assignment-independent quantities;
 *  - serial:    SimulatedEngine::measureBatch on one thread, i.e. the
 *               base class's loop over the engine's kernel —
 *               precomputed SoA tables + the thread's one Scratch;
 *  - parallel:  the same batch through core::ParallelEngine at 4 and
 *               16 threads, each thread on its own Scratch.
 *
 * Three scenarios (small / medium / large) plus a task:context
 * occupancy sweep on the 64-context UltraSPARC T2 topology. Every
 * timed configuration is also *verified*: the production noiseless
 * model must match the reference solver bit for bit on every
 * assignment, and the noisy batch outputs must be bit-identical at
 * 1, 4 and 16 threads. Any mismatch makes the binary exit non-zero,
 * so the bench doubles as a determinism gate in CI (--smoke).
 *
 * Usage: bench_sim_throughput [--smoke]
 * Writes BENCH_sim.json to the working directory.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "core/topology.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "sim/reference_solver.hh"

namespace
{

using namespace statsched;
using namespace statsched::sim;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

bool
bitEqual(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

std::vector<core::Assignment>
sampleBatch(const Workload &w, std::uint64_t seed, std::size_t count)
{
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(), w.taskCount(), seed,
        core::SamplingMethod::PartialFisherYates);
    return sampler.drawSample(count);
}

struct ScenarioSpec
{
    const char *name;
    Benchmark benchmark;
    std::uint32_t instances;
    std::uint64_t seed;
};

struct ScenarioResult
{
    std::size_t tasks = 0;
    std::size_t batch = 0;
    double refPerSec = 0.0;
    double serialPerSec = 0.0;
    double par4PerSec = 0.0;
    double par16PerSec = 0.0;
    bool deterministicIdentical = true;
    bool threadsIdentical = true;
};

/** Times one full pass over the batch, min over `repeats`. */
template <typename F>
double
timedPerSec(std::size_t batch, int repeats, F pass)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
        const auto start = Clock::now();
        pass();
        best = std::min(best, seconds(start, Clock::now()));
    }
    return static_cast<double>(batch) / best;
}

ScenarioResult
runScenario(const ScenarioSpec &spec, std::size_t batchSize,
            int repeats)
{
    Workload w = makeWorkload(spec.benchmark, spec.instances);
    const ChipConfig config;
    const auto batch = sampleBatch(w, spec.seed, batchSize);

    ScenarioResult out;
    out.tasks = w.taskCount();
    out.batch = batch.size();

    // Baseline (the frozen pre-refactor model, one call per item)
    // and the production serial path are timed interleaved within
    // each repeat, best-of per side: machine-noise phases — CPU
    // frequency dips under background load — then hit both sides
    // about equally instead of skewing the reported ratio.
    EngineOptions noiseless;
    noiseless.noiseRelStdDev = 0.0;
    SimulatedEngine serialEngine(w, config, noiseless);
    std::vector<double> refOut(batch.size());
    std::vector<double> serialOut(batch.size());
    double refBest = std::numeric_limits<double>::infinity();
    double serialBest = refBest;
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < batch.size(); ++i)
            refOut[i] = referenceDeterministic(w, config, batch[i]);
        const auto t1 = Clock::now();
        serialEngine.measureBatch(batch, serialOut);
        const auto t2 = Clock::now();
        refBest = std::min(refBest, seconds(t0, t1));
        serialBest = std::min(serialBest, seconds(t1, t2));
    }
    out.refPerSec = static_cast<double>(batch.size()) / refBest;
    out.serialPerSec =
        static_cast<double>(batch.size()) / serialBest;

    // The refactor's contract: bit identity with the reference.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!bitEqual(refOut[i], serialOut[i]))
            out.deterministicIdentical = false;
    }

    // Parallel: same noiseless batch via ParallelEngine. Noise is off,
    // so serial and parallel outputs must agree exactly too.
    for (unsigned threads : {4u, 16u}) {
        SimulatedEngine inner(w, config, noiseless);
        core::ParallelEngine parallel(inner, threads);
        std::vector<double> parOut(batch.size());
        const double perSec = timedPerSec(batch.size(), repeats, [&] {
            parallel.measureBatch(batch, parOut);
        });
        (threads == 4u ? out.par4PerSec : out.par16PerSec) = perSec;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (!bitEqual(serialOut[i], parOut[i]))
                out.threadsIdentical = false;
        }
    }

    // Noisy-path identity at 1/4/16 threads: fresh engines with the
    // default noise model must produce the same bits regardless of
    // thread count (per-index noise substreams).
    {
        std::vector<double> noisySerial(batch.size());
        {
            SimulatedEngine engine(w, config, {});
            engine.measureBatch(batch, noisySerial);
        }
        for (unsigned threads : {1u, 4u, 16u}) {
            SimulatedEngine inner(w, config, {});
            core::ParallelEngine parallel(inner, threads);
            std::vector<double> noisyOut(batch.size());
            parallel.measureBatch(batch, noisyOut);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (!bitEqual(noisySerial[i], noisyOut[i]))
                    out.threadsIdentical = false;
            }
        }
    }
    return out;
}

void
printScenario(const char *name, const ScenarioResult &r)
{
    std::printf("%-8s %3zu tasks  batch %-5zu "
                "ref %9.0f/s  serial %10.0f/s (%5.1fx)  "
                "4t %10.0f/s  16t %10.0f/s (%5.1fx)  %s\n",
                name, r.tasks, r.batch, r.refPerSec, r.serialPerSec,
                r.serialPerSec / r.refPerSec, r.par4PerSec,
                r.par16PerSec, r.par16PerSec / r.refPerSec,
                (r.deterministicIdentical && r.threadsIdentical)
                    ? "bit-identical"
                    : "MISMATCH");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    const int repeats = smoke ? 1 : 8;
    const std::size_t batchSize = smoke ? 64 : 4096;
    const std::size_t sweepBatch = smoke ? 32 : 1024;

    bench::banner("simulator throughput",
                  "batch-first measurement path vs the frozen "
                  "pre-refactor reference model");
    std::printf("batch %zu, %d repeat(s)%s; measurements/sec, best "
                "of repeats\n", batchSize, repeats,
                smoke ? " [smoke]" : "");

    const ScenarioSpec scenarios[] = {
        {"small", Benchmark::IpfwdL1, 2, 8101},
        {"medium", Benchmark::IpfwdL1, 8, 8202},
        {"large", Benchmark::IpfwdMem, 16, 8303},
    };

    bench::section("scenarios");
    ScenarioResult results[3];
    bool identical = true;
    for (int i = 0; i < 3; ++i) {
        results[i] = runScenario(scenarios[i], batchSize, repeats);
        printScenario(scenarios[i].name, results[i]);
        identical = identical && results[i].deterministicIdentical &&
            results[i].threadsIdentical;
    }

    // Occupancy sweep: the same engine across task:context ratios on
    // the 64-context chip. 3 tasks per instance.
    bench::section("task:context occupancy sweep (IPFwd-L1)");
    const std::uint32_t sweepInstances[] = {2, 4, 8, 12, 16, 20};
    ScenarioResult sweep[6];
    for (int i = 0; i < 6; ++i) {
        const ScenarioSpec spec{"sweep", Benchmark::IpfwdL1,
                                sweepInstances[i],
                                9000 + sweepInstances[i]};
        sweep[i] = runScenario(spec, sweepBatch, repeats);
        std::printf("  %2zu/64 contexts  ref %9.0f/s  serial %10.0f/s "
                    "(%5.1fx)\n",
                    sweep[i].tasks, sweep[i].refPerSec,
                    sweep[i].serialPerSec,
                    sweep[i].serialPerSec / sweep[i].refPerSec);
        identical = identical && sweep[i].deterministicIdentical &&
            sweep[i].threadsIdentical;
    }

    FILE *json = std::fopen("BENCH_sim.json", "w");
    if (json) {
        std::fprintf(json, "{\n");
        std::fprintf(json, "  \"benchmark\": \"sim_throughput\",\n");
        std::fprintf(json,
                     "  \"command\": \"build/bench/bench_sim_throughput"
                     "%s\",\n", smoke ? " --smoke" : "");
        std::fprintf(json, "  \"smoke\": %s,\n",
                     smoke ? "true" : "false");
        std::fprintf(json,
                     "  \"batch\": %zu, \"repeats\": %d,\n",
                     batchSize, repeats);
        std::fprintf(json, "  \"scenarios\": [\n");
        for (int i = 0; i < 3; ++i) {
            const ScenarioResult &r = results[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"tasks\": %zu, "
                "\"ref_meas_per_sec\": %.0f, "
                "\"serial_meas_per_sec\": %.0f, "
                "\"parallel4_meas_per_sec\": %.0f, "
                "\"parallel16_meas_per_sec\": %.0f, "
                "\"speedup_serial\": %.2f, "
                "\"speedup_parallel16\": %.2f, "
                "\"bit_identical\": %s}%s\n",
                scenarios[i].name, r.tasks, r.refPerSec,
                r.serialPerSec, r.par4PerSec, r.par16PerSec,
                r.serialPerSec / r.refPerSec,
                r.par16PerSec / r.refPerSec,
                (r.deterministicIdentical && r.threadsIdentical)
                    ? "true"
                    : "false",
                i + 1 < 3 ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        std::fprintf(json, "  \"occupancy_sweep\": [\n");
        for (int i = 0; i < 6; ++i) {
            std::fprintf(
                json,
                "    {\"tasks\": %zu, \"contexts\": 64, "
                "\"ref_meas_per_sec\": %.0f, "
                "\"serial_meas_per_sec\": %.0f, "
                "\"speedup_serial\": %.2f}%s\n",
                sweep[i].tasks, sweep[i].refPerSec,
                sweep[i].serialPerSec,
                sweep[i].serialPerSec / sweep[i].refPerSec,
                i + 1 < 6 ? "," : "");
        }
        std::fprintf(json, "  ],\n");
        std::fprintf(json, "  \"bit_identical\": %s\n",
                     identical ? "true" : "false");
        std::fprintf(json, "}\n");
        std::fclose(json);
        std::printf("\nwrote BENCH_sim.json\n");
    }

    if (!identical) {
        std::printf("FAIL: production path diverged from the "
                    "reference model (see MISMATCH rows)\n");
        return 1;
    }
    return 0;
}
