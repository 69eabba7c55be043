/**
 * @file
 * Ablation A14: what Byzantine shard auditing costs and what it
 * catches. One of four shard workers computes honestly, then
 * corrupts the value bits of every Ok outcome before replying —
 * valid frames, valid CRCs, wrong VALUES, the one fault the
 * transport layer cannot see. The sweep varies the audit fraction f
 * (the seeded share of indices issued to two backends) and tracks
 * the duplicate-work overhead against the detection outcome: batches
 * until the first conviction, convictions until quarantine, and the
 * number of corrupted values that reached the campaign undetected.
 *
 * f = 0 is the control: with auditing off, every corrupted value is
 * silently accepted and the final estimate is built on garbage. Any
 * f > 0 catches a corrupting backend with per-batch probability
 * 1 - (1 - f)^k (k = the offender's share of the batch), so
 * detection is probabilistic per batch but inevitable across a
 * campaign — the ablation shows how fast "inevitable" arrives.
 *
 * Deterministic: in-memory loopback backends wrap real ShardWorkers
 * over fresh simulated engines, driven by a ManualClock. No
 * processes, no wall-clock.
 *
 * Accepts `--quick` to shrink the sweep for the CI smoke run.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "base/clock.hh"
#include "core/fault_injection.hh"
#include "core/sampler.hh"
#include "core/shard_worker.hh"
#include "core/sharded_engine.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

namespace
{

using namespace statsched;
using core::Assignment;
using core::MeasurementOutcome;
using core::Topology;

const Topology t2 = Topology::ultraSparcT2();
constexpr std::uint64_t kConfigHash = 14;
constexpr std::size_t kShards = 4;
constexpr std::size_t kByzantineSlot = 1;

sim::Workload
workload()
{
    return sim::makeWorkload(sim::Benchmark::IpfwdL1, 8);
}

/** In-memory ShardBackend over a real ShardWorker: the production
 *  protocol and evaluation paths with the pipe replaced by a byte
 *  buffer. */
class LoopbackBackend : public core::ShardBackend
{
  public:
    LoopbackBackend(base::ManualClock &clock, bool garbage)
        : clock_(clock), garbage_(garbage)
    {
    }

    bool
    start(std::string &error) override
    {
        (void)error;
        engine_ = std::make_unique<sim::SimulatedEngine>(workload());
        core::PerformanceEngine *engine = engine_.get();
        if (garbage_) {
            corrupting_ =
                std::make_unique<core::ValueCorruptingEngine>(*engine);
            engine = corrupting_.get();
        }
        worker_ = std::make_unique<core::ShardWorker>(
            *engine, t2, workload().taskCount(), kConfigHash);
        const auto hello = worker_->helloBytes();
        parser_.feed(hello.data(), hello.size());
        return true;
    }

    bool
    send(const std::uint8_t *data, std::size_t size) override
    {
        if (dead_ || !worker_)
            return false;
        std::vector<std::uint8_t> response;
        worker_->consume(data, size, response);
        parser_.feed(response.data(), response.size());
        return true;
    }

    RecvStatus
    receive(core::ShardFrame &frame,
            double maxWaitSeconds) override
    {
        if (dead_ || !worker_)
            return RecvStatus::Closed;
        if (parser_.corrupt())
            return RecvStatus::Corrupt;
        if (parser_.next(frame))
            return RecvStatus::Frame;
        clock_.advance(maxWaitSeconds);
        return RecvStatus::Timeout;
    }

    void terminate() override { dead_ = true; }

  private:
    base::ManualClock &clock_;
    const bool garbage_;
    std::unique_ptr<sim::SimulatedEngine> engine_;
    std::unique_ptr<core::ValueCorruptingEngine> corrupting_;
    std::unique_ptr<core::ShardWorker> worker_;
    core::ShardFrameParser parser_;
    bool dead_ = false;
};

std::vector<Assignment>
drawBatch(std::size_t n, std::uint64_t seed)
{
    core::RandomAssignmentSampler sampler(
        t2, workload().taskCount(), seed);
    return sampler.drawSample(n);
}

bool
sameOutcome(const MeasurementOutcome &a, const MeasurementOutcome &b)
{
    if (a.status != b.status)
        return false;
    return std::memcmp(&a.value, &b.value, sizeof a.value) == 0;
}

struct SweepRow
{
    double fraction = 0.0;
    core::EngineStats stats;
    long firstConvictionBatch = -1; // 1-based; -1 = never
    std::uint64_t corruptAccepted = 0;
    std::uint64_t measurements = 0;
};

SweepRow
runSweepPoint(double fraction,
              const std::vector<std::vector<Assignment>> &batches,
              const std::vector<std::vector<MeasurementOutcome>>
                  &reference)
{
    SweepRow row;
    row.fraction = fraction;

    base::ManualClock clock;
    core::ShardedOptions options;
    options.shards = kShards;
    options.requestDeadlineSeconds = 5.0;
    options.heartbeatSeconds = 1000.0;
    options.heartbeatTimeoutSeconds = 2.0;
    options.backoffBaseSeconds = 0.25;
    options.backoffFactor = 2.0;
    options.backoffCapSeconds = 8.0;
    options.quarantineThreshold = 3;
    options.auditFraction = fraction;
    options.auditSeed = 2024;
    options.expected.configHash = kConfigHash;
    options.expected.cores = t2.cores;
    options.expected.pipesPerCore = t2.pipesPerCore;
    options.expected.strandsPerPipe = t2.strandsPerPipe;
    options.expected.tasks = workload().taskCount();
    options.clock = &clock;

    sim::SimulatedEngine inner(workload());
    core::ShardedEngine sharded(
        inner,
        [&clock](std::size_t index) {
            return std::unique_ptr<core::ShardBackend>(
                new LoopbackBackend(clock,
                                    index == kByzantineSlot));
        },
        options);

    for (std::size_t b = 0; b < batches.size(); ++b) {
        std::vector<MeasurementOutcome> out(batches[b].size());
        sharded.measureBatchOutcome(batches[b], out);
        for (std::size_t i = 0; i < out.size(); ++i)
            row.corruptAccepted +=
                sameOutcome(out[i], reference[b][i]) ? 0 : 1;
        row.measurements += out.size();
        if (row.firstConvictionBatch < 0) {
            core::EngineStats soFar;
            sharded.collectStats(soFar);
            if (soFar.shardConvictions > 0)
                row.firstConvictionBatch =
                    static_cast<long>(b) + 1;
        }
        // Let respawn backoff gates expire between batches, as real
        // campaign time would.
        clock.advance(10.0);
    }
    sharded.collectStats(row.stats);
    return row;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const bool quick =
        argc > 1 && std::strcmp(argv[1], "--quick") == 0;

    bench::banner("Ablation A14",
                  "Byzantine shard auditing: duplicate-work overhead "
                  "vs detection, 1 corrupting shard of 4");

    const std::size_t batchCount = quick ? 12 : 40;
    const std::size_t batchSize = quick ? 24 : 48;

    std::vector<std::vector<Assignment>> batches;
    for (std::size_t b = 0; b < batchCount; ++b)
        batches.push_back(drawBatch(batchSize, 100 + b));

    // The unsharded in-process engine is the ground truth every
    // sweep point is diffed against, bit for bit.
    std::vector<std::vector<MeasurementOutcome>> reference;
    {
        sim::SimulatedEngine truth(workload());
        for (const auto &batch : batches) {
            std::vector<MeasurementOutcome> out(batch.size());
            truth.measureBatchOutcome(batch, out);
            reference.push_back(std::move(out));
        }
    }

    std::printf("%zu batches x %zu measurements, shard %zu corrupts "
                "every Ok value's bits\n\n",
                batchCount, batchSize, kByzantineSlot);
    std::printf("%-9s %8s %9s %10s %11s %11s %8s %10s %10s\n",
                "fraction", "audits", "overhead", "mismatch",
                "convicted", "1st-convict", "quarant", "reissues",
                "corrupt");

    const double sweep[] = {0.0, 0.05, 0.10, 0.25, 0.50};
    bool silentCorruption = false;
    bool convictedEverywhere = true;
    bool highFractionClean = true;
    for (const double fraction : sweep) {
        const SweepRow row =
            runSweepPoint(fraction, batches, reference);
        const double overhead = row.measurements > 0
            ? static_cast<double>(row.stats.shardAudits) /
                static_cast<double>(row.measurements)
            : 0.0;
        char firstConviction[32];
        if (row.firstConvictionBatch > 0)
            std::snprintf(firstConviction, sizeof firstConviction,
                          "batch %ld", row.firstConvictionBatch);
        else
            std::snprintf(firstConviction, sizeof firstConviction,
                          "never");
        std::printf(
            "%-9s %8llu %9s %10llu %11llu %11s %8llu %10llu %10llu\n",
            bench::pct(fraction).c_str(),
            static_cast<unsigned long long>(row.stats.shardAudits),
            bench::pct(overhead).c_str(),
            static_cast<unsigned long long>(
                row.stats.shardAuditMismatches),
            static_cast<unsigned long long>(
                row.stats.shardConvictions),
            firstConviction,
            static_cast<unsigned long long>(
                row.stats.shardsQuarantined),
            static_cast<unsigned long long>(row.stats.shardReissues),
            static_cast<unsigned long long>(row.corruptAccepted));
        if (fraction == 0.0) {
            silentCorruption = row.corruptAccepted > 0;
        } else {
            if (row.stats.shardConvictions == 0)
                convictedEverywhere = false;
            // Only the highest fraction promises cleanliness: at low
            // f, a batch the audit happens to miss keeps its
            // corrupted values — that leak-vs-overhead trade IS the
            // ablation.
            if (fraction == 0.50 && row.corruptAccepted > 0)
                highFractionClean = false;
        }
    }

    std::printf(
        "\nf = 0 is the disaster case: every corrupted value is "
        "accepted and nothing is\never convicted. Any f > 0 convicts "
        "the offender within a few batches and the\nquarantine "
        "ladder removes it for good; the price is the duplicate "
        "share of\nmeasurements (~f), traded against how many "
        "corrupted values slip through\nbefore the conviction "
        "lands.\n");

    // The ablation doubles as a regression gate: auditing off must
    // show the corruption (the Byzantine engine works), auditing on
    // must convict, and the heavy-audit point must end bit-identical
    // (conviction + arbitration + re-issue work).
    if (!silentCorruption) {
        std::fprintf(stderr, "A14: expected silent corruption at "
                             "audit fraction 0\n");
        return 1;
    }
    if (!convictedEverywhere) {
        std::fprintf(stderr, "A14: a nonzero audit fraction failed "
                             "to convict the corrupting shard\n");
        return 1;
    }
    if (!highFractionClean) {
        std::fprintf(stderr, "A14: corrupted values survived the "
                             "50%% audit sweep point\n");
        return 1;
    }
    return 0;
}
