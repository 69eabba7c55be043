/**
 * @file
 * e2e_probe — the in-process half of the end-to-end campaign
 * benchmark; bench/e2e/run.py is the entry point and the only caller.
 *
 * The probe takes the same `iterate` options as statsched_cli, builds
 * the measurement substrate the way the CLI does (sim, fault
 * injection, worker pool, optional shard fan-out), and runs the
 * campaign through core::runCampaign in one of three modes:
 *
 *   reference  The plainest substrate: one thread, no journal, no
 *              shards. The library promises bit-identical results
 *              across those knobs, so the CLI's stdout for the full
 *              configuration must equal this rendering byte for byte.
 *   setup      Set-up only, repeated kSetupReps times: the clock runs
 *              from substrate construction to the campaign's first
 *              stop probe, which then stops the run before any round.
 *   trace      The CLI's own substrate, with timing probes at the
 *              library's public seams (substrate, worker pool,
 *              simulator kernel, journal sink, shard transport, round
 *              boundaries). The three layers runCampaign hides
 *              (sampler, memo, estimator) are then replayed through
 *              their public classes on the campaign's exact inputs.
 *
 * Every mode prints one JSON object on stdout; usage errors exit 2.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/check.hh"
#include "base/cli.hh"
#include "base/clock.hh"
#include "base/io.hh"
#include "core/campaign.hh"
#include "core/fault_injection.hh"
#include "core/memoizing_engine.hh"
#include "core/parallel_engine.hh"
#include "core/sampler.hh"
#include "core/shard_protocol.hh"
#include "core/sharded_engine.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/pot_accumulator.hh"

namespace
{

using namespace statsched;
using SteadyTime = std::chrono::steady_clock::time_point;

SteadyTime
now()
{
    return std::chrono::steady_clock::now();
}

double
secondsBetween(SteadyTime from, SteadyTime to)
{
    return std::chrono::duration<double>(to - from).count();
}

// ==== Output helpers ================================================

void
appendf(std::string &out, const char *format, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *format, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, format);
    const int n = std::vsnprintf(buffer, sizeof buffer, format, args);
    va_end(args);
    if (n > 0)
        out.append(buffer, std::min<std::size_t>(
                               static_cast<std::size_t>(n),
                               sizeof buffer - 1));
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            appendf(out, "\\u%04x", c);
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Flat JSON object writer; values keep all their digits. */
class JsonObject
{
  public:
    void
    number(const char *key, double value)
    {
        field(key);
        appendf(text_, "%.17g", value);
    }

    void
    count(const char *key, std::uint64_t value)
    {
        field(key);
        appendf(text_, "%llu", static_cast<unsigned long long>(value));
    }

    void
    boolean(const char *key, bool value)
    {
        field(key);
        text_ += value ? "true" : "false";
    }

    void
    string(const char *key, const std::string &value)
    {
        field(key);
        text_ += jsonString(value);
    }

    void
    raw(const char *key, const std::string &json)
    {
        field(key);
        text_ += json;
    }

    std::string str() const { return text_ + "}"; }

  private:
    void
    field(const char *key)
    {
        text_ += text_.size() > 1 ? ", " : "";
        text_ += jsonString(key) + ": ";
    }

    std::string text_ = "{";
};

// ==== Spans =========================================================

/** One timed interval; `parent` indexes Trace::spans() (-1: root). */
struct Span
{
    const char *name;
    SteadyTime start;
    SteadyTime end;
    long parent;
};

/**
 * In-memory span recorder for the campaign thread. Rounds are the
 * roots; a seam crossed inside a round opens a child of the innermost
 * open span. Pool threads never record spans: the simulator probe
 * keeps atomic totals instead.
 */
class Trace
{
  public:
    long
    open(const char *name)
    {
        const long parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, now(), SteadyTime{}, parent});
        stack_.push_back(static_cast<long>(spans_.size()) - 1);
        return stack_.back();
    }

    /** Closes span `id` (the innermost open one); @return seconds. */
    double
    close(long id)
    {
        SCHED_INVARIANT(!stack_.empty() && stack_.back() == id,
                        "trace spans must close innermost first");
        stack_.pop_back();
        Span &span = spans_[static_cast<std::size_t>(id)];
        span.end = now();
        return secondsBetween(span.start, span.end);
    }

    /** Records a finished span measured elsewhere (the replays). */
    void
    add(const char *name, SteadyTime start, SteadyTime end, long parent)
    {
        spans_.push_back({name, start, end, parent});
    }

    /** Round boundary: closes the open round, opens the next. */
    void
    beginRound()
    {
        endRounds();
        round_ = open("round");
        roundSpans_.push_back(round_);
    }

    void
    endRounds()
    {
        if (round_ >= 0)
            close(round_);
        round_ = -1;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<long> &roundSpans() const { return roundSpans_; }

  private:
    std::vector<Span> spans_;
    std::vector<long> stack_;
    std::vector<long> roundSpans_;
    long round_ = -1;
};

/** Opens a span for the lifetime of the guard. */
class ScopedSpan
{
  public:
    ScopedSpan(Trace &trace, const char *name, double &total)
        : trace_(trace), total_(total), id_(trace.open(name))
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan() { total_ += trace_.close(id_); }

  private:
    Trace &trace_;
    double &total_;
    long id_;
};

// ==== Probes at the library's public seams ==========================

/**
 * Transparent PerformanceEngine probe. Calls on the campaign thread
 * become spans; kernel items, which run on pool threads, add to atomic
 * totals. Results pass through untouched, so the probed stack stays
 * bit-identical to the unprobed one.
 */
class ProbeEngine : public core::PerformanceEngine
{
  public:
    ProbeEngine(core::PerformanceEngine &inner, const char *span,
                Trace &trace)
        : inner_(inner), span_(span), trace_(trace)
    {
    }

    double
    measure(const core::Assignment &assignment) override
    {
        ScopedSpan span(trace_, span_, callSeconds_);
        ++calls_;
        return inner_.measure(assignment);
    }

    void
    measureBatch(std::span<const core::Assignment> batch,
                 std::span<double> out) override
    {
        ScopedSpan span(trace_, span_, callSeconds_);
        ++calls_;
        inner_.measureBatch(batch, out);
    }

    core::MeasurementOutcome
    measureOutcome(const core::Assignment &assignment) override
    {
        ScopedSpan span(trace_, span_, callSeconds_);
        ++calls_;
        return inner_.measureOutcome(assignment);
    }

    void
    measureBatchOutcome(std::span<const core::Assignment> batch,
                        std::span<core::MeasurementOutcome> out) override
    {
        ScopedSpan span(trace_, span_, callSeconds_);
        ++calls_;
        inner_.measureBatchOutcome(batch, out);
    }

    core::BatchKernel
    parallelKernel(std::size_t batchSize) override
    {
        core::BatchKernel kernel = inner_.parallelKernel(batchSize);
        if (!kernel)
            return {};
        return [this, kernel](const core::Assignment &a, std::size_t i) {
            const SteadyTime start = now();
            const double value = kernel(a, i);
            countItem(start);
            return value;
        };
    }

    core::OutcomeKernel
    outcomeKernel(std::size_t batchSize) override
    {
        core::OutcomeKernel kernel = inner_.outcomeKernel(batchSize);
        if (!kernel)
            return {};
        return [this, kernel](const core::Assignment &a, std::size_t i) {
            const SteadyTime start = now();
            const core::MeasurementOutcome outcome = kernel(a, i);
            countItem(start);
            return outcome;
        };
    }

    void
    reserveMeasurementIndices(std::size_t count) override
    {
        ScopedSpan span(trace_, "reserve", callSeconds_);
        inner_.reserveMeasurementIndices(count);
    }

    std::string name() const override { return inner_.name(); }

    double
    secondsPerMeasurement() const override
    {
        return inner_.secondsPerMeasurement();
    }

    void
    collectStats(core::EngineStats &stats) const override
    {
        inner_.collectStats(stats);
    }

    /** Campaign-thread seconds spent inside this probe's calls. */
    double callSeconds() const { return callSeconds_; }
    std::uint64_t calls() const { return calls_; }

    /** Kernel-item seconds, summed over all pool threads. */
    double
    itemSeconds() const
    {
        return 1e-9 * static_cast<double>(
                          itemNanos_.load(std::memory_order_relaxed));
    }

    std::uint64_t
    items() const
    {
        return items_.load(std::memory_order_relaxed);
    }

  private:
    void
    countItem(SteadyTime start)
    {
        const auto nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now() - start)
                .count();
        itemNanos_.fetch_add(static_cast<std::uint64_t>(nanos),
                             std::memory_order_relaxed);
        items_.fetch_add(1, std::memory_order_relaxed);
    }

    core::PerformanceEngine &inner_;
    const char *span_;
    Trace &trace_;
    double callSeconds_ = 0.0;
    std::uint64_t calls_ = 0;
    std::atomic<std::uint64_t> itemNanos_{0};
    std::atomic<std::uint64_t> items_{0};
};

/** Journal sink totals (campaign thread only). */
struct JournalIo
{
    double writeSeconds = 0.0;
    double syncSeconds = 0.0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t syncs = 0;
};

/**
 * base::io::Sink probe over the production file sink. Writes (one per
 * journal record) only add to totals; each fsync is a span.
 */
class ProbeSink : public base::io::Sink
{
  public:
    ProbeSink(std::unique_ptr<base::io::Sink> inner, JournalIo &io,
              Trace &trace)
        : inner_(std::move(inner)), io_(io), trace_(trace)
    {
    }

    base::io::IoResult
    write(const void *data, std::size_t size) override
    {
        const SteadyTime start = now();
        base::io::IoResult result = inner_->write(data, size);
        io_.writeSeconds += secondsBetween(start, now());
        ++io_.writes;
        io_.bytes += result.bytesWritten;
        return result;
    }

    base::io::IoResult
    sync() override
    {
        ScopedSpan span(trace_, "journal.sync", io_.syncSeconds);
        ++io_.syncs;
        return inner_->sync();
    }

  private:
    std::unique_ptr<base::io::Sink> inner_;
    JournalIo &io_;
    Trace &trace_;
};

base::io::SinkFactory
probedFileSinkFactory(JournalIo &io, Trace &trace)
{
    base::io::SinkFactory files = base::io::fileSinkFactory();
    return [files, &io, &trace](const std::string &path, bool truncate,
                                base::io::IoResult &result)
               -> std::unique_ptr<base::io::Sink> {
        std::unique_ptr<base::io::Sink> inner =
            files(path, truncate, result);
        if (!inner)
            return nullptr;
        return std::make_unique<ProbeSink>(std::move(inner), io, trace);
    };
}

/** Shard transport totals (campaign thread only). */
struct ShardIo
{
    double startSeconds = 0.0;
    double sendSeconds = 0.0;
    double receiveSeconds = 0.0;
    std::uint64_t starts = 0;
    std::uint64_t framesSent = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t framesReceived = 0;
};

/** ShardBackend probe over the production subprocess transport. */
class ProbeShardBackend : public core::ShardBackend
{
  public:
    ProbeShardBackend(std::unique_ptr<core::ShardBackend> inner,
                      ShardIo &io, Trace &trace)
        : inner_(std::move(inner)), io_(io), trace_(trace)
    {
    }

    bool
    start(std::string &error) override
    {
        ScopedSpan span(trace_, "shard.start", io_.startSeconds);
        ++io_.starts;
        return inner_->start(error);
    }

    bool
    send(const std::uint8_t *data, std::size_t size) override
    {
        ScopedSpan span(trace_, "shard.send", io_.sendSeconds);
        ++io_.framesSent;
        io_.bytesSent += size;
        return inner_->send(data, size);
    }

    RecvStatus
    receive(core::ShardFrame &frame, double maxWaitSeconds) override
    {
        ScopedSpan span(trace_, "shard.recv", io_.receiveSeconds);
        const RecvStatus status = inner_->receive(frame, maxWaitSeconds);
        if (status == RecvStatus::Frame)
            ++io_.framesReceived;
        return status;
    }

    void terminate() override { inner_->terminate(); }

  private:
    std::unique_ptr<core::ShardBackend> inner_;
    ShardIo &io_;
    Trace &trace_;
};

/** Zero-cost engine under the memo replay: every reading is 1. */
class StubEngine : public core::PerformanceEngine
{
  public:
    double measure(const core::Assignment &) override { return 1.0; }

    void
    measureBatchOutcome(std::span<const core::Assignment> batch,
                        std::span<core::MeasurementOutcome> out) override
    {
        (void)batch;
        std::fill(out.begin(), out.end(),
                  core::MeasurementOutcome::classify(1.0));
    }

    std::string name() const override { return "stub"; }
};

// ==== The campaign, configured like `statsched_cli iterate` =========

/**
 * Declares the `iterate` options the benchmark workloads use, with the
 * CLI's defaults: the journal identity hash is built from these
 * strings, so a journal written by the CLI resumes here and back.
 * Options the probe does not model are rejected by the parser.
 */
void
addIterateOptions(base::OptionParser &args)
{
    args.addOption("benchmark", "ipfwd-l1");
    args.addOption("instances", "8");
    args.addOption("threads", "0");
    args.addOption("fault-rate", "0");
    args.addOption("fault-garbage", "0");
    args.addOption("fault-outlier", "0");
    args.addOption("fault-hang", "0");
    args.addOption("fault-seed", "1024023");
    args.addOption("retries", "3");
    args.addOption("loss", "2.5");
    args.addOption("seed", "7");
    args.addOption("ninit", "1000");
    args.addOption("ndelta", "100");
    args.addOption("max", "20000");
    args.addOption("journal", "");
    args.addFlag("resume");
    args.addOption("audit-fraction", "0");
    args.addOption("shards", "0");
    args.addOption("worker", "");
}

bool
parseBenchmark(const std::string &name, sim::Benchmark &out)
{
    static const std::pair<const char *, sim::Benchmark> names[] = {
        {"ipfwd-l1", sim::Benchmark::IpfwdL1},
        {"ipfwd-mem", sim::Benchmark::IpfwdMem},
        {"analyzer", sim::Benchmark::PacketAnalyzer},
        {"aho", sim::Benchmark::AhoCorasick},
        {"stateful", sim::Benchmark::Stateful},
        {"intadd", sim::Benchmark::IpfwdIntAdd},
        {"intmul", sim::Benchmark::IpfwdIntMul},
    };
    for (const auto &[text, benchmark] : names) {
        if (name == text) {
            out = benchmark;
            return true;
        }
    }
    return false;
}

/** The CLI's per-request shard deadline (its --shard-deadline-s). */
constexpr double kShardDeadlineSeconds = 30.0;

/** FNV-1a, as the CLI hashes its campaign-configuration string. */
std::uint64_t
hashConfigString(const std::string &config)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : config) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Everything runCampaign needs, parsed once from the options. */
struct Campaign
{
    sim::Benchmark benchmark = sim::Benchmark::IpfwdL1;
    std::uint32_t instances = 0;
    unsigned threads = 0;
    core::FaultOptions faults;
    std::uint64_t seed = 0;
    double lossPercent = 0.0;
    std::size_t shards = 0;
    double auditFraction = 0.0;
    std::vector<std::string> workerArgv;
    std::uint64_t shardFingerprint = 0;
    core::CampaignOptions options;
};

bool
parseCampaign(const base::OptionParser &args, Campaign &c,
              std::string &error)
{
    if (!parseBenchmark(args.get("benchmark"), c.benchmark)) {
        error = "unknown benchmark '" + args.get("benchmark") + "'";
        return false;
    }
    if (args.getInt("instances") <= 0 || args.getInt("threads") < 0 ||
        args.getInt("ninit") <= 0 || args.getInt("ndelta") <= 0 ||
        args.getInt("max") <= 0 || args.getInt("retries") < 0 ||
        args.getInt("shards") < 0) {
        error = "a count option is out of range";
        return false;
    }
    c.instances = static_cast<std::uint32_t>(args.getInt("instances"));
    c.threads = static_cast<unsigned>(args.getInt("threads"));
    c.faults.transientRate = args.getDouble("fault-rate") / 100.0;
    c.faults.garbageRate = args.getDouble("fault-garbage") / 100.0;
    c.faults.outlierRate = args.getDouble("fault-outlier") / 100.0;
    c.faults.hangRate = args.getDouble("fault-hang") / 100.0;
    c.faults.seed =
        static_cast<std::uint64_t>(args.getInt("fault-seed"));
    c.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    c.lossPercent = args.getDouble("loss");
    c.shards = static_cast<std::size_t>(args.getInt("shards"));
    c.auditFraction = args.getDouble("audit-fraction");
    if (args.flag("resume") && args.get("journal").empty()) {
        error = "'--resume' requires '--journal'";
        return false;
    }
    if (c.shards > 0 && args.get("worker").empty()) {
        error = "'--shards' requires '--worker'";
        return false;
    }

    core::CampaignOptions &o = c.options;
    o.iterative.acceptableLoss = c.lossPercent / 100.0;
    o.iterative.initialSample =
        static_cast<std::size_t>(args.getInt("ninit"));
    o.iterative.incrementSample =
        static_cast<std::size_t>(args.getInt("ndelta"));
    o.iterative.maxSample = static_cast<std::size_t>(args.getInt("max"));
    o.journalPath = args.get("journal");
    o.resume = args.flag("resume");
    o.resilient = c.faults.totalRate() > 0.0;
    o.resilience.maxAttempts =
        static_cast<std::uint32_t>(args.getInt("retries")) + 1;
    // The tail "c0|f0|m1" is the CLI's encoding of --confident,
    // --cold-fits and --no-memoize all off.
    o.configHash = hashConfigString(
        args.get("benchmark") + "|" + args.get("instances") + "|" +
        args.get("fault-rate") + "|" + args.get("fault-garbage") +
        "|" + args.get("fault-outlier") + "|" +
        args.get("fault-hang") + "|" + args.get("fault-seed") + "|" +
        args.get("retries") + "|" + args.get("loss") + "|" +
        args.get("ninit") + "|" + args.get("ndelta") + "|" +
        args.get("max") + "|c0|f0|m1");

    const std::string engineConfig = args.get("benchmark") + "|" +
        args.get("instances") + "|" + args.get("fault-rate") + "|" +
        args.get("fault-garbage") + "|" + args.get("fault-outlier") +
        "|" + args.get("fault-hang") + "|" + args.get("fault-seed");
    c.shardFingerprint = core::shardConfigFingerprint(engineConfig);
    c.workerArgv = {
        args.get("worker"),
        "--benchmark", args.get("benchmark"),
        "--instances", args.get("instances"),
        "--fault-rate", args.get("fault-rate"),
        "--fault-garbage", args.get("fault-garbage"),
        "--fault-outlier", args.get("fault-outlier"),
        "--fault-hang", args.get("fault-hang"),
        "--fault-seed", args.get("fault-seed"),
        "--config-hash", std::to_string(c.shardFingerprint),
    };
    return true;
}

/** Probes of one traced run; absent for untraced runs. */
struct Probes
{
    Trace trace;
    JournalIo journal;
    ShardIo shard;
};

/**
 * The measurement substrate handed to runCampaign, built as the CLI
 * builds it (Sharded?(Parallel(Fault?(Sim)))); traced runs add probes
 * above the simulator, above the pool, and around the whole.
 */
struct Substrate
{
    std::unique_ptr<sim::SimulatedEngine> simulated;
    std::unique_ptr<ProbeEngine> simProbe;
    std::unique_ptr<core::FaultInjectingEngine> faulty;
    std::unique_ptr<core::ParallelEngine> parallel;
    std::unique_ptr<ProbeEngine> parallelProbe;
    std::unique_ptr<core::ShardedEngine> sharded;
    std::unique_ptr<ProbeEngine> top;
    core::PerformanceEngine *engine = nullptr;

    std::uint32_t
    tasks() const
    {
        return simulated->workload().taskCount();
    }
};

Substrate
buildSubstrate(const Campaign &c, unsigned threads, bool sharded,
               base::Clock &clock, core::Health &health, Probes *probes)
{
    const core::Topology topo = core::Topology::ultraSparcT2();
    Substrate s;
    s.simulated = std::make_unique<sim::SimulatedEngine>(
        sim::makeWorkload(c.benchmark, c.instances));
    core::PerformanceEngine *below = s.simulated.get();
    if (probes) {
        s.simProbe =
            std::make_unique<ProbeEngine>(*below, "sim", probes->trace);
        below = s.simProbe.get();
    }
    if (c.faults.totalRate() > 0.0) {
        s.faulty =
            std::make_unique<core::FaultInjectingEngine>(*below, c.faults);
        below = s.faulty.get();
    }
    s.parallel = std::make_unique<core::ParallelEngine>(*below, threads);
    below = s.parallel.get();
    if (probes) {
        s.parallelProbe = std::make_unique<ProbeEngine>(
            *below, "parallel", probes->trace);
        below = s.parallelProbe.get();
    }
    if (sharded) {
        core::ShardedOptions sharding;
        sharding.shards = c.shards;
        sharding.requestDeadlineSeconds = kShardDeadlineSeconds;
        sharding.expected.configHash = c.shardFingerprint;
        sharding.expected.cores = topo.cores;
        sharding.expected.pipesPerCore = topo.pipesPerCore;
        sharding.expected.strandsPerPipe = topo.strandsPerPipe;
        sharding.expected.tasks = s.tasks();
        sharding.clock = &clock;
        sharding.auditFraction = c.auditFraction;
        sharding.auditSeed = c.seed;
        sharding.health = &health;
        core::ShardBackendFactory factory = core::makeProcessShardFactory(
            c.workerArgv, clock, kShardDeadlineSeconds);
        if (probes) {
            factory = [factory, probes](std::size_t index) {
                return std::unique_ptr<core::ShardBackend>(
                    new ProbeShardBackend(factory(index), probes->shard,
                                          probes->trace));
            };
        }
        s.sharded = std::make_unique<core::ShardedEngine>(
            *below, std::move(factory), sharding);
        below = s.sharded.get();
    }
    if (probes) {
        s.top = std::make_unique<ProbeEngine>(*below, "substrate",
                                              probes->trace);
        below = s.top.get();
    }
    s.engine = below;
    return s;
}

/** The CLI's iterate exit-code map, including the degraded code 7. */
int
exitCode(const core::CampaignResult &result, const core::Health &health)
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

/** The CLI's iterate stdout, byte for byte. */
std::string
renderStdout(const core::CampaignResult &result, double lossPercent)
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

// ==== Modes =========================================================

int
runReference(const Campaign &c)
{
    base::SteadyClock clock;
    core::Health health;
    Substrate s = buildSubstrate(c, 1, false, clock, health, nullptr);
    core::CampaignOptions options = c.options;
    options.journalPath.clear();
    options.resume = false;
    options.clock = &clock;
    options.health = &health;
    const core::CampaignResult result =
        core::runCampaign(*s.engine, core::Topology::ultraSparcT2(),
                          s.tasks(), c.seed, options);
    JsonObject json;
    json.string("stdout", renderStdout(result, c.lossPercent));
    json.count("exit", static_cast<std::uint64_t>(exitCode(result, health)));
    std::printf("%s\n", json.str().c_str());
    return 0;
}

/**
 * Resets the journal a run starts from: a fresh copy of the fixture
 * for a resumed campaign, nothing for a new one.
 */
bool
prepareJournal(const Campaign &c, const std::string &fixture,
               std::string &error)
{
    namespace fs = std::filesystem;
    const std::string &path = c.options.journalPath;
    if (path.empty())
        return true;
    std::error_code ec;
    fs::remove(path, ec);
    if (!c.options.resume)
        return true;
    if (fixture.empty() ||
        !fs::copy_file(fixture, path,
                       fs::copy_options::overwrite_existing, ec)) {
        error = "cannot copy journal fixture '" + fixture + "'";
        return false;
    }
    return true;
}

/**
 * Set-up repetitions per setup process. One set-up takes 0.1-2 ms, so
 * a handful per process costs nothing next to a campaign.
 */
constexpr int kSetupReps = 5;

int
runSetup(const Campaign &c, const std::string &fixture)
{
    std::string times = "[";
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::string error;
        if (!prepareJournal(c, fixture, error)) {
            std::fprintf(stderr, "e2e_probe: %s\n", error.c_str());
            return 1;
        }
        base::SteadyClock clock;
        core::Health health;
        core::CampaignOptions options = c.options;
        options.clock = &clock;
        options.health = &health;
        SteadyTime stopped{};
        options.stopRequested = [&stopped] {
            if (stopped == SteadyTime{})
                stopped = now();
            return true;
        };

        const SteadyTime start = now();
        Substrate s =
            buildSubstrate(c, c.threads, c.shards > 0, clock, health,
                           nullptr);
        const core::CampaignResult result =
            core::runCampaign(*s.engine, core::Topology::ultraSparcT2(),
                              s.tasks(), c.seed, options);
        if (!result.ran || stopped == SteadyTime{} ||
            result.search.abortKind != core::AbortKind::Interrupted) {
            std::fprintf(stderr, "e2e_probe: setup run did not stop at "
                         "its first probe (%s)\n",
                         result.journalError.c_str());
            return 1;
        }
        appendf(times, "%s%.17g", rep ? ", " : "",
                secondsBetween(start, stopped));
    }
    JsonObject json;
    json.raw("setup_s", times + "]");
    std::printf("%s\n", json.str().c_str());
    return 0;
}

/** Results of replaying the layers runCampaign hides. */
struct Replay
{
    double samplerSeconds = 0.0;
    std::uint64_t draws = 0;
    std::uint64_t attempts = 0;
    double memoSeconds = 0.0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    double extendSeconds = 0.0;
    double estimateSeconds = 0.0;
    std::uint64_t estimates = 0;
    std::uint64_t shortcutHits = 0;
    bool upbBitsMatch = false;
};

/**
 * Replays sampler, memo and estimator with the campaign's exact
 * inputs, round by round in the campaign's order, so each layer finds
 * the caches the other two leave behind, as it does in the campaign.
 * The sampler redraws the campaign's stream in its round sizes; the
 * memo layer keys each batch over a zero-cost engine; the estimator is
 * fed the campaign's sample cut at each round's size, which reproduces
 * its estimate() sequence whenever no round needed top-up draws (every
 * workload here: failures are retried away). Spans go to `trace`,
 * each under its campaign round.
 */
Replay
replayHiddenLayers(const Campaign &c, std::uint32_t tasks,
                   const core::CampaignResult &result,
                   const std::vector<long> &rounds, Trace &trace)
{
    const core::IterativeResult &run = result.search;
    auto record = [&rounds, &trace](const char *name, SteadyTime start,
                                    SteadyTime end, std::size_t round) {
        trace.add(name, start, end,
                  round < rounds.size() ? rounds[round] : -1L);
    };
    Replay r;
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(), tasks, c.seed);
    StubEngine stub;
    core::MemoizingEngine memo(stub);
    stats::PotAccumulator accumulator(c.options.iterative.pot,
                                      c.options.iterative.warmStartFits);
    const std::vector<double> &sample = run.final.sample;
    std::size_t taken = 0;
    double upb = 0.0;
    double best = 0.0;
    for (std::size_t i = 0; i < run.steps.size(); ++i) {
        SteadyTime start = now();
        const std::vector<core::Assignment> batch =
            sampler.drawSample(run.steps[i].attempted);
        SteadyTime end = now();
        r.samplerSeconds += secondsBetween(start, end);
        record("sampler", start, end, i);

        std::vector<core::MeasurementOutcome> out(batch.size());
        start = now();
        memo.measureBatchOutcome(batch, out);
        end = now();
        r.memoSeconds += secondsBetween(start, end);
        record("memo", start, end, i);
        r.lookups += batch.size();

        const std::size_t cut =
            std::min(run.steps[i].sampleSize, sample.size());
        const std::vector<double> slice(
            sample.begin() + static_cast<std::ptrdiff_t>(taken),
            sample.begin() + static_cast<std::ptrdiff_t>(cut));
        for (const double v : slice)
            best = std::max(best, v);
        taken = cut;
        start = now();
        accumulator.extend(slice);
        const SteadyTime extended = now();
        try {
            upb = accumulator.estimate().upb;
        } catch (const ContractViolation &) {
            upb = best; // the estimator's best-observed fallback
        }
        end = now();
        r.extendSeconds += secondsBetween(start, extended);
        r.estimateSeconds += secondsBetween(extended, end);
        ++r.estimates;
        record("estimator", start, end, i);
    }
    r.draws = sampler.produced();
    r.attempts = sampler.attempts();
    r.hits = memo.hitCount();
    r.shortcutHits = accumulator.shortcutHits();
    r.upbBitsMatch = !run.steps.empty() &&
        std::memcmp(&upb, &run.final.pot.upb, sizeof upb) == 0;
    return r;
}

void
writeTraceFile(const std::string &path, const Trace &trace,
               SteadyTime origin, const std::string &counters)
{
    std::string text = "{\"origin\": \"substrate construction\", "
                       "\"unit\": \"s\", \"counters\": " +
        counters + ",\n \"spans\": [";
    const std::vector<Span> &spans = trace.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        appendf(text,
                "%s\n  {\"id\": %zu, \"name\": %s, \"start\": %.9f, "
                "\"end\": %.9f, \"parent\": %ld}",
                i ? "," : "", i, jsonString(spans[i].name).c_str(),
                secondsBetween(origin, spans[i].start),
                secondsBetween(origin, spans[i].end), spans[i].parent);
    }
    text += "\n]}\n";
    base::io::IoResult result;
    std::unique_ptr<base::io::FileSink> sink =
        base::io::FileSink::open(path, true, result);
    if (!sink || !sink->write(text.data(), text.size()).ok())
        std::fprintf(stderr, "e2e_probe: cannot write trace '%s'\n",
                     path.c_str());
}

int
runTrace(const Campaign &c, const std::string &fixture,
         const std::string &traceOut)
{
    std::string error;
    if (!prepareJournal(c, fixture, error)) {
        std::fprintf(stderr, "e2e_probe: %s\n", error.c_str());
        return 1;
    }
    Probes probes;
    base::SteadyClock clock;
    core::Health health;
    core::CampaignOptions options = c.options;
    options.clock = &clock;
    options.health = &health;
    options.journalSinkFactory =
        probedFileSinkFactory(probes.journal, probes.trace);
    SteadyTime firstProbe{};
    JournalIo ioAtFirstProbe;
    options.stopRequested = [&] {
        if (firstProbe == SteadyTime{}) {
            firstProbe = now();
            ioAtFirstProbe = probes.journal;
        }
        probes.trace.beginRound();
        return false;
    };

    const SteadyTime origin = now();
    core::CampaignResult result;
    SteadyTime entered{};
    SteadyTime returned{};
    std::uint32_t tasks = 0;
    unsigned threads = 0;
    {
        Substrate s = buildSubstrate(c, c.threads, c.shards > 0, clock,
                                     health, &probes);
        tasks = s.tasks();
        threads = s.parallel->threads();
        entered = now();
        result = core::runCampaign(*s.engine,
                                   core::Topology::ultraSparcT2(), tasks,
                                   c.seed, options);
        returned = now();
        probes.trace.endRounds();

        const Replay replay = replayHiddenLayers(
            c, tasks, result, probes.trace.roundSpans(), probes.trace);
        const core::EngineStats &stats = result.engineStats;

        std::vector<double> roundSeconds;
        for (const long id : probes.trace.roundSpans()) {
            const Span &span =
                probes.trace.spans()[static_cast<std::size_t>(id)];
            roundSeconds.push_back(secondsBetween(span.start, span.end));
        }
        std::sort(roundSeconds.begin(), roundSeconds.end());
        const double roundMedian = roundSeconds.empty()
            ? 0.0
            : 0.5 * (roundSeconds[(roundSeconds.size() - 1) / 2] +
                     roundSeconds[roundSeconds.size() / 2]);

        JsonObject raw;
        raw.number("total_s", secondsBetween(origin, returned));
        raw.number("wall_s", secondsBetween(entered, returned));
        raw.number("open_s",
                   firstProbe == SteadyTime{}
                       ? 0.0
                       : secondsBetween(entered, firstProbe));
        raw.number("open_journal_io_s", ioAtFirstProbe.writeSeconds +
                                            ioAtFirstProbe.syncSeconds);
        raw.count("rounds", probes.trace.roundSpans().size());
        raw.number("round_p50_s", roundMedian);
        raw.count("threads", threads);
        raw.number("substrate_s", s.top->callSeconds());
        raw.count("substrate_calls", s.top->calls());
        raw.number("parallel_wall_s", s.parallelProbe->callSeconds());
        raw.count("parallel_batches", s.parallelProbe->calls());
        raw.number("sim_busy_s", s.simProbe->itemSeconds());
        raw.count("sim_items", s.simProbe->items());
        raw.count("sim_solves", stats.solves);
        raw.count("sim_iterations", stats.solverIterations);
        raw.boolean("resumed", result.resumed);
        raw.number("journal_write_s", probes.journal.writeSeconds);
        raw.number("journal_sync_s", probes.journal.syncSeconds);
        raw.count("journal_writes", probes.journal.writes);
        raw.count("journal_syncs", probes.journal.syncs);
        raw.count("journal_bytes", probes.journal.bytes);
        raw.count("journal_replayed", result.replayedMeasurements);
        raw.count("journal_recorded", result.recordedMeasurements);
        raw.number("shard_start_s", probes.shard.startSeconds);
        raw.number("shard_send_s", probes.shard.sendSeconds);
        raw.number("shard_recv_s", probes.shard.receiveSeconds);
        raw.count("shard_starts", probes.shard.starts);
        raw.count("shard_frames_sent", probes.shard.framesSent);
        raw.count("shard_bytes_sent", probes.shard.bytesSent);
        raw.count("shard_frames_received", probes.shard.framesReceived);
        raw.count("shard_remote_measurements", stats.shardedMeasurements);
        raw.count("shard_audits", stats.shardAudits);
        raw.count("shard_reissues", stats.shardReissues);
        raw.count("shard_failures", stats.shardFailures);
        raw.count("resilient_failures", stats.failures);
        raw.count("resilient_retries", stats.retries);
        raw.count("resilient_quarantined", stats.quarantined);
        raw.count("cache_hits", stats.cacheHits);
        raw.count("cache_misses", stats.cacheMisses);
        raw.count("sampled", result.search.totalSampled);
        raw.count("attempted", result.search.totalAttempted);
        raw.count("failed", result.search.totalFailed);
        raw.number("sampler_s", replay.samplerSeconds);
        raw.count("sampler_draws", replay.draws);
        raw.count("sampler_attempts", replay.attempts);
        raw.number("memo_s", replay.memoSeconds);
        raw.count("memo_lookups", replay.lookups);
        raw.count("memo_hits", replay.hits);
        raw.number("estimator_extend_s", replay.extendSeconds);
        raw.number("estimator_estimate_s", replay.estimateSeconds);
        raw.count("estimator_estimates", replay.estimates);
        raw.count("estimator_shortcut_hits", replay.shortcutHits);
        raw.boolean("upb_bits_match", replay.upbBitsMatch);
        const std::string counters = raw.str();

        if (!traceOut.empty())
            writeTraceFile(traceOut, probes.trace, origin, counters);

        JsonObject json;
        json.string("stdout", renderStdout(result, c.lossPercent));
        json.count("exit",
                   static_cast<std::uint64_t>(exitCode(result, health)));
        json.raw("raw", counters);
        std::printf("%s\n", json.str().c_str());
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    base::OptionParser args;
    addIterateOptions(args);
    args.addOption("fixture", "",
                   "resumed campaigns: journal copied to --journal "
                   "before each run");
    args.addOption("trace-out", "", "trace: span file to write");
    Campaign campaign;
    std::string error;
    if ((mode != "reference" && mode != "setup" && mode != "trace") ||
        !args.parse(argc, argv, 2) ||
        !parseCampaign(args, campaign, error)) {
        std::fprintf(stderr,
                     "usage: e2e_probe reference|setup|trace "
                     "[iterate options]\n%s\noptions:\n%s",
                     error.empty() ? args.error().c_str() : error.c_str(),
                     args.usage().c_str());
        return 2;
    }
    if (mode == "reference")
        return runReference(campaign);
    if (mode == "setup")
        return runSetup(campaign, args.get("fixture"));
    return runTrace(campaign, args.get("fixture"), args.get("trace-out"));
}
