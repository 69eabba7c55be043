/**
 * @file
 * PinnedThreadEngine implementation.
 */

#include "hw/pinned_executor.hh"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "base/check.hh"
#include "base/logging.hh"
#include "base/sync.hh"
#include "net/aho_corasick.hh"
#include "net/analyzer.hh"
#include "net/flow_table.hh"
#include "net/ipfwd.hh"
#include "net/keywords.hh"
#include "net/pipeline.hh"

namespace statsched
{
namespace hw
{

namespace
{

/**
 * Builds the P-stage kernel for a benchmark. The returned callable
 * owns its state (table/automaton/...) via shared_ptr so it can be
 * copied into the pipeline.
 */
net::ProcessFn
makeProcessKernel(sim::Benchmark benchmark, std::uint32_t instance)
{
    using sim::Benchmark;
    switch (benchmark) {
      case Benchmark::IpfwdL1:
      case Benchmark::IpfwdIntAdd:
      case Benchmark::IpfwdIntMul:
        {
            auto table = std::make_shared<net::Ipv4ForwardingTable>(
                net::IpfwdMode::L1Resident, 16, 0xf02d + instance);
            return [table](net::Packet &p) {
                return table->forward(p);
            };
        }
      case Benchmark::IpfwdMem:
        {
            auto table = std::make_shared<net::Ipv4ForwardingTable>(
                net::IpfwdMode::MemoryBound, 16, 0xf02d + instance);
            return [table](net::Packet &p) {
                return table->forward(p);
            };
        }
      case Benchmark::PacketAnalyzer:
        {
            auto analyzer = std::make_shared<net::PacketAnalyzer>();
            return [analyzer](net::Packet &p) {
                analyzer->process(p);
                return true;
            };
        }
      case Benchmark::AhoCorasick:
        {
            // One automaton per engine would be shared; per instance
            // mirrors the paper (same keyword set for all).
            static const auto automaton =
                std::make_shared<net::AhoCorasick>(
                    net::dosKeywordSet());
            return [](net::Packet &p) {
                automaton->countMatches(p.payload(), p.payloadSize());
                return true;
            };
        }
      case Benchmark::IpsecEsp:
        {
            // A stand-in stream cipher: XOR keystream over the
            // payload plus the forwarding fast path.
            auto table = std::make_shared<net::Ipv4ForwardingTable>(
                net::IpfwdMode::L1Resident, 16, 0xe5b + instance);
            return [table](net::Packet &p) {
                std::uint8_t key = 0x5a;
                std::uint8_t *body = p.payload();
                for (std::size_t i = 0; i < p.payloadSize(); ++i) {
                    body[i] ^= key;
                    key = static_cast<std::uint8_t>(key * 73 + 11);
                }
                return table->forward(p);
            };
        }
      case Benchmark::Stateful:
        {
            auto table = std::make_shared<net::FlowTable>();
            auto seq = std::make_shared<std::uint64_t>(0);
            return [table, seq](net::Packet &p) {
                table->update(p, (*seq)++);
                return true;
            };
        }
    }
    SCHED_UNREACHABLE("unknown benchmark");
}

/** Pins the calling thread to one CPU; warns once on failure. */
void
pinSelfTo(unsigned cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    const int rc = pthread_setaffinity_np(pthread_self(),
                                          sizeof(set), &set);
    if (rc != 0) {
        static bool warned = false;
        if (!warned) {
            warned = true;
            warn("pthread_setaffinity_np failed; running unpinned");
        }
    }
}

/**
 * State shared between a measurement run and its stage threads. Held
 * through a shared_ptr captured by every thread, so when the watchdog
 * abandons a wedged run the pipelines stay alive until the last stage
 * thread — including the wedged one — eventually exits.
 */
struct RunState
{
    std::vector<std::unique_ptr<net::Pipeline>> pipelines; // NOLINT(statsched-unguarded-member): filled before the stage threads spawn and read after join/abandon; the threads only touch the raw Pipeline* they were handed
    std::atomic<std::size_t> active{0};
    base::Mutex mutex{"hw::RunState::mutex"};
    base::CondVar cv;

    /** Called by each stage thread on exit. */
    void
    stageDone()
    {
        if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Pair the notification with the mutex so the watchdog
            // cannot miss it between its predicate check and sleep.
            { base::MutexLock lock(mutex); }
            cv.notifyAll();
        }
    }
};

} // anonymous namespace

PinnedThreadEngine::PinnedThreadEngine(sim::Benchmark benchmark,
                                       std::uint32_t instances,
                                       const PinnedOptions &options)
    : benchmark_(benchmark), instances_(instances), options_(options)
{
    SCHED_REQUIRE(instances >= 1, "need at least one instance");
    SCHED_REQUIRE(options.measureMillis >= 10,
                  "measurement window too short");
}

unsigned
PinnedThreadEngine::hostCpuOf(core::ContextId context)
{
    const unsigned n = std::max(1u,
                                std::thread::hardware_concurrency());
    return context % n;
}

double
PinnedThreadEngine::measure(const core::Assignment &assignment)
{
    return measureOutcome(assignment).valueOrNaN();
}

core::MeasurementOutcome
PinnedThreadEngine::measureOutcome(const core::Assignment &assignment)
{
    SCHED_REQUIRE(assignment.size() == 3u * instances_,
                  "assignment size must be 3 x instances");

    auto state = std::make_shared<RunState>();
    state->pipelines.reserve(instances_);
    for (std::uint32_t i = 0; i < instances_; ++i) {
        net::TrafficConfig traffic;
        traffic.seed = 0x7a11 + i;
        state->pipelines.push_back(std::make_unique<net::Pipeline>(
            traffic, makeProcessKernel(benchmark_, i),
            options_.queueDepth));
    }
    state->active.store(3 * instances_, std::memory_order_relaxed);

    std::vector<std::thread> threads;
    threads.reserve(3 * instances_);
    const bool pin = options_.pinThreads;

    for (std::uint32_t i = 0; i < instances_; ++i) {
        net::Pipeline *pipe = state->pipelines[i].get();
        const core::TaskId base = 3 * i;
        const unsigned cpu_r = hostCpuOf(assignment.contextOf(base));
        const unsigned cpu_p =
            hostCpuOf(assignment.contextOf(base + 1));
        const unsigned cpu_t =
            hostCpuOf(assignment.contextOf(base + 2));
        const auto hang =
            i == 0 ? options_.testHangRelease : nullptr;

        threads.emplace_back([state, pipe, cpu_r, pin]() {
            if (pin)
                pinSelfTo(cpu_r);
            while (!pipe->stopRequested())
                pipe->receiveStep(64);
            state->stageDone();
        });
        threads.emplace_back([state, pipe, cpu_p, pin, hang]() {
            if (pin)
                pinSelfTo(cpu_p);
            while (!pipe->stopRequested())
                pipe->processStep(64);
            // Test hook: simulate a wedged stage that ignores the
            // stop request until released.
            if (hang) {
                while (!hang->load(std::memory_order_acquire))
                    std::this_thread::yield();
            }
            state->stageDone();
        });
        threads.emplace_back([state, pipe, cpu_t, pin]() {
            if (pin)
                pinSelfTo(cpu_t);
            while (!pipe->stopRequested())
                pipe->transmitStep(64);
            state->stageDone();
        });
    }

    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.measureMillis));
    for (auto &pipe : state->pipelines)
        pipe->requestStop();

    if (options_.watchdogMillis > 0) {
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(options_.watchdogMillis);
        bool reaped = true;
        {
            base::MutexLock lock(state->mutex);
            while (state->active.load(std::memory_order_acquire) !=
                   0) {
                if (state->cv.waitUntil(state->mutex, deadline) ==
                    std::cv_status::timeout) {
                    reaped = state->active.load(
                                 std::memory_order_acquire) == 0;
                    break;
                }
            }
        }
        if (!reaped) {
            // A stage is wedged. Abandon the run: the threads keep
            // the pipelines alive through `state`, so detaching is
            // safe, and the caller gets a failed measurement instead
            // of a hung experiment.
            for (auto &thread : threads)
                thread.detach();
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            warn("PinnedThreadEngine: watchdog expired; abandoning "
                 "a wedged measurement run");
            return core::MeasurementOutcome::failure(
                core::MeasureStatus::TimedOut);
        }
    }
    for (auto &thread : threads)
        thread.join();
    const auto end = std::chrono::steady_clock::now();

    std::uint64_t transmitted = 0;
    for (const auto &pipe : state->pipelines)
        transmitted += pipe->stats().transmitted;

    const double seconds =
        std::chrono::duration<double>(end - start).count();
    return core::MeasurementOutcome::classify(
        static_cast<double>(transmitted) / seconds);
}

void
PinnedThreadEngine::measureBatchOutcome(
    std::span<const core::Assignment> batch,
    std::span<core::MeasurementOutcome> out)
{
    SCHED_REQUIRE(batch.size() == out.size(),
                  "batch/result size mismatch");
    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = measureOutcome(batch[i]);
}

void
PinnedThreadEngine::collectStats(core::EngineStats &stats) const
{
    const std::uint64_t timeouts =
        timeouts_.load(std::memory_order_relaxed);
    stats.failures += timeouts;
    // A reaped run occupied the testbed for the watchdog grace period
    // on top of the measurement window the meter already charged.
    stats.modeledSeconds += static_cast<double>(timeouts) *
        options_.watchdogMillis / 1000.0;
}

std::string
PinnedThreadEngine::name() const
{
    return "hw:" + sim::benchmarkName(benchmark_) + "(" +
        std::to_string(instances_) + "x3)";
}

} // namespace hw
} // namespace statsched
