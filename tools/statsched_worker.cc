/**
 * @file
 * statsched_worker — shard measurement worker.
 *
 * Spawned by `statsched_cli iterate --shards N` (via
 * core::makeProcessShardFactory), one process per shard slot. The
 * worker builds the same in-process measurement substrate the
 * coordinator would use — FaultInjecting?(Simulated), from the same
 * engine flags — and serves the shard protocol over stdin/stdout:
 * frames in, frames out, nothing else on stdout (diagnostics go to
 * stderr, which is inherited from the coordinator).
 *
 * No ParallelEngine here: shard-level parallelism comes from the
 * number of workers, and the protocol evaluates items through batch
 * kernels, which are index-pure either way.
 *
 * Lifetime is governed by the coordinator, not by signals: the worker
 * serves until stdin reaches EOF (coordinator exited or released the
 * slot), a Shutdown frame arrives, or the coordinator breaks
 * protocol. SIGINT/SIGTERM at the terminal reach the whole foreground
 * process group, so the worker installs the standard handlers and
 * drains gracefully: an in-flight request group is finished and its
 * response flushed, and the worker exits 0 only once idle — the
 * coordinator never sees a half-answered request. stdin is polled in
 * bounded slices rather than blocked on outright, so a signal that
 * lands while the worker is NOT inside read() (the classic
 * check-then-block race) is still observed within one slice. A
 * second signal of the same kind hard-kills a wedged worker
 * (base/shutdown.hh).
 *
 * --garbage-values turns the worker into a Byzantine backend for the
 * chaos harness: it computes honestly, then flips mantissa bits of
 * every Ok value before replying — wrong VALUES behind valid frames
 * and CRCs, the one corruption the transport layer cannot catch.
 * Audit duplication in the coordinator exists to convict exactly
 * this worker.
 *
 * Exit codes: 0 clean stop (EOF, Shutdown, or signal drain),
 * 2 usage error, 3 protocol error.
 */

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "base/cli.hh"
#include "base/shutdown.hh"
#include "core/fault_injection.hh"
#include "core/shard_worker.hh"
#include "core/topology.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"

#include "engine_flags.hh"

namespace
{

using namespace statsched;

/** Writes all of `bytes` to stdout, retrying EINTR and short
 *  writes. @return false when the coordinator end is gone. */
bool
writeFrames(const std::vector<std::uint8_t> &bytes)
{
    const std::uint8_t *p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        const ssize_t n = ::write(STDOUT_FILENO, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    return true;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    base::OptionParser args;
    tools::addWorkloadFlags(args);
    args.addOption("config-hash", "0",
                   "coordinator's engine-configuration fingerprint, "
                   "echoed in the Hello");
    args.addFlag("garbage-values",
                 "chaos mode: corrupt every Ok value's bits before "
                 "replying (Byzantine worker)");
    const char *const who = "statsched_worker";
    tools::parseOrDie(who, args, argc, argv, 1);
    const core::Topology topo = core::Topology::ultraSparcT2();
    const sim::Benchmark benchmark =
        tools::benchmarkOrDie(who, args.get("benchmark"));
    const std::uint32_t instances =
        tools::instancesOrDie(who, args, benchmark, topo);
    const core::FaultOptions faults =
        tools::faultOptionsOrDie(who, args);
    std::uint64_t configHash = 0;
    if (!base::parseNumber(args.get("config-hash"), configHash)) {
        std::fprintf(stderr,
                     "%s: '--config-hash' must be an unsigned 64-bit "
                     "integer (got '%s')\n",
                     who, args.get("config-hash").c_str());
        return 2;
    }

    sim::SimulatedEngine simulated(
        sim::makeWorkload(benchmark, instances));
    std::unique_ptr<core::FaultInjectingEngine> faulty;
    core::PerformanceEngine *engine = &simulated;
    if (faults.totalRate() > 0.0) {
        faulty = std::make_unique<core::FaultInjectingEngine>(
            *engine, faults);
        engine = faulty.get();
    }
    std::unique_ptr<core::ValueCorruptingEngine> garbage;
    if (args.flag("garbage-values")) {
        garbage =
            std::make_unique<core::ValueCorruptingEngine>(*engine);
        engine = garbage.get();
    }

    core::ShardWorker worker(
        *engine, topo, simulated.workload().taskCount(), configHash);

    base::installShutdownHandlers();

    if (!writeFrames(worker.helloBytes()))
        return 0; // coordinator already gone; nothing to report

    std::vector<std::uint8_t> responses;
    std::uint8_t buffer[4096];
    while (true) {
        // Bounded poll slices: a shutdown signal may land at ANY
        // point of this loop, not only inside read(), so the drain
        // check must re-run on a timer — a flag set between the
        // check and the blocking call would otherwise be lost until
        // the next request arrives.
        struct pollfd pfd = {};
        pfd.fd = STDIN_FILENO;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 200);
        // Graceful drain: exit only when idle — an in-flight
        // request group is finished and flushed first, so the
        // coordinator is never left owed a response.
        if (base::shutdownRequested() && worker.idle()) {
            std::fprintf(stderr,
                         "statsched_worker: shutdown signal, "
                         "drained and exiting\n");
            return 0;
        }
        if (ready < 0) {
            if (errno == EINTR)
                continue; // drain check re-runs at the loop top
            std::fprintf(stderr,
                         "statsched_worker: stdin poll failed\n");
            return 3;
        }
        if (ready == 0)
            continue; // idle slice; keep watching for shutdown
        const ssize_t n =
            ::read(STDIN_FILENO, buffer, sizeof buffer);
        if (n < 0) {
            if (errno == EINTR)
                continue; // drain check re-runs at the loop top
            std::fprintf(stderr,
                         "statsched_worker: stdin read failed\n");
            return 3;
        }
        if (n == 0)
            return 0; // EOF: orderly stop
        responses.clear();
        const bool serving = worker.consume(
            buffer, static_cast<std::size_t>(n), responses);
        if (!responses.empty() && !writeFrames(responses))
            return worker.protocolError() ? 3 : 0;
        if (serving && base::shutdownRequested() && worker.idle()) {
            // The signal landed while a request was in flight; the
            // response above is flushed, so this is the safe point.
            std::fprintf(stderr,
                         "statsched_worker: shutdown signal, drained "
                         "and exiting\n");
            return 0;
        }
        if (!serving) {
            if (worker.protocolError()) {
                std::fprintf(stderr, "statsched_worker: %s\n",
                             worker.errorDetail().c_str());
                return 3;
            }
            return 0; // Shutdown frame
        }
    }
}
