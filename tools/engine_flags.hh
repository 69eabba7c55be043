/**
 * @file
 * The measurement-engine flags shared by statsched_cli and
 * statsched_worker.
 *
 * The CLI hands --benchmark, --instances and the --fault-* flags on to
 * every shard worker it spawns, so both programs declare and read them
 * here, with the same checks. A value out of range exits 2 with a
 * message naming the option, before anything is built from it or
 * narrowed: a contract violation deep in the sampler or the fault
 * injector would abort instead, and a narrowed value would run a
 * campaign nobody asked for.
 */

#ifndef STATSCHED_TOOLS_ENGINE_FLAGS_HH
#define STATSCHED_TOOLS_ENGINE_FLAGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/cli.hh"
#include "core/fault_injection.hh"
#include "core/topology.hh"
#include "sim/benchmarks.hh"

namespace statsched
{
namespace tools
{

/** Declares --benchmark, --instances and the --fault-* options. */
inline void
addWorkloadFlags(base::OptionParser &parser)
{
    parser.addOption("benchmark", "ipfwd-l1", "workload kernel");
    parser.addOption("instances", "8", "pipeline instances");
    parser.addOption("fault-rate", "0",
                     "injected transient failure percent");
    parser.addOption("fault-garbage", "0",
                     "injected NaN reading percent");
    parser.addOption("fault-outlier", "0",
                     "injected silent outlier percent");
    parser.addOption("fault-hang", "0",
                     "injected modeled hang percent");
    parser.addOption("fault-seed", "1024023",
                     "fault injection seed");
}

/** @return the benchmark called `name`; exits 2 on any other name.
 *  `who` prefixes the message. */
inline sim::Benchmark
benchmarkOrDie(const char *who, const std::string &name)
{
    using sim::Benchmark;
    if (name == "ipfwd-l1")
        return Benchmark::IpfwdL1;
    if (name == "ipfwd-mem")
        return Benchmark::IpfwdMem;
    if (name == "analyzer")
        return Benchmark::PacketAnalyzer;
    if (name == "aho")
        return Benchmark::AhoCorasick;
    if (name == "stateful")
        return Benchmark::Stateful;
    if (name == "intadd")
        return Benchmark::IpfwdIntAdd;
    if (name == "intmul")
        return Benchmark::IpfwdIntMul;
    std::fprintf(stderr, "%s: unknown benchmark '%s' (ipfwd-l1, "
                 "ipfwd-mem, analyzer, aho, stateful, intadd, "
                 "intmul)\n", who, name.c_str());
    std::exit(2);
}

/**
 * @return --instances of `benchmark`: at least one, and few enough
 *         that every task of the workload has a context of its own
 *         on `topo`. Exits 2 otherwise, before the workload is built.
 */
inline std::uint32_t
instancesOrDie(const char *who, const base::OptionParser &args,
               sim::Benchmark benchmark, const core::Topology &topo)
{
    const long instances = args.getInt("instances");
    const std::uint32_t perInstance =
        sim::makeWorkload(benchmark, 1).taskCount();
    const long most = topo.contexts() / perInstance;
    if (instances < 1 || instances > most) {
        std::fprintf(stderr,
                     "%s: '--instances' must be in [1, %ld]: %u tasks "
                     "each on %u contexts (got %s)\n",
                     who, most, perInstance, topo.contexts(),
                     args.get("instances").c_str());
        std::exit(2);
    }
    return static_cast<std::uint32_t>(instances);
}

/**
 * @return the --fault-* options. Each rate is a percentage in
 *         [0, 100], and together they may not pass 100; exits 2
 *         otherwise.
 */
inline core::FaultOptions
faultOptionsOrDie(const char *who, const base::OptionParser &args)
{
    struct Rate
    {
        const char *name;
        double core::FaultOptions::*field;
    };
    const Rate rates[] = {
        {"fault-rate", &core::FaultOptions::transientRate},
        {"fault-garbage", &core::FaultOptions::garbageRate},
        {"fault-outlier", &core::FaultOptions::outlierRate},
        {"fault-hang", &core::FaultOptions::hangRate},
    };
    core::FaultOptions faults;
    for (const Rate &rate : rates) {
        const double percent = args.getDouble(rate.name);
        // Written so that NaN fails too.
        if (!(percent >= 0.0 && percent <= 100.0)) {
            std::fprintf(stderr,
                         "%s: '--%s' must be a percent in [0, 100] "
                         "(got %s)\n",
                         who, rate.name, args.get(rate.name).c_str());
            std::exit(2);
        }
        faults.*rate.field = percent / 100.0;
    }
    faults.seed =
        static_cast<std::uint64_t>(args.getInt("fault-seed"));
    if (faults.totalRate() > 1.0) {
        std::fprintf(stderr,
                     "%s: fault rates add up to more than 100%%\n",
                     who);
        std::exit(2);
    }
    return faults;
}

} // namespace tools
} // namespace statsched

#endif // STATSCHED_TOOLS_ENGINE_FLAGS_HH
