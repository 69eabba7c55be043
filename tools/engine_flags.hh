/**
 * @file
 * The measurement-engine flags shared by statsched_cli and
 * statsched_worker.
 *
 * The CLI hands --benchmark, --instances and the --fault-* flags on to
 * every shard worker it spawns, so both programs declare and read them
 * here, and report a refused value the same way (parseOrDie). The
 * parser refuses a value outside its option's range; the checks here
 * relate options (--instances to the benchmark and the chip, the fault
 * rates to their total) and exit 2 before anything is built from a
 * value: a contract violation deep in the sampler or the fault
 * injector would abort instead.
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

/** Parses argv[first..argc) or exits 2, printing the reason and the
 *  usage text after `who`. */
inline void
parseOrDie(const char *who, base::OptionParser &parser, int argc,
           char **argv, int first)
{
    if (!parser.parse(argc, argv, first)) {
        std::fprintf(stderr, "%s: %s\noptions:\n%s", who,
                     parser.error().c_str(), parser.usage().c_str());
        std::exit(2);
    }
}

/** Declares --benchmark, --instances and the --fault-* options. */
inline void
addWorkloadFlags(base::OptionParser &parser)
{
    parser.addOption("benchmark", "ipfwd-l1", "workload kernel");
    parser.addInt("instances", "8", "pipeline instances", 1);
    parser.addReal("fault-rate", "0",
                   "injected transient failure percent", 0, 100);
    parser.addReal("fault-garbage", "0", "injected NaN reading percent",
                   0, 100);
    parser.addReal("fault-outlier", "0", "injected silent outlier percent",
                   0, 100);
    parser.addReal("fault-hang", "0", "injected modeled hang percent", 0,
                   100);
    parser.addInt("fault-seed", "1024023", "fault injection seed");
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
 * @return --instances of `benchmark`: few enough that every task of
 *         the workload has a context of its own on `topo`. Exits 2
 *         otherwise, before the workload is built.
 */
inline std::uint32_t
instancesOrDie(const char *who, const base::OptionParser &args,
               sim::Benchmark benchmark, const core::Topology &topo)
{
    const long instances = args.getInt("instances");
    const std::uint32_t perInstance =
        sim::makeWorkload(benchmark, 1).taskCount();
    const long most = topo.contexts() / perInstance;
    if (instances > most) {
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
 * @return the --fault-* options, whose rates may not add up to more
 *         than 100 percent; exits 2 otherwise.
 */
inline core::FaultOptions
faultOptionsOrDie(const char *who, const base::OptionParser &args)
{
    core::FaultOptions faults;
    faults.transientRate = args.getDouble("fault-rate") / 100.0;
    faults.garbageRate = args.getDouble("fault-garbage") / 100.0;
    faults.outlierRate = args.getDouble("fault-outlier") / 100.0;
    faults.hangRate = args.getDouble("fault-hang") / 100.0;
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
