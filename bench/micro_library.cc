/**
 * @file
 * Ablation A4: google-benchmark microbenchmarks of the library hot
 * paths — the assignment sampler, the contention solver, the POT
 * estimation, and the real packet kernels whose costs ground the
 * simulator profiles (net/kernel_costs.hh).
 */

#include <benchmark/benchmark.h>

#include "base/worker_pool.hh"
#include "core/sampler.hh"
#include "net/aho_corasick.hh"
#include "net/flow_table.hh"
#include "net/generator.hh"
#include "net/ipfwd.hh"
#include "net/keywords.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/pot.hh"

namespace
{

using namespace statsched;

void
BM_SamplerDrawRejection(benchmark::State &state)
{
    // The paper's rejection loop; acceptance collapses near full
    // machine load, so only moderate loads are benchmarked.
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(),
        static_cast<std::uint32_t>(state.range(0)), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.draw());
}
BENCHMARK(BM_SamplerDrawRejection)->Arg(6)->Arg(24)->Arg(32);

void
BM_SamplerDrawFisherYates(benchmark::State &state)
{
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(),
        static_cast<std::uint32_t>(state.range(0)), 1,
        core::SamplingMethod::PartialFisherYates);
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.draw());
}
BENCHMARK(BM_SamplerDrawFisherYates)->Arg(6)->Arg(24)->Arg(48)
    ->Arg(64);

void
BM_SamplerDrawSamplePool(benchmark::State &state)
{
    // One 3,000-assignment round of 24 tasks, the bulk-aho24 campaign's
    // request, through the paper's rejection loop on a pool of
    // range(0) threads (1 = the serial loop).
    base::WorkerPool pool(static_cast<unsigned>(state.range(0)));
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(), 24, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(sampler.drawSample(3000, &pool));
}
BENCHMARK(BM_SamplerDrawSamplePool)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ContentionSolve(benchmark::State &state)
{
    sim::SimulatedEngine engine(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(), 24, 2);
    const auto assignment = sampler.draw();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.deterministic(assignment));
}
BENCHMARK(BM_ContentionSolve);

void
BM_PotEstimation(benchmark::State &state)
{
    sim::SimulatedEngine engine(
        sim::makeWorkload(sim::Benchmark::IpfwdL1, 8));
    core::RandomAssignmentSampler sampler(
        core::Topology::ultraSparcT2(), 24, 3);
    std::vector<double> sample;
    for (int i = 0; i < state.range(0); ++i)
        sample.push_back(engine.measure(sampler.draw()));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            stats::estimateOptimalPerformance(sample));
    }
}
BENCHMARK(BM_PotEstimation)->Arg(1000)->Arg(5000);

void
BM_IpfwdForward(benchmark::State &state)
{
    const net::Ipv4ForwardingTable table(
        state.range(0) ? net::IpfwdMode::MemoryBound
                       : net::IpfwdMode::L1Resident,
        16, 4);
    net::TrafficGenerator gen{net::TrafficConfig{}};
    auto packets = gen.burst(256);
    std::size_t i = 0;
    for (auto _ : state) {
        net::Packet copy = packets[i++ & 255];
        benchmark::DoNotOptimize(table.forward(copy));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IpfwdForward)->Arg(0)->Arg(1);

void
BM_AhoCorasickScan(benchmark::State &state)
{
    const net::AhoCorasick automaton(net::dosKeywordSet());
    net::TrafficConfig config;
    config.payloadMin = 512;
    config.payloadMax = 512;
    net::TrafficGenerator gen(config);
    auto packets = gen.burst(64);
    std::size_t i = 0;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        const net::Packet &pkt = packets[i++ & 63];
        benchmark::DoNotOptimize(automaton.countMatches(
            pkt.payload(), pkt.payloadSize()));
        bytes += pkt.payloadSize();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_AhoCorasickScan);

void
BM_FlowTableUpdate(benchmark::State &state)
{
    net::FlowTable table;
    net::TrafficGenerator gen{net::TrafficConfig{}};
    auto packets = gen.burst(1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.update(packets[i & 1023], i));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableUpdate);

} // anonymous namespace

BENCHMARK_MAIN();
