/**
 * @file
 * Figure 6: (a) ordered sample of 5000 random task assignments for
 * 24 threads of IPFwd-L1; (b) the sample mean-excess plot used to
 * select the POT threshold (paper: pick u where the plot turns
 * linear, around 6.6 MPPS, keeping at most 5% exceedances).
 */

#include <cstdio>

#include "bench/harness.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/descriptive.hh"
#include "stats/mean_excess.hh"
#include "stats/threshold.hh"

int
main()
{
    using namespace statsched;
    using namespace statsched::sim;
    using core::Topology;

    bench::banner("Figure 6",
                  "sorted sample and mean-excess plot, 24-thread "
                  "IPFwd-L1, n = 5000");

    const Topology t2 = Topology::ultraSparcT2();
    SimulatedEngine engine(makeWorkload(Benchmark::IpfwdL1, 8));
    core::RandomAssignmentSampler sampler(t2, 24, 20120303);

    std::vector<double> sample;
    sample.reserve(5000);
    for (int i = 0; i < 5000; ++i)
        sample.push_back(engine.measure(sampler.draw()));

    const stats::MeanExcess me(sample);
    const auto &sorted = me.sorted();

    bench::section("(a) ordered sample, every 250th order statistic");
    for (std::size_t i = 0; i < sorted.size(); i += 250)
        std::printf("  #%4zu  %s MPPS\n", i + 1,
                    bench::mpps(sorted[i]).c_str());
    std::printf("  #%4zu  %s MPPS (best observed)\n", sorted.size(),
                bench::mpps(sorted.back()).c_str());

    bench::section("(b) sample mean excess plot e_n(u), upper half");
    const auto plot = me.upperPlot(0.5);
    const std::size_t step = std::max<std::size_t>(1,
                                                   plot.size() / 24);
    for (std::size_t i = 0; i < plot.size(); i += step)
        std::printf("  u = %s MPPS   e_n(u) = %10.0f PPS\n",
                    bench::mpps(plot[i].first).c_str(),
                    plot[i].second);

    bench::section("threshold selection (<= 5% exceedances)");
    const auto sel = stats::selectThreshold(sample, {});
    std::printf("  selected u = %s MPPS with %zu exceedances "
                "(paper picks ~6.6 MPPS)\n",
                bench::mpps(sel.threshold).c_str(),
                sel.exceedances.size());
    std::printf("  mean-excess tail linearity above u: R^2 = %.4f\n",
                me.tailLinearity(sel.threshold));
    return 0;
}
