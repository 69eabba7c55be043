/**
 * @file
 * Ablation A1: sensitivity of the UPB estimate to the exceedance
 * fraction. The paper fixes the cap at 5% of the sample (citing
 * Gilli & Kellezi); this sweep shows how the point estimate and CI
 * behave from 1% to 10%, plus the LinearityScan alternative.
 */

#include <cmath>
#include <cstdio>

#include "bench/harness.hh"
#include "core/sampler.hh"
#include "sim/benchmarks.hh"
#include "sim/engine.hh"
#include "stats/mean_excess.hh"
#include "stats/pot.hh"

int
main()
{
    using namespace statsched;
    using namespace statsched::sim;
    using core::Topology;

    bench::banner("Ablation A1",
                  "threshold (exceedance fraction) sensitivity, "
                  "IPFwd-L1 24 threads, n = 5000");

    const Topology t2 = Topology::ultraSparcT2();
    SimulatedEngine engine(makeWorkload(Benchmark::IpfwdL1, 8));
    core::RandomAssignmentSampler sampler(t2, 24, 1001);
    std::vector<double> sample;
    for (int i = 0; i < 5000; ++i)
        sample.push_back(engine.measure(sampler.draw()));

    // The fixed-fraction selection does not compute the tail R^2; read
    // it off the sample's mean-excess function at each threshold.
    const stats::MeanExcess me(sample);
    std::printf("%-12s %8s %10s %12s %12s %12s %8s\n", "fraction",
                "m", "xi-hat", "UPB (MPPS)", "CI lo", "CI hi",
                "tail R^2");
    for (double fraction : {0.01, 0.02, 0.03, 0.05, 0.075, 0.10}) {
        stats::PotOptions options;
        options.threshold.maxExceedanceFraction = fraction;
        const auto est =
            stats::estimateOptimalPerformance(sample, options);
        std::printf("%-12s %8zu %10.3f %12s %12s %12s %8.3f\n",
                    bench::pct(fraction).c_str(),
                    est.exceedanceCount, est.fit.xi,
                    est.valid ? bench::mpps(est.upb).c_str()
                              : "invalid",
                    bench::mpps(est.upbLower).c_str(),
                    std::isfinite(est.upbUpper)
                        ? bench::mpps(est.upbUpper).c_str()
                        : "unbounded",
                    me.tailLinearity(est.threshold));
    }

    bench::section("LinearityScan policy (automated "
                   "Gilli-Kellezi selection)");
    stats::PotOptions scan;
    scan.threshold.policy = stats::ThresholdPolicy::LinearityScan;
    const auto est = stats::estimateOptimalPerformance(sample, scan);
    std::printf("  picked m = %zu, u = %s MPPS, UPB = %s MPPS, "
                "tail R^2 = %.3f\n",
                est.exceedanceCount,
                bench::mpps(est.threshold).c_str(),
                bench::mpps(est.upb).c_str(), est.tailLinearity);
    return 0;
}
