/**
 * @file
 * Bootstrap confidence intervals for the UPB estimate.
 *
 * An alternative to the paper's profile-likelihood interval: resample
 * the performance sample with replacement, re-run the whole POT
 * estimation on each replicate, and take percentile bounds of the
 * replicated UPB point estimates. Heavier (B full re-fits) but makes
 * no likelihood-curvature assumptions — used by the ablation suite to
 * sanity check the paper's interval construction.
 */

#ifndef STATSCHED_STATS_BOOTSTRAP_HH
#define STATSCHED_STATS_BOOTSTRAP_HH

#include <cstdint>
#include <vector>

#include "stats/pot.hh"

namespace statsched
{
namespace stats
{

/**
 * Result of a bootstrap run.
 */
struct BootstrapInterval
{
    double lower = 0.0;          //!< percentile lower bound
    double upper = 0.0;          //!< percentile upper bound
    double median = 0.0;         //!< median replicate UPB
    std::size_t replicates = 0;  //!< valid replicates used
    std::size_t failed = 0;      //!< replicates with invalid fits
};

/**
 * Percentile-bootstrap confidence interval of the UPB.
 *
 * Each replicate resamples with its own RNG, seeded from a SplitMix
 * stream derived from `seed` before any work is dispatched, so the
 * result is bit-identical for every thread count (including 1): the
 * replicate streams never depend on execution order.
 *
 * @param sample     Raw performance sample.
 * @param options    POT options (confidenceLevel sets the percentile
 *                   coverage).
 * @param replicates Number of bootstrap replicates (>= 50).
 * @param seed       Resampling RNG seed.
 * @param threads    Threads used for the replicate fits, including the
 *                   caller; 0 selects the worker pool's default
 *                   (all cpus but one from three up).
 */
BootstrapInterval
bootstrapUpbInterval(const std::vector<double> &sample,
                     const PotOptions &options, std::size_t replicates,
                     std::uint64_t seed, unsigned threads = 1);

} // namespace stats
} // namespace statsched

#endif // STATSCHED_STATS_BOOTSTRAP_HH
