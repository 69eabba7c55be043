/**
 * @file
 * The iid random-assignment sampler (Section 3.3.2, Step 1 of the
 * paper).
 *
 * "We enumerate the hardware contexts of the processor with integers
 * from 1 to V and for each task in the workload we randomly select an
 * integer from this interval. ... An assignment is not valid if two
 * or more tasks are mapped to the same hardware context. If this is
 * the case, we simply discard the invalid assignment and repeat the
 * whole process."
 *
 * This sampling-with-replacement over the labeled placement space
 * yields independent, identically distributed assignments — the
 * requirement of the EVT analysis.
 *
 * Two equivalent generation methods are provided. RejectionPaper is
 * the literal procedure above; its acceptance probability is
 * V!/(V-T)!/V^T, which collapses for workloads that nearly fill the
 * machine (~1e-11 for 48 of 64 contexts). PartialFisherYates draws a
 * uniformly random ordered T-subset of contexts directly in O(T);
 * conditioning iid uniforms on distinctness yields exactly the
 * uniform distribution over ordered distinct tuples, so the two
 * methods sample the *same* distribution.
 *
 * drawSample() can spread the rejection loop over a worker pool and
 * still return the paper's stream exactly: on a power-of-two context
 * count every try uses a fixed number of RNG outputs, so RNG
 * jump-ahead (stats::Rng::jump) starts each chunk of tries at its own
 * position in the one stream (METHOD.md §2).
 */

#ifndef STATSCHED_CORE_SAMPLER_HH
#define STATSCHED_CORE_SAMPLER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/assignment.hh"
#include "stats/rng.hh"

namespace statsched
{

namespace base
{
class WorkerPool;
} // namespace base

namespace core
{

/** Assignment generation method (identical output distribution). */
enum class SamplingMethod
{
    RejectionPaper,      //!< the paper's discard-and-redraw loop
    PartialFisherYates   //!< O(T) partial shuffle
};

/**
 * Draws iid uniform random task assignments.
 */
class RandomAssignmentSampler
{
  public:
    /**
     * @param topology Target processor shape.
     * @param tasks    Workload size; 1 <= tasks <= contexts().
     * @param seed     RNG seed (deterministic streams).
     * @param method   Generation method; defaults to the paper's
     *                 rejection loop, which is practical while the
     *                 workload uses at most ~2/3 of the contexts.
     */
    RandomAssignmentSampler(
        const Topology &topology, std::uint32_t tasks,
        std::uint64_t seed,
        SamplingMethod method = SamplingMethod::RejectionPaper);

    /** @return one iid random assignment. */
    Assignment draw();

    /**
     * @return a sample of n iid random assignments: the assignments n
     *         calls to draw() would return, in the same order, with
     *         the same attempts() and generator state afterwards.
     *
     * @param pool Optional worker pool; not owned. The rejection
     *             loop runs on it, in chunks of tries, when the pool
     *             has more than one thread, the context count is a
     *             power of two and the request expects at least two
     *             chunks per thread; otherwise the draws are serial.
     */
    std::vector<Assignment> drawSample(std::size_t n,
                                       base::WorkerPool *pool = nullptr);

    /**
     * Total draws attempted so far, including the discarded invalid
     * ones — exposes the rejection rate of the paper's procedure
     * (always equals produced() under PartialFisherYates).
     */
    std::uint64_t attempts() const { return attempts_; }

    /** Valid assignments produced so far. */
    std::uint64_t produced() const { return produced_; }

    /** @return the generation method in use. */
    SamplingMethod method() const { return method_; }

  private:
    /** @return the mean number of rejection tries per accepted draw,
     *  V^T (V-T)! / V!. */
    double expectedTriesPerDraw() const;

    /** @return true when drawSample(n, pool) draws on the pool. */
    bool drawsOnPool(std::size_t n, const base::WorkerPool &pool) const;

    /** @return n draws made on the pool. */
    std::vector<Assignment> drawOnPool(std::size_t n,
                                       base::WorkerPool &pool);

    Topology topology_;
    std::uint32_t tasks_;
    stats::Rng rng_;
    SamplingMethod method_;
    /** Scratch permutation for the Fisher-Yates method. */
    std::vector<ContextId> scratch_;
    /** Jump over one chunk of tries; built on the first parallel
     *  request, never in the constructor. */
    std::optional<stats::Rng::Polynomial> chunkJump_;
    std::uint64_t attempts_ = 0;
    std::uint64_t produced_ = 0;
};

} // namespace core
} // namespace statsched

#endif // STATSCHED_CORE_SAMPLER_HH
