/**
 * @file
 * RandomAssignmentSampler implementation.
 */

#include "core/sampler.hh"

#include <numeric>
#include <utility>
#include "base/check.hh"

namespace statsched
{
namespace core
{

RandomAssignmentSampler::RandomAssignmentSampler(
    const Topology &topology, std::uint32_t tasks, std::uint64_t seed,
    SamplingMethod method)
    : topology_(topology), tasks_(tasks), rng_(seed), method_(method)
{
    SCHED_REQUIRE(tasks >= 1 && tasks <= topology.contexts(),
                  "workload size out of range");
}

Assignment
RandomAssignmentSampler::draw()
{
    const std::uint32_t v = topology_.contexts();
    std::vector<ContextId> contexts(tasks_);

    if (method_ == SamplingMethod::RejectionPaper) {
        for (;;) {
            ++attempts_;
            // Every task's context is drawn even after a collision, so
            // the RNG advances exactly as the paper's loop does. Up to
            // 64 contexts, an occupancy mask filled while drawing
            // records whether any context came up twice; on a 4-cpu
            // Xeon that made 24-of-64 campaigns ~17% faster end to end
            // than a second pass through isValid(), which wider shapes
            // still take.
            std::uint64_t occupied = 0;
            std::uint64_t repeated = 0;
            for (auto &ctx : contexts) {
                ctx = static_cast<ContextId>(rng_.uniformInt(v));
                const std::uint64_t bit = std::uint64_t{1} << (ctx % 64);
                repeated |= occupied & bit;
                occupied |= bit;
            }
            if (v <= 64 ? repeated == 0
                        : Assignment::isValid(topology_, contexts))
                break;
            // Discard and redraw the whole assignment, exactly as in
            // the paper, preserving uniformity over valid placements.
        }
    } else {
        // Partial Fisher-Yates: a uniformly random ordered T-subset
        // of the V contexts — the same distribution the rejection
        // loop converges to, in O(T) time.
        ++attempts_;
        if (scratch_.size() != v) {
            scratch_.resize(v);
            std::iota(scratch_.begin(), scratch_.end(), 0);
        }
        for (std::uint32_t t = 0; t < tasks_; ++t) {
            const std::uint32_t j = t + static_cast<std::uint32_t>(
                rng_.uniformInt(v - t));
            std::swap(scratch_[t], scratch_[j]);
            contexts[t] = scratch_[t];
        }
    }

    ++produced_;
    return Assignment(topology_, std::move(contexts));
}

std::vector<Assignment>
RandomAssignmentSampler::drawSample(std::size_t n)
{
    std::vector<Assignment> sample;
    sample.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        sample.push_back(draw());
    return sample;
}

} // namespace core
} // namespace statsched
