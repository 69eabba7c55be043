/**
 * @file
 * Random hardware relabeling of an assignment, for tests.
 *
 * Permuting the cores, the pipes within each core and the strands
 * within each pipe maps an assignment to another member of its
 * symmetry class (the classes Table 1 counts), so anything keyed by
 * the class must treat the two alike. batchesWithCopies() builds the
 * batch streams that check it.
 */

#ifndef STATSCHED_TESTS_RELABEL_HH
#define STATSCHED_TESTS_RELABEL_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <utility>
#include <vector>

#include "core/assignment.hh"
#include "core/sampler.hh"
#include "stats/rng.hh"

namespace statsched
{
namespace test
{

/** @return `assignment` under a random core, pipe and strand
 *  permutation drawn from `rng`. */
inline core::Assignment
relabeled(const core::Assignment &assignment, stats::Rng &rng)
{
    const core::Topology &shape = assignment.topology();
    auto shuffled = [&rng](std::uint32_t n) {
        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        for (std::uint32_t i = n; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.uniformInt(i)]);
        return perm;
    };
    const std::vector<std::uint32_t> cores = shuffled(shape.cores);
    std::vector<std::vector<std::uint32_t>> pipes;
    for (std::uint32_t c = 0; c < shape.cores; ++c)
        pipes.push_back(shuffled(shape.pipesPerCore));
    std::vector<std::vector<std::uint32_t>> strands;
    for (std::uint32_t p = 0; p < shape.pipes(); ++p)
        strands.push_back(shuffled(shape.strandsPerPipe));

    std::vector<core::ContextId> mapped;
    mapped.reserve(assignment.size());
    for (const core::ContextId ctx : assignment.contexts()) {
        const std::uint32_t core = shape.coreOf(ctx);
        const std::uint32_t pipe =
            pipes[core][shape.pipeInCore(ctx)];
        const std::uint32_t strand =
            strands[shape.pipeOf(ctx)][shape.strandOf(ctx)];
        mapped.push_back(
            (cores[core] * shape.pipesPerCore + pipe) *
                shape.strandsPerPipe + strand);
    }
    return core::Assignment(shape, std::move(mapped));
}

/**
 * @return twelve batches of 1 to 400 draws from `sampler`. Every other
 *         batch also holds exact and relabeled copies of its own items
 *         and of earlier batches' items, at places drawn from `rng`.
 */
inline std::vector<std::vector<core::Assignment>>
batchesWithCopies(core::RandomAssignmentSampler &sampler, stats::Rng &rng)
{
    std::vector<std::vector<core::Assignment>> stream;
    std::vector<core::Assignment> earlier;
    const std::size_t sizes[] = {1, 5, 64, 200, 3, 120, 400, 17,
                                 250, 90, 2, 300};
    for (std::size_t b = 0; b < std::size(sizes); ++b) {
        std::vector<core::Assignment> batch = sampler.drawSample(sizes[b]);
        const std::size_t drawn = batch.size();
        const std::size_t copies = b % 2 == 0 ? drawn / 3 + 1 : 0;
        for (std::size_t k = 0; k < copies; ++k) {
            const bool from_earlier = k % 2 == 1 && !earlier.empty();
            const core::Assignment &source = from_earlier
                ? earlier[rng.uniformInt(earlier.size())]
                : batch[rng.uniformInt(drawn)];
            const core::Assignment copy =
                k % 3 == 0 ? source : relabeled(source, rng);
            batch.insert(batch.begin() +
                             static_cast<std::ptrdiff_t>(
                                 rng.uniformInt(batch.size() + 1)),
                         copy);
        }
        earlier.insert(earlier.end(), batch.begin(), batch.end());
        stream.push_back(std::move(batch));
    }
    return stream;
}

} // namespace test
} // namespace statsched

#endif // STATSCHED_TESTS_RELABEL_HH
