/**
 * @file
 * Random hardware relabeling of an assignment, for tests.
 *
 * Permuting the cores, the pipes within each core and the strands
 * within each pipe maps an assignment to another member of its
 * symmetry class (the classes Table 1 counts), so anything keyed by
 * the class must treat the two alike.
 */

#ifndef STATSCHED_TESTS_RELABEL_HH
#define STATSCHED_TESTS_RELABEL_HH

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "core/assignment.hh"
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

} // namespace test
} // namespace statsched

#endif // STATSCHED_TESTS_RELABEL_HH
