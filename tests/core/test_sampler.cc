/**
 * @file
 * Random-assignment sampler tests (the paper's Step 1 procedure).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/worker_pool.hh"
#include "core/assignment_space.hh"
#include "core/enumerator.hh"
#include "core/sampler.hh"

namespace
{

using namespace statsched::core;

const Topology t2 = Topology::ultraSparcT2();

/** FNV-1a over every context of the assignments, in order. */
std::uint64_t
digest(const std::vector<Assignment> &draws)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Assignment &a : draws) {
        for (const ContextId ctx : a.contexts()) {
            h ^= ctx;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** digest() of the sampler's next n draws. */
std::uint64_t
streamDigest(RandomAssignmentSampler &sampler, int n)
{
    std::vector<Assignment> draws;
    for (int i = 0; i < n; ++i)
        draws.push_back(sampler.draw());
    return digest(draws);
}

TEST(Sampler, ProducesValidAssignments)
{
    RandomAssignmentSampler sampler(t2, 24, 1);
    for (int i = 0; i < 200; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_EQ(a.size(), 24u);
        EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
    }
    EXPECT_EQ(sampler.produced(), 200u);
    // Collisions force redraws for 24 tasks on 64 contexts.
    EXPECT_GT(sampler.attempts(), sampler.produced());
}

TEST(Sampler, DeterministicBySeed)
{
    RandomAssignmentSampler a(t2, 10, 42);
    RandomAssignmentSampler b(t2, 10, 42);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.draw().contexts(), b.draw().contexts());
}

TEST(Sampler, DifferentSeedsDiffer)
{
    RandomAssignmentSampler a(t2, 10, 1);
    RandomAssignmentSampler b(t2, 10, 2);
    int distinct = 0;
    for (int i = 0; i < 20; ++i) {
        if (a.draw().contexts() != b.draw().contexts())
            ++distinct;
    }
    EXPECT_GE(distinct, 19);
}

TEST(Sampler, DrawSampleBatches)
{
    RandomAssignmentSampler sampler(t2, 6, 9);
    const auto sample = sampler.drawSample(100);
    EXPECT_EQ(sample.size(), 100u);
}

TEST(Sampler, FullMachineStillTerminates)
{
    // 4 tasks on a 4-context machine: only permutations are valid,
    // acceptance 4!/4^4 = 9.4%, rejection loop must still finish.
    const Topology tiny{1, 2, 2};
    RandomAssignmentSampler sampler(tiny, 4, 3);
    for (int i = 0; i < 100; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_TRUE(Assignment::isValid(tiny, a.contexts()));
    }
}

TEST(Sampler, UniformOverLabeledPlacements)
{
    // On a tiny machine every labeled placement should appear with
    // equal frequency: chi-squared over all 4*3=12 ordered pairs.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler sampler(tiny, 2, 7);
    std::map<std::pair<ContextId, ContextId>, int> counts;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const Assignment a = sampler.draw();
        ++counts[{a.contextOf(0), a.contextOf(1)}];
    }
    ASSERT_EQ(counts.size(), 12u);
    const double expected = n / 12.0;
    double chi2 = 0.0;
    for (const auto &[key, c] : counts)
        chi2 += (c - expected) * (c - expected) / expected;
    // 99.9% quantile of chi2 with 11 df = 31.26.
    EXPECT_LT(chi2, 31.26);
}

TEST(Sampler, ClassFrequencyProportionalToLabelings)
{
    // Canonical classes are hit proportionally to their labeled
    // multiplicity: on 2 cores x 1 pipe x 2 strands with 2 tasks,
    // "together" has 2 cores x 2 orders = 4 labelings... both
    // classes actually have equal labelings (4 and 8): together =
    // 2 cores x 2 strand orders = 4; split = 2x2 contexts x ... = 8.
    // Expected ratio split:together = 2:1.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler sampler(tiny, 2, 8);
    int together = 0;
    int split = 0;
    for (int i = 0; i < 30000; ++i) {
        const Assignment a = sampler.draw();
        if (a.coreOf(0) == a.coreOf(1))
            ++together;
        else
            ++split;
    }
    const double ratio = static_cast<double>(split) / together;
    EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(Sampler, RejectionStreamIsPinned)
{
    // Journals, goldens and every seeded result depend on the exact
    // draw stream and on the RNG calls behind it, rejected tries
    // included: any rewrite of the loop must reproduce these values.
    struct Case
    {
        Topology topology;
        std::uint32_t tasks;
        std::uint64_t seed;
        std::uint64_t digest;
        std::uint64_t attempts;
    };
    const Case cases[] = {
        {t2, 24, 7, 0xb607ef133d12ad52ull, 436668},
        {t2, 12, 1, 0x6d9d9e7bfff95dfaull, 9271},
        // 128 contexts: more than one 64-bit word of occupancy.
        {Topology{16, 4, 2}, 32, 3, 0x8b1556b97235db82ull, 212686},
        // 48 contexts: not a power of two, so uniformInt() may redraw
        // and drawSample() keeps to the serial loop on any pool.
        {Topology{6, 2, 4}, 20, 5, 0xb84ad90c0bc720ceull, 306390},
    };
    for (const Case &c : cases) {
        RandomAssignmentSampler sampler(c.topology, c.tasks, c.seed);
        EXPECT_EQ(streamDigest(sampler, 3000), c.digest)
            << c.topology.shapeString() << " tasks=" << c.tasks;
        EXPECT_EQ(sampler.attempts(), c.attempts)
            << c.topology.shapeString() << " tasks=" << c.tasks;
        EXPECT_EQ(sampler.produced(), 3000u);
    }

    // The same streams drawn through pools, with serial draws in
    // between: the parallel rejection loop (power-of-two context
    // counts, large enough requests) must hand over the exact
    // generator state and attempt count at each seam.
    for (const unsigned threads : {1u, 2u, 4u, 16u}) {
        statsched::base::WorkerPool pool(threads);
        for (const Case &c : cases) {
            RandomAssignmentSampler sampler(c.topology, c.tasks,
                                            c.seed);
            std::vector<Assignment> draws =
                sampler.drawSample(1000, &pool);
            for (int i = 0; i < 7; ++i)
                draws.push_back(sampler.draw());
            for (Assignment &a : sampler.drawSample(1993, &pool))
                draws.push_back(std::move(a));
            EXPECT_EQ(digest(draws), c.digest)
                << c.topology.shapeString() << " tasks=" << c.tasks
                << " threads=" << threads;
            EXPECT_EQ(sampler.attempts(), c.attempts)
                << c.topology.shapeString() << " tasks=" << c.tasks
                << " threads=" << threads;
            EXPECT_EQ(sampler.produced(), 3000u);
        }
    }
}

TEST(Sampler, FisherYatesStreamIsPinned)
{
    RandomAssignmentSampler sampler(t2, 48, 13,
                                    SamplingMethod::PartialFisherYates);
    EXPECT_EQ(streamDigest(sampler, 3000), 0xa03806ef88d45e53ull);
    EXPECT_EQ(sampler.attempts(), 3000u);
}

TEST(Sampler, FisherYatesProducesValidAssignments)
{
    RandomAssignmentSampler sampler(t2, 48, 13,
                                    SamplingMethod::PartialFisherYates);
    for (int i = 0; i < 100; ++i) {
        const Assignment a = sampler.draw();
        EXPECT_EQ(a.size(), 48u);
        EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
    }
    // No rejection loop: one attempt per draw.
    EXPECT_EQ(sampler.attempts(), sampler.produced());
}

TEST(Sampler, FisherYatesMatchesRejectionDistribution)
{
    // Both methods are uniform over labeled placements: compare the
    // together/split core statistic on the tiny topology.
    const Topology tiny{2, 1, 2};
    RandomAssignmentSampler fy(tiny, 2, 21,
                               SamplingMethod::PartialFisherYates);
    int together = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        const Assignment a = fy.draw();
        together += (a.coreOf(0) == a.coreOf(1)) ? 1 : 0;
    }
    // P(same core) = 1/3 under the uniform labeled distribution.
    EXPECT_NEAR(static_cast<double>(together) / n, 1.0 / 3.0, 0.01);
}

TEST(Sampler, FisherYatesHandlesFullMachine)
{
    RandomAssignmentSampler sampler(t2, 64, 14,
                                    SamplingMethod::PartialFisherYates);
    const Assignment a = sampler.draw();
    EXPECT_TRUE(Assignment::isValid(t2, a.contexts()));
}

} // anonymous namespace
