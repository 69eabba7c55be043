/**
 * @file
 * Assignment representation tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/assignment.hh"
#include "core/enumerator.hh"
#include "core/journal.hh"
#include "core/sampler.hh"
#include "relabel.hh"
#include "stats/rng.hh"

namespace
{

using namespace statsched::core;
using statsched::stats::Rng;

const Topology t2 = Topology::ultraSparcT2();

/**
 * Reference canonical key: one string per pipe and per core, sorted
 * as strings. canonicalKey() must reproduce its bytes exactly, since
 * journals store a hash of them.
 */
std::string
oracleCanonicalKey(const Assignment &assignment)
{
    const Topology &topology = assignment.topology();
    const auto by_pipe = assignment.tasksByPipe();
    std::vector<std::string> core_keys;
    for (std::uint32_t c = 0; c < topology.cores; ++c) {
        std::vector<std::string> pipe_keys;
        bool core_empty = true;
        for (std::uint32_t p = 0; p < topology.pipesPerCore; ++p) {
            const auto &tasks = by_pipe[c * topology.pipesPerCore + p];
            std::vector<TaskId> sorted(tasks);
            std::sort(sorted.begin(), sorted.end());
            std::string key = "[";
            for (TaskId t : sorted)
                key += std::to_string(t) + ",";
            key += "]";
            core_empty = core_empty && tasks.empty();
            pipe_keys.push_back(std::move(key));
        }
        if (core_empty)
            continue;
        std::sort(pipe_keys.begin(), pipe_keys.end());
        std::string core_key = "{";
        for (const auto &pk : pipe_keys)
            core_key += pk;
        core_keys.push_back(core_key + "}");
    }
    std::sort(core_keys.begin(), core_keys.end());
    std::string key;
    for (const auto &ck : core_keys)
        key += ck;
    return key;
}

TEST(Assignment, ValidityChecks)
{
    EXPECT_TRUE(Assignment::isValid(t2, {0, 1, 2}));
    EXPECT_TRUE(Assignment::isValid(t2, {63, 0, 31}));
    // Duplicate context.
    EXPECT_FALSE(Assignment::isValid(t2, {5, 5}));
    EXPECT_FALSE(Assignment::isValid(t2, {63, 0, 63}));
    // Out of range.
    EXPECT_FALSE(Assignment::isValid(t2, {64}));
    EXPECT_FALSE(Assignment::isValid(t2, {0, 64}));

    // Every context of the T2 taken, in a scrambled order.
    std::vector<ContextId> full(64);
    std::iota(full.begin(), full.end(), 0u);
    std::reverse(full.begin() + 10, full.end());
    EXPECT_TRUE(Assignment::isValid(t2, full));
    full[40] = full[3];
    EXPECT_FALSE(Assignment::isValid(t2, full));

    // 128 contexts: past one 64-bit word.
    const Topology wide{16, 4, 2};
    EXPECT_TRUE(Assignment::isValid(wide, {127, 0, 64, 63}));
    EXPECT_FALSE(Assignment::isValid(wide, {128}));
    EXPECT_FALSE(Assignment::isValid(wide, {5, 100, 100}));
    EXPECT_FALSE(Assignment::isValid(wide, {36, 100, 36}));
}

TEST(Assignment, AccessorsAndGrouping)
{
    // Task 0 -> ctx 0 (core 0, pipe 0); task 1 -> ctx 4 (core 0,
    // pipe 1); task 2 -> ctx 8 (core 1, pipe 2).
    const Assignment a(t2, {0, 4, 8});
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.contextOf(0), 0u);
    EXPECT_EQ(a.coreOf(0), 0u);
    EXPECT_EQ(a.coreOf(1), 0u);
    EXPECT_EQ(a.coreOf(2), 1u);
    EXPECT_EQ(a.pipeOf(1), 1u);

    const auto by_pipe = a.tasksByPipe();
    ASSERT_EQ(by_pipe.size(), 16u);
    EXPECT_EQ(by_pipe[0], (std::vector<TaskId>{0}));
    EXPECT_EQ(by_pipe[1], (std::vector<TaskId>{1}));
    EXPECT_EQ(by_pipe[2], (std::vector<TaskId>{2}));

    const auto by_core = a.tasksByCore();
    ASSERT_EQ(by_core.size(), 8u);
    EXPECT_EQ(by_core[0], (std::vector<TaskId>{0, 1}));
    EXPECT_EQ(by_core[1], (std::vector<TaskId>{2}));
}

TEST(Assignment, PaperStyleToString)
{
    // {[a][]}{[bc][]} from Section 2 of the paper: a alone on one
    // core, b and c inside one pipe of another core.
    const Assignment a(t2, {0, 8, 9});
    EXPECT_EQ(a.toString(), "{[t0][]}{[t1 t2][]}");
}

TEST(Assignment, CanonicalKeyInvariantUnderCorePermutation)
{
    // Same structure placed on different physical cores.
    const Assignment a(t2, {0, 8, 9});
    const Assignment b(t2, {56, 16, 17});   // cores 7 and 2
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(Assignment, CanonicalKeyInvariantUnderPipeSwap)
{
    // b, c in pipe 0 of core 1 vs pipe 1 of core 1.
    const Assignment a(t2, {0, 8, 9});
    const Assignment b(t2, {0, 12, 13});
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(Assignment, CanonicalKeyInvariantUnderStrandShuffle)
{
    const Assignment a(t2, {0, 1, 2});
    const Assignment b(t2, {3, 0, 1});
    // Same pipe, different strands and order: same multiset per
    // pipe... but tasks map to different strands, which is
    // irrelevant. Keys must match because the task sets per pipe
    // are equal.
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());
}

TEST(Assignment, CanonicalKeyDistinguishesStructures)
{
    // Tasks together in one pipe vs split across pipes of one core.
    const Assignment together(t2, {0, 1});
    const Assignment split(t2, {0, 4});
    const Assignment cross_core(t2, {0, 8});
    EXPECT_NE(together.canonicalKey(), split.canonicalKey());
    EXPECT_NE(split.canonicalKey(), cross_core.canonicalKey());
    EXPECT_NE(together.canonicalKey(), cross_core.canonicalKey());
}

TEST(Assignment, CanonicalKeyDistinguishesTaskIdentity)
{
    // Task identity matters (heterogeneous tasks): {t0}{t1 t2} is
    // not {t1}{t0 t2}.
    const Assignment a(t2, {0, 8, 9});
    const Assignment b(t2, {8, 0, 9});
    EXPECT_NE(a.canonicalKey(), b.canonicalKey());
}

TEST(Assignment, CanonicalKeyBytesArePinned)
{
    EXPECT_EQ(Assignment(t2, {0, 8, 9}).canonicalKey(),
              "{[0,][]}{[1,2,][]}");
    // Both pipes of a core occupied: pipe keys sort as strings, so
    // "[0,2,]" (pipe 1) precedes "[1,]" (pipe 0).
    EXPECT_EQ(Assignment(t2, {4, 0, 5}).canonicalKey(),
              "{[0,2,][1,]}");
    // Task ids of two digits sort as strings too: "{[10,]...}"
    // before "{[2,]...}".
    const Assignment wide_ids(
        t2, {0, 1, 48, 2, 3, 8, 9, 10, 12, 13, 56, 16});
    EXPECT_EQ(wide_ids.canonicalKey(),
              "{[0,1,3,4,][]}{[10,][]}{[11,][]}{[2,][]}"
              "{[5,6,7,][8,9,]}");
    EXPECT_EQ(Assignment(Topology{16, 4, 2}, {127, 0, 64, 2})
                  .canonicalKey(),
              "{[0,][][][]}{[1,][3,][][]}{[2,][][][]}");
}

TEST(Assignment, JournalKeyHashIsPinned)
{
    // Journals store this hash; a journal written by any earlier
    // build resumes only if it stays put.
    EXPECT_EQ(journalKeyHash(Assignment(t2, {0, 8, 9})),
              0x9886527930cfca36ull);
    EXPECT_EQ(journalKeyHash(Assignment(
                  t2, {0, 1, 48, 2, 3, 8, 9, 10, 12, 13, 56, 16})),
              0xa24ebb07aaae6bdfull);
}

TEST(Assignment, CanonicalKeyMatchesOracle)
{
    // The ShapeSweep shapes, at loads from one task to a full machine.
    const Topology shapes[] = {{1, 1, 4}, {2, 1, 2}, {2, 2, 2},
                               {4, 2, 4}, {8, 2, 4}, {8, 1, 8},
                               {3, 3, 3}, {16, 4, 2}};
    for (const Topology &shape : shapes) {
        const std::uint32_t v = shape.contexts();
        for (const std::uint32_t tasks :
             {1u, std::max(1u, v / 4), std::max(1u, v / 2), v}) {
            RandomAssignmentSampler sampler(
                shape, tasks, 11 + tasks,
                SamplingMethod::PartialFisherYates);
            for (int i = 0; i < 2500; ++i) {
                const Assignment a = sampler.draw();
                ASSERT_EQ(a.canonicalKey(), oracleCanonicalKey(a))
                    << shape.shapeString() << " " << a.toString();
            }
        }
    }
}

TEST(Assignment, RandomizedCanonicalInvariance)
{
    // Apply random hardware symmetries (core, pipe and strand
    // permutations) to a random assignment; the key never changes.
    Rng rng(77);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<ContextId> ctx;
        while (ctx.size() < 10) {
            const ContextId c =
                static_cast<ContextId>(rng.uniformInt(64));
            bool dup = false;
            for (ContextId e : ctx)
                dup |= (e == c);
            if (!dup)
                ctx.push_back(c);
        }
        const Assignment base(t2, ctx);
        const Assignment permuted = statsched::test::relabeled(base, rng);
        EXPECT_EQ(base.canonicalKey(), permuted.canonicalKey());
    }
}

/**
 * Feeds assignments of one shape through canonicalKey() and the
 * packed form, and checks that the two induce the same partition:
 * each string maps to one packed key, and no packed key serves two
 * strings.
 */
class PartitionCheck
{
  public:
    explicit PartitionCheck(const PackedCanonicalForm &form)
        : form_(form)
    {
    }

    void
    add(const Assignment &assignment)
    {
        std::vector<std::uint64_t> key(form_.words());
        form_.pack(assignment, key.data());
        const auto [known, fresh] =
            byString_.try_emplace(assignment.canonicalKey(), key);
        ASSERT_EQ(known->second, key) << assignment.toString();
        if (fresh)
            packed_.insert(std::move(key));
        else
            ++repeats_;
        ASSERT_EQ(packed_.size(), byString_.size())
            << "two classes share a packed key, the latest being "
            << assignment.toString();
    }

    /** @return distinct classes seen. */
    std::size_t classes() const { return byString_.size(); }

    /** @return additions whose class was already seen. */
    std::size_t repeats() const { return repeats_; }

  private:
    const PackedCanonicalForm &form_;
    std::map<std::string, std::vector<std::uint64_t>> byString_;
    std::set<std::vector<std::uint64_t>> packed_;
    std::size_t repeats_ = 0;
};

TEST(Assignment, PackedFormLayout)
{
    // 16 pipes take 4 bits a task on the T2: 16 tasks a word.
    EXPECT_EQ(PackedCanonicalForm(t2, 12).words(), 1u);
    EXPECT_EQ(PackedCanonicalForm(t2, 16).words(), 1u);
    EXPECT_EQ(PackedCanonicalForm(t2, 24).words(), 2u);
    EXPECT_EQ(PackedCanonicalForm(t2, 64).words(), 4u);
    // 64 pipes take 6 bits: 10 whole tasks a word.
    EXPECT_EQ(PackedCanonicalForm(Topology{16, 4, 2}, 80).words(), 8u);
    EXPECT_EQ(PackedCanonicalForm(Topology{1, 1, 4}, 4).words(), 1u);

    // First-appearance labels: task 0 opens core 0 pipe 0 (label 0),
    // task 1 a second pipe there (1), task 2 a second core (2).
    const PackedCanonicalForm form(t2, 3);
    std::uint64_t word = ~std::uint64_t{0};
    form.pack(Assignment(t2, {60, 56, 0}), &word);
    EXPECT_EQ(word, 0x210u);
    form.pack(Assignment(t2, {0, 4, 8}), &word);
    EXPECT_EQ(word, 0x210u);
    EXPECT_THROW(form.pack(Assignment(t2, {0, 4}), &word),
                 statsched::ContractViolation);

    // A full chip, task t on context t: task t gets canonical pipe
    // t / 4, and each word holds 16 tasks, the first in its low bits.
    std::vector<ContextId> identity(64);
    std::iota(identity.begin(), identity.end(), 0u);
    const PackedCanonicalForm full(t2, 64);
    std::vector<std::uint64_t> words(full.words());
    full.pack(Assignment(t2, identity), words.data());
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t expected = 0;
        for (std::uint64_t i = 0; i < 16; ++i)
            expected |= ((16 * w + i) / 4) << (4 * i);
        EXPECT_EQ(words[w], expected) << "word " << w;
    }
}

TEST(Assignment, PackedFormPartitionsEveryEnumeratedClass)
{
    // One representative per class, and two relabeled copies of it:
    // the packed keys must tell every class apart and give each copy
    // its class's key.
    Rng rng(5);
    const std::pair<Topology, std::uint32_t> shapes[] = {
        {t2, 4}, {Topology{4, 2, 2}, 6}, {Topology{3, 3, 2}, 6}};
    for (const auto &[shape, tasks] : shapes) {
        SCOPED_TRACE(shape.shapeString() + " x" + std::to_string(tasks));
        const PackedCanonicalForm form(shape, tasks);
        PartitionCheck check(form);
        const std::uint64_t count = AssignmentEnumerator(shape, tasks)
            .forEach([&](const Assignment &a) {
                check.add(a);
                check.add(statsched::test::relabeled(a, rng));
                check.add(statsched::test::relabeled(a, rng));
                return !::testing::Test::HasFatalFailure();
            });
        ASSERT_FALSE(::testing::Test::HasFatalFailure());
        EXPECT_GT(count, 10u);
        EXPECT_EQ(check.classes(), count);
        EXPECT_EQ(check.repeats(), 2 * count);
    }
}

TEST(Assignment, PackedFormPartitionsRandomDraws)
{
    // 50,000 draws per shape, a relabeled copy of every fifth, at
    // the loads the campaigns run and past 64 contexts and 64 tasks.
    Rng rng(9);
    const std::pair<Topology, std::uint32_t> shapes[] = {
        {t2, 9}, {t2, 12}, {t2, 24}, {Topology{16, 4, 2}, 80}};
    for (const auto &[shape, tasks] : shapes) {
        SCOPED_TRACE(shape.shapeString() + " x" + std::to_string(tasks));
        const PackedCanonicalForm form(shape, tasks);
        PartitionCheck check(form);
        RandomAssignmentSampler sampler(
            shape, tasks, 100 + tasks,
            SamplingMethod::PartialFisherYates);
        for (int i = 0; i < 50000; ++i) {
            const Assignment a = sampler.draw();
            ASSERT_NO_FATAL_FAILURE(check.add(a));
            if (i % 5 == 0) {
                ASSERT_NO_FATAL_FAILURE(
                    check.add(statsched::test::relabeled(a, rng)));
            }
        }
        EXPECT_GE(check.repeats(), 10000u);
    }
}

} // anonymous namespace
