/**
 * @file
 * WorkerPool tests beyond what its engine users cover: how a throwing
 * task surfaces on the caller, and the size a pool of 0 threads gets.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/worker_pool.hh"

namespace
{

using statsched::base::WorkerPool;

TEST(WorkerPool, RunRethrowingRaisesTheLowestChunksException)
{
    for (const unsigned threads : {1u, 4u}) {
        WorkerPool pool(threads);
        std::vector<int> done(100, 0);
        std::string raised;
        try {
            pool.runRethrowing(
                100, 10, [&done](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        if (i == 37 || i == 83)
                            throw std::runtime_error(std::to_string(i));
                        done[i] = 1;
                    }
                });
        } catch (const std::runtime_error &error) {
            raised = error.what();
        }
        // The exception a serial loop would meet first, raised on the
        // caller after every chunk has finished.
        EXPECT_EQ(raised, "37") << threads << " thread(s)";
        EXPECT_EQ(done[36], 1);
        EXPECT_EQ(done[37], 0);
        if (threads > 1) {
            // Chunks after the failing one still ran.
            EXPECT_EQ(done[82], 1);
            EXPECT_EQ(done[99], 1);
        }
    }
}

TEST(WorkerPool, DefaultSizeLeavesOneCpuFromThreeUp)
{
    EXPECT_EQ(WorkerPool::defaultThreads(0), 1u);
    EXPECT_EQ(WorkerPool::defaultThreads(1), 1u);
    EXPECT_EQ(WorkerPool::defaultThreads(2), 2u);
    EXPECT_EQ(WorkerPool::defaultThreads(3), 2u);
    EXPECT_EQ(WorkerPool::defaultThreads(4), 3u);
    EXPECT_EQ(WorkerPool::defaultThreads(64), 63u);
    EXPECT_EQ(WorkerPool(0).threads(),
              WorkerPool::defaultThreads(
                  std::thread::hardware_concurrency()));
    EXPECT_EQ(WorkerPool(5).threads(), 5u);
}

} // anonymous namespace
