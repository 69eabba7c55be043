/**
 * @file
 * WorkerPool tests beyond what its engine users cover: how a throwing
 * task surfaces on the caller, and the size a pool of 0 threads gets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
            pool.run(
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

/**
 * Waits, a bounded while, until `flag` is set, so a test can hold a
 * chunk back until another thread has run one.
 */
void
awaitFlag(const std::atomic<bool> &flag)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
}

TEST(WorkerPool, RunCatchesAThrowOnTheCallingThread)
{
    // Only the caller's chunks throw. run() must not leave while
    // workers still call the task: every chunk has finished by the
    // time the exception reaches the caller.
    WorkerPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    constexpr std::size_t n = 64;
    std::atomic<bool> callerRan{false};
    std::atomic<std::size_t> finished{0};
    bool raised = false;
    try {
        pool.run(n, 1, [&](std::size_t, std::size_t) {
            if (std::this_thread::get_id() == caller) {
                callerRan = true;
                ++finished;
                throw std::runtime_error("caller");
            }
            // Workers hold back until the caller has thrown once.
            awaitFlag(callerRan);
            ++finished;
        });
    } catch (const std::runtime_error &error) {
        raised = true;
        EXPECT_STREQ(error.what(), "caller");
        EXPECT_EQ(finished.load(), n);
    }
    EXPECT_TRUE(raised);
}

TEST(WorkerPool, RunRaisesAWorkersThrowOnTheCaller)
{
    // Only workers' chunks throw: the exception must reach the caller
    // instead of ending the program from a pool thread.
    WorkerPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    constexpr std::size_t n = 64;
    std::atomic<bool> workerRan{false};
    std::atomic<std::size_t> finished{0};
    bool raised = false;
    try {
        pool.run(n, 1, [&](std::size_t, std::size_t) {
            if (std::this_thread::get_id() != caller) {
                workerRan = true;
                ++finished;
                throw std::runtime_error("worker");
            }
            // The caller holds back until a worker has thrown once.
            awaitFlag(workerRan);
            ++finished;
        });
    } catch (const std::runtime_error &error) {
        raised = true;
        EXPECT_STREQ(error.what(), "worker");
        EXPECT_EQ(finished.load(), n);
    }
    EXPECT_TRUE(raised);
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
